#!/usr/bin/env python3
"""Record the benchmark's golden outputs from the current source tree.

    python3 perfbench/record_golden.py [workload ...]

Writes `perfbench/golden/<workload>.json`.  Run it only on a commit whose
outputs are trusted (the goldens here come from the commit that added the
benchmark); the benchmark counts every later difference as a failed
operation.

For the ladder it is also the picker: for each rung it draws a pool of
up to `POOL_SIZE` distinct (C, D) instances (one on the top rung), each
with C strictly larger than D, both admissible and with a rigid mutation,
from seeds fixed per rung and pool index.  A pool ends early when the
generator finds no new instance in `MAX_DRAWS` draws: A6/rad^3 has only
five.  Picking calls `ext1_dim` and `satisfies_rcp`, so it
happens here, never in the timed process, which receives only the rung
and the names.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

POOL_SIZE = 8
# The top rung's certificate is the workload's slowest operation.  Its
# instances differ in cost by up to 1.6x, which made slowest_op_s spread
# by a quarter across seeds, so that rung keeps only its first instance.
TOP_RUNG_POOL_SIZE = 1
MAX_DRAWS = 5000


def pick(atlas, n: int, k: int, index: int, seen: set):
    """Draw an instance `(c, d)` that is not in `seen` yet, or None."""
    import numpy as np

    from quiverhearts import cotorsion, fixtures, mutation
    from quiverhearts.algebra import AlgebraError

    rng = np.random.default_rng([n, k, index])
    for _ in range(MAX_DRAWS):
        c, d = fixtures.random_mutation_instance(atlas, rng)
        if c.names == d.names or (c.names, d.names) in seen:
            continue
        inp = mutation.MutationInput(atlas, c, d)
        try:
            inp.validate()
        except AlgebraError:
            continue
        cmut = mutation.right_mutation(inp)
        if cotorsion.is_rigid(cmut) and cotorsion.satisfies_rcp(cmut)[0]:
            return list(c.names), list(d.names)
    return None


def record_ladder() -> dict:
    import nakayama

    rungs = []
    for n, k in workloads.LADDER_RUNGS:
        atlas = nakayama.atlas(n, k)
        pool, seen = [], set()
        top = (n, k) == workloads.LADDER_RUNGS[-1]
        for index in range(TOP_RUNG_POOL_SIZE if top else POOL_SIZE):
            found = pick(atlas, n, k, index, seen)
            if found is None:
                break
            c, d = found
            seen.add((tuple(c), tuple(d)))
            inst = {"n": n, "k": k, "pool_index": index, "c": c, "d": d}
            ((_, run),) = workloads.setup("nakayama-ladder", {"instances": [inst]}, None)
            output = run()
            if not output["ok"]:
                raise RuntimeError(f"A{n}/rad^{k} instance {index} did not certify")
            pool.append({"c": c, "d": d, "output": output})
            print(f"A{n}/rad^{k} #{index}: |C|={len(c)} |D|={len(d)}", file=sys.stderr)
        rungs.append({"n": n, "k": k, "pool": pool})
    return {"rungs": rungs}


def record_ops(workload: str) -> dict:
    scratch = HERE.parent / ".perfbench_out" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.setup(workload, {}, scratch)
        outputs = {name: run() for name, run in ops}
    finally:
        shutil.rmtree(scratch)
    bad = [name for name, out in outputs.items() if not workloads.check(workload, out, out)]
    bad += [name for name, out in outputs.items() if "error" in out]
    if bad:
        raise RuntimeError(f"{workload}: refusing to record failing operations {bad}")
    return {"ops": outputs}


def main(names) -> int:
    for workload in names or workloads.NAMES:
        if workload not in workloads.NAMES:
            print(f"unknown workload {workload}; expected one of {workloads.NAMES}",
                  file=sys.stderr)
            return 2
        golden = record_ladder() if workload == "nakayama-ladder" else record_ops(workload)
        path = workloads.GOLDEN_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
