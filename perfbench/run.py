#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a closed loop: one
single-threaded process runs the workload's operations one after another.
A run repeats that pass, each time in a fresh worker process (the engine's
module caches are never freed, so a second pass in the same process would
measure warm caches and a growing heap), for about `--seconds`, with at
least `MIN_PASSES` passes.  Every operation's output is checked against
the golden output recorded when the benchmark was added.

With `--trace 0` it prints the end-to-end metrics:
  setup_s       median over passes of process start -> inputs built
  wall_s        one pass's wall time: sum over operations of each one's median
  cpu_s         the same in process CPU time
  slowest_op_s  the largest per-operation median wall time
  peak_rss_mb   median over passes of the worker's peak resident memory
Every time is scaled to the reference host speed by `speed.Sampler`,
which probes the host throughout each worker; the raw times go to the
record.
With `--trace 1` passes alternate untraced and traced, with at least two
of each, and it prints the per-layer metrics of the traced passes (times
are medians, call counts must repeat exactly) plus the tracing overhead
between the two kinds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a fuller record, with the
environment, goes to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (needs HERE on the path; imports no engine code)

MIN_PASSES = 2
SETUP_PROBES = 5  # extra set-up-only processes per run, for a steadier setup_s
MAX_PASSES = 50
RUN_LIMIT_S = 170  # the whole run, so it exits within 180 s

# One thread for numpy and any BLAS it loads, a fixed string hash order so
# that call counts repeat, and no stray user site-packages.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_head(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
    }


def _git_head() -> str | None:
    """The commit, read from `.git` without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def golden_outputs(workload: str, golden: dict, spec: dict) -> dict:
    if workload == "nakayama-ladder":
        pools = {(r["n"], r["k"]): r["pool"] for r in golden["rungs"]}
        return {
            workloads.ladder_op_name(inst): pools[inst["n"], inst["k"]][inst["pool_index"]]["output"]
            for inst in spec["instances"]
        }
    return golden["ops"]


def run_pass(workload, spec, traced, scratch: Path, deadline: float, setup_only=False) -> dict:
    req, res = scratch / "request.json", scratch / "result.json"
    res.unlink(missing_ok=True)
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)
    spawned_at = time.perf_counter()
    req.write_text(json.dumps({"workload": workload, "spec": spec, "trace": traced,
                               "setup_only": setup_only, "scratch": str(scratch),
                               "spawned_at": spawned_at}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(req), str(res)],
                              env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"a {workload} pass did not finish within the run limit") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(res.read_text())


def summarise(passes: list[dict], probes: list[dict]) -> dict:
    names = [op["name"] for op in passes[0]["ops"]]
    wall = {n: statistics.median(p["ops"][i]["wall_s"] for p in passes) for i, n in enumerate(names)}
    cpu = {n: statistics.median(p["ops"][i]["cpu_s"] for p in passes) for i, n in enumerate(names)}
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes + probes),
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "slowest_op_s": max(wall.values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in passes + probes),
        "raw_wall_s": sum(statistics.median(p["ops"][i]["raw_wall_s"] for p in passes)
                          for i in range(len(names))),
        "op_wall_s": wall,
        "pass_op_wall_s": [[op["wall_s"] for op in p["ops"]] for p in passes],
    }


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}


def per_layer(workload: str, traced: list[dict], plain: dict, with_trace: dict) -> dict:
    import tracer

    first = traced[0]
    for p in traced[1:]:
        if p["counts"] != first["counts"]:
            diff = sorted(k for k in first["counts"] if p["counts"].get(k) != first["counts"][k])
            raise BenchError(f"call counts differ between traced passes: {diff[:10]}")
    missing = [n for n in workloads.REQUIRED_SPANS[workload] if not first["counts"].get(n)]
    if missing:
        raise BenchError(f"{workload}: traced targets never called: {missing}")
    units = tracer.metric_units()
    metrics = {}
    for name, unit in units.items():
        values = [p["per_layer"][name] for p in traced]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) != 1:
            raise BenchError(f"{name} differs between traced passes: {values}")
        else:
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    overhead = with_trace["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": overhead / plain["wall_s"], "unit": "share"}
    return metrics


def measure(args, spec: dict, expected: dict, scratch: Path) -> dict:
    """Run the passes; return the record of the run."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    probes = [run_pass(args.workload, spec, False, scratch, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    plain, traced, failures = [], [], []
    attempted = 0
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        t0 = time.monotonic()
        result = run_pass(args.workload, spec, use_trace, scratch, deadline)
        (traced if use_trace else plain).append(result)
        for op in result["ops"]:
            attempted += 1
            if not workloads.check(args.workload, op["output"], expected.get(op["name"])):
                failures.append({"pass": len(plain) + len(traced) - 1, "op": op["name"],
                                 "output": op["output"]})
        elapsed, last = time.monotonic() - started, time.monotonic() - t0
        done = len(plain) + len(traced)
        need_more = done < MIN_PASSES or (args.trace and len(traced) < 2)
        # Start another pass only if it should end within half a pass of
        # the budget, so runs last about `seconds` whatever the pass length.
        if not need_more and (elapsed + last / 2 > args.seconds or done >= MAX_PASSES):
            break
        if elapsed + last > RUN_LIMIT_S - 5:
            raise BenchError("the run limit leaves no room for another pass")

    plain_summary = summarise(plain, probes)
    if args.trace:
        metrics = per_layer(args.workload, traced, plain_summary, summarise(traced, []))
    else:
        metrics = {k: {"value": plain_summary[k], "unit": u} for k, u in E2E_UNITS.items()}
    env = environment()
    env["numpy"] = plain[0]["numpy"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "spec": spec,
        "passes": {"setup_probes": len(probes), "plain": len(plain), "traced": len(traced)},
        "probe_median_s": statistics.median(p["probe_median_s"] for p in plain),
        "raw_setup_s": plain_summary["raw_setup_s"],
        "raw_wall_s": plain_summary["raw_wall_s"],
        "op_wall_s": plain_summary["op_wall_s"],
        "pass_op_wall_s": plain_summary["pass_op_wall_s"],
        "counts": traced[0]["counts"] if traced else None,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quiverhearts" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'quiverhearts'}", file=sys.stderr)
        return 2
    golden = workloads.load_golden(args.workload)
    spec = {}
    if args.workload == "nakayama-ladder":
        spec["instances"] = workloads.ladder_instances(args.seed, golden)
    expected = golden_outputs(args.workload, golden, spec)

    scratch = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, spec, expected, scratch)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        (scratch / "request.json").unlink(missing_ok=True)
        (scratch / "result.json").unlink(missing_ok=True)
    (scratch / "record.json").write_text(json.dumps(record, indent=1))

    for f in record["failures"][:5]:
        print(f"FAILED pass {f['pass']}: {f['op']}", file=sys.stderr)
    env, passes = record["environment"], record["passes"]
    print(f"# {args.workload} seed={args.seed} passes={passes['plain']}+{passes['traced']} "
          f"commit={env['commit']} src={env['source_sha256'][:12]} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} "
          f"ops_attempted={record['attempted']} count ops_failed={record['failed']} count "
          f"record={scratch.relative_to(ROOT)}/record.json")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
