"""The benchmark's workloads: how each builds its inputs and its operations.

`setup(workload, spec, scratch)` runs inside a worker process after the
package is imported.  It builds the workload's inputs and returns its
operations as `(name, fn)` pairs; `fn()` runs one operation and returns a
JSON-able output.  `check(workload, output, golden)` then decides, in
the parent process, whether that output is correct.  It compares with the
golden output recorded when the benchmark was added and, where the
workload has one, applies an invariant of its own (a certificate is `ok`,
the engine agrees with its brute-force oracle).

Only the ladder draws inputs from the seed, on its two lower rungs.
`ex61-demo` and `oracle-crosscheck` run the same fixed operations for
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

NAMES = ("ex61-demo", "nakayama-ladder", "oracle-crosscheck")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The determinism command list of the acceptance suite, run as users run it.
EX61_COMMANDS = (
    ("demo", "ex61", "check"),
    ("demo", "ex61", "perp", "C"),
    ("demo", "ex61", "rigid", "C"),
    ("demo", "ex61", "cotorsion", "C"),
    ("demo", "ex61", "heart", "C"),
    ("demo", "ex61", "mutate", "--seed", "5"),
    ("demo", "ex61", "localize", "--seed", "5"),
    ("demo", "ex61", "verify-main-theorem", "--seed", "5", "--print-panels"),
    ("demo", "ex61", "classify-morphism", "3", "2/34"),
    ("demo", "ex61", "export-dot", "localized"),
    ("demo", "ex62", "mutate"),
)
EX61_FILE_OP = "verify-main-theorem ex61.qh C D"

# Ladder rungs (n, k) of A_n / rad^k: 15, 21 and 27 objects.
LADDER_RUNGS = ((6, 3), (8, 3), (10, 3))

# Cone/CoCone cross-check on A3 over F_2: both classes drawn from these.
MEMBERSHIP_CLASSES = ("projectives", "injectives")

_CERTIFICATE_SPANS = (
    "mutation.verify_main_theorem", "mutation.MutationInput.validate",
    "mutation.right_mutation", "mutation.TwinData.build", "mutation.LocalizationModel.build",
    "mutation.verify_localization", "mutation.dual_localization_model",
    "heart.quivers_isomorphic", "mutation.PseudoMoritaData.build",
    "mutation.right_hd_approximation", "heart.gabriel_quiver", "heart.PhiModel.phi_map",
    "heart.CohomologicalH.h_object", "duality.dual_context", "homology.syzygy",
    "homology.minimal_right_approximation", "algebra.hom_space", "linalg.rref",
)
# Spans a traced pass of each workload must record at least once; a
# missing one means a target was renamed or a workload stopped reaching it.
REQUIRED_SPANS = {
    "ex61-demo": _CERTIFICATE_SPANS + (
        "cli.main", "cli.self_validate", "problemfile.parse", "problemfile.parse_path",
    ),
    "nakayama-ladder": _CERTIFICATE_SPANS,
    "oracle-crosscheck": (
        "oracles.ext1_dim_bruteforce", "homology.ext1_dim", "cotorsion.cocone_membership",
        "cotorsion.cone_membership", "cotorsion.cocone_membership_bruteforce",
        "cotorsion.cone_membership_bruteforce", "algebra.decompose_with_maps", "linalg.rref",
    ),
}


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def ladder_instances(seed: int, golden: dict) -> list[dict]:
    """One recorded (C, D) instance per rung, drawn from `seed`.

    The instances were picked, and their certificates recorded, by
    `record_golden.py`; picking calls `ext1_dim` and `satisfies_rcp`,
    whose id-keyed caches would otherwise be warm in the timed process.
    """
    if [(r["n"], r["k"]) for r in golden["rungs"]] != list(LADDER_RUNGS):
        raise ValueError("the recorded ladder pool does not match LADDER_RUNGS; re-record it")
    rng = random.Random(seed)
    out = []
    for rung in golden["rungs"]:
        pick = rng.randrange(len(rung["pool"]))
        inst = rung["pool"][pick]
        out.append({"n": rung["n"], "k": rung["k"], "pool_index": pick,
                    "c": inst["c"], "d": inst["d"]})
    return out


def ladder_op_name(inst: dict) -> str:
    return f"A{inst['n']}/rad^{inst['k']}#{inst['pool_index']}"


# ---------------------------------------------------------------------------
# Set-up, run inside the worker.


def setup(workload: str, spec: dict, scratch: Path) -> list:
    if workload == "ex61-demo":
        return _setup_ex61(scratch)
    if workload == "nakayama-ladder":
        return _setup_ladder(spec["instances"])
    if workload == "oracle-crosscheck":
        return _setup_oracle()
    raise ValueError(f"unknown workload {workload}")


def _cli_op(argv):
    from quiverhearts import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return {"exit": code, "stdout": out.getvalue()}

    return run


def _setup_ex61(scratch: Path) -> list:
    from quiverhearts import fixtures, problemfile

    path = scratch / "ex61.qh"
    path.write_text(problemfile.serialize(problemfile.problem_from_fixture(fixtures.ex61())),
                    encoding="utf-8")
    ops = [(" ".join(argv), _cli_op(argv)) for argv in EX61_COMMANDS]
    ops.append((EX61_FILE_OP, _cli_op(("verify-main-theorem", str(path), "C", "D"))))
    return ops


def _setup_ladder(instances: list[dict]) -> list:
    import nakayama
    from quiverhearts import cotorsion, mutation

    ops = []
    smallest = min(nakayama.expected_size(inst["n"], inst["k"]) for inst in instances)
    for inst in instances:
        n, k = inst["n"], inst["k"]
        atlas = nakayama.atlas(n, k, validate=(nakayama.expected_size(n, k) == smallest))
        c = cotorsion.subcat(atlas, inst["c"])
        d = cotorsion.subcat(atlas, inst["d"])

        def run(atlas=atlas, c=c, d=d):
            report = mutation.verify_main_theorem(atlas, c, d)
            return ladder_output(report)

        ops.append((ladder_op_name(inst), run))
    return ops


def ladder_output(report: dict) -> dict:
    panels = {key: sorted(names) for key, names in report["panels"].items()}
    return {"ok": bool(report["ok"]), "panels": panels}


def _setup_oracle() -> list:
    from quiverhearts import cotorsion, fixtures, homology, oracles

    ops = []
    ausl = fixtures.auslander_a3_atlas(3)
    for c in ausl:
        for a in ausl:
            def run(c=c, a=a):
                return {"engine": homology.ext1_dim(c, a),
                        "oracle": oracles.ext1_dim_bruteforce(c, a)}

            ops.append((f"ext1 {c.name} {a.name}", run))

    a3 = fixtures.a3_atlas(2)
    classes = {"projectives": cotorsion.projectives_of(a3),
               "injectives": cotorsion.injectives_of(a3)}
    for kind in ("cocone", "cone"):
        for bp_name in MEMBERSHIP_CLASSES:
            for bpp_name in MEMBERSHIP_CLASSES:
                bp, bpp = classes[bp_name], classes[bpp_name]
                for x in a3:
                    def run(kind=kind, x=x, bp=bp, bpp=bpp):
                        if kind == "cocone":
                            got, conf = cotorsion.cocone_membership(x, bp, bpp)
                            brute = cotorsion.cocone_membership_bruteforce(x, bp, bpp)
                        else:
                            got, conf = cotorsion.cone_membership(x, bp, bpp)
                            brute = cotorsion.cone_membership_bruteforce(x, bp, bpp)
                        if got:
                            conf.validate()
                        return {"engine": bool(got), "oracle": brute is not None}

                    ops.append((f"{kind} {x.name} {bp_name} {bpp_name}", run))
    return ops


# ---------------------------------------------------------------------------
# Correctness, decided in the parent from the worker's outputs.


def check(workload: str, output, golden) -> bool:
    """True when `output` equals the golden output and meets the workload's
    own invariant.  An operation that raised has an `error` output, which
    never equals a golden one."""
    if golden is None or output != golden:
        return False
    if workload == "nakayama-ladder":
        return output["ok"] is True
    if workload == "oracle-crosscheck":
        return output["engine"] == output["oracle"]
    return True
