"""Problem-file grammar and command-line behaviour."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quiverhearts import cli, fixtures, problemfile as pfm
from quiverhearts.cotorsion import projectives_of
from test_acceptance import DETERMINISM_COMMANDS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def ex61_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pf") / "ex61.qh"
    fx = fixtures.ex61()
    pf = pfm.problem_from_fixture(fx)
    pf.subcats["P"] = tuple(sorted(projectives_of(fx.atlas).names))
    pf.tasks["main"] = pfm.TaskSpec(
        "main", "verify-main-theorem", (("c", "C"), ("d", "D"))
    )
    path.write_text(pfm.serialize(pf))
    return str(path)


# ---------------------------------------------------------------------------
# Grammar.


def test_fixture_round_trip():
    pf = pfm.problem_from_fixture(fixtures.ex61())
    assert pfm.parse(pfm.serialize(pf)) == pf
    atlas = pf.atlas()
    assert len(atlas) == 17
    assert len(pf.vertices) == 6


def _random_problem(rng: np.random.Generator) -> pfm.ProblemFile:
    p = int(rng.choice([2, 3, 5, 101]))
    nv = int(rng.integers(2, 5))
    vertices = tuple(f"v{i}" for i in range(nv))
    # acyclic arrows only, so any assignment of matrices is a valid module
    arrows = []
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < 0.5:
                arrows.append((f"a{i}{j}", f"v{i}", f"v{j}"))
    modules = {}
    for k in range(int(rng.integers(1, 4))):
        dims = tuple(int(rng.integers(0, 3)) for _ in range(nv))
        maps = []
        for aid, s, t in arrows:
            r, c = dims[vertices.index(t)], dims[vertices.index(s)]
            mat = tuple(
                tuple(int(rng.integers(0, p)) for _ in range(c)) for _ in range(r)
            )
            if any(any(row) for row in mat):
                maps.append((aid, mat))
        modules[f"m{k}"] = (dims, tuple(sorted(maps)))
    names = sorted(modules)
    subcats = {"S": tuple(n for n in names if rng.random() < 0.7)}
    tasks = {
        "t0": pfm.TaskSpec("t0", "perp", (("subcat", "S"),)),
    }
    return pfm.ProblemFile(
        p, vertices, tuple(arrows), (), modules, subcats, tasks
    )


def test_round_trip_100_random_files():
    rng = np.random.default_rng(12)
    for _ in range(100):
        pf = _random_problem(rng)
        text = pfm.serialize(pf)
        again = pfm.parse(text)
        assert again == pf
        assert pfm.serialize(again) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("quiver\n  vertices x\nfield 4\n", "not prime"),
        ("field 5\nquiver\n  arrow a\n", "line 3"),
        ("field 5\nmodule m\n  dims 1\n", "line 3"),  # dims before any vertices
        ("field 5\nquiver\n  vertices x\nsubcat s\n  members nope\n", "undeclared"),
        ("field 5\nquiver\n  vertices x\ntask t\n  param c S\n", "no command"),
        ("bogus\n", "line 1"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises((pfm.ProblemFileError, Exception)) as exc:
        pfm.parse(text)
    assert fragment in str(exc.value)


def test_task_reference_validation():
    text = (
        "field 5\nquiver\n  vertices x\n"
        "module m\n  dims 1\n"
        "task t\n  command perp\n  param subcat NOPE\n"
    )
    with pytest.raises(pfm.ProblemFileError, match="undeclared subcat"):
        pfm.parse(text)


# ---------------------------------------------------------------------------
# Commands and exit codes.


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nosuch", "x.qh")
    assert code == 2 and "unknown command" in err
    code, _, err = run(capsys, "perp", "/tmp/definitely-missing.qh", "C")
    assert code == 2
    code, _, err = run(capsys, "demo", "ex61")
    assert code == 2


# Each command with one positional name more than it reads.
SURPLUS_NAMES = [
    ["check", "C"],
    ["perp", "C", "D"],
    ["rigid", "C", "D"],
    ["cotorsion", "C", "D"],
    ["heart", "C", "D"],
    ["mutate", "C", "D", "C"],
    ["localize", "C", "D", "C"],
    ["verify-main-theorem", "C", "D", "C"],
    ["classify-morphism", "3", "2/34", "C", "D", "C"],
    ["export-dot", "heart", "C", "D"],
    ["export-dot", "localized", "C", "D", "C"],
    ["export-dot", "localized-dual", "C", "D", "C"],
]


@pytest.mark.parametrize("argv", SURPLUS_NAMES, ids=" ".join)
def test_a_surplus_name_is_a_usage_error(capsys, ex61_file, argv):
    code, out, err = run(capsys, "demo", "ex61", *argv)
    assert (code, out) == (2, "") and f"usage error: unexpected name `{argv[-1]}`" in err
    if argv[0] == "perp":
        code, out, err = run(capsys, "perp", ex61_file, *argv[1:])
        assert (code, out) == (2, "") and "unexpected name `D`" in err


COMPOSITE = 1022117  # 1009 * 1013


@pytest.mark.parametrize("how", ["problem-file", "--field on a file", "--field on a demo"])
def test_composite_field_is_rejected(capsys, tmp_path, ex61_file, how):
    if how == "problem-file":
        path = tmp_path / "composite.qh"
        path.write_text(f"field {COMPOSITE}\nquiver\n  vertices x\nmodule m\n  dims 1\n")
        argv = ("check", str(path))
    elif how == "--field on a file":
        argv = ("check", ex61_file, "--field", str(COMPOSITE))
    else:
        argv = ("demo", "ex61", "check", "--field", str(COMPOSITE))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"field characteristic {COMPOSITE} is not prime" in err


def test_a_file_without_modules_is_refused_as_bad_input(capsys, tmp_path):
    path = tmp_path / "no_modules.qh"
    path.write_text("field 5\nquiver\n  vertices 1 2\n  arrow a 1 2\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and not out
    assert err.startswith("input error: ") and "no module declared" in err


A2_F5 = """field 5
quiver
  vertices 1 2
  arrow a 1 2
module 1
  dims 1 0
module 1/2
  dims 1 1
  map a 1
module 2
  dims 0 1
subcat C
  members 1/2 2
"""


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ("module X\n  dims 1 1\n", "X is not indecomposable"),  # 1 + 2
        ("module Y\n  dims 1 1\n  map a 2\n", "1/2 and Y are isomorphic"),
    ],
    ids=["decomposable member", "isomorphic members"],
)
@pytest.mark.parametrize("argv", [("check",), ("cotorsion", "C")], ids=" ".join)
def test_an_invalid_atlas_is_refused_as_bad_input(capsys, tmp_path, extra, fragment, argv):
    """A problem file's atlas is validated: a decomposable member, or two
    isomorphic ones, is bad input (exit 2), not an atlas that passes
    `check` or a cotorsion claim that is falsified."""
    good = tmp_path / "a2.qh"
    good.write_text(A2_F5)
    assert run(capsys, argv[0], str(good), *argv[1:])[0] == 0
    path = tmp_path / "bad.qh"
    path.write_text(A2_F5 + extra)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and not out
    assert err.startswith("input error: ") and fragment in err


def test_a_map_on_an_arrow_with_an_undeclared_endpoint_is_bad_input(capsys, tmp_path):
    """A `map` line on such an arrow gets the error the file gets without
    it, not a traceback."""
    text = "field 5\nquiver\n  vertices 1 2\n  arrow a 1 3\nmodule m\n  dims 1 1\n"
    with pytest.raises(pfm.ProblemFileError, match="arrow a has undeclared endpoint"):
        pfm.parse(text + "  map a 1\n")
    for body in (text, text + "  map a 1\n"):
        path = tmp_path / "endpoint.qh"
        path.write_text(body)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and not out
        assert err.startswith("input error: ") and "arrow a has undeclared endpoint" in err


@pytest.mark.parametrize(
    "case", ["problem file is a directory", "not UTF-8", "--dot is a directory"]
)
def test_unreadable_paths_are_refused_as_bad_input(capsys, tmp_path, case):
    if case == "problem file is a directory":
        argv = ("check", str(tmp_path))
    elif case == "not UTF-8":
        path = tmp_path / "latin1.qh"
        path.write_bytes("field 5\n# caf\xe9\n".encode("latin-1"))
        argv = ("check", str(path))
    else:
        argv = ("demo", "ex61", "export-dot", "localized", "--dot", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("input error: ") and "Traceback" not in err


def test_field_size_limits(capsys):
    code, out, _ = run(capsys, "demo", "ex61", "check", "--field", str(2**31 - 1))
    assert code == 0 and "atlas heuristics: ok" in out
    code, _, err = run(capsys, "demo", "ex61", "check", "--field", str(2**61 - 1))
    assert code == 2 and "too large for exact int64 arithmetic" in err


def test_the_certificate_does_not_depend_on_the_field(capsys):
    # ex61's and ex62's modules have entries 0 and 1, so every demo command
    # prints the same over every prime field, apart from `check`'s field
    # line.  At p = 2 and 3 few scalars are units, which the solves behind
    # Hom bases, sections and retractions, and the ranks of Phi's member
    # blocks, must survive.
    outs = {p: run(capsys, "demo", "ex61", "verify-main-theorem", "--field", str(p))
            for p in (2, 3, 5, 101)}
    assert outs[101][0] == 0 and "check localization: true" in outs[101][1]
    assert all(out == outs[101] for out in outs.values()), sorted(outs)
    commands = [argv for argv in DETERMINISM_COMMANDS if argv[1] == "ex61"]
    assert len(commands) == 10
    for demo in ("ex61", "ex62"):
        for _, _, *args in commands:
            outs = {}
            for p in (2, 3, 5, 101):
                code, out, _ = run(capsys, "demo", demo, *args, "--field", str(p))
                lines = [line for line in out.splitlines() if not line.startswith("field ")]
                outs[p] = (code, lines)
            assert all(out == outs[101] for out in outs.values()), (demo, args)


def test_the_certificate_prints_the_same_over_larger_fields(capsys):
    # The same bytes and exit code at the default p = 101 and at primes
    # around it, up to 65537.
    want = run(capsys, "demo", "ex61", "verify-main-theorem")
    assert want[0] == 0 and "ok: true" in want[1]
    for p in (7, 11, 13, 17, 19, 23, 103, 65537):
        got = run(capsys, "demo", "ex61", "verify-main-theorem", "--field", str(p))
        assert got == want, p


def reordered(text: str, seed: int) -> str:
    """A problem file with its module sections and its vertices in a seeded
    random order, each module's dims following its vertices."""
    rng = np.random.default_rng(seed)
    sections = text.rstrip("\n").split("\n\n")
    modules = [s for s in sections if s.startswith("module ")]
    shuffled = iter([modules[k] for k in rng.permutation(len(modules))])
    sections = [next(shuffled) if s.startswith("module ") else s for s in sections]
    n = next(len(line.split()) - 1 for line in text.splitlines() if line.startswith("  vertices "))
    order = rng.permutation(n)

    def permuted(line: str) -> str:
        head, *items = line.split()
        if head not in ("vertices", "dims"):
            return line
        return "  " + " ".join([head] + [items[k] for k in order])

    return "\n\n".join("\n".join(map(permuted, s.splitlines())) for s in sections) + "\n"


def test_a_reordered_problem_file_prints_the_same_certificate(capsys, tmp_path):
    root = Path(__file__).resolve().parents[1]
    dump = subprocess.run(
        [sys.executable, str(root / "scripts" / "dump_problem.py"), "ex61"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    ).stdout
    texts = [dump] + [reordered(dump, seed) for seed in (1, 2, 3, 4)]
    assert len(set(texts)) == 5
    outs = []
    for k, text in enumerate(texts):
        path = tmp_path / f"ex61-{k}.qh"
        path.write_text(text)
        outs.append(run(capsys, "verify-main-theorem", str(path), "C", "D"))
    assert outs[0][0] == 0 and "ok: true" in outs[0][1]
    assert all(out == outs[0] for out in outs)


def test_demo_check(capsys):
    code, out, _ = run(capsys, "demo", "ex61", "check")
    assert code == 0
    assert "vertices 6" in out
    assert "indecomposables 17" in out
    assert "atlas heuristics: ok" in out


def test_demo_mutate_ex62_reports_nonrigid(capsys):
    code, out, _ = run(capsys, "demo", "ex62", "mutate")
    assert code == 0
    assert "rigid: false" in out


def test_perp_of_projectives_is_everything(capsys, ex61_file):
    code, out, _ = run(capsys, "perp", ex61_file, "P")
    assert code == 0
    got = out.strip().split(": ", 1)[1].split()
    assert got == sorted(fixtures.ex61().atlas.names)


def test_file_task_supplies_defaults(capsys, ex61_file):
    code, out, _ = run(capsys, "verify-main-theorem", ex61_file)
    assert code == 0
    assert "ok: true" in out


def test_demo_heart_output(capsys):
    code, out, _ = run(capsys, "demo", "ex61", "heart", "C")
    assert code == 0
    assert "heart objects: 2 2/3 2/34 3 3/5" in out


def test_classify_morphism(capsys):
    code, out, _ = run(capsys, "demo", "ex61", "classify-morphism", "2", "3")
    assert code == 0
    assert "basis[" in out or "= 0" in out


def test_export_dot_deterministic(capsys, tmp_path):
    code, out1, _ = run(capsys, "demo", "ex61", "export-dot", "localized")
    code2, out2, _ = run(capsys, "demo", "ex61", "export-dot", "localized")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.startswith('digraph "localized"')
    target = tmp_path / "q.dot"
    code, out, _ = run(capsys, "demo", "ex61", "export-dot", "localized", "--dot", str(target))
    assert code == 0
    assert "wrote" in out
    assert target.read_text() == out1.rstrip("\n") + "\n"


def test_verify_main_theorem_seed_determinism(capsys):
    code1, out1, _ = run(capsys, "demo", "ex61", "verify-main-theorem", "--seed", "3")
    code2, out2, _ = run(capsys, "demo", "ex61", "verify-main-theorem", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


# Two loops whose squares vanish: ab, ba, aba, ... never do, so the arrow
# ideal is not nilpotent and the path algebra is infinite.
TWO_LOOPS = """field 5
quiver
  vertices v
  arrow a v v
  arrow b v v
relations
  1 a a
  1 b b
module s
  dims 1
"""


def test_check_refuses_a_non_nilpotent_algebra_quickly(tmp_path):
    path = tmp_path / "two_loops.qh"
    path.write_text(TWO_LOOPS)
    # In a child capped at 1 GiB of address space, so a path enumeration
    # that does not stop fails there instead of filling the host.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from quiverhearts import cli\n"
        "sys.exit(cli.main(['check', sys.argv[2]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-c", code, str(src), str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert time.monotonic() - start < 5.0
    assert run.returncode == 2, run.stderr
    assert "could not certify nilpotency" in run.stderr
