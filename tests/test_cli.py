"""Problem-file grammar and command-line behaviour."""

import numpy as np
import pytest

from quiverhearts import cli, fixtures, problemfile as pfm
from quiverhearts.cotorsion import projectives_of


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


def test_field_size_limits(capsys):
    code, out, _ = run(capsys, "demo", "ex61", "check", "--field", str(2**31 - 1))
    assert code == 0 and "atlas heuristics: ok" in out
    code, _, err = run(capsys, "demo", "ex61", "check", "--field", str(2**61 - 1))
    assert code == 2 and "too large for exact int64 arithmetic" in err


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
