"""The atlas's Hom and Ext^1 dimension tables and the class facts read off
them: every row equals the per-pair answer, every atlas with the same
content reads the same rows, the perpendicular classes equal a per-pair
reference, and a certificate builds each class fact once."""

import contextlib
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from quiverhearts import cli, problemfile
from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import mutation as mu
from quiverhearts.algebra import AlgebraError, IndecSet, hom_dim, hom_space
from quiverhearts.duality import dual_context
from quiverhearts.homology import ext1_dim
from quiverhearts.oracles import ext1_dim_bruteforce
from quiverhearts.workspace import WORKSPACE
from test_acceptance import DETERMINISM_COMMANDS
from test_workspace import nakayama_atlas

ATLASES = {
    "ex61": lambda: fx.ex61().atlas,
    "auslander/F3": lambda: fx.auslander_a3_atlas(3),
    "A3/F2": lambda: fx.a3_atlas(2),
    "A6/rad^3": lambda: nakayama_atlas(6, 3),
    "A8/rad^3": lambda: nakayama_atlas(8, 3),
    "A10/rad^3": lambda: nakayama_atlas(10, 3),
}


@pytest.fixture(params=[(name, side) for name in ATLASES for side in ("", "dual")],
                ids=lambda param: " ".join(param).strip())
def any_atlas(request):
    name, side = request.param
    atlas = ATLASES[name]()
    return atlas.dual if side else atlas


def whole_table(atlas, kind: str) -> list[list[int]]:
    return [list(row) for row in atlas.rows(kind, range(len(atlas)))]


def test_hom_rows_equal_hom_space(any_atlas):
    ms = any_atlas.members
    assert whole_table(any_atlas, "hom") == [[len(hom_space(m, n)) for n in ms] for m in ms]


def test_ext1_rows_equal_ext1_dim(any_atlas):
    ms = any_atlas.members
    # rows first, so each is filled from the long exact sequence alone
    assert whole_table(any_atlas, "ext1") == [[ext1_dim(c, a) for a in ms] for c in ms]


def test_one_dual_atlas_fills_each_dual_ext1_row_once():
    WORKSPACE.clear()  # the rows are kept by content: an earlier test may have filled them
    f = fx.ex61()
    filled = []
    real = IndecSet._ext1_row

    def recording(self, i):
        if self.members[0].algebra is f.algebra.opposite:
            filled.append(i)
        return real(self, i)

    with mock.patch.object(IndecSet, "_ext1_row", recording):
        twin = mu.TwinData.build(
            mu.MutationInput(f.atlas, f.subcat_obj("C"), f.subcat_obj("D")).validate()
        )
        after = []
        for _ in range(2):
            mu.dual_localization_model(f.atlas, twin.m_mut, twin.n)
            after.append(len(filled))
    assert filled and len(set(filled)) == len(filled) and after[0] == after[1]
    assert dual_context(f.atlas) is f.atlas.dual and f.atlas.dual.dual is f.atlas


def test_ext1_rows_agree_with_the_bruteforce_oracle():
    atlas = fx.auslander_a3_atlas(3)
    ms = atlas.members
    want = [[ext1_dim_bruteforce(c, a) for a in ms] for c in ms]
    assert whole_table(atlas, "ext1") == want
    assert any(any(row) for row in want)


def test_rows_fill_one_at_a_time():
    WORKSPACE.clear()  # the rows are kept by content: an earlier test may have filled them
    atlas = nakayama_atlas(6, 3)
    i = atlas.position["2/3"]
    atlas.rows("hom", [i])
    filled = [row is not None for row in atlas._tables["hom"]]
    assert filled == [j == i for j in range(len(atlas))]


@contextlib.contextmanager
def recorded_fills():
    """(kind, atlas key, row) of every Hom and Ext^1 row filled in the block."""
    filled = []

    def recording(kind, real):
        def fill(self, i):
            filled.append((kind, self.key, i))
            return real(self, i)
        return fill

    with mock.patch.object(IndecSet, "_hom_row", recording("hom", IndecSet._hom_row)), \
            mock.patch.object(IndecSet, "_ext1_row", recording("ext1", IndecSet._ext1_row)):
        yield filled


def both_tables(atlas) -> dict[str, list[list[int]]]:
    return {kind: whole_table(atlas, kind) for kind in ("hom", "ext1")}


def dumped_ex61_atlas() -> IndecSet:
    """The atlas of the problem file that `scripts/dump_problem.py ex61` writes."""
    root = Path(__file__).resolve().parents[1]
    text = subprocess.run(
        [sys.executable, str(root / "scripts" / "dump_problem.py"), "ex61"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    ).stdout
    return problemfile.parse(text).atlas()


def test_a_copy_of_an_atlas_fills_no_row_another_copy_filled():
    WORKSPACE.clear()
    first = fx.ex61().atlas
    with recorded_fills() as filled:
        want = both_tables(first)
        assert sorted((kind, i) for kind, _, i in filled) == sorted(
            (kind, i) for kind in ("hom", "ext1") for i in range(len(first))
        )
        del filled[:]
        for copy in (fx.ex61().atlas, dumped_ex61_atlas()):
            assert copy is not first and copy.key == first.key
            assert both_tables(copy) == want
        assert filled == []
    ms = first.members
    assert want == {
        "hom": [[hom_dim(m, n) for n in ms] for m in ms],
        "ext1": [[ext1_dim(c, a) for a in ms] for c in ms],
    }


def renamed_member(atlas: IndecSet) -> IndecSet:
    """The atlas with its first member under a new name."""
    first, *rest = atlas.members
    return IndecSet([first.renamed(first.name + "'"), *rest], validate=False)


@pytest.mark.parametrize("other", [lambda: fx.ex61(2).atlas,
                                   lambda: renamed_member(fx.ex61().atlas)],
                         ids=["p=2", "renamed"])
def test_atlases_of_other_content_fill_their_own_rows(other):
    WORKSPACE.clear()
    both_tables(fx.ex61(101).atlas)
    atlas = other()
    with recorded_fills() as filled:
        got = both_tables(atlas)
    assert len(filled) == 2 * len(atlas)
    assert {key for _, key, _ in filled} == {atlas.key}
    ms = atlas.members
    assert got["hom"] == [[hom_dim(m, n) for n in ms] for m in ms]
    assert got["ext1"] == [[ext1_dim(c, a) for a in ms] for c in ms]


def test_one_demo_pass_fills_each_row_of_ex61_and_its_dual_at_most_once(tmp_path):
    # The benchmark's ex61-demo pass: the determinism commands and
    # `verify-main-theorem` on the ex61 problem file, in one process.  Every
    # command builds its own atlas, all with ex61's content or its dual's.
    path = tmp_path / "ex61.qh"
    path.write_text(problemfile.serialize(problemfile.problem_from_fixture(fx.ex61())),
                    encoding="utf-8")
    WORKSPACE.clear()
    with recorded_fills() as filled:
        for argv in [*DETERMINISM_COMMANDS, ["verify-main-theorem", str(path), "C", "D"]]:
            assert cli.main(list(argv)) == 0, argv
    for kind in ("hom", "ext1"):
        rows = [(key, i) for k, key, i in filled if k == kind]
        n, distinct = len(rows), len(set(rows))
        assert n == distinct <= 34, kind


def rigid_classes(names, ext) -> list[tuple[str, ...]]:
    """Every set of names with Ext^1 zero between any two members, itself
    included, the empty set too."""
    out = []

    def grow(chosen, rest):
        out.append(chosen)
        for i, n in enumerate(rest):
            if ext[n, n] == 0 and all(ext[n, m] == 0 == ext[m, n] for m in chosen):
                grow(chosen + (n,), rest[i + 1:])

    grow((), tuple(names))
    return out


def test_perps_equal_a_per_pair_reference():
    atlas = fx.ex61().atlas
    ms = atlas.members
    ext = {(c.name, a.name): ext1_dim(c, a) for c in ms for a in ms}
    classes = rigid_classes(atlas.names, ext)
    assert len(classes) == 2984
    for names in classes:
        c = ct.subcat(atlas, names)
        right = tuple(x.name for x in ms if all(ext[m, x.name] == 0 for m in names))
        left = tuple(x.name for x in ms if all(ext[x.name, m] == 0 for m in names))
        assert ct.perp_right(c).names == tuple(sorted(right))
        assert ct.perp_left(c).names == tuple(sorted(left))
        assert ct.is_rigid(c)
    assert not ct.is_rigid(ct.subcat(atlas, atlas.names))


def test_an_incomplete_atlas_is_refused():
    # Omega(S1) = 2/3 over A3; without it the row of 1 cannot be read off
    full = fx.a3_atlas()
    partial = IndecSet([m for m in full if m.name != "2/3"], validate=False)
    with pytest.raises(AlgebraError, match="atlas incomplete"):
        ct.perp_right(ct.subcat(partial, ["1"]))


def test_classes_over_two_atlases_are_refused():
    a, b = fx.ex61().atlas, fx.ex61().atlas
    with pytest.raises(AlgebraError):
        ct.is_corigid_pairwise(ct.projectives_of(a), ct.projectives_of(b))


# A certified instance of the A8/rad^3 rung of the benchmark's ladder.
A8_C = ("1", "1/2", "1/2/3", "2/3/4", "3/4/5", "4/5", "4/5/6", "5", "5/6/7", "6/7/8", "7/8", "8")
A8_D = ("1/2/3", "2/3/4", "3/4/5", "4/5/6", "5", "5/6/7", "6/7/8", "7/8", "8")


def test_a_certificate_builds_each_rcp_report_once():
    built = []
    real = ct._rcp

    def recording(side, c):
        built.append((c.atlas, c.names, side))
        return real(side, c)

    WORKSPACE.clear()
    with mock.patch.object(ct, "_rcp", recording):
        for _ in range(2):  # the reports are kept by content: a fresh copy builds none
            atlas = nakayama_atlas(8, 3)
            report = mu.verify_main_theorem(atlas, ct.subcat(atlas, A8_C), ct.subcat(atlas, A8_D))
            assert report["ok"], report["checks"]
    # the input's two classes, the mutation, and the two classes of the
    # dual model on the opposite algebra's atlas
    assert len(built) == 5
    for (a1, *rest1), (a2, *rest2) in itertools.combinations(built, 2):
        assert a1 is not a2 or rest1 != rest2


def test_mutation_input_checks_run_once():
    f = fx.ex61()
    good = mu.MutationInput(f.atlas, f.subcat_obj("C"), f.subcat_obj("D"))
    bad = mu.MutationInput(f.atlas, ct.subcat(f.atlas, f.atlas.names), f.subcat_obj("D"))
    with mock.patch.object(mu, "satisfies_rcp", wraps=mu.satisfies_rcp) as spy:
        for _ in range(3):
            assert good.validate() is good
        assert spy.call_count == 2
        for _ in range(3):
            with pytest.raises(AlgebraError, match="outer class fails: rigid"):
                bad.validate()
        assert spy.call_count == 3
    assert mu.right_mutation(good) is good.cmut is mu.right_mutation(good)
