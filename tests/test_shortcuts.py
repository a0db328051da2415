"""The shortcuts around the approximation layer give what the work they
skip would give.

`strip_reference` is a copy of `homology._minimal_approximation`, the
single-pass strip, assembled over the inclusions and projections of the
sum.  `cotorsion` answers a module B with a class member's content (the
member, or a copy of it) with 1_B, without asking for an approximation:
the strip would keep that member alone, with an invertible map, so the
answers agree up to isomorphism.  One-summand sums and maps
bind their summand's read-only blocks.  A module equal to an ideal member
of a quotient is a zero object without a solve, and a module equal to a
member decomposes as that member without the split search, with what the
solve and the split search give.
"""

import contextlib
import inspect
import json
from pathlib import Path
from unittest import mock

import pytest

from quiverhearts import algebra as al
from quiverhearts import cli
from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts import mutation as mu
from quiverhearts.algebra import AlgebraError, IndecSet, RepMap
from quiverhearts.workspace import WORKSPACE
from test_acceptance import DETERMINISM_COMMANDS
from test_algebra import kronecker_module
from lemmas import is_minimal
from test_batched import assemble_reference
from test_workspace import nakayama_atlas, same_blocks

LADDER = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "nakayama-ladder.json"


def strip_reference(side: str, members, obj) -> ho.Approximation:
    p = obj.algebra.p
    right = side == "right"

    def toward(x, y):
        return ho.homs(x, y) if right else ho.homs(y, x)

    to_obj = [toward(x, obj) for x in members]
    keep = [[True] * len(hs) for hs in to_obj]
    for x, x_to_obj, x_keep in zip(members, to_obj, keep):
        if not x_to_obj:
            continue
        links = [toward(x, y) if hs else [] for y, hs in zip(members, to_obj)]
        for k, h in enumerate(x_to_obj):
            x_keep[k] = False
            blocks = []
            for hs, ks, us in zip(to_obj, keep, links):
                kept = [g for g, kg in zip(hs, ks) if kg]
                if kept and us:
                    outer, inner = (kept, us) if right else (us, kept)
                    blocks.append(al.composite_columns(outer, inner))
            target = la.column(h.flat())
            cols = la.hstack(blocks, target.rows)
            x_keep[k] = not cols.cols or la.solve(cols, target, p) is None
    parts = [(x, h) for x, hs, ks in zip(members, to_obj, keep) for h, kh in zip(hs, ks) if kh]
    return assemble_reference(parts, obj, side)


def assert_same_approximation(got: ho.Approximation, want: ho.Approximation):
    assert got.total.name == want.total.name
    assert got.total.key == want.total.key
    assert same_blocks(got.map.blocks, want.map.blocks)
    assert all(m is w for (m, _), (w, _) in zip(got.parts, want.parts, strict=True))
    assert all(same_blocks(h.blocks, w.blocks) for (_, h), (_, w) in zip(got.parts, want.parts))


def member_like(cls: ct.Subcategory, b):
    """The class member equal to b (b itself, a renamed copy, a
    one-summand sum, ...), or None."""
    return next((m for m in cls.members if m == b), None)


def member_of(cls: ct.Subcategory, b) -> bool:
    return member_like(cls, b) is not None


def recorded_answers(run) -> dict[str, list]:
    """What `run()` asks of the classes, from a cleared workspace:
    "answers" holds every witness and nonzero Cone/CoCone answer as (side,
    approximating class, object, conflation, a call that asks again),
    "scans" every (RCP) scan as (side, class), "approximations" every
    `cotorsion._approximation` call as (side, class, object) and "strips"
    every `_minimal_approximation` call as (side, members, object, result)."""
    rec = {"answers": [], "scans": [], "approximations": [], "strips": []}
    real_witness, real_membership, real_rcp = ct._witness, ct._membership, ct._rcp
    real_approximation, real_strip = ct._approximation, ho._minimal_approximation

    def witness(side, u, v, b):
        conf = real_witness(side, u, v, b)
        again = lambda: real_witness(side, u, v, b)  # noqa: E731
        rec["answers"].append((side, u if side == "right" else v, b, conf, again))
        return conf

    def membership(side, x, bp, bpp):
        found, conf = real_membership(side, x, bp, bpp)
        if not x.is_zero():
            again = lambda: real_membership(side, x, bp, bpp)[1]  # noqa: E731
            rec["answers"].append((side, bpp if side == "right" else bp, x, conf, again))
        return found, conf

    def rcp(side, c):
        rec["scans"].append((side, c))
        return real_rcp(side, c)

    def approximation(side, c, b):
        rec["approximations"].append((side, c, b))
        return real_approximation(side, c, b)

    def strip(side, members, obj):
        rec["strips"].append((side, list(members), obj, real_strip(side, members, obj)))
        return rec["strips"][-1][-1]

    WORKSPACE.clear()
    with contextlib.ExitStack() as stack:
        for module, name, fake in [
            (ct, "_witness", witness),
            (ct, "_membership", membership),
            (ct, "_rcp", rcp),
            (ct, "_approximation", approximation),
            (ho, "_minimal_approximation", strip),
        ]:
            stack.enter_context(mock.patch.object(module, name, fake))
        run()
    return rec


def linalg_spies(stack: contextlib.ExitStack) -> list:
    """A spy on every function of `linalg`, for the life of the stack."""
    kernels = [
        n for n, f in vars(la).items() if inspect.isfunction(f) and f.__module__ == la.__name__
    ]
    return [stack.enter_context(mock.patch.object(la, n, wraps=getattr(la, n))) for n in kernels]


def check_member_answers(rec: dict):
    """Each answer for a member, or a copy of one, is the identity, which is
    what the strip keeps up to isomorphism, and it is given without any
    approximation work."""
    answers = rec["answers"]
    assert any(member_of(c, b) for _, c, b, _, _ in answers)
    assert any(not member_of(c, b) for _, c, b, _, _ in answers)
    members = [(side, c, b, conf) for side, c, b, conf, _ in answers if member_of(c, b)]
    # (RCP) counts each member of the class as approximated
    members += [(side, c, b, None) for side, c in rec["scans"] for b in c.members]
    seen = set()
    for side, c, b, conf in members:
        if (side, c.names, id(b)) not in seen:
            seen.add((side, c.names, id(b)))
            want = strip_reference(side, c.members, b)
            assert [m for m, _ in want.parts] == [member_like(c, b)]
            assert want.map.is_isomorphism()
        if conf is not None:
            conf.validate()
            near, far = (conf.c, conf.a) if side == "right" else (conf.a, conf.c)
            assert near is b and conf.b is b and far.is_zero()
    assert not any(member_of(c, b) for _, c, b in rec["approximations"])
    for side, members, obj, got in rec["strips"]:
        assert_same_approximation(got, strip_reference(side, members, obj))
    # asked again from a cleared workspace: no memo entry, no linear algebra
    WORKSPACE.clear()
    with contextlib.ExitStack() as stack:
        spies = linalg_spies(stack)
        for _, c, b, _, again in answers:
            if member_of(c, b):
                again()
        assert not any(s.called for s in spies)
    assert not {"approximation", "conflation"} & set(WORKSPACE.stats())


def ladder_instances():
    """Every (C, D) instance the benchmark's ladder records, per rung."""
    rungs = json.loads(LADDER.read_text())["rungs"]
    return [
        pytest.param(r["n"], r["k"], inst["c"], inst["d"], id=f"A{r['n']}-rad{r['k']}-{i}")
        for r in rungs
        for i, inst in enumerate(r["pool"])
    ]


@pytest.mark.parametrize("n, k, c, d", ladder_instances())
def test_member_shortcut_equals_the_strip_on_the_ladder(n, k, c, d):
    atlas = nakayama_atlas(n, k)

    def run():
        report = mu.verify_main_theorem(atlas, ct.subcat(atlas, c), ct.subcat(atlas, d))
        assert report["ok"], report["checks"]

    check_member_answers(recorded_answers(run))


def test_member_shortcut_equals_the_strip_on_the_cli_commands(capsys):
    rec = recorded_answers(lambda: [cli.main(list(a)) for a in DETERMINISM_COMMANDS])
    capsys.readouterr()
    check_member_answers(rec)


def member_copies(b) -> list:
    """Modules with b's content that are not b: a renamed copy, a one-summand
    sum and the cokernel of 0 -> b."""
    zero = RepMap.zero(al.zero_rep(b.algebra), b)
    return [b.renamed("copy"), al.direct_sum([b]), ho.cokernel(zero)[0]]


def test_a_member_copy_gets_the_identity_answer():
    """Witnesses and Cone/CoCone answers for copies of the members of both
    classes of the ex61 pair (C, C-perp), next to the pair's own witnesses:
    a copy equals its member, with the same hash, and is answered through
    its own identity, which equals the member's answer."""
    c = fx.ex61().subcat_obj("C")
    asked = []

    def run():
        pair = ct.cotorsion_pair_from_rigid(c)
        for side, cls, membership in [
            ("right", pair.u, ct.cone_membership),
            ("left", pair.v, ct.cocone_membership),
        ]:
            for b in cls.members:
                for copy in member_copies(b):
                    assert copy is not b and copy == b and hash(copy) == hash(b)
                    asked.append(copy)
                    conf, ref = pair.witness(side, copy), pair.witness(side, b)
                    assert conf.b is copy and (conf.a, conf.c) == (ref.a, ref.c)
                    assert same_blocks(conf.infl.blocks, ref.infl.blocks)
                    assert same_blocks(conf.defl.blocks, ref.defl.blocks)
                    assert membership(copy, pair.v, pair.u)[0]

    rec = recorded_answers(run)
    copies = [b for _, cls, b, _, _ in rec["answers"]
              if member_like(cls, b) is not None and member_like(cls, b) is not b]
    assert len(copies) == 2 * len(asked) and set(map(id, copies)) == set(map(id, asked))
    check_member_answers(rec)


def non_brick(p: int = 7):
    """A Kronecker module with End = F_p[x]/(x^2 - c) = F_{p^2}, c a non-square."""
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    return kronecker_module(p, la.eye(2), [[0, c], [1, 0]])


@pytest.mark.parametrize("side", ["right", "left"])
def test_a_non_brick_member_gets_the_identity_witness(side):
    kron = non_brick()
    brick = al.Rep(kron.algebra, "B", (1, 1), {"a": [[1]], "b": [[0]]})
    atlas = IndecSet([kron, brick], validate=False)
    assert len(ho.homs(kron, kron)) == 2 and len(ho.homs(brick, brick)) == 1
    cls = ct.subcat(atlas, atlas.names)
    conf = ct._witness(side, cls, cls, kron).validate()
    right = side == "right"
    one, far = (conf.defl, conf.a) if right else (conf.infl, conf.c)
    assert one.source is one.target is kron and far.is_zero() and is_minimal(one, side)
    assert same_blocks(one.blocks, [la.eye(d) for d in kron.dims])
    for obj in (kron, brick):
        # the strip runs for every object: it reads Hom toward obj from
        # every member, and keeps obj alone
        with mock.patch.object(ho, "homs", wraps=ho.homs) as spy:
            got = ho._minimal_approximation(side, atlas.members, obj)
        assert spy.call_count > 1
        assert_same_approximation(got, strip_reference(side, atlas.members, obj))
        assert [m for m, _ in got.parts] == [obj]
        assert is_minimal(got.map, side)


FINITE = {"right": "fully_contravariantly_finite", "left": "fully_covariantly_finite"}


def rcp_cases() -> list:
    """(side, class) per (RCP) check: ex61's C, D and C_mut (right) and M, N
    and M_mut (left); the first recorded ladder instance's C and D (right)
    and their right perpendiculars, which hold the injectives (left)."""
    f = fx.ex61()
    cases = [("right", f.subcat_obj(k)) for k in ("C", "D", "C_mut")]
    cases += [("left", f.subcat_obj(k)) for k in ("M", "N", "M_mut")]
    n, k, c, d = ladder_instances()[0].values
    atlas = nakayama_atlas(n, k)
    for names in (c, d):
        cls = ct.subcat(atlas, names)
        cases += [("right", cls), ("left", ct.perp_right(cls))]
    return cases


def onto(side: str, c: ct.Subcategory, x) -> bool:
    """Is the minimal right (left) approximation of x by c, rebuilt by the
    uncached strip, onto (into)?"""
    f = ho._minimal_approximation(side, c.members, x).map
    return f.is_surjective() if side == "right" else f.is_injective()


def test_rcp_of_a_class_holding_the_projectives_approximates_nothing():
    """A class holding the projectives (injectives) is fully contra- (co-)
    variantly finite without an approximation, and every atlas object's
    approximation by it is indeed onto (into)."""
    for side, c in rcp_cases():
        with mock.patch.object(ct, "_approximation", wraps=ct._approximation) as spy:
            _, report = ct._rcp(side, c)
        assert spy.call_count == 0, (side, c.names)
        assert report[FINITE[side]] is True
        assert all(onto(side, c, x) for x in c.atlas), (side, c.names)


def test_rcp_of_a_class_missing_a_projective_approximates_nothing():
    """A class missing a projective (injective) is not fully contra- (co-)
    variantly finite, read off without an approximation: the brute-force
    approximations by it agree, for each projective (injective) dropped."""
    for side, c in rcp_cases():
        ends = ct.projectives_of(c.atlas) if side == "right" else ct.injectives_of(c.atlas)
        for end in ends.names:
            smaller = ct.subcat(c.atlas, [n for n in c.names if n != end])
            with mock.patch.object(ct, "_approximation", wraps=ct._approximation) as spy:
                _, report = ct._rcp(side, smaller)
            assert spy.call_count == 0, (side, c.names, end)
            assert not report[FINITE[side]]
            assert report[FINITE[side]] == all(onto(side, smaller, x) for x in c.atlas)


def test_a_one_summand_sum_binds_its_summand():
    x = fx.ex61().atlas["2/34/5"]
    s = al.direct_sum([x])
    assert s.name == "(2/34/5)" and s.key == x.key and s.dims == x.dims
    assert al.direct_sum([x], "S").name == "S"
    for block in s.arrow_maps.values():  # the blocks are immutable: assignment raises
        with pytest.raises(TypeError):
            block[0, 0] = 0
    f = ho.homs(x, x)[0]
    g = al.matrix_map(s, x, [[f]])
    assert g.source is s and g.target is x
    assert all(a is b for a, b in zip(g.blocks, f.blocks))
    other = fx.ex61().atlas["2/34"]
    with pytest.raises(AlgebraError):
        al.matrix_map(other, x, [[f]])
    with pytest.raises(AlgebraError):
        al.matrix_map(s, other, [[f]])


def test_an_ideal_member_is_a_zero_object_without_solving():
    atlas = fx.ex61().atlas
    ideal = ct.projectives_of(atlas).members
    qc = ht.QuotientCategory(list(atlas.members), ideal)
    copies = [ideal[0].renamed("copy"), al.direct_sum([ideal[0]])]
    with contextlib.ExitStack() as stack:
        spies = linalg_spies(stack)
        homs = stack.enter_context(mock.patch.object(ht, "homs", wraps=ht.homs))
        assert all(qc.is_zero_object(x) for x in ideal)
        # a copy of a member equals it, so it is zero at once too
        assert all(qc.is_zero_object(x) for x in copies)
        assert not homs.called and not any(s.called for s in spies)
        # a sum of two members is no member: it takes the quotient test,
        # which finds it zero as well
        assert qc.is_zero_object(al.direct_sum(ideal[:2])) and homs.called


def quotient_cases():
    """The ex61 certificate and the recorded A6 and A8 ladder instances."""
    ladder = [p for p in ladder_instances() if p.values[0] in (6, 8)]
    return [pytest.param(None, None, None, None, id="ex61")] + ladder


@pytest.mark.parametrize("n, k, c, d", quotient_cases())
def test_nonzero_objects_keep_the_quotient_test_on_the_certificates(n, k, c, d):
    if n is None:
        ex61 = fx.ex61()
        atlas, outer, inner = ex61.atlas, ex61.subcat_obj("C"), ex61.subcat_obj("D")
    else:
        atlas = nakayama_atlas(n, k)
        outer, inner = ct.subcat(atlas, c), ct.subcat(atlas, d)
    built = []
    real_init = ht.QuotientCategory.__init__

    def recording(self, objects, ideal):
        real_init(self, objects, ideal)
        built.append(self)

    with mock.patch.object(ht.QuotientCategory, "__init__", recording):
        report = mu.verify_main_theorem(atlas, outer, inner)
    assert report["ok"], report["checks"]
    assert any(x in qc.ideal for qc in built for x in qc.objects)
    for qc in built:
        want = [x for x in qc.objects if any(qc.qcoords(RepMap.identity(x)))]
        assert qc.nonzero_objects() == want


@pytest.mark.parametrize("dual", [False, True], ids=["atlas", "dual"])
@pytest.mark.parametrize("name", ["ex61", "A8/rad3"])
def test_a_member_copy_decomposes_as_the_split_search_finds_it(name, dual):
    """Thin bricks: the split search's maps are the identity too, and a copy
    of a member (renamed, or a one-summand sum) makes no memo entry."""
    atlas = fx.ex61().atlas if name == "ex61" else nakayama_atlas(8, 3)
    if dual:
        atlas = atlas.dual
    WORKSPACE.clear()
    for member in atlas:
        identity = [la.eye(d) for d in member.dims]
        for m in (member, member.renamed("copy"), al.direct_sum([member])):
            [(got, inc, prj)] = al.decompose_with_maps(m, atlas)
            [(want, winc, wprj)] = al._decompose_with_maps(m, atlas)
            assert got is want is member
            assert inc.source is member and inc.target is m
            assert prj.source is m and prj.target is member
            assert same_blocks(inc.blocks, winc.blocks) and same_blocks(inc.blocks, identity)
            assert same_blocks(prj.blocks, wprj.blocks) and same_blocks(prj.blocks, identity)
    assert "decompose_with_maps" not in WORKSPACE.stats()
