"""The batched Hom-basis kernels equal the per-pair loops they replaced.

Each `*_reference` below is the code as it was before `composite_columns`:
one `compose` per pair of maps, one solve per right-hand side, the
restarting greedy strip and the compose/add chains over direct-sum
structure maps.  The objects are atlas members (zero-dimensional vertices
everywhere), direct sums of them (Hom bases of up to a dozen maps) and the
zero module (empty bases), over p in {2, 3, 101, 2^31 - 1}.
"""

import numpy as np
import pytest

from quiverhearts import algebra as al
from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts.algebra import Rep, RepMap
from quiverhearts.linalg import Block
from test_algebra import kronecker_module
from test_cotorsion import kronecker_atlas
from lemmas import end_radical, is_minimal
from test_direct_sums import structure_maps
from test_workspace import nakayama_atlas

PRIMES = [2, 3, 101, 2**31 - 1]


@pytest.fixture(params=PRIMES, scope="module")
def ausl(request):
    """The ex61 atlas (Auslander algebra of A3) over F_p."""
    return fx.auslander_a3_atlas(request.param)


def objects(atlas) -> list[Rep]:
    """Some members, two direct sums and the zero module."""
    m = atlas.by_name
    return [
        m["2/34/5"], m["2/34"], m["3/5"], m["4/5"], m["3"], m["6"],
        al.direct_sum([m["2/34/5"], m["2/34"], m["3"]], "S1"),
        al.direct_sum([m["3/5"], m["34/5"], m["2/3"]], "S2"),
        al.zero_rep(atlas.members[0].algebra),
    ]


def maps_between(x: Rep, y: Rep, rng, extra: int = 2) -> list[RepMap]:
    """The Hom basis and a few random combinations (entries of any size)."""
    basis = al.hom_space(x, y)
    p = x.algebra.p
    return basis + [
        al.map_from_coords(basis, rng.integers(0, p, size=len(basis))) for _ in range(extra)
    ] if basis else []


def same_blocks(f: RepMap, g: RepMap) -> bool:
    return f.blocks == g.blocks


def stack(cols: list) -> Block:
    """The nonempty list of vectors as the columns of one block."""
    return la.columns(cols, len(cols[0]))


def same_rep(a: Rep, b: Rep) -> bool:
    return a.name == b.name and a.key == b.key


# ---------------------------------------------------------------------------
# The kernel.


def test_composite_columns_equal_each_compose(ausl):
    rng = np.random.default_rng(5)
    objs = objects(ausl)
    for x in objs:
        for t in objs:
            inner = maps_between(x, t, rng)
            for y in objs:
                outer = maps_between(t, y, rng)
                got = al.composite_columns(outer, inner)
                want = [v.compose(u).flat() for u in inner for v in outer]
                if not want:
                    assert got.shape == (0, 0)
                    continue
                assert got.shape == (sum(a * b for a, b in zip(x.dims, y.dims)), len(want))
                assert got == stack(want)


# ---------------------------------------------------------------------------
# Quotient categories.


def pivot_reps_reference(qmap: Block, p: int) -> list[int]:
    """The greedy rank loop that picked the quotient representatives."""
    picked, chosen = [], []
    for i in range(qmap.cols):
        trial = chosen + [qmap.column(i)]
        if la.rank(la.columns(trial, qmap.rows), p) > len(chosen):
            chosen = trial
            picked.append(i)
        if len(chosen) == qmap.rows:
            break
    return picked


def hom_data_reference(x: Rep, y: Rep, ideal: list[Rep]):
    p = x.algebra.p
    basis = al.hom_space(x, y)
    cols = []
    for t in ideal:
        for u in al.hom_space(x, t):
            for v in al.hom_space(t, y):
                comp = la.column(v.compose(u).flat())
                c = la.solve(al.flat_columns(basis), comp, p) if basis else la.zeros(0, 1)
                assert c is not None
                cols.append(c.data)
    img = la.columns(cols, len(basis)) if cols else la.zeros(len(basis), 0)
    qmap = la.quotient_map(img, len(basis), p)
    return qmap, pivot_reps_reference(qmap, p)


def test_quotient_hom_data_equals_per_composite_solves(ausl):
    objs = objects(ausl)
    ideals = [[], ct.projectives_of(ausl).members, ausl.members[::3], objs[-3:]]
    for ideal in ideals:
        qc = ht.QuotientCategory(objs, ideal)
        for x in objs:
            for y in objs:
                basis, flats, qmap, reps = qc._hom_data(x, y)
                want_qmap, want_idx = hom_data_reference(x, y, ideal)
                assert qmap == want_qmap
                want_flats = [b.flat() for b in basis]
                assert flats.shape == (sum(a * b for a, b in zip(x.dims, y.dims)), len(basis))
                assert all(flats.column(i) == f for i, f in enumerate(want_flats))
                assert [basis.index(r) for r in reps] == want_idx


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_columns_are_the_greedy_representatives(p):
    rng = np.random.default_rng(p % 1000)
    for rows, cols in [(0, 0), (0, 4), (1, 1), (2, 5), (3, 3), (4, 9)]:
        for _ in range(20):
            q = rng.integers(0, min(p, 3), size=(rows, cols)) * rng.integers(1, p)
            q = Block(rows, cols, tuple(int(x) % p for x in q.flat))
            assert la.rref(q, p)[1] == pivot_reps_reference(q, p)


# ---------------------------------------------------------------------------
# Approximations.


def assemble_reference(parts, obj: Rep, side: str) -> ho.Approximation:
    if not parts:
        z = al.zero_rep(obj.algebra)
        f = RepMap.zero(z, obj) if side == "right" else RepMap.zero(obj, z)
        return ho.Approximation(obj, z, f, [], side)
    total = al.direct_sum([m for m, _ in parts])
    incs, projs = structure_maps([m for m, _ in parts], total)
    if side == "right":
        f = RepMap.zero(total, obj)
        for (_, comp), prj in zip(parts, projs):
            f = f.add(comp.compose(prj))
    else:
        f = RepMap.zero(obj, total)
        for (_, comp), inc in zip(parts, incs):
            f = f.add(inc.compose(comp))
    return ho.Approximation(obj, total, f, list(parts), side)


def minimal_approximation_reference(side: str, members: list[Rep], obj: Rep):
    """Per-pair composites and the greedy strip that restarts its scan
    after every removed part."""
    p = obj.algebra.p
    right = side == "right"

    def toward(x, y):
        return al.hom_space(x, y) if right else al.hom_space(y, x)

    parts = [(x, h) for x in members for h in toward(x, obj)]
    checks = []
    for m in members:
        targets = [h.flat() for h in toward(m, obj) if not h.is_zero()]
        if targets:
            cols = [
                [(comp.compose(u) if right else u.compose(comp)).flat() for u in toward(m, x)]
                for x, comp in parts
            ]
            checks.append((stack(targets), cols))

    def approximates(keep):
        for targets, cols in checks:
            kept = [c for i in keep for c in cols[i]]
            if not kept or la.solve(stack(kept), targets, p) is None:
                return False
        return True

    keep = list(range(len(parts)))
    changed = True
    while changed:
        changed = False
        for i in range(len(keep)):
            trial = keep[:i] + keep[i + 1 :]
            if approximates(trial):
                keep = trial
                changed = True
                break
    return assemble_reference([parts[i] for i in keep], obj, side)


def member_lists(atlas, side: str) -> list[list[Rep]]:
    """The projectives (right) or injectives (left), the whole atlas, half
    of it, a list with direct sums, whose Hom bases to and from the other
    members have several maps and leave the strip a choice, a list with
    one member twice, so a part's own member also sits among the others,
    and the generators of Omega of the injectives (syzygies, then the
    projectives)."""
    ends = ct.projectives_of(atlas) if side == "right" else ct.injectives_of(atlas)
    ms = atlas.members
    sums = [al.direct_sum(ms[:3], "S"), al.direct_sum(ms[2::3], "T")]
    repeated = ms[:5] + ms[1:2]
    omega = [om for om, _ in ct.injectives_of(atlas).omega_generators]
    return [ends.members, ms, ms[1::2], sums + ms[:4] + ms[-4:], repeated, omega]


def check_approximations(atlas, side: str, objs: list[Rep]):
    for members in member_lists(atlas, side):
        for obj in objs:
            got = ho._minimal_approximation(side, members, obj)
            want = minimal_approximation_reference(side, members, obj)
            assert same_rep(got.total, want.total)
            assert same_blocks(got.map, want.map)
            assert [m.name for m, _ in got.parts] == [m.name for m, _ in want.parts]
            assert all(same_blocks(h, w) for (_, h), (_, w) in zip(got.parts, want.parts))


@pytest.mark.parametrize("side", ["right", "left"])
def test_single_pass_strip_equals_restart_loop(side):
    """Every atlas object, over ex61 and A4/rad^2."""
    for atlas in (fx.ex61().atlas, nakayama_atlas(4, 2, 101)):
        check_approximations(atlas, side, atlas.members)


@pytest.mark.parametrize("side", ["right", "left"])
def test_approximations_equal_reference_over_each_field(ausl, side):
    check_approximations(ausl, side, objects(ausl))
    nakayama = nakayama_atlas(4, 2, ausl.members[0].algebra.p)
    check_approximations(nakayama, side, nakayama.members)


def kronecker_with_a_non_brick(p: int) -> al.IndecSet:
    """`kronecker_atlas`, where Hom(S2, P1) has dimension 2, and the (2, 2)
    module K with a = 1 and b nilpotent: End(K) = F_p[x]/(x^2), dimension 2."""
    atlas = kronecker_atlas(p)
    k = kronecker_module(p, la.eye(2), [[0, 0], [1, 0]])
    return al.IndecSet([*atlas.members, Rep(atlas.members[0].algebra, "K", k.dims, k.arrow_maps)])


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("p", [5, 101, 2**31 - 1])  # `end_radical` of K needs p > 4
def test_strip_over_members_with_several_maps_equals_reference(p, side):
    """Members x with dim Hom(x, obj) >= 2 (S2 toward P1, K toward K) take
    the strip's branch that composes with End(x), which for K is not F_p."""
    atlas = kronecker_with_a_non_brick(p)
    m = atlas.by_name
    assert len(ho.homs(m["S2"], m["P1"])) == 2
    assert len(ho.homs(m["K"], m["K"])) == 2 and len(end_radical(m["K"])[1]) == 1
    check_approximations(atlas, side, [*atlas.members, al.direct_sum([m["K"], m["R0"]], "KR")])


def is_minimal_reference(f: RepMap, side: str) -> bool:
    right = side == "right"
    x = f.source if right else f.target
    endos = al.hom_space(x, x)
    if not endos:
        return True
    comps = [(f.compose(g) if right else g.compose(f)).flat() for g in endos]
    ker = la.nullspace(stack(comps), f.p)
    if ker.cols == 0:
        return True
    _, rad = end_radical(x)
    if not rad:
        return False
    rad_flat = stack([r.flat() for r in rad])
    for j in range(ker.cols):
        h = al.map_from_coords(endos, ker.column(j))
        if la.solve(rad_flat, la.column(h.flat()), f.p) is None:
            return False
    return True


# The radical of End needs p > dim (Dickson's criterion), so not 2 or 3.
@pytest.mark.parametrize("p", [101, 2**31 - 1])
@pytest.mark.parametrize("side", ["right", "left"])
def test_minimality_equals_reference(p, side):
    ausl = fx.auslander_a3_atlas(p)
    members = member_lists(ausl, side)[0]
    seen = set()
    for obj in ausl.members:
        approx = ho._minimal_approximation(side, members, obj)
        doubled = ho._assemble(approx.parts + approx.parts, obj, side)
        for f in (approx.map, doubled.map):
            want = is_minimal_reference(f, side)
            assert is_minimal(f, side) == want
            seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Factorisation, lifting and Ext^1.


def factors_reference(f: RepMap, through: list[Rep]) -> bool:
    """Does f lie in the span of the composites v o u through a member,
    one `compose` per pair."""
    cols = [
        v.compose(u).flat()
        for t in through
        for u in al.hom_space(f.source, t)
        for v in al.hom_space(t, f.target)
    ]
    if not cols:
        return not any(f.flat())
    return la.solve(stack(cols), la.column(f.flat()), f.p) is not None


def test_factorisation_equals_reference(ausl):
    rng = np.random.default_rng(3)
    objs = objects(ausl)
    throughs = [[], ct.projectives_of(ausl).members, ausl.members[::4], objs[-3:]]
    for x in objs:
        for y in objs:
            for f in maps_between(x, y, rng, extra=1) or [RepMap.zero(x, y)]:
                for through in throughs:
                    got = ht.QuotientCategory([x], through).is_ideal(f)
                    assert got == factors_reference(f, through)


def solve_reference(f: RepMap, g: RepMap, through: bool):
    """h with g h = f (through) or h g = f (extend), one solve per basis."""
    basis = al.hom_space(f.source, g.source) if through else al.hom_space(g.target, f.target)
    if not basis:
        return "zero" if f.is_zero() else None
    comps = [(g.compose(b) if through else b.compose(g)).flat() for b in basis]
    sol = la.solve(stack(comps), la.column(f.flat()), f.p)
    return None if sol is None else al.map_from_coords(basis, sol.data)


def check_solve(got, want):
    if want is None:
        assert got is None
    elif want == "zero":
        assert got.is_zero()
    else:
        assert same_blocks(got, want)


def test_solve_through_and_extend_equal_reference(ausl):
    rng = np.random.default_rng(9)
    objs = objects(ausl)
    for x in objs:
        for z in objs:
            fs = maps_between(x, z, rng, extra=1) or [RepMap.zero(x, z)]
            for y in objs:
                for g in maps_between(y, z, rng, extra=1):
                    for f in fs:
                        check_solve(ht.solve_through(f, g), solve_reference(f, g, True))
                for g in maps_between(x, y, rng, extra=1):
                    for f in fs:
                        check_solve(ht.solve_extend(f, g), solve_reference(f, g, False))


def ext1_qmap_reference(c: Rep, a: Rep) -> Block:
    p = c.algebra.p
    _, conf = ho.syzygy(c)
    hom_omega_a = al.hom_space(conf.a, a)
    n = len(hom_omega_a)
    if n == 0:
        return la.zeros(0, 0)
    flat = stack([h.flat() for h in hom_omega_a])
    img = []
    for h in al.hom_space(conf.b, a):
        sol = la.solve(flat, la.column(h.compose(conf.infl).flat()), p)
        assert sol is not None
        img.append(sol.data)
    img = la.columns(img, n) if img else la.zeros(n, 0)
    return la.quotient_map(img, n, p)


def test_ext1_equals_per_restriction_solves(ausl):
    """The quotient route equals the per-restriction solves, and the
    exact-sequence route of `ext1_dim` reads its dimension, on the sums and
    on the zero module too."""
    for c in objects(ausl):
        for a in objects(ausl):
            got = ho.Ext1(c, a)
            assert ho.ext1_dim(c, a) == got.dim, (c.name, a.name)
            if c.is_zero() or a.is_zero():
                continue
            want = ext1_qmap_reference(c, a)
            assert got.qmap == want
            assert got.dim == want.rows
