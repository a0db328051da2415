"""Maps between direct sums are matrices of components.

`algebra.matrix_map` builds each block as the grid of the component blocks.
The references here are what it replaced: sums of composites over the
inclusions and projections of each direct sum, built from identity blocks
by `structure_maps`.  The pushouts and pullbacks of conflations, built in
split normal form, are checked against the old kernel and cokernel
constructions on the ex61 atlas, through the old universal maps.
"""

import numpy as np
import pytest

from quiverhearts import algebra as al
from quiverhearts import fixtures as fx
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts.algebra import Rep, RepMap
from quiverhearts.homology import Ext1
from quiverhearts.linalg import Block
from lemmas import realize

PRIMES = [2, 3, 101, 2**31 - 1]


def structure_maps(parts: list[Rep], total: Rep) -> tuple[list[RepMap], list[RepMap]]:
    """Inclusions parts[k] -> total and projections total -> parts[k] of
    the direct sum `total` of `parts`, from identity blocks."""
    incs, projs = [], []
    offs = [0] * len(total.dims)
    for r in parts:
        inc_blocks = []
        for i, d in enumerate(r.dims):
            inc = [0] * (total.dims[i] * d)  # an identity in rows offs[i] .. offs[i] + d
            for k in range(d):
                inc[(offs[i] + k) * d + k] = 1
            inc_blocks.append(Block(total.dims[i], d, tuple(inc)))
            offs[i] += d
        incs.append(RepMap(r, total, inc_blocks))
        projs.append(RepMap(total, r, [b.T for b in inc_blocks]))
    return incs, projs


def matrix_reference(source_parts, target_parts, source, target, rows) -> RepMap:
    """sum over j, k of inc_j o rows[j][k] o prj_k (a module is the sum of
    itself alone)."""
    incs = structure_maps(target_parts, target)[0]
    projs = structure_maps(source_parts, source)[1]
    acc = RepMap.zero(source, target)
    for row, inc in zip(rows, incs):
        for f, prj in zip(row, projs):
            if f is not None:
                acc = acc.add(inc.compose(f).compose(prj))
    return acc


def same_blocks(f: RepMap, g: RepMap) -> bool:
    return f.blocks == g.blocks


def some_map(x: Rep, y: Rep, rng) -> RepMap:
    """A random combination of the Hom basis, or zero when Hom is zero."""
    basis = al.hom_space(x, y)
    if not basis:
        return RepMap.zero(x, y)
    return al.map_from_coords(basis, rng.integers(0, x.algebra.p, size=len(basis)))


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_map_equals_structure_map_sums(p):
    atlas = fx.auslander_a3_atlas(p)
    m = atlas.by_name
    zero = al.zero_rep(atlas.members[0].algebra)
    rng = np.random.default_rng(p % 1000)
    xs = [m["2/34"], zero, m["2/3"], m["2"]]  # with a zero-dimensional summand
    ys = [m["2/34/5"], m["3"], zero, m["34/5"]]
    sx, sy = al.direct_sum(xs), al.direct_sum(ys)
    for _ in range(3):
        for y in ys:  # a row: sum -> one module
            rows = [[some_map(x, y, rng) for x in xs]]
            assert same_blocks(al.matrix_map(sx, y, rows), matrix_reference(xs, [y], sx, y, rows))
        for x in xs:  # a column: one module -> sum
            rows = [[some_map(x, y, rng)] for y in ys]
            assert same_blocks(al.matrix_map(x, sy, rows), matrix_reference([x], ys, x, sy, rows))
        # block-diagonal, every off-diagonal component None
        rows = [[some_map(x, y, rng) if j == k else None for k, x in enumerate(xs)]
                for j, y in enumerate(ys)]
        assert same_blocks(al.matrix_map(sx, sy, rows), matrix_reference(xs, ys, sx, sy, rows))
        # a full matrix with some None components (each row and column keeps one)
        rows = [[some_map(x, y, rng) if (j + k) % 3 or j == k else None
                 for k, x in enumerate(xs)] for j, y in enumerate(ys)]
        assert all(any(f is not None for f in col) for col in zip(*rows))
        assert same_blocks(al.matrix_map(sx, sy, rows), matrix_reference(xs, ys, sx, sy, rows))
        # a single summand on each side: the component itself
        for x, y in zip(xs, ys):
            f = some_map(x, y, rng)
            assert same_blocks(al.matrix_map(x, y, [[f]]), f)


def test_direct_sum_equals_the_checked_constructor():
    """The sum is built without the checking `Rep` constructor, from the
    summands' reduced blocks, and has the content that constructor gives."""
    atlas = fx.ex61().atlas
    parts = [atlas["2/34/5"], atlas["3"], atlas["34/5"]]
    s = al.direct_sum(parts)
    checked = Rep(s.algebra, s.name, s.dims, dict(s.arrow_maps))
    assert s.name == "(2/34/5+3+34/5)" and s.key == checked.key
    for m in s.arrow_maps.values():  # the blocks are immutable: assignment raises
        with pytest.raises(TypeError):
            m[0, 0] = 1


def test_matrix_map_rejects_components_of_the_wrong_sum():
    m = fx.auslander_a3_atlas().by_name
    x, y = m["2/34"], m["3/5"]
    f = RepMap.zero(x, y)
    with pytest.raises(al.AlgebraError):
        al.matrix_map(al.direct_sum([x, x]), y, [[f]])


# ---------------------------------------------------------------------------
# Pushouts and pullbacks of conflations: the split normal form is isomorphic
# to the old construction, the cokernel (kernel) of the column [f; -g] (the
# row [f | -g]) on the direct sum, by the old universal map.


def pushout_reference(f: RepMap, g: RepMap):
    bc = al.direct_sum([f.target, g.target])
    incs, projs = structure_maps([f.target, g.target], bc)
    p_rep, proj = ho.cokernel(incs[0].compose(f).sub(incs[1].compose(g)))
    return p_rep, proj.compose(incs[0]), proj.compose(incs[1]), proj, projs


def couniversal_reference(po_ref, b_map: RepMap, c_map: RepMap) -> RepMap:
    p_rep, _, _, proj, projs = po_ref
    comb = b_map.compose(projs[0]).add(c_map.compose(projs[1]))
    blocks = [la.solve(pj.T, cb.T, b_map.p).T for pj, cb in zip(proj.blocks, comb.blocks)]
    return RepMap(p_rep, b_map.target, blocks)


def pullback_reference(f: RepMap, g: RepMap):
    bc = al.direct_sum([f.source, g.source])
    incs, projs = structure_maps([f.source, g.source], bc)
    p_rep, inc = ho.kernel(f.compose(projs[0]).sub(g.compose(projs[1])))
    return p_rep, projs[0].compose(inc), projs[1].compose(inc), inc, incs


def universal_reference(pb_ref, b_map: RepMap, c_map: RepMap) -> RepMap:
    p_rep, _, _, inc, incs = pb_ref
    comb = incs[0].compose(b_map).add(incs[1].compose(c_map))
    blocks = [la.solve(bi, cb, b_map.p) for bi, cb in zip(inc.blocks, comb.blocks)]
    return RepMap(b_map.source, p_rep, blocks)


def realized_conflations(atlas):
    """One conflation per nonzero Ext^1 class basis vector of atlas pairs."""
    out = []
    for c in atlas:
        for a in atlas:
            e = Ext1(c, a)
            for j in range(e.dim):
                out.append(realize(e, [int(i == j) for i in range(e.dim)]))
    return out


def commutes(f: RepMap, g: RepMap, h: RepMap, k: RepMap) -> bool:
    """f o g == h o k."""
    return same_blocks(f.compose(g), h.compose(k))


def test_pushout_pullback_equal_the_old_formulas():
    atlas = fx.ex61().atlas
    checked = 0
    for conf in realized_conflations(atlas)[::3]:
        for t in atlas.members[::2]:
            for f in al.hom_space(conf.a, t):  # push forward along f: A -> t
                new, leg = ho.pushout_conflation(conf, f)  # t >-> P ->> C, B -> P
                new.validate()
                assert commutes(leg, conf.infl, new.infl, f)
                assert commutes(new.defl, leg, conf.defl, RepMap.identity(conf.b))
                want = pushout_reference(f, conf.infl)  # t -> P_ref <- B
                u = couniversal_reference(want, new.infl, leg)  # P_ref -> P
                assert u.is_isomorphism()
                assert same_blocks(u.compose(want[1]), new.infl)
                assert same_blocks(u.compose(want[2]), leg)
                checked += 1
            for g in al.hom_space(t, conf.c):  # pull back along g: t -> C
                new, leg = ho.pullback_conflation(conf, g)  # A >-> P ->> t, P -> B
                new.validate()
                assert commutes(conf.defl, leg, g, new.defl)
                assert commutes(leg, new.infl, conf.infl, RepMap.identity(conf.a))
                want = pullback_reference(conf.defl, g)  # B <- P_ref -> t
                u = universal_reference(want, leg, new.defl)  # P -> P_ref
                assert u.is_isomorphism()
                assert same_blocks(want[1].compose(u), leg)
                assert same_blocks(want[2].compose(u), new.defl)
                checked += 1
    assert checked >= 20
