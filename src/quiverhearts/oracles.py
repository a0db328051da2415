"""Independent brute-force oracles used to cross-check the main algorithms.

The extension-group oracle counts extensions directly: an extension of C by A
is a representation on the spaces A_v + C_v whose arrow maps are block upper
triangular; the strictly upper blocks form a cocycle constrained linearly by
the algebra relations, and coboundaries come from block-triangular base
change.  No syzygies, covers, or approximations are involved.

The quiver-isomorphism oracle tries every bijection of the nodes.

The plain Cone/CoCone search tries every map between X and every direct sum
of the middle class up to dim X plus twice the largest atlas dimension, the
search that `cotorsion._search` replaced with a complete one; the tests
compare the two.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg as la
from .algebra import Rep, RepMap, direct_sum, map_from_coords, path_endpoints
from .cotorsion import Inconclusive, Subcategory, _conflation, _dim_sums
from .homology import Conflation, homs


def _eval_path(m: Rep, path, start: str) -> np.ndarray:
    """Matrix of a (possibly empty) path starting at `start`."""
    mat = la.eye(m.dim_at(start))
    for aid in path:
        mat = la.matmul(m.arrow_maps[aid], mat, m.algebra.p)
    return np.array(mat.tolist(), dtype=np.int64).reshape(mat.shape)


def _t_layout(c: Rep, a: Rep) -> list[tuple[str, int, int]]:
    """Unknown blocks t_arrow: C_src -> A_tgt, flattened row-major."""
    alg = a.algebra
    layout = []
    for aid, src, tgt in alg.quiver.arrows:
        layout.append((aid, a.dim_at(tgt), c.dim_at(src)))
    return layout


def _path_block_rows(c: Rep, a: Rep, path, layout, offsets, coeff, rows):
    """Append the linear forms (in t) of the upper block of coeff * path."""
    alg = a.algebra
    p = alg.p
    q = alg.quiver
    src, tgt = path_endpoints(q, path)
    nrows, ncols = a.dim_at(tgt), c.dim_at(src)
    total = sum(r * cdim for _, r, cdim in layout)
    # entries[i, j] is a length-`total` vector: the linear form in t giving
    # the (i, j) entry of the upper block of this path's evaluation
    entries = np.zeros((nrows, ncols, total), dtype=np.int64)
    # path applied left to right: value = M_{a_k} ... M_{a_1}; upper block =
    # sum_k A(suffix after k) t_{a_k} C(prefix before k)
    blocks = {aid: (r, cdim) for aid, r, cdim in layout}
    for k, aid in enumerate(path):
        cpre = _eval_path(c, path[:k], src)
        _, aid_tgt = path_endpoints(q, (aid,))
        asuf = _eval_path(a, path[k + 1 :], aid_tgt)
        off = offsets[aid]
        tr, tc = blocks[aid]
        if tr == 0 or tc == 0:
            continue
        # entry (i, j) of asuf @ T @ cpre = sum_{u,v} asuf[i,u] T[u,v] cpre[v,j]
        for u in range(tr):
            for v in range(tc):
                contrib = np.outer(asuf[:, u], cpre[v, :]) % p
                entries[:, :, off + u * tc + v] = (
                    entries[:, :, off + u * tc + v] + coeff * contrib
                ) % p
    for i in range(nrows):
        for j in range(ncols):
            rows.append(entries[i, j, :] % p)


def ext1_dim_bruteforce(c: Rep, a: Rep) -> int:
    """dim Ext^1(C, A) by cocycles modulo coboundaries."""
    alg = a.algebra
    p = alg.p
    layout = _t_layout(c, a)
    offsets = {}
    pos = 0
    for aid, r, cdim in layout:
        offsets[aid] = pos
        pos += r * cdim
    total = pos
    if total == 0:
        return 0
    # relation constraints: group relation terms by shared endpoints
    rows: list[np.ndarray] = []
    for rel in alg.relations:
        src, tgt = path_endpoints(alg.quiver, rel[0][1])
        nrows, ncols = a.dim_at(tgt), c.dim_at(src)
        if nrows == 0 or ncols == 0:
            continue
        acc = np.zeros((nrows * ncols, total), dtype=np.int64)
        for coeff, path in rel:
            tmp_rows: list[np.ndarray] = []
            _path_block_rows(c, a, path, layout, offsets, coeff % p, tmp_rows)
            acc = (acc + np.array(tmp_rows, dtype=np.int64)) % p
        rows.extend(acc)
    if rows:
        constraint = np.array(rows, dtype=np.int64) % p
        z_dim = total - la.rank(la.modmat(constraint, p), p)
    else:
        z_dim = total
    # coboundary map: h = (h_v: C_v -> A_v) |-> (A_arrow h_src - h_tgt C_arrow)
    h_sizes = [(v, a.dim_at(v) * c.dim_at(v)) for v in alg.quiver.vertices]
    h_offsets = {}
    pos = 0
    for v, size in h_sizes:
        h_offsets[v] = pos
        pos += size
    h_total = pos
    cob = np.zeros((total, h_total), dtype=np.int64)
    for aid, src, tgt in alg.quiver.arrows:
        tr, tc = a.dim_at(tgt), c.dim_at(src)
        if tr == 0 or tc == 0:
            continue
        off = offsets[aid]
        amap = a.arrow_maps[aid]  # A_tgt x A_src
        cmap = c.arrow_maps[aid]  # C_tgt x C_src
        # t_a[u, v] = sum_w amap[u, w] h_src[w, v] - sum_w h_tgt[u, w] cmap[w, v]
        hs_off, ht_off = h_offsets[src], h_offsets[tgt]
        a_src, c_src = a.dim_at(src), c.dim_at(src)
        c_tgt = c.dim_at(tgt)
        for u in range(tr):
            for v in range(tc):
                row = off + u * tc + v
                for w in range(a_src):
                    cob[row, hs_off + w * c_src + v] += amap[u, w]
                for w in range(c_tgt):
                    cob[row, ht_off + u * c_tgt + w] -= cmap[w, v]
    cob %= p
    b_dim = la.rank(la.modmat(cob, p), p) if h_total else 0
    return z_dim - b_dim


def quivers_isomorphic_bruteforce(q1, q2) -> bool:
    """Digraph isomorphism with arrow multiplicities, by trying every
    bijection of the nodes (quivers with `nodes` and an `arrows` dict
    (source, target) -> multiplicity)."""
    if len(q1.nodes) != len(q2.nodes):
        return False
    for perm in itertools.permutations(q2.nodes):
        m = dict(zip(q1.nodes, perm))
        if all(
            q2.arrows.get((m[s], m[t]), 0) == k for (s, t), k in q1.arrows.items()
        ) and sum(q1.arrows.values()) == sum(q2.arrows.values()):
            return True
    return False


def candidate_sums(members: list[Rep], max_total: int):
    """All direct sums from `members` (with multiplicity) up to a size bound."""
    nonzero = [m for m in members if not m.is_zero()]
    nonzero.sort(key=lambda m: (m.total_dim, m.name))

    def rec(start: int, budget: int):
        yield []
        for i in range(start, len(nonzero)):
            m = nonzero[i]
            if m.total_dim <= budget:
                for rest in rec(i, budget - m.total_dim):
                    yield [m] + rest

    for combo in rec(0, max_total):
        if combo:
            yield combo


def all_maps(x: Rep, b: Rep):
    """Every morphism x -> b (field must be small for this to be sane)."""
    basis = homs(x, b)
    p = x.algebra.p
    if len(basis) == 0:
        yield RepMap.zero(x, b)
        return
    if p ** len(basis) > 200000:
        raise Inconclusive(
            f"morphism space too large to enumerate: p^{len(basis)} with p={p}"
        )
    for coords in itertools.product(range(p), repeat=len(basis)):
        yield map_from_coords(basis, coords)


def plain_search(side: str, x: Rep, bp: Subcategory, bpp: Subcategory) -> Conflation | None:
    """The first conflation B' >-> B'' ->> X (right) or X >-> B' ->> B''
    (left) with ends in the classes, over every sum of the middle class of
    total dimension at most dim X plus twice the largest atlas dimension and
    every map between it and X; a sum whose far end has a dimension vector
    outside add(far class) is skipped, as in `cotorsion._search`."""
    right = side == "right"
    sums, end_class = (bpp, bp) if right else (bp, bpp)
    max_total = x.total_dim + 2 * max((m.total_dim for m in sums.atlas), default=0)
    reachable = _dim_sums(end_class)
    for combo in candidate_sums(sums.members, max_total):
        dims = tuple(map(sum, zip(*(m.dims for m in combo))))
        if not reachable(tuple(s - d for s, d in zip(dims, x.dims))):
            continue
        total = direct_sum(combo)
        for f in all_maps(total, x) if right else all_maps(x, total):
            if f.is_surjective() if right else f.is_injective():
                conf, end = _conflation(side, f)
                if end_class.contains(end):
                    return conf
    return None
