"""The brute-force Ext^1 reference that the engine's Ext^1 rows are checked
against.

It counts extensions directly: an extension of C by A is a representation
on the spaces A_v + C_v whose arrow maps are block upper triangular.  The
upper blocks t_x: C_s -> A_t form a cocycle, constrained linearly by the
algebra relations, and the coboundaries come from block-triangular base
change.  No syzygies, covers or approximations are involved.

Both conditions are linear in the entries of the t_x, read row by row, and
are written in Kronecker form: vec(A t C) = (A (x) C^T) vec(t).
"""

from __future__ import annotations

from . import linalg as la
from .algebra import Rep, path_endpoints


def _kron(a: la.Block, b: la.Block, p: int) -> la.Block:
    """a (x) b: entry ((i, j), (u, v)) is a[i, u] b[j, v]."""
    ar, br = a.tolist(), b.tolist()
    return la.Block(a.rows * b.rows, a.cols * b.cols,
                    tuple(x * y % p for ra in ar for rb in br for x in ra for y in rb))


def _eval_path(m: Rep, path, start: str) -> la.Block:
    """The matrix of a (possibly empty) path starting at `start`."""
    mat = la.eye(m.dim_at(start))
    for aid in path:
        mat = la.matmul(m.arrow_maps[aid], mat, m.algebra.p)
    return mat


def ext1_dim_bruteforce(c: Rep, a: Rep) -> int:
    """dim Ext^1(C, A) by cocycles modulo coboundaries."""
    alg = a.algebra
    p, q = alg.p, alg.quiver
    da, dc = dict(zip(q.vertices, a.dims)), dict(zip(q.vertices, c.dims))
    # The unknowns: vec(t_x) for each arrow x: s -> t with a_t c_s > 0.
    arrows = [(aid, s, t) for aid, s, t in q.arrows if da[t] * dc[s]]
    if not arrows:
        return 0
    widths = [da[t] * dc[s] for _, s, t in arrows]
    # Cocycles: on a relation's paths x_1 ... x_n, the upper block is
    # sum_k A(x_{k+1} ... x_n) t_{x_k} C(x_1 ... x_{k-1}), and the sum over
    # the relation's terms vanishes.
    cells, heights = [], []
    for rel in alg.relations:
        src, tgt = path_endpoints(q, rel[0][1])
        height = da[tgt] * dc[src]
        if not height:
            continue
        row = dict.fromkeys(aid for aid, _, _ in arrows)
        for coeff, path in rel:
            for k, aid in enumerate(path):
                if aid in row:
                    suffix = _eval_path(a, path[k + 1 :], q.arrow(aid)[2])
                    term = la.scale(coeff, _kron(suffix, _eval_path(c, path[:k], src).T, p), p)
                    row[aid] = term if row[aid] is None else la.add(row[aid], term, p)
        cells.append(list(row.values()))
        heights.append(height)
    cocycles = sum(widths) - la.rank(la.grid(cells, heights, widths), p)
    # Coboundaries: h = (h_v: C_v -> A_v) gives t_x = A_x h_s - h_t C_x,
    # the columns (A_x (x) I) at s and -(I (x) C_x^T) at t.
    vertices = [v for v in q.vertices if da[v] * dc[v]]
    cob = []
    for aid, s, t in arrows:
        row = dict.fromkeys(vertices)
        if s in row:
            row[s] = _kron(a.arrow_maps[aid], la.eye(dc[s]), p)
        if t in row:
            back = _kron(la.eye(da[t]), c.arrow_maps[aid].T, p)
            row[t] = la.sub(row[t], back, p) if s == t else la.scale(-1, back, p)
        cob.append(list(row.values()))
    hwidths = [da[v] * dc[v] for v in vertices]
    return cocycles - la.rank(la.grid(cob, widths, hwidths), p)
