"""Bound quiver algebras over F_p and their finite-dimensional representations.

A representation assigns to each vertex a space F_p^d and to each arrow
i -> j a (d_j, d_i) matrix.  Morphisms are vertexwise matrices commuting
with the arrow maps.  The algebra itself only enters through its path
basis (used to build the indecomposable projectives) and through relation
checking on representations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (arrow id, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex ids")
        ids = [a[0] for a in self.arrows]
        if len(set(ids)) != len(ids):
            raise AlgebraError("duplicate arrow ids")
        for aid, s, t in self.arrows:
            if s not in self.vertices or t not in self.vertices:
                raise AlgebraError(f"arrow {aid} has undeclared endpoint")

    def arrow(self, aid: str) -> tuple[str, str, str]:
        for a in self.arrows:
            if a[0] == aid:
                return a
        raise AlgebraError(f"unknown arrow {aid}")

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)


# A path is a tuple of arrow ids, applied left to right:
# (a, b) means "a first, then b", so source(path) = source(a).
Path = tuple[str, ...]
# A relation is a linear combination of parallel paths of length >= 2.
Relation = tuple[tuple[int, Path], ...]


def path_endpoints(quiver: Quiver, path: Path) -> tuple[str, str]:
    if not path:
        raise AlgebraError("empty path")
    src = quiver.arrow(path[0])[1]
    cur = src
    for aid in path:
        _, s, t = quiver.arrow(aid)
        if s != cur:
            raise AlgebraError(f"path {path} not composable at {aid}")
        cur = t
    return src, cur


@dataclass(frozen=True)
class BoundQuiverAlgebra:
    quiver: Quiver
    p: int
    relations: tuple[Relation, ...] = ()
    max_path_length: int = 24

    def __post_init__(self):
        if (self.p - 1) ** 2 >= la.INT64_BOUND:
            raise AlgebraError(
                f"field characteristic {self.p} is too large for exact int64 arithmetic"
            )
        # Exact: the cap above keeps isqrt(p) below about 55,000.
        if self.p < 2 or any(self.p % q == 0 for q in range(2, math.isqrt(self.p) + 1)):
            raise AlgebraError(f"field characteristic {self.p} is not prime")
        for rel in self.relations:
            if not rel:
                raise AlgebraError("empty relation")
            ends = {path_endpoints(self.quiver, path) for _, path in rel}
            if len(ends) != 1:
                raise AlgebraError(f"relation {rel} mixes path endpoints")
            if any(len(path) < 2 for _, path in rel):
                raise AlgebraError(f"relation {rel} is not admissible (path of length < 2)")

    @property
    def n_vertices(self) -> int:
        return len(self.quiver.vertices)


@dataclass(frozen=True)
class PathBasis:
    """Basis of kQ/I by paths, with reduction of non-basis paths.

    basis_paths includes the trivial paths ((), v) encoded as (("",), v)?  No:
    trivial paths are represented by the empty tuple tagged with their vertex.
    """

    algebra: BoundQuiverAlgebra
    paths: tuple[tuple[Path, str, str], ...]  # (path, source, target); () excluded
    basis: tuple[int, ...]  # indices into paths that survive in the quotient
    reduction: dict  # path index -> {basis index: coeff} for non-basis paths

    def reduce_path(self, idx: int) -> dict[int, int]:
        if idx in self.basis:
            return {idx: 1}
        return self.reduction.get(idx, {})


def _enumerate_paths(q: Quiver, max_len: int) -> list[tuple[Path, str, str]]:
    out: list[tuple[Path, str, str]] = []
    frontier = [((aid,), s, t) for aid, s, t in q.arrows]
    length = 1
    while frontier and length <= max_len:
        out.extend(sorted(frontier))
        nxt = []
        for path, s, t in frontier:
            for aid, s2, t2 in q.arrows:
                if s2 == t:
                    nxt.append((path + (aid,), s, t2))
        frontier = nxt
        length += 1
    return out


def compute_path_basis(alg: BoundQuiverAlgebra) -> PathBasis:
    """Quotient basis of paths (length >= 1) of kQ/I, certifying nilpotency.

    Certification: find L with every length-L path inside the truncated
    ideal span, so the arrow ideal is nilpotent modulo the relations.
    """
    q = alg.quiver
    for cap in range(2, alg.max_path_length + 1):
        paths = _enumerate_paths(q, cap)
        index = {pt[0]: i for i, pt in enumerate(paths)}
        n = len(paths)
        gens = []
        # two-sided ideal generators: left * relation * right, truncated at cap
        for rel in alg.relations:
            rsrc, rtgt = path_endpoints(q, rel[0][1])
            lefts = [()] + [pt[0] for pt in paths if pt[2] == rsrc]
            rights = [()] + [pt[0] for pt in paths if pt[1] == rtgt]
            for lp in lefts:
                for rp in rights:
                    vec = la.zeros(1, n)[0]
                    ok = True
                    for coeff, mid in rel:
                        full = lp + mid + rp
                        if len(full) > cap:
                            ok = False
                            break
                        vec[index[full]] = (vec[index[full]] + coeff) % alg.p
                    if ok and vec.any():
                        gens.append(vec)
        gen_mat = la.vstack([g.reshape(1, -1) for g in gens], n)
        red, pivots = la.rref(gen_mat, alg.p)
        basis_idx = tuple(i for i in range(n) if i not in pivots)
        # every path of exact length `cap` must be killed in the quotient
        top_ok = all(paths[i][0].__len__() < cap for i in basis_idx)
        if not top_ok:
            continue
        reduction = {}
        for row, pc in enumerate(pivots):
            expr = {}
            for j in basis_idx:
                c = int(red[row, j])
                if c:
                    expr[j] = (-c) % alg.p
            reduction[pc] = expr
        return PathBasis(alg, tuple(paths), basis_idx, reduction)
    raise AlgebraError(
        "could not certify nilpotency of the arrow ideal within "
        f"max_path_length={alg.max_path_length}"
    )


_PATH_BASIS_CACHE: dict[BoundQuiverAlgebra, PathBasis] = {}


def path_basis(alg: BoundQuiverAlgebra) -> PathBasis:
    pb = _PATH_BASIS_CACHE.get(alg)
    if pb is None:
        pb = compute_path_basis(alg)
        _PATH_BASIS_CACHE[alg] = pb
    return pb


class Rep:
    """A finite-dimensional representation (module) over a bound quiver algebra."""

    def __init__(self, algebra: BoundQuiverAlgebra, name: str, dims, arrow_maps=None):
        self.algebra = algebra
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n_vertices:
            raise AlgebraError("dims length does not match vertex count")
        if any(d < 0 for d in self.dims):
            raise AlgebraError("negative dimension")
        q = algebra.quiver
        maps = {}
        arrow_maps = arrow_maps or {}
        for aid, s, t in q.arrows:
            di, dj = self.dims[q.vertex_index(s)], self.dims[q.vertex_index(t)]
            m = arrow_maps.get(aid)
            m = la.zeros(dj, di) if m is None else la.modmat(m, algebra.p)
            if m.shape != (dj, di):
                raise AlgebraError(f"arrow map {aid} has shape {m.shape}, expected {(dj, di)}")
            m.setflags(write=False)
            maps[aid] = m
        self.arrow_maps = maps

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_at(self, v: str) -> int:
        return self.dims[self.algebra.quiver.vertex_index(v)]

    def evaluate_path(self, path: Path) -> np.ndarray:
        """Matrix of the path acting on this representation."""
        q = self.algebra.quiver
        src, tgt = path_endpoints(q, path)
        m = la.eye(self.dim_at(src))
        for aid in path:
            m = la.matmul(self.arrow_maps[aid], m, self.algebra.p)
        return m

    def relation_defect(self) -> list[Relation]:
        """Relations of the algebra that do not evaluate to zero on this Rep."""
        bad = []
        for rel in self.algebra.relations:
            src, tgt = path_endpoints(self.algebra.quiver, rel[0][1])
            acc = la.zeros(self.dim_at(tgt), self.dim_at(src))
            for coeff, path in rel:
                acc = np.mod(acc + coeff * self.evaluate_path(path), self.algebra.p)
            if acc.any():
                bad.append(rel)
        return bad

    def validate(self) -> "Rep":
        bad = self.relation_defect()
        if bad:
            raise AlgebraError(f"representation {self.name} violates relations {bad}")
        return self

    def renamed(self, name: str) -> "Rep":
        return Rep(self.algebra, name, self.dims, self.arrow_maps)

    def __repr__(self):
        return f"Rep({self.name}, dims={self.dims})"


class RepMap:
    """A morphism of representations: one matrix per vertex, intertwining.

    The public constructor reduces every block mod p, checks its shape and
    checks that the blocks intertwine.  Maps built inside the package from
    blocks that are valid by construction (arithmetic on maps, hom bases,
    direct sums, kernels, cokernels, images, duals) go through `_trusted`,
    which skips that work.
    """

    def __init__(self, source: Rep, target: Rep, blocks):
        if source.algebra is not target.algebra and source.algebra != target.algebra:
            raise AlgebraError("morphism between representations of different algebras")
        self.source = source
        self.target = target
        self.p = source.algebra.p
        q = source.algebra.quiver
        bl = []
        for i, v in enumerate(q.vertices):
            m = la.modmat(blocks[i], self.p) if blocks[i] is not None else la.zeros(
                target.dims[i], source.dims[i]
            )
            if m.shape != (target.dims[i], source.dims[i]):
                raise AlgebraError(f"block at {v} has shape {m.shape}")
            m.setflags(write=False)
            bl.append(m)
        self.blocks = tuple(bl)
        if not self.intertwines():
            raise AlgebraError("blocks do not intertwine the arrow maps")

    @classmethod
    def _trusted(cls, source: Rep, target: Rep, blocks) -> "RepMap":
        """Build a map from blocks known to be valid, checking nothing.

        Invariant, kept by the caller: each block is an int64 array with
        entries in [0, p), of shape (target.dims[i], source.dims[i]), and
        the blocks intertwine the arrow maps.  The blocks are made
        read-only here, so the caller must not write to them afterwards.
        """
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f.p = source.algebra.p
        for b in blocks:
            b.setflags(write=False)
        f.blocks = tuple(blocks)
        return f

    def intertwines(self) -> bool:
        q = self.source.algebra.quiver
        for aid, s, t in q.arrows:
            i, j = q.vertex_index(s), q.vertex_index(t)
            lhs = la.matmul(self.target.arrow_maps[aid], self.blocks[i], self.p)
            rhs = la.matmul(self.blocks[j], self.source.arrow_maps[aid], self.p)
            if not np.array_equal(lhs, rhs):
                return False
        return True

    @staticmethod
    def zero(source: Rep, target: Rep) -> "RepMap":
        return RepMap._trusted(
            source, target, [la.zeros(t, s) for s, t in zip(source.dims, target.dims)]
        )

    @staticmethod
    def identity(m: Rep) -> "RepMap":
        return RepMap._trusted(m, m, [la.eye(d) for d in m.dims])

    def compose(self, first: "RepMap") -> "RepMap":
        """self o first."""
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise AlgebraError("composition shape mismatch")
        blocks = [la.matmul(b2, b1, self.p) for b1, b2 in zip(first.blocks, self.blocks)]
        return RepMap._trusted(first.source, self.target, blocks)

    def add(self, other: "RepMap") -> "RepMap":
        if other.source.dims != self.source.dims or other.target.dims != self.target.dims:
            raise AlgebraError("sum of maps of different shapes")
        blocks = [np.mod(a + b, self.p) for a, b in zip(self.blocks, other.blocks)]
        return RepMap._trusted(self.source, self.target, blocks)

    def scale(self, c: int) -> "RepMap":
        c = int(c) % self.p
        blocks = [np.mod(c * b, self.p) for b in self.blocks]
        return RepMap._trusted(self.source, self.target, blocks)

    def neg(self) -> "RepMap":
        return self.scale(self.p - 1)

    def sub(self, other: "RepMap") -> "RepMap":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return all(not b.any() for b in self.blocks)

    def is_injective(self) -> bool:
        return all(la.rank(b, self.p) == b.shape[1] for b in self.blocks)

    def is_surjective(self) -> bool:
        return all(la.rank(b, self.p) == b.shape[0] for b in self.blocks)

    def is_isomorphism(self) -> bool:
        return all(la.is_invertible(b, self.p) for b in self.blocks)

    def inverse(self) -> "RepMap":
        if not self.is_isomorphism():
            raise AlgebraError("not invertible")
        return RepMap._trusted(self.target, self.source, [la.inv(b, self.p) for b in self.blocks])

    def flat(self) -> np.ndarray:
        """All block entries as one vector (for span computations)."""
        if not self.blocks:
            return la.zeros(1, 0)[0]
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def __repr__(self):
        return f"RepMap({self.source.name} -> {self.target.name})"


def _hom_unknown_layout(m: Rep, n: Rep) -> list[tuple[int, int, int]]:
    """(vertex index, rows, cols) per vertex for the unknown blocks."""
    return [(i, n.dims[i], m.dims[i]) for i in range(len(m.dims))]


def hom_space(m: Rep, n: Rep) -> list[RepMap]:
    """Deterministic basis of Hom(m, n) by solving the intertwining equations."""
    if m.algebra != n.algebra:
        raise AlgebraError("hom between representations over different algebras")
    p = m.algebra.p
    q = m.algebra.quiver
    layout = _hom_unknown_layout(m, n)
    offsets = []
    total = 0
    for _, r, c in layout:
        offsets.append(total)
        total += r * c
    if total == 0:
        return []
    rows = []
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        na, ma = n.arrow_maps[aid], m.arrow_maps[aid]
        # constraint: na @ f_i - f_j @ ma = 0, entrywise
        di, dj = m.dims[i], m.dims[j]
        ei, ej = n.dims[i], n.dims[j]
        if ej == 0 or di == 0:
            continue
        for r_ in range(ej):
            for c_ in range(di):
                row = la.zeros(1, total)[0]
                # d(na@f_i)[r_,c_]/d f_i[k,c_] = na[r_,k]
                for k in range(ei):
                    row[offsets[i] + k * di + c_] = (row[offsets[i] + k * di + c_] + na[r_, k]) % p
                # d(f_j@ma)[r_,c_]/d f_j[r_,k] = ma[k,c_]
                for k in range(dj):
                    row[offsets[j] + r_ * dj + k] = (row[offsets[j] + r_ * dj + k] - ma[k, c_]) % p
                if row.any():
                    rows.append(row)
    mat = la.vstack([r.reshape(1, -1) for r in rows], total)
    ns = la.nullspace(mat, p) if mat.shape[0] else la.eye(total)
    # One contiguous row per basis map, so each block is a view of it.
    vecs = np.ascontiguousarray(ns.T)
    return [
        RepMap._trusted(
            m, n, [vec[off : off + r * c].reshape(r, c) for (_, r, c), off in zip(layout, offsets)]
        )
        for vec in vecs
    ]


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_space(m, n))


def map_from_coords(basis: list[RepMap], coords) -> RepMap:
    """sum_k coords[k] * basis[k], one combination per vertex."""
    if not basis:
        raise AlgebraError("empty basis")
    f0, k = basis[0], len(basis)
    c = np.mod(np.asarray(coords, dtype=np.int64), f0.p).reshape(1, -1)
    if c.shape != (1, k):
        raise AlgebraError(f"{k} basis maps but {c.size} coordinates")
    blocks = []
    for i, b0 in enumerate(f0.blocks):
        stacked = np.stack([f.blocks[i] for f in basis]).reshape(k, -1)
        blocks.append(la.matmul(c, stacked, f0.p).reshape(b0.shape))
    return RepMap._trusted(f0.source, f0.target, blocks)


def coords_in_basis(basis: list[RepMap], f: RepMap, p: int) -> np.ndarray | None:
    """Coordinates of f in a spanning list of RepMaps, or None."""
    if not basis:
        return la.zeros(1, 0)[0] if f.is_zero() else None
    mat = np.stack([b.flat() for b in basis], axis=1)
    sol = la.solve(mat, f.flat().reshape(-1, 1), p)
    return None if sol is None else sol[:, 0]


def direct_sum(reps: list[Rep], name: str | None = None):
    """Block-diagonal sum; returns (sum, inclusions, projections)."""
    if not reps:
        raise AlgebraError("direct_sum of empty list needs an algebra; use zero_rep")
    alg = reps[0].algebra
    nv = alg.n_vertices
    dims = [sum(r.dims[i] for r in reps) for i in range(nv)]
    maps = {}
    q = alg.quiver
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        blocks = [r.arrow_maps[aid] for r in reps]
        m = la.zeros(dims[j], dims[i])
        ro = co = 0
        for r, b in zip(reps, blocks):
            m[ro : ro + r.dims[j], co : co + r.dims[i]] = b
            ro += r.dims[j]
            co += r.dims[i]
        maps[aid] = m
    total = Rep(alg, name or "(" + "+".join(r.name for r in reps) + ")", dims, maps)
    incls, projs = [], []
    offs = [0] * nv
    for r in reps:
        inc_blocks, prj_blocks = [], []
        for i in range(nv):
            inc = la.zeros(dims[i], r.dims[i])
            prj = la.zeros(r.dims[i], dims[i])
            inc[offs[i] : offs[i] + r.dims[i], :] = la.eye(r.dims[i])
            prj[:, offs[i] : offs[i] + r.dims[i]] = la.eye(r.dims[i])
            inc_blocks.append(inc)
            prj_blocks.append(prj)
        incls.append(RepMap._trusted(r, total, inc_blocks))
        projs.append(RepMap._trusted(total, r, prj_blocks))
        for i in range(nv):
            offs[i] += r.dims[i]
    return total, incls, projs


def zero_rep(alg: BoundQuiverAlgebra) -> Rep:
    return Rep(alg, "0", [0] * alg.n_vertices)


def standard_modules(alg: BoundQuiverAlgebra):
    """Indecomposable projectives, injectives and simples per vertex.

    projective(v) has basis the quotient classes of paths out of v
    (including the trivial path); injective(v) is its dual over the
    opposite algebra.
    """
    pb = path_basis(alg)
    q = alg.quiver
    projectives, simples = {}, {}
    for v in q.vertices:
        # basis: trivial path at v, plus basis paths with source v
        idxs = [i for i in pb.basis if pb.paths[i][1] == v]
        vert_of = {None: v}
        slots: list[tuple[str, int | None]] = [(v, None)] + [
            (pb.paths[i][2], i) for i in idxs
        ]
        dims = [0] * alg.n_vertices
        local_index = []
        for w, i in slots:
            vi = q.vertex_index(w)
            local_index.append((vi, dims[vi]))
            dims[vi] += 1
        maps = {}
        for aid, s, t in q.arrows:
            si, ti = q.vertex_index(s), q.vertex_index(t)
            m = la.zeros(dims[ti], dims[si])
            for slot, (w, i) in enumerate(slots):
                if w != s:
                    continue
                new_path = (aid,) if i is None else pb.paths[i][0] + (aid,)
                # reduce new_path in the quotient basis
                pidx = _path_index(pb, new_path)
                if pidx is None:
                    continue
                src_col = local_index[slot][1]
                for bidx, coeff in pb.reduce_path(pidx).items():
                    tslot = slots.index((pb.paths[bidx][2], bidx))
                    m[local_index[tslot][1], src_col] = coeff % alg.p
            maps[aid] = m
        projectives[v] = Rep(alg, f"P({v})", dims, maps).validate()
        sd = [0] * alg.n_vertices
        sd[q.vertex_index(v)] = 1
        simples[v] = Rep(alg, f"S({v})", sd)
    op = opposite_algebra(alg)
    op_proj = {v: _op_projective(op, v) for v in q.vertices}
    injectives = {v: dual_rep(op_proj[v], alg, f"I({v})").validate() for v in q.vertices}
    return {"projective": projectives, "injective": injectives, "simple": simples}


def _op_projective(op_alg: BoundQuiverAlgebra, v: str) -> Rep:
    return standard_modules_projective_only(op_alg)[v]


_STD_PROJ_CACHE: dict[BoundQuiverAlgebra, dict[str, Rep]] = {}


def standard_modules_projective_only(alg: BoundQuiverAlgebra) -> dict[str, Rep]:
    got = _STD_PROJ_CACHE.get(alg)
    if got is not None:
        return got
    pb = path_basis(alg)
    q = alg.quiver
    out = {}
    for v in q.vertices:
        idxs = [i for i in pb.basis if pb.paths[i][1] == v]
        slots: list[tuple[str, int | None]] = [(v, None)] + [(pb.paths[i][2], i) for i in idxs]
        dims = [0] * alg.n_vertices
        local_index = []
        for w, i in slots:
            vi = q.vertex_index(w)
            local_index.append((vi, dims[vi]))
            dims[vi] += 1
        maps = {}
        for aid, s, t in q.arrows:
            si, ti = q.vertex_index(s), q.vertex_index(t)
            m = la.zeros(dims[ti], dims[si])
            for slot, (w, i) in enumerate(slots):
                if w != s:
                    continue
                new_path = (aid,) if i is None else pb.paths[i][0] + (aid,)
                pidx = _path_index(pb, new_path)
                if pidx is None:
                    continue
                src_col = local_index[slot][1]
                for bidx, coeff in pb.reduce_path(pidx).items():
                    tslot = slots.index((pb.paths[bidx][2], bidx))
                    m[local_index[tslot][1], src_col] = coeff % alg.p
            maps[aid] = m
        out[v] = Rep(alg, f"P({v})", dims, maps).validate()
    _STD_PROJ_CACHE[alg] = out
    return out


def _path_index(pb: PathBasis, path: Path) -> int | None:
    for i, (pth, s, t) in enumerate(pb.paths):
        if pth == path:
            return i
    return None


_OP_CACHE: dict[BoundQuiverAlgebra, BoundQuiverAlgebra] = {}


def opposite_algebra(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    got = _OP_CACHE.get(alg)
    if got is not None:
        return got
    q = alg.quiver
    opq = Quiver(q.vertices, tuple((aid, t, s) for aid, s, t in q.arrows))
    oprels = tuple(
        tuple((c, tuple(reversed(path))) for c, path in rel) for rel in alg.relations
    )
    op = BoundQuiverAlgebra(opq, alg.p, oprels, alg.max_path_length)
    _OP_CACHE[alg] = op
    _OP_CACHE[op] = alg
    return op


def dual_rep(m: Rep, op_alg: BoundQuiverAlgebra | None = None, name: str | None = None) -> Rep:
    """The linear-dual representation over the opposite algebra."""
    op_alg = op_alg or opposite_algebra(m.algebra)
    maps = {aid: m.arrow_maps[aid].T for aid, _, _ in op_alg.quiver.arrows}
    return Rep(op_alg, name or f"D({m.name})", m.dims, maps)


def dual_map(f: RepMap, dsrc: Rep, dtgt: Rep) -> RepMap:
    """Dual of f: given duals of f.target (dsrc) and f.source (dtgt)."""
    return RepMap._trusted(dsrc, dtgt, [b.T for b in f.blocks])


# ---------------------------------------------------------------------------
# Endomorphism-algebra machinery: radical, locality, indecomposability.


def _as_matrix_algebra(endos: list[RepMap]) -> list[np.ndarray]:
    """Endomorphisms as block-diagonal matrices on the total space."""
    mats = []
    for f in endos:
        n = f.source.total_dim
        m = la.zeros(n, n)
        off = 0
        for b in f.blocks:
            d = b.shape[0]
            m[off : off + d, off : off + d] = b
            off += d
        mats.append(m)
    return mats


def _radical_of_span(mats: list[np.ndarray], p: int) -> list[int] | np.ndarray:
    """Radical of the spanned matrix algebra via the trace form.

    Requires p > total matrix size (Dickson's criterion); raises otherwise.
    Returns a matrix whose columns are radical coordinates w.r.t. mats.
    """
    k = len(mats)
    if k == 0:
        return la.zeros(0, 0)
    n = mats[0].shape[0]
    if p <= n:
        raise AlgebraError(
            f"radical computation needs field char p > {n}; got p = {p}. "
            "Use a larger prime for decomposition machinery."
        )
    gram = la.zeros(k, k)
    for i in range(k):
        for j in range(k):
            gram[i, j] = int(np.trace(la.matmul(mats[i], mats[j], p))) % p
    return la.nullspace(gram, p)


def end_radical(m: Rep) -> tuple[list[RepMap], list[RepMap]]:
    """(basis of End(m), basis of rad End(m))."""
    endos = hom_space(m, m)
    mats = _as_matrix_algebra(endos)
    radc = _radical_of_span(mats, m.algebra.p)
    rad = []
    for j in range(radc.shape[1]):
        rad.append(map_from_coords(endos, radc[:, j]))
    return endos, rad


def _poly_mod(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """f mod g for coefficient vectors (lowest degree first), g monic-ish."""
    f = np.mod(f.copy(), p)
    dg = len(g) - 1
    lg_inv = la.inv_scalar(int(g[-1]), p)
    while len(f) - 1 >= dg and f.any():
        df = len(f) - 1
        if not f[-1]:
            f = f[:-1]
            continue
        c = (int(f[-1]) * lg_inv) % p
        shift = df - dg
        sub = np.concatenate([la.zeros(1, shift)[0], np.mod(c * g, p)])
        f = np.mod(f - sub[: len(f)], p)
        f = f[:-1]
    while len(f) > 1 and not f[-1]:
        f = f[:-1]
    return f


def _poly_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a, b = np.mod(a, p), np.mod(b, p)
    while b.any() and len(b) > 0:
        a, b = b, _poly_mod(a, b, p)
        if not b.any():
            break
    return a


def _poly_mulmod(a: np.ndarray, b: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    """a * b mod f.  Coefficients are multiplied and summed as Python ints:
    a sum of several (p-1)^2 terms can pass 2^63 for the larger fields."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            prod[i + j] += x * y
    return _poly_mod(np.array([c % p for c in prod], dtype=np.int64), f, p)


def _poly_powmod_x(q: int, f: np.ndarray, p: int) -> np.ndarray:
    """x^q mod f, square-and-multiply on coefficient vectors."""
    result = np.array([1], dtype=np.int64)
    base = np.array([0, 1], dtype=np.int64)
    base = _poly_mod(base, f, p)
    e = q
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _is_irreducible(f: np.ndarray, p: int) -> bool:
    """Irreducibility of a monic poly over F_p (Rabin's test)."""
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    xqn = _poly_powmod_x(p**n, f, p)
    # check x^{p^n} == x mod f
    xx = _poly_mod(np.array([0, 1], dtype=np.int64), f, p)
    a = np.zeros(max(len(xqn), len(xx)), dtype=np.int64)
    a[: len(xqn)] += xqn
    a[: len(xx)] -= xx
    if np.mod(a, p).any():
        return False
    # for each prime divisor r of n: gcd(x^{p^{n/r}} - x, f) must be constant
    for r in _prime_divisors(n):
        xq = _poly_powmod_x(p ** (n // r), f, p)
        b = np.zeros(max(len(xq), 2), dtype=np.int64)
        b[: len(xq)] += xq
        b[1] -= 1
        g = _poly_gcd(f, np.mod(b, p), p)
        if len(g) - 1 >= 1 and g.any():
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _min_poly(mat: np.ndarray, p: int) -> np.ndarray:
    """Minimal polynomial of a square matrix over F_p (lowest degree first)."""
    n = mat.shape[0]
    powers = [la.eye(n)]
    for _ in range(n):
        powers.append(la.matmul(powers[-1], mat, p))
    vecs = np.stack([m.reshape(-1) for m in powers], axis=1)
    for d in range(1, n + 2):
        sub = vecs[:, : d + 1]
        ns = la.nullspace(sub, p)
        for k in range(ns.shape[1]):
            if ns[d, k]:
                coeffs = np.mod(ns[:, k] * la.inv_scalar(int(ns[d, k]), p), p)
                return coeffs[: d + 1]
    raise AlgebraError("minimal polynomial not found")  # pragma: no cover


def is_indecomposable(m: Rep, trials: int = 20, seed: int = 0) -> bool:
    """End(m) local?  rad via trace form, then field test on End/rad.

    End/rad is a field iff it is commutative and some element has an
    irreducible minimal polynomial of degree dim(End/rad); random elements
    of a finite field are primitive with high probability, so `trials`
    draws give a Monte Carlo test with one-sided error.
    """
    if m.is_zero():
        raise AlgebraError("zero module is neither decomposable nor indecomposable")
    endos = hom_space(m, m)
    if len(endos) == 1:
        return True
    p = m.algebra.p
    mats = _as_matrix_algebra(endos)
    radc = _radical_of_span(mats, p)
    # quotient End/rad: complement coordinates
    qmap = la.quotient_map(radc, len(endos), p)
    qdim = qmap.shape[0]
    if qdim == 1:
        return True
    # structure constants of the quotient: lift basis, multiply, project
    lift = la.right_inverse(qmap, p)
    basis_mats = []
    for j in range(qdim):
        coords = lift[:, j]
        acc = la.zeros(*mats[0].shape)
        for c, mt in zip(coords, mats):
            acc = np.mod(acc + int(c) * mt, p)
        basis_mats.append(acc)

    flat = np.stack([mt.reshape(-1) for mt in mats], axis=1)

    def coords_of_mat(mat: np.ndarray) -> np.ndarray:
        sol = la.solve(flat, mat.reshape(-1, 1), p)
        if sol is None:
            raise AlgebraError("product left the endomorphism algebra")
        return sol[:, 0]

    # multiplication table in quotient coordinates
    mult = {}
    for i in range(qdim):
        for j in range(qdim):
            prod = la.matmul(basis_mats[i], basis_mats[j], p)
            mult[(i, j)] = la.matmul(qmap, coords_of_mat(prod).reshape(-1, 1), p)[:, 0]
    # commutativity
    for i in range(qdim):
        for j in range(i + 1, qdim):
            if not np.array_equal(mult[(i, j)], mult[(j, i)]):
                return False
    # field test: look for an element with irreducible min poly of degree qdim
    rng = np.random.default_rng(seed)
    reg = [la.zeros(qdim, qdim) for _ in range(qdim)]
    for i in range(qdim):
        for j in range(qdim):
            reg[i][:, j] = mult[(i, j)]  # left multiplication by basis i
    for _ in range(trials):
        coords = rng.integers(0, p, size=qdim)
        lmat = la.zeros(qdim, qdim)
        for c, r in zip(coords, reg):
            lmat = np.mod(lmat + int(c) * r, p)
        mp = _min_poly(lmat, p)
        if len(mp) - 1 == qdim and _is_irreducible(mp, p):
            return True
    return False


def _find_split_pair(x: Rep, m: Rep) -> tuple[RepMap, RepMap] | None:
    """(s: x -> m, r: m -> x) with r o s invertible, if x splits off m.

    Exact for indecomposable x with local End(x): the composites of basis
    elements span all composites, and in a local algebra every element
    outside the radical (equivalently: every invertible composite) shows up
    among basis products whenever a split pair exists.
    """
    if any(dx > dm for dx, dm in zip(x.dims, m.dims)):
        return None
    into = hom_space(x, m)
    outof = hom_space(m, x)
    for r in outof:
        for s in into:
            u = r.compose(s)
            if u.is_isomorphism():
                return s, r
    return None


def decompose_with_maps(m: Rep, atlas: "IndecSet"):
    """Krull-Schmidt decomposition against the atlas.

    Returns a list of (atlas member, inclusion, projection) with
    projection o inclusion = id on the member and the inclusions/projections
    forming a biproduct decomposition of m.
    """
    out = []
    cur = m
    # embed/project chain back to the original m
    chain_inc = RepMap.identity(m)
    chain_prj = RepMap.identity(m)
    while not cur.is_zero():
        found = None
        for member in atlas.members:
            pair = _find_split_pair(member, cur)
            if pair is not None:
                found = (member, pair)
                break
        if found is None:
            raise AlgebraError(
                f"atlas incomplete: nonzero remainder {cur.dims} has no split summand"
            )
        member, (s, r) = found
        u_inv = r.compose(s).inverse()
        proj = u_inv.compose(r)  # cur -> member, proj o s = id
        e = s.compose(proj)  # idempotent on cur with image ~ member
        out.append((member, chain_inc.compose(s), proj.compose(chain_prj)))
        # complement: kernel of e
        from .homology import kernel  # deferred: avoids an import cycle

        comp, k_inc = kernel(e)
        one_minus_e = RepMap.identity(cur).sub(e)
        k_prj_blocks = []
        for b_inc, b_ome in zip(k_inc.blocks, one_minus_e.blocks):
            sol = la.solve(b_inc, b_ome, m.algebra.p)
            if sol is None:
                raise AlgebraError("split complement projection failed")
            k_prj_blocks.append(sol)
        k_prj = RepMap._trusted(cur, comp, k_prj_blocks)
        chain_inc = chain_inc.compose(k_inc)
        chain_prj = k_prj.compose(chain_prj)
        cur = comp
    return out


def decompose(m: Rep, atlas: "IndecSet") -> dict[str, int]:
    """Multiset (name -> multiplicity) of atlas members of m."""
    if m.is_zero():
        return {}
    counts: dict[str, int] = {}
    for member, _, _ in decompose_with_maps(m, atlas):
        counts[member.name] = counts.get(member.name, 0) + 1
    return counts


def is_isomorphic(m: Rep, n: Rep, seed: int = 0) -> tuple[bool, RepMap | None]:
    """Isomorphism test with witness.

    Cheap invariants first; then basis elements and basis products; finally
    seeded random elements of Hom(m, n) (the invertible locus is Zariski
    open, so over F_101 random draws find a witness with high probability).
    """
    if m.algebra != n.algebra:
        raise AlgebraError("different algebras")
    if m.dims != n.dims:
        return False, None
    if m.is_zero():
        return True, RepMap.zero(m, n)
    fwd = hom_space(m, n)
    bwd = hom_space(n, m)
    if len(fwd) != len(bwd):
        return False, None
    for f in fwd:
        if f.is_isomorphism():
            return True, f
    for g in bwd:
        for f in fwd:
            if g.compose(f).is_isomorphism():
                return True, f
    rng = np.random.default_rng(seed)
    p = m.algebra.p
    for _ in range(200):
        coords = rng.integers(0, p, size=len(fwd))
        f = map_from_coords(fwd, coords)
        if f.is_isomorphism():
            return True, f
    return False, None


class IndecSet:
    """A declared-complete list of pairwise non-isomorphic indecomposables."""

    def __init__(self, members: list[Rep], validate: bool = True):
        self.members = sorted(members, key=lambda r: r.name)
        self.by_name = {r.name: r for r in self.members}
        if len(self.by_name) != len(self.members):
            raise AlgebraError("duplicate names in IndecSet")
        if validate:
            self.validate()

    def validate(self):
        for r in self.members:
            r.validate()
            if not is_indecomposable(r):
                raise AlgebraError(f"{r.name} is not indecomposable")
        for a, b in itertools.combinations(self.members, 2):
            iso, _ = is_isomorphic(a, b)
            if iso:
                raise AlgebraError(f"{a.name} and {b.name} are isomorphic")
        alg = self.members[0].algebra
        std = standard_modules(alg)
        for kind in ("projective", "injective"):
            for v, rep in std[kind].items():
                if not any(is_isomorphic(rep, m)[0] for m in self.members):
                    raise AlgebraError(f"atlas misses the {kind} at vertex {v}")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, name: str) -> Rep:
        return self.by_name[name]

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.members]
