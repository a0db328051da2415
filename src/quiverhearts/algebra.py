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
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import linalg as la
from .linalg import _SHARED, Block, _new
from .workspace import WORKSPACE, ContentKey


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

    # Lookup tables, built once per quiver; fields, equality and hash are
    # unchanged (cached_property writes to the instance dict directly).
    @cached_property
    def _arrow_by_id(self) -> dict[str, tuple[str, str, str]]:
        return {a[0]: a for a in self.arrows}

    @cached_property
    def _vertex_pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _arrow_ends(self) -> tuple[tuple[str, int, int], ...]:
        """(arrow id, source index, target index) per arrow, in arrow order."""
        return tuple((aid, self._vertex_pos[s], self._vertex_pos[t]) for aid, s, t in self.arrows)

    def arrow(self, aid: str) -> tuple[str, str, str]:
        try:
            return self._arrow_by_id[aid]
        except KeyError:
            raise AlgebraError(f"unknown arrow {aid}") from None

    def vertex_index(self, v: str) -> int:
        return self._vertex_pos[v]


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


class _Interned(type):
    def __call__(cls, *args, **kwargs):  # checks run, then the live equal algebra
        alg = super().__call__(*args, **kwargs)
        return WORKSPACE.memo("algebra", alg._content, lambda: alg)


@dataclass(frozen=True)
class BoundQuiverAlgebra(metaclass=_Interned):
    """kQ/I over F_p, one object per content until `WORKSPACE.clear()`; an
    older object kept past it still compares and hashes equal by content."""

    quiver: Quiver
    p: int
    relations: tuple[Relation, ...] = ()

    # Content keys hash and compare the algebra on every memo lookup, so both
    # read one tuple of plain fields, built once, in place of the dataclass's.
    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, BoundQuiverAlgebra) and self._content == other._content
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _content(self) -> tuple:
        q = self.quiver
        return (q.vertices, q.arrows, self.p, self.relations)

    @cached_property
    def _hash(self) -> int:
        return hash(self._content)

    def __post_init__(self):
        # Python ints keep the arithmetic exact for every p.  The cap keeps
        # the trial division below exact and cheap (isqrt(p) below about
        # 55,000); lifting it needs a deterministic primality test.
        if (self.p - 1) ** 2 >= 2**63:
            raise AlgebraError(
                f"field characteristic {self.p} is too large for exact int64 arithmetic"
            )
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

    # Derived data, built once per algebra object.
    @cached_property
    def path_basis(self) -> "PathBasis":
        return path_basis(self)  # the module-level builder below

    @cached_property
    def projectives(self) -> dict[str, "Rep"]:
        """The indecomposable projective P(v) of each vertex v."""
        return _standard_projectives(self)

    @cached_property
    def standard_modules(self) -> dict[str, dict[str, "Rep"]]:
        return standard_modules(self)  # the module-level builder below

    @cached_property
    def opposite(self) -> "BoundQuiverAlgebra":
        q = self.quiver
        opq = Quiver(q.vertices, tuple((aid, t, s) for aid, s, t in q.arrows))
        oprels = tuple(
            tuple((c, tuple(reversed(path))) for c, path in rel) for rel in self.relations
        )
        op = BoundQuiverAlgebra(opq, self.p, oprels)
        op.__dict__["opposite"] = self  # so duals of duals land on this very object
        return op


@dataclass(frozen=True)
class PathBasis:
    """Basis of kQ/I by paths of length >= 1, with reduction of non-basis
    paths.  Trivial paths are not in `paths`: each vertex's own basis
    element is added where a projective is built.
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


# Path lengths and paths enumerated before `path_basis` gives up: each cap
# row-reduces one column per path against every generator that fits, so an
# algebra whose arrow ideal is not nilpotent (a loop quiver whose products
# never vanish) is refused in well under a second instead of running to
# `MAX_PATH_LENGTH`.
MAX_PATH_LENGTH = 24
MAX_PATHS = 500


def path_basis(alg: BoundQuiverAlgebra) -> PathBasis:
    """Quotient basis of paths (length >= 1) of kQ/I, certifying nilpotency.

    Certification: find L with every length-L path inside the truncated
    ideal span, so the arrow ideal is nilpotent modulo the relations.
    """
    for cap in range(2, MAX_PATH_LENGTH + 1):
        paths = _enumerate_paths(alg.quiver, cap)
        if len(paths) > MAX_PATHS:
            break
        n = len(paths)
        gen_mat = la.vstack([Block(1, n, g) for g in _ideal_generators(alg, paths, cap)], n)
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
                c = red[row, j]
                if c:
                    expr[j] = (-c) % alg.p
            reduction[pc] = expr
        return PathBasis(alg, tuple(paths), basis_idx, reduction)
    raise AlgebraError(
        "could not certify nilpotency of the arrow ideal within "
        f"MAX_PATH_LENGTH={MAX_PATH_LENGTH} and MAX_PATHS={MAX_PATHS}"
    )


def _ideal_generators(alg: BoundQuiverAlgebra, paths: list, cap: int) -> list[tuple]:
    """The two-sided ideal generators left * relation * right whose every
    term has length at most cap, as vectors over `paths`.  The paths, and
    so the left and right factors, come in order of length, so each loop
    stops at its first factor that is too long."""
    q = alg.quiver
    index = {pt[0]: i for i, pt in enumerate(paths)}
    gens = []
    for rel in alg.relations:
        rsrc, rtgt = path_endpoints(q, rel[0][1])
        longest = max(len(mid) for _, mid in rel)
        lefts = [()] + [pt[0] for pt in paths if pt[2] == rsrc]
        rights = [()] + [pt[0] for pt in paths if pt[1] == rtgt]
        for lp in lefts:
            if len(lp) + longest > cap:
                break
            for rp in rights:
                if len(lp) + longest + len(rp) > cap:
                    break
                vec = [0] * len(paths)
                for coeff, mid in rel:
                    i = index[lp + mid + rp]
                    vec[i] = (vec[i] + coeff) % alg.p
                if any(vec):
                    gens.append(tuple(vec))
    return gens


class Rep:
    """A finite-dimensional representation (module) over a bound quiver algebra.

    A module is a value: equality and hash are those of its content, `key`,
    as for `BoundQuiverAlgebra`.  The name is a label that equality
    ignores, so two modules with the same matrices are equal whatever
    their names, and a memo hands back the modules its miss built.
    """

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
        for aid in arrow_maps:
            q.arrow(aid)  # raises on an arrow the quiver does not declare
        for aid, i, j in q._arrow_ends:
            di, dj = self.dims[i], self.dims[j]
            m = arrow_maps.get(aid)
            m = la.zeros(dj, di) if m is None else la.modmat(m, algebra.p)
            if m.shape != (dj, di):
                raise AlgebraError(f"arrow map {aid} has shape {m.shape}, expected {(dj, di)}")
            maps[aid] = m
        self.arrow_maps = maps

    @classmethod
    def _trusted(cls, algebra: BoundQuiverAlgebra, name: str, dims, arrow_maps) -> "Rep":
        """Build a module checking nothing: the caller passes one reduced
        block of the right shape per arrow, in arrow order."""
        m = cls.__new__(cls)
        m.algebra, m.name, m.dims, m.arrow_maps = algebra, name, tuple(dims), arrow_maps
        return m

    @cached_property
    def key(self) -> ContentKey:
        """Exact content: (algebra, dims, arrow-map blocks in arrow order),
        hashed once.  Computed on first use; blocks are immutable, so it
        stays valid.  Names are not part of it.
        """
        return ContentKey((self.algebra, self.dims, tuple(self.arrow_maps.values())))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Rep) and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

    @cached_property
    def _identity_blocks(self) -> tuple[Block, ...]:
        """The blocks that every `RepMap.identity` of this module binds."""
        return tuple(la.eye(d) for d in self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_at(self, v: str) -> int:
        return self.dims[self.algebra.quiver.vertex_index(v)]

    def evaluate_path(self, path: Path) -> Block:
        """Matrix of the path acting on this representation."""
        src, _ = path_endpoints(self.algebra.quiver, path)
        m = la.eye(self.dim_at(src))
        for aid in path:
            m = _product(self.arrow_maps[aid], m, self.algebra.p)
        return m

    def relation_defect(self) -> list[Relation]:
        """Relations of the algebra that do not evaluate to zero on this Rep."""
        bad = []
        for rel in self.algebra.relations:
            src, tgt = path_endpoints(self.algebra.quiver, rel[0][1])
            acc = la.zeros(self.dim_at(tgt), self.dim_at(src))
            for coeff, path in rel:
                acc = la.add(acc, la.scale(coeff, self.evaluate_path(path), self.algebra.p),
                             self.algebra.p)
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
    blocks that `linalg` returned reduced, but whose intertwining is not
    known (universal maps, covers, envelopes, divided cocycles), go through
    `_checked`, which skips the reduction.  Maps from blocks that are valid
    by construction (arithmetic on maps, hom bases, matrices of components,
    kernels, cokernels, images, duals) go through `_trusted`, which checks
    nothing.
    """

    def __init__(self, source: Rep, target: Rep, blocks):
        p = source.algebra.p
        self._check(source, target, [
            la.zeros(t, s) if blocks[i] is None else la.modmat(blocks[i], p)
            for i, (s, t) in enumerate(zip(source.dims, target.dims))
        ])

    @classmethod
    def _checked(cls, source: Rep, target: Rep, blocks) -> "RepMap":
        """Build a map from blocks reduced mod p, checking their shapes and
        that they intertwine: the public constructor without its reduction."""
        f = cls.__new__(cls)
        f._check(source, target, blocks)
        return f

    def _check(self, source: Rep, target: Rep, blocks) -> None:
        if source.algebra is not target.algebra and source.algebra != target.algebra:
            raise AlgebraError("morphism between representations of different algebras")
        self.source = source
        self.target = target
        self.p = source.algebra.p
        for v, m, s, t in zip(source.algebra.quiver.vertices, blocks, source.dims, target.dims):
            if m.shape != (t, s):
                raise AlgebraError(f"block at {v} has shape {m.shape}")
        self.blocks = tuple(blocks)
        if not self.intertwines():
            raise AlgebraError("blocks do not intertwine the arrow maps")

    @classmethod
    def _trusted(cls, source: Rep, target: Rep, blocks) -> "RepMap":
        """Build a map from blocks known to be valid, checking nothing.

        Invariant, kept by the caller: each block is reduced mod p, of
        shape (target.dims[i], source.dims[i]), and the blocks intertwine
        the arrow maps.
        """
        f = cls.__new__(cls)
        f.source = source
        f.target = target
        f.p = source.algebra.p
        f.blocks = tuple(blocks)
        return f

    def intertwines(self) -> bool:
        q = self.source.algebra.quiver
        for aid, i, j in q._arrow_ends:
            na, ma = self.target.arrow_maps[aid], self.source.arrow_maps[aid]
            fi, fj = self.blocks[i], self.blocks[j]
            # Both sides zero: empty, or products through a 0-dimensional space.
            if not (na.size and fi.size or fj.size and ma.size):
                continue
            if _product(na, fi, self.p) != _product(fj, ma, self.p):
                return False
        return True

    @staticmethod
    def zero(source: Rep, target: Rep) -> "RepMap":
        blocks = [_zero(t, s) for s, t in zip(source.dims, target.dims)]
        return RepMap._trusted(source, target, blocks)

    @staticmethod
    def identity(m: Rep) -> "RepMap":
        return RepMap._trusted(m, m, m._identity_blocks)

    def compose(self, first: "RepMap") -> "RepMap":
        """self o first."""
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise AlgebraError("composition shape mismatch")
        blocks = [_product(b2, b1, self.p) for b1, b2 in zip(first.blocks, self.blocks)]
        return RepMap._trusted(first.source, self.target, blocks)

    def add(self, other: "RepMap") -> "RepMap":
        if other.source.dims != self.source.dims or other.target.dims != self.target.dims:
            raise AlgebraError("sum of maps of different shapes")
        blocks = [la.add(a, b, self.p) for a, b in zip(self.blocks, other.blocks)]
        return RepMap._trusted(self.source, self.target, blocks)

    def scale(self, c: int) -> "RepMap":
        blocks = [la.scale(int(c), b, self.p) for b in self.blocks]
        return RepMap._trusted(self.source, self.target, blocks)

    def neg(self) -> "RepMap":
        return self.scale(self.p - 1)

    def sub(self, other: "RepMap") -> "RepMap":
        return self.add(other.neg())

    def is_zero(self) -> bool:
        return not any(b.any() for b in self.blocks)

    def is_injective(self) -> bool:
        return all(_rank(b, self.p) == b.cols for b in self.blocks)

    def is_surjective(self) -> bool:
        return all(_rank(b, self.p) == b.rows for b in self.blocks)

    def is_isomorphism(self) -> bool:
        return all(la.is_invertible(b, self.p) for b in self.blocks)

    def inverse(self) -> "RepMap":
        if not self.is_isomorphism():
            raise AlgebraError("not invertible")
        return RepMap._trusted(self.target, self.source, [la.inv(b, self.p) for b in self.blocks])

    def flat(self) -> tuple[int, ...]:
        """All block entries as one vector (for span computations)."""
        return tuple(chain.from_iterable(b.data for b in self.blocks))

    def __repr__(self):
        return f"RepMap({self.source.name} -> {self.target.name})"


def _product(a: Block, b: Block, p: int) -> Block:
    """a @ b mod p for blocks of maps; a product without entries, or through
    a 0-dimensional space, is a zero block made without a call."""
    if a.rows and a.cols and b.cols:
        return la.matmul(a, b, p)
    return _zero(a.rows, b.cols)


def _zero(rows: int, cols: int) -> Block:
    """`la.zeros(rows, cols)`, read off `linalg`'s shared blocks without a
    call: a zero map, or a product through a 0-dimensional space, makes no
    `linalg` call."""
    data = (0,) * (rows * cols)
    shared = _SHARED.get((rows, cols, data)) if rows * cols <= 1 else None
    return _new(Block, (rows, cols, data)) if shared is None else shared


def _rank(b: Block, p: int) -> int:
    """The rank of a block, read off an empty or a 1x1 block directly."""
    return la.rank(b, p) if b.rows * b.cols > 1 else int(bool(b.data and b.data[0]))


def _hom_unknown_layout(m: Rep, n: Rep) -> list[tuple[int, int, int]]:
    """(vertex index, rows, cols) per vertex for the unknown blocks."""
    return [(i, n.dims[i], m.dims[i]) for i in range(len(m.dims))]


def hom_space(m: Rep, n: Rep) -> list[RepMap]:
    """Deterministic basis of Hom(m, n), memoised by the content of m and n.

    The maps are rebound to the caller's m and n on every call.
    """
    return [RepMap._trusted(m, n, blocks) for blocks in _hom_basis(m, n)]


def meets(a: Rep, b: Rep) -> bool:
    """Do a and b share a vertex; if not, Hom(a, b) = Hom(b, a) = 0."""
    return any(map(operator.mul, a.dims, b.dims))


def _hom_basis(m: Rep, n: Rep) -> tuple:
    """The basis blocks of Hom(m, n): the `hom_space` memo entry itself."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise AlgebraError("hom between representations over different algebras")
    if not meets(m, n):
        return ()  # disjoint supports: every block is empty
    return WORKSPACE.memo("hom_space", (m.key, n.key), _hom_blocks, m, n)


def _hom_blocks(m: Rep, n: Rep) -> tuple[tuple[Block, ...], ...]:
    """Hom(m, n) basis blocks, by solving the intertwining equations."""
    layout = _hom_unknown_layout(m, n)
    offsets = []
    total = 0
    for _, r, c in layout:
        offsets.append(total)
        total += r * c
    if total == 0:
        return ()
    eqs = []
    for aid, i, j in m.algebra.quiver._arrow_ends:
        # constraint: na @ f_i - f_j @ ma = 0, one equation per entry (r, c),
        # with f_i[k, c] at offsets[i] + k * di + c (row-major blocks).  An
        # arrow gives none without entries, or when n_i = m_j = 0 makes
        # both sides products through a 0-dimensional space (0 = 0).
        di, dj, ei, ej = m.dims[i], m.dims[j], n.dims[i], n.dims[j]
        if not (ej and di and (ei or dj)):
            continue
        na, ma = n.arrow_maps[aid].data, m.arrow_maps[aid].data  # (ej, ei), (dj, di)
        for r in range(ej):
            for c in range(di):
                eq = [0] * total
                for k in range(ei):
                    eq[offsets[i] + k * di + c] += na[r * ei + k]
                for k in range(dj):
                    eq[offsets[j] + r * dj + k] -= ma[k * di + c]
                # Each entry is one difference of two reduced entries, so
                # zero mod p only when zero.
                if any(eq):
                    eqs.append(eq)
    ns = la.nullspace(la.modmat(eqs, m.algebra.p), m.algebra.p) if eqs else la.eye(total)
    # One column per basis map, cut into its blocks: an empty block, or a
    # 1x1 block 0 or 1, is `linalg`'s shared one.
    return tuple(
        tuple(la._block(r, c, vec[off : off + r * c]) for (_, r, c), off in zip(layout, offsets))
        for vec in map(ns.column, range(ns.cols))
    )


def hom_dim(m: Rep, n: Rep) -> int:
    """dim Hom(m, n), read off the `hom_space` entry without binding a map."""
    return len(_hom_basis(m, n))


def map_from_coords(basis: list[RepMap], coords) -> RepMap:
    """sum_k coords[k] * basis[k], one combination per vertex."""
    if not basis:
        raise AlgebraError("empty basis")
    f0, k, p = basis[0], len(basis), basis[0].p
    c = [int(x) % p for x in coords]
    if len(c) != k:
        raise AlgebraError(f"{k} basis maps but {len(c)} coordinates")
    blocks = []
    for i, b0 in enumerate(f0.blocks):
        if not b0.size:
            blocks.append(b0)
            continue
        entries = zip(*[f.blocks[i].data for f in basis])
        data = tuple(sum(map(operator.mul, c, e)) % p for e in entries)
        blocks.append(la._block(b0.rows, b0.cols, data))
    return RepMap._trusted(f0.source, f0.target, blocks)


def flat_columns(maps: list[RepMap]) -> Block:
    """The flat entries of a nonempty list of maps, one column per map."""
    flats = [m.flat() for m in maps]
    return la.columns(flats, len(flats[0]))


def composite_columns(outer: list[RepMap], inner: list[RepMap]) -> Block:
    """The flat columns of every composite v o u, u in `inner`, v in `outer`.

    For maps inner[k]: X -> T and outer[j]: T -> Y (typically Hom bases),
    column k * len(outer) + j is (outer[j] o inner[k]).flat(), the order
    of the loops `for u in inner: for v in outer`, one block product per
    vertex where X and Y are nonzero, without building the composites.
    With either list empty there is no column, and the result is (0, 0).
    """
    if not outer or not inner:
        return la.zeros(0, 0)
    p = outer[0].p
    live = [i for i, (v0, u0) in enumerate(zip(outer[0].blocks, inner[0].blocks))
            if v0.rows and u0.cols]
    cols = []
    for u in inner:
        for v in outer:
            cols.append(tuple(chain.from_iterable(
                _product(v.blocks[i], u.blocks[i], p).data for i in live
            )))
    return la.columns(cols, len(cols[0]))


def direct_sum(reps: list[Rep], name: str | None = None) -> Rep:
    """Block-diagonal sum; maps into, out of or between sums are built by
    `matrix_map` from their components.  A sum of one module binds that
    module's blocks, so it has the same key."""
    if not reps:
        raise AlgebraError("direct_sum of empty list needs an algebra; use zero_rep")
    alg = reps[0].algebra
    if len(reps) == 1:
        r = reps[0]
        return Rep._trusted(alg, name or "(" + r.name + ")", r.dims, dict(r.arrow_maps))
    dims = [sum(r.dims[i] for r in reps) for i in range(alg.n_vertices)]
    maps = {aid: la.block_diag([r.arrow_maps[aid] for r in reps]) for aid in reps[0].arrow_maps}
    # The summands' blocks are reduced already, and so is their diagonal.
    return Rep._trusted(alg, name or "(" + "+".join(r.name for r in reps) + ")", dims, maps)


def matrix_map(source: Rep, target: Rep, rows) -> RepMap:
    """The map between direct sums with components rows[j][k]: summand k of
    `source` -> summand j of `target`, None meaning zero.

    `source` and `target` are the sums of those summands in order (a single
    module is a sum of one).  Every row and every column needs one given
    component to fix its summand; give an all-zero one as `RepMap.zero`.
    Each block is the grid of the component blocks; a single component's
    blocks are bound as they are.
    """
    if len(rows) == 1 and len(rows[0]) == 1:
        f = rows[0][0]
        for block, shape in zip(f.blocks, zip(target.dims, source.dims)):
            if block.shape != shape:
                raise AlgebraError(f"components make a {block.shape} block, expected {shape}")
        return RepMap._trusted(source, target, f.blocks)
    col_dims = [next(f.source.dims for f in col if f is not None) for col in zip(*rows)]
    row_dims = [next(f.target.dims for f in row if f is not None) for row in rows]
    blocks = []
    for i, shape in enumerate(zip(target.dims, source.dims)):
        heights, widths = [rd[i] for rd in row_dims], [cd[i] for cd in col_dims]
        cells = [[None if f is None else f.blocks[i] for f in row] for row in rows]
        block = la.grid(cells, heights, widths)
        if block.shape != shape:
            raise AlgebraError(f"components make a {block.shape} block, expected {shape}")
        blocks.append(block)
    return RepMap._trusted(source, target, blocks)


_EMPTY = la.zeros(0, 0)


def zero_rep(alg: BoundQuiverAlgebra) -> Rep:
    """The zero module "0", built unchecked: one (0, 0) block per arrow."""
    arrows = dict.fromkeys((aid for aid, _, _ in alg.quiver.arrows), _EMPTY)
    return Rep._trusted(alg, "0", (0,) * alg.n_vertices, arrows)


def standard_modules(alg: BoundQuiverAlgebra):
    """Indecomposable projectives, injectives and simples per vertex.

    projective(v) has basis the quotient classes of paths out of v
    (including the trivial path); injective(v) is its dual over the
    opposite algebra.
    """
    q = alg.quiver
    simples = {}
    for v in q.vertices:
        sd = [0] * alg.n_vertices
        sd[q.vertex_index(v)] = 1
        simples[v] = Rep(alg, f"S({v})", sd)
    op_proj = alg.opposite.projectives
    injectives = {v: dual_rep(op_proj[v], f"I({v})").validate() for v in q.vertices}
    return {
        "projective": dict(alg.projectives),
        "injective": injectives,
        "simple": simples,
    }


def _standard_projectives(alg: BoundQuiverAlgebra) -> dict[str, Rep]:
    pb = alg.path_basis
    q = alg.quiver
    path_index = {pt[0]: i for i, pt in enumerate(pb.paths)}
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
            m = [0] * (dims[ti] * dims[si])  # row by row
            for slot, (w, i) in enumerate(slots):
                if w != s:
                    continue
                new_path = (aid,) if i is None else pb.paths[i][0] + (aid,)
                pidx = path_index.get(new_path)
                if pidx is None:
                    continue
                src_col = local_index[slot][1]
                for bidx, coeff in pb.reduce_path(pidx).items():
                    tslot = slots.index((pb.paths[bidx][2], bidx))
                    m[local_index[tslot][1] * dims[si] + src_col] = coeff % alg.p
            maps[aid] = Block(dims[ti], dims[si], tuple(m))
        out[v] = Rep(alg, f"P({v})", dims, maps).validate()
    return out


def dual_rep(m: Rep, name: str | None = None) -> Rep:
    """The linear-dual representation over the opposite algebra."""
    op_alg = m.algebra.opposite
    maps = {aid: m.arrow_maps[aid].T for aid, _, _ in op_alg.quiver.arrows}
    return Rep(op_alg, name or f"D({m.name})", m.dims, maps)


# ---------------------------------------------------------------------------
# Endomorphism-algebra machinery: radical, locality, indecomposability.


def _as_matrix_algebra(endos: list[RepMap]) -> list[Block]:
    """Endomorphisms as block-diagonal matrices on the total space."""
    return [la.block_diag(list(f.blocks)) for f in endos]


def _radical_of_span(mats: list[Block], p: int) -> Block:
    """Radical of the spanned matrix algebra via the trace form.

    Requires p > total matrix size (Dickson's criterion); raises otherwise.
    Returns a matrix whose columns are radical coordinates w.r.t. mats.
    """
    k = len(mats)
    if k == 0:
        return la.zeros(0, 0)
    n = mats[0].rows
    if p <= n:
        raise AlgebraError(
            f"radical computation needs field char p > {n}; got p = {p}. "
            "Use a larger prime for decomposition machinery."
        )
    # trace(a b) is the sum of the products of the entries of a and of b^T
    transposes = [m.T.data for m in mats]
    gram = [sum(map(operator.mul, a.data, bt)) % p for a in mats for bt in transposes]
    return la.nullspace(Block(k, k, tuple(gram)), p)


def is_indecomposable(m: Rep) -> bool:
    """End(m) local?  rad via trace form, then a field test on End/rad.

    End/rad is semisimple; it is a field iff it is commutative and has a
    single factor.  A commutative semisimple F_p-algebra is a product of
    fields, and its Frobenius x -> x^p is F_p-linear with one fixed
    dimension per factor (Berlekamp's subalgebra), so the test is exact:
    rank(Frob - id) = dim(End/rad) - 1.
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
    qdim = qmap.rows
    if qdim == 1:
        return True
    # structure constants of the quotient: lift basis, multiply, project
    n = mats[0].rows
    flat = la.columns([mt.data for mt in mats], n * n)
    lifts = la.matmul(flat, la.right_inverse(qmap, p), p)
    basis = [Block(n, n, lifts.column(i)) for i in range(qdim)]
    prods = [la.matmul(ei, ej, p).data for ei in basis for ej in basis]  # e_i e_j
    sol = la.solve(flat, la.columns(prods, n * n), p)
    if sol is None:
        raise AlgebraError("product left the endomorphism algebra")
    # column i * qdim + j holds the coordinates of e_i e_j
    coords = la.matmul(qmap, sol, p)
    if any(coords.column(i * qdim + j) != coords.column(j * qdim + i)
           for i in range(qdim) for j in range(i)):
        return False  # not commutative
    # column i of Frob is e_i^p = left_i^(p-1) e_i, by square-and-multiply,
    # where left_i, multiplication by e_i, has column j the coordinates of e_i e_j
    frob = []
    for i in range(qdim):
        power, e = la.eye(qdim), p - 1
        step = la.submatrix(coords, range(qdim), range(i * qdim, (i + 1) * qdim))
        while e:
            if e & 1:
                power = la.matmul(power, step, p)
            step = la.matmul(step, step, p)
            e >>= 1
        frob.append(power.column(i))
    return la.rank(la.sub(la.columns(frob, qdim), la.eye(qdim), p), p) == qdim - 1


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
    forming a biproduct decomposition of m.  A module equal to a member is
    that member, both maps the identity (equal content means equal
    matrices, so it intertwines), and makes no memo entry.  Other modules
    are memoised by content and the atlas (member names and content); a
    hit returns the stored list, whose maps run between the atlas members
    and the module its miss decomposed.  Callers must not mutate it.
    """
    member = atlas.by_content.get(m)
    if member is not None:
        ident = member._identity_blocks
        return [(member, RepMap._trusted(member, m, ident), RepMap._trusted(m, member, ident))]
    return WORKSPACE.memo("decompose_with_maps", (m.key, atlas.key), _decompose_with_maps, m, atlas)


def _decompose_with_maps(m: Rep, atlas: "IndecSet"):
    """The split-search behind `decompose_with_maps`, uncached."""
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


def is_isomorphic(m: Rep, n: Rep) -> tuple[bool, RepMap | None]:
    """Isomorphism test with witness.

    Cheap invariants first; then basis maps and basis composites.  If m and
    n are isomorphic and one of them is indecomposable, End(m) is local and
    spanned by the composites g o f of basis maps, so one of them lies
    outside the radical and is invertible: a miss is then a proof.  When
    neither side is indecomposable a miss proves nothing, and the test
    refuses.
    """
    if m.algebra is not n.algebra and m.algebra != n.algebra:
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
    pair = _find_split_pair(m, n)
    if pair is not None:
        return True, pair[0]
    if is_indecomposable(m) or is_indecomposable(n):
        return False, None
    raise AlgebraError(
        f"cannot decide whether {m.name} and {n.name} are isomorphic: "
        "neither is indecomposable"
    )


class IndecSet:
    """A declared-complete list of pairwise non-isomorphic indecomposables."""

    def __init__(self, members: list[Rep], validate: bool = True):
        self.members = sorted(members, key=lambda r: r.name)
        self.by_name = {r.name: r for r in self.members}
        if len(self.by_name) != len(self.members):
            raise AlgebraError("duplicate names in IndecSet")
        self._standard_names: dict[str, tuple[str, ...]] = {}
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
        for kind in ("projective", "injective"):
            self.standard_names(kind)

    def standard_names(self, kind: str) -> tuple[str, ...]:
        """Per vertex, the first member isomorphic to the standard module of
        this kind ("projective", "injective" or "simple"); memoised per kind."""
        if kind not in self._standard_names:
            names = []
            for v, s in self.members[0].algebra.standard_modules[kind].items():
                hit = next(
                    (r.name for r in self.members if r.dims == s.dims and is_isomorphic(r, s)[0]),
                    None,
                )
                if hit is None:
                    raise AlgebraError(f"{kind} module at vertex {v} missing from atlas")
                names.append(hit)
            self._standard_names[kind] = tuple(names)
        return self._standard_names[kind]

    @cached_property
    def dual(self) -> "IndecSet":
        """The members' duals over the opposite algebra, under their names."""
        d = IndecSet([dual_rep(m, m.name) for m in self.members], validate=False)
        d.__dict__["dual"] = self  # so duals of duals land on this very atlas
        return d

    @cached_property
    def key(self) -> ContentKey:
        """Member names and content, in member order."""
        return ContentKey((r.name, r.key) for r in self.members)

    @cached_property
    def by_content(self) -> dict[Rep, Rep]:
        """Each member to the first member equal to it, in member order, as
        the split search would find it: a lookup by any equal module."""
        out: dict[Rep, Rep] = {}
        for r in self.members:
            out.setdefault(r, r)
        return out

    @cached_property
    def position(self) -> dict[str, int]:
        """Each member's index: its row and column in the dimension tables."""
        return {r.name: i for i, r in enumerate(self.members)}

    # dim Hom(members[i], members[j]) and dim Ext^1(members[i], members[j]),
    # each row a tuple filled on first use (None marks a row not filled yet).
    @cached_property
    def _tables(self) -> dict[str, list]:
        return {kind: [None] * len(self) for kind in ("hom", "ext1")}

    def rows(self, kind: str, idx) -> list[tuple[int, ...]]:
        """Rows idx of the "hom" or "ext1" dimension table."""
        table = self._tables[kind]
        for i in idx:
            if table[i] is None:
                table[i] = self._hom_row(i) if kind == "hom" else self._ext1_row(i)
        return [table[i] for i in idx]

    def _hom_row(self, i: int) -> tuple[int, ...]:
        """Read off the `hom_space` entries, building no map."""
        return tuple(len(_hom_basis(self.members[i], n)) for n in self.members)

    def _ext1_row(self, i: int) -> tuple[int, ...]:
        """By 0 -> Hom(C, -) -> Hom(P, -) -> Hom(Omega C, -) -> Ext^1(C, -) -> 0
        for the syzygy conflation Omega C >-> P ->> C, each Hom term a sum of
        member rows over the summands; a projective C has a zero row."""
        from .homology import syzygy  # deferred: avoids an import cycle

        omega, conf = syzygy(self.members[i])
        if omega.is_zero():
            return (0,) * len(self)
        row = self.rows("hom", [i])[0]
        for sign, m in ((-1, conf.b), (1, omega)):
            for name, k in decompose(m, self).items():
                other = self.rows("hom", [self.position[name]])[0]
                row = tuple(a + sign * k * b for a, b in zip(row, other))
        return row

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, name: str) -> Rep:
        return self.by_name[name]

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.members]
