"""Homological machinery for module categories of bound quiver algebras.

Everything here is exact linear algebra over F_p: kernels and cokernels are
computed vertexwise, short exact sequences are represented as Conflation
objects, and approximations by a subcategory are built from Hom bases and
greedily stripped to minimal ones.  A conflation is pulled back or pushed
out along a map in split normal form: the new middle term is the sum of its
end terms at each vertex, and each arrow's corner block is read off a
section and a retraction of the old conflation, with no kernel to take.  A
projective cover is the minimal right approximation by the indecomposable
projectives, and an injective envelope the minimal left one by the
indecomposable injectives.  Ext^1(C, A) is the cokernel of Hom(P0, A) ->
Hom(Omega C, A) on the syzygy conflation Omega C >-> P0 ->> C, and its
dimension is read off the exact sequence of Hom dimensions along it.
Syzygies, Ext^1 dimensions, minimal approximations and the conflations of a
map's kernel and cokernel are memoised by module content in the shared
`Workspace`, like the Hom bases; a hit returns the value its miss stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg as la
from .algebra import (
    AlgebraError,
    Rep,
    RepMap,
    _product,
    composite_columns,
    direct_sum,
    flat_columns,
    hom_dim,
    hom_space,
    map_from_coords,
    matrix_map,
    zero_rep,
)
from .linalg import Block
from .workspace import WORKSPACE


def homs(m: Rep, n: Rep) -> list[RepMap]:
    """Deterministic basis of Hom(m, n) (`hom_space`, memoised by content)."""
    return hom_space(m, n)


def kernel(f: RepMap) -> tuple[Rep, RepMap]:
    """(K, inc) with inc: K -> source a kernel of f."""
    p = f.p
    alg = f.source.algebra
    q = alg.quiver
    incs = [la.nullspace(b, p) if b.size else la.eye(b.cols) for b in f.blocks]
    dims = [m.cols for m in incs]
    maps = {}
    for aid, i, j in q._arrow_ends:
        if not (dims[i] and dims[j]):
            maps[aid] = la.zeros(dims[j], dims[i])
            continue
        rhs = la.matmul(f.source.arrow_maps[aid], incs[i], p)
        sol = la.solve(incs[j], rhs, p)
        if sol is None:
            raise AlgebraError("kernel arrow map failed (not a subrepresentation?)")
        maps[aid] = sol
    # `linalg` returns reduced blocks, (dims[j], dims[i]) per arrow.
    k = Rep._trusted(alg, f"ker({f.source.name})", dims, maps)
    return k, RepMap._trusted(k, f.source, incs)


def cokernel(f: RepMap) -> tuple[Rep, RepMap]:
    """(C, proj) with proj: target -> C a cokernel of f."""
    p = f.p
    alg = f.target.algebra
    q = alg.quiver
    projs = [la.quotient_map(b, f.target.dims[i], p) for i, b in enumerate(f.blocks)]
    dims = [m.rows for m in projs]
    maps = {}
    for aid, i, j in q._arrow_ends:
        if not (dims[i] and dims[j]):
            maps[aid] = la.zeros(dims[j], dims[i])
            continue
        # unique map with maps[aid] @ projs[i] = projs[j] @ N_a
        rhs = la.matmul(projs[j], f.target.arrow_maps[aid], p)
        sol = la.solve(projs[i].T, rhs.T, p)
        if sol is None:
            raise AlgebraError("cokernel arrow map failed")
        maps[aid] = sol.T
    # `linalg` returns reduced blocks, (dims[j], dims[i]) per arrow.
    c = Rep._trusted(alg, f"coker({f.target.name})", dims, maps)
    return c, RepMap._trusted(f.target, c, projs)


@dataclass
class Conflation:
    """A short exact sequence  A >--infl--> B --defl-->> C."""

    infl: RepMap
    defl: RepMap

    @property
    def a(self) -> Rep:
        return self.infl.source

    @property
    def b(self) -> Rep:
        return self.infl.target

    @property
    def c(self) -> Rep:
        return self.defl.target

    def __iter__(self):
        """Its two maps, the inflation first: `infl, defl = conf`."""
        return iter((self.infl, self.defl))

    def validate(self) -> "Conflation":
        if self.infl.target != self.defl.source:
            raise AlgebraError("conflation middle terms differ")
        if not self.infl.is_injective():
            raise AlgebraError("inflation is not injective")
        if not self.defl.is_surjective():
            raise AlgebraError("deflation is not surjective")
        if not self.defl.compose(self.infl).is_zero():
            raise AlgebraError("deflation o inflation nonzero")
        if self.a.total_dim + self.c.total_dim != self.b.total_dim:
            raise AlgebraError("conflation dimensions do not balance")
        return self

    def __repr__(self):
        return f"Conflation({self.a.name} >-> {self.b.name} ->> {self.c.name})"


def conflation_from_infl(infl: RepMap) -> Conflation:
    """infl >-> B ->> coker(B), validated."""
    return _conflation("infl", infl)


def conflation_from_defl(defl: RepMap) -> Conflation:
    """ker(B) >-> B ->> defl, validated."""
    return _conflation("defl", defl)


def _conflation(kind: str, f: RepMap) -> Conflation:
    """f with its cokernel (kernel) map, memoised by the kind and the
    content of f: a hit returns the stored map, which runs from (to) the
    middle term its miss was given; a map that raises leaves no entry."""
    key = (kind, f.source.key, f.target.key, f.blocks)
    g = WORKSPACE.memo("conflation", key, _end_map, kind, f)
    return Conflation(f, g) if kind == "infl" else Conflation(g, f)


def _end_map(kind: str, f: RepMap) -> RepMap:
    """The cokernel map of an inflation f, or the kernel map of a
    deflation f, once the conflation they make validates."""
    _, g = cokernel(f) if kind == "infl" else kernel(f)
    (Conflation(f, g) if kind == "infl" else Conflation(g, f)).validate()
    return g


def pushout_conflation(conf: Conflation, f: RepMap) -> tuple[Conflation, RepMap]:
    """Push A >-i-> B -d->> C forward along f: A -> A'.

    Returns the conflation A' >-> P ->> C and the map B -> P, in split
    normal form (`_split`): P_v = A'_v + C_v, and the leg is [f_v r_v; d_v]
    for a retraction r_v of i_v.  An arrow a: v -> w has the corner
    (f_w r_w B_a - A'_a f_v r_v) s_v for a section s_v of d_v: the one
    block for which the leg, built checked, intertwines, as d_v is onto.
    """
    if f.source != conf.a:
        raise AlgebraError("pushout legs must share a source")
    a2, b, c, p = f.target, conf.b, conf.c, f.p
    fr = [_product(fv, _section(iv.T, p).T, p) if fv.any() else la.zeros(fv.rows, bv)
          for fv, iv, bv in zip(f.blocks, conf.infl.blocks, b.dims)]
    corners = {}  # a section is taken only where the corner is nonzero
    for aid, v, w in b.algebra.quiver._arrow_ends:
        t = la.sub(_product(fr[w], b.arrow_maps[aid], p), _product(a2.arrow_maps[aid], fr[v], p), p)
        if t.any():
            corners[aid] = _product(t, _section(conf.defl.blocks[v], p), p)
    new = _split(f"coker(({a2.name}+{b.name}))", a2, c, corners)
    legs = [la.vstack([x, d], bv) for x, d, bv in zip(fr, conf.defl.blocks, b.dims)]
    return new, RepMap._checked(b, new.b, legs)


def pullback_conflation(conf: Conflation, g: RepMap) -> tuple[Conflation, RepMap]:
    """Pull A >-i-> B -d->> C back along g: C' -> C.

    Returns the conflation A >-> P ->> C' and the map P -> B, in split
    normal form (`_split`): P_v = A_v + C'_v, and the leg is [i_v | s_v g_v]
    for a section s_v of d_v.  An arrow a: v -> w has the corner
    r_w (B_a s_v g_v - s_w g_w C'_a) for a retraction r_w of i_w: the one
    block for which the leg, built checked, intertwines, as i_w is into.
    """
    if g.target != conf.c:
        raise AlgebraError("pullback legs must share a target")
    a, b, c2, p = conf.a, conf.b, g.source, g.p
    sg = [_product(_section(dv, p), gv, p) if gv.any() else la.zeros(bv, gv.cols)
          for dv, gv, bv in zip(conf.defl.blocks, g.blocks, b.dims)]
    corners = {}  # a retraction is taken only where the corner is nonzero
    for aid, v, w in b.algebra.quiver._arrow_ends:
        t = la.sub(_product(b.arrow_maps[aid], sg[v], p), _product(sg[w], c2.arrow_maps[aid], p), p)
        if t.any():
            corners[aid] = _product(_section(conf.infl.blocks[w].T, p).T, t, p)
    new = _split(f"ker(({b.name}+{c2.name}))", a, c2, corners)
    legs = [la.hstack([i, x], bv) for i, x, bv in zip(conf.infl.blocks, sg, b.dims)]
    return new, RepMap._checked(new.b, b, legs)


def _section(d: Block, p: int) -> Block:
    """s with d s = 1 for the block d of a deflation; for the transpose of
    an inflation's block, the transpose of a retraction."""
    s = la.right_inverse(d, p)
    if s is None:
        raise AlgebraError("conflation is not exact at a vertex")
    return s


def _split(name: str, top: Rep, bottom: Rep, corners: dict[str, Block]) -> Conflation:
    """top >-[1; 0]-> M -[0 1]->> bottom, validated, for the module M with
    M_v = top_v + bottom_v on which an arrow a acts as
    [[top_a, corners[a]], [0, bottom_a]], a zero corner where a has none.
    M is built unchecked.  Its caller builds a leg checked: a map M -> B
    that embeds M in B + bottom beside [0 1], or a map B -> M that maps
    top + B onto M beside [1; 0]; either way M satisfies the relations."""
    maps = {}
    for aid, v, w in top.algebra.quiver._arrow_ends:
        if aid not in corners and not (bottom.dims[v] or bottom.dims[w]):
            maps[aid] = top.arrow_maps[aid]  # bound as it is, like a sum of one
        elif aid not in corners and not (top.dims[v] or top.dims[w]):
            maps[aid] = bottom.arrow_maps[aid]
        else:
            cells = [[top.arrow_maps[aid], corners.get(aid)], [None, bottom.arrow_maps[aid]]]
            maps[aid] = la.grid(cells, [top.dims[w], bottom.dims[w]], [top.dims[v], bottom.dims[v]])
    mid = Rep._trusted(top.algebra, name, [t + u for t, u in zip(top.dims, bottom.dims)], maps)
    ins, outs = [], []
    for t, n in zip(top.dims, mid.dims):
        e = la.eye(n)
        ins.append(e if t == n else la.submatrix(e, range(n), range(t)))
        outs.append(e if not t else la.submatrix(e, range(t, n), range(n)))
    return Conflation(RepMap._trusted(top, mid, ins), RepMap._trusted(mid, bottom, outs)).validate()


# ---------------------------------------------------------------------------
# Projective covers, injective envelopes, syzygies.


def projective_cover(m: Rep) -> tuple[Rep, RepMap]:
    """(P, epi) a projective cover of m: the minimal right approximation of
    m by the indecomposable projectives, onto since A is a sum of them."""
    cover = minimal_right_approximation(list(m.algebra.projectives.values()), m)
    if not cover.map.is_surjective():
        raise AlgebraError("projective cover not surjective")
    return cover.total, cover.map


def syzygy(m: Rep) -> tuple[Rep, Conflation]:
    """(Omega m, conflation Omega m >-> P ->> m) from a projective cover.

    Memoised by the content of m: a hit returns the stored conflation,
    whose deflation is onto the module its miss was given.
    """
    conf = WORKSPACE.memo("syzygy", m.key, _syzygy, m)
    return conf.a, conf


def _syzygy(m: Rep) -> Conflation:
    """Omega m >-> P ->> m from a projective cover, uncached."""
    _, epi = projective_cover(m)
    return conflation_from_defl(epi)


def injective_envelope(m: Rep) -> tuple[Rep, RepMap]:
    """(I, mono) an injective envelope of m: the minimal left approximation
    of m by the indecomposable injectives, into since DA is a sum of them."""
    injectives = m.algebra.standard_modules["injective"]
    envelope = minimal_left_approximation(list(injectives.values()), m)
    if not envelope.map.is_injective():
        raise AlgebraError("injective envelope not injective")
    return envelope.total, envelope.map


def cosyzygy(m: Rep) -> tuple[Rep, Conflation]:
    i_rep, mono = injective_envelope(m)
    conf = conflation_from_infl(mono)
    return conf.c, conf


# ---------------------------------------------------------------------------
# Ext^1 via syzygies.


class Ext1:
    """Ext^1(C, A) = Hom(Omega C, A) / image Hom(P0, A).

    Elements are coordinate vectors with respect to a chosen complement
    basis of the quotient.  `cocycles` holds one representative
    Omega C -> A per basis class, and `column_classes` reads the
    coordinates of any columns of cocycles off one solve, so a map between
    Ext^1 spaces is `column_classes` of the cocycles pushed or pulled
    along it.
    """

    def __init__(self, c: Rep, a: Rep):
        self.c = c
        self.a = a
        self.p = c.algebra.p
        omega, self.cover_conf = syzygy(c)  # Omega C >-> P0 ->> C
        self.hom_omega_a = homs(omega, a)
        n = len(self.hom_omega_a)
        if n == 0:
            self.qmap = la.zeros(0, 0)
            self.dim = 0
            return
        self._flat = flat_columns(self.hom_omega_a)
        # The restrictions of Hom(P0, A) to Omega C, solved in one go.
        restricted = composite_columns(homs(self.cover_conf.b, a), [self.cover_conf.infl])
        img = la.zeros(n, 0)
        if restricted.cols:
            img = la.solve(self._flat, restricted, self.p)
            if img is None:
                raise AlgebraError("restriction left Hom(Omega C, A)")
        self.qmap = la.quotient_map(img, n, self.p)  # (dim, n)
        self.dim = self.qmap.rows

    @cached_property
    def _lift(self) -> Block:
        """A right inverse of `qmap`, built when a cocycle is first asked
        for: a dimension alone never needs one."""
        n = len(self.hom_omega_a)
        return la.right_inverse(self.qmap, self.p) if self.dim else la.zeros(n, 0)

    @cached_property
    def cocycles(self) -> list[RepMap]:
        """One representative Omega C -> A per basis class, in order."""
        if not self.dim:
            return []
        lift = self._lift
        return [map_from_coords(self.hom_omega_a, lift.column(j)) for j in range(lift.cols)]

    def column_classes(self, cols: Block) -> Block:
        """The classes in a nonzero Ext^1 of the cocycles whose flat entries
        are the columns of `cols`, from one solve against the Hom(Omega C, A)
        basis."""
        sol = la.solve(self._flat, cols, self.p)
        if sol is None:
            raise AlgebraError("cocycle outside Hom(Omega C, A)")
        return la.matmul(self.qmap, sol, self.p)


def ext1_dim(c: Rep, a: Rep) -> int:
    """dim Ext^1(c, a), memoised by the content of c and a.  On the syzygy
    conflation Omega c >-> P ->> c the sequence 0 -> Hom(c, a) -> Hom(P, a)
    -> Hom(Omega c, a) -> Ext^1(c, a) -> 0 is exact, so the dimension is
    read off three Hom dimensions and builds no `Ext1`."""
    return WORKSPACE.memo("ext1_dim", (c.key, a.key), _ext1_dim, c, a)


def _ext1_dim(c: Rep, a: Rep) -> int:
    if c.is_zero() or a.is_zero():
        return 0
    omega, conf = syzygy(c)
    return hom_dim(omega, a) - hom_dim(conf.b, a) + hom_dim(c, a)


def ext_dim(c: Rep, a: Rep, n: int) -> int:
    """dim Ext^n(c, a) by iterated syzygies, for n >= 0."""
    if n < 0:
        raise AlgebraError(f"Ext^{n} has a negative degree")
    if n == 0:
        return len(homs(c, a))
    cur = c
    for _ in range(n - 1):
        if cur.is_zero():
            return 0
        cur, _conf = syzygy(cur)
    return ext1_dim(cur, a)


# ---------------------------------------------------------------------------
# Approximations.


@dataclass
class Approximation:
    """A (right or left) approximation of `obj` by sums from a member list.

    For right: map is A -> obj; parts are (member, member -> obj).
    For left: map is obj -> A; parts are (member, obj -> member).
    """

    obj: Rep
    total: Rep
    map: RepMap
    parts: list
    side: str  # "right" | "left"


def _assemble(parts, obj: Rep, side: str) -> Approximation:
    if not parts:
        z = zero_rep(obj.algebra)
        f = RepMap.zero(z, obj) if side == "right" else RepMap.zero(obj, z)
        return Approximation(obj, z, f, [], side)
    total = direct_sum([m for m, _ in parts])
    if side == "right":
        f = matrix_map(total, obj, [[h for _, h in parts]])
    else:
        f = matrix_map(obj, total, [[h] for _, h in parts])
    return Approximation(obj, total, f, list(parts), side)


def minimal_right_approximation(members: list[Rep], obj: Rep) -> Approximation:
    """Minimal right approximation of obj by finite sums from `members`.

    Start from one copy per Hom-basis element, then greedily drop copies
    while the factorization property survives; by nilpotency of the radical
    the greedy endpoint is right minimal.  The strip runs for every obj,
    members included (`cotorsion` answers a module with a class member's
    content with 1_obj before it asks).
    """
    return _approximation("right", members, obj)


def minimal_left_approximation(members: list[Rep], obj: Rep) -> Approximation:
    return _approximation("left", members, obj)


def _approximation(side: str, members: list[Rep], obj: Rep) -> Approximation:
    """Memoised by side, the members' names and content in order, and the
    content of obj: a hit returns the stored approximation, whose modules
    are those its miss was given and built.  Callers must not mutate it."""
    key = (side, tuple(m.name for m in members), tuple(m.key for m in members), obj.key)
    return WORKSPACE.memo("approximation", key, _minimal_approximation, side, members, obj)


def _minimal_approximation(side: str, members: list[Rep], obj: Rep) -> Approximation:
    """The greedy strip behind the minimal approximations, uncached.

    The parts are the pairs (x, h) of a member x and a Hom-basis map h:
    x -> obj (right) or obj -> x (left), scanned once in order.  Part i is
    dropped iff h_i lies in the span of the composites h_j o u (right,
    u: x_i -> x_j) or u o h_j (left, u: x_j -> x_i) over the kept parts j != i.

    That is the greedy strip "drop a part while the rest still
    approximates".  The full list approximates, since every basis map h
    of Hom(m, obj) is h o id_m.  If the kept set K approximates, then so
    does K minus i iff h_i is in that span: for (=>) take m = x_i and the
    map h_i, and for (<=) each composite h_i o v is the combination of
    the h_j o (u o v).  By nilpotency of the radical the endpoint is
    right (left) minimal.  It runs for every obj it is handed.

    One pass per member x: only x's keep flags change while its parts are
    scanned, so each other member's composites make one block per pass.
    If one map h spans Hom(x, obj) (Hom(obj, x)), every composite lies in
    span(h): h is dropped iff one is nonzero, without a solve.  Otherwise
    each part adds x's other kept parts composed with End(x), one solve.
    """
    p = obj.algebra.p
    right = side == "right"

    def toward(x: Rep, y: Rep) -> list[RepMap]:
        """Hom(x, y) on the right side, Hom(y, x) on the left."""
        return homs(x, y) if right else homs(y, x)

    def composites(hs: list[RepMap], ks: list[bool], us: list[RepMap]) -> list[Block]:
        """The kept maps among hs composed with the links us: one block, or none."""
        kept = [g for g, kg in zip(hs, ks) if kg]
        return [composite_columns(*((kept, us) if right else (us, kept)))] if kept and us else []

    to_obj = [toward(x, obj) for x in members]
    keep = [[True] * len(hs) for hs in to_obj]
    for i, (x, x_to_obj, x_keep) in enumerate(zip(members, to_obj, keep)):
        if not x_to_obj:
            continue
        others = (b for j, (y, hs, ks) in enumerate(zip(members, to_obj, keep))
                  if j != i and any(ks) for b in composites(hs, ks, toward(x, y)))
        if len(x_to_obj) == 1:
            x_keep[0] = not any(b.any() for b in others)
            continue
        others, end_x = list(others), toward(x, x)
        for k, h in enumerate(x_to_obj):
            x_keep[k] = False
            target = la.column(h.flat())
            cols = la.hstack(others + composites(x_to_obj, x_keep, end_x), target.rows)
            x_keep[k] = not cols.cols or la.solve(cols, target, p) is None
    parts = [(x, h) for x, hs, ks in zip(members, to_obj, keep) for h, kh in zip(hs, ks) if kh]
    return _assemble(parts, obj, side)
