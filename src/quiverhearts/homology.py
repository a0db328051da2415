"""Homological machinery for module categories of bound quiver algebras.

Everything here is exact linear algebra over F_p: kernels and cokernels are
computed vertexwise, short exact sequences are represented as Conflation
objects, Ext^1(C, A) is the cokernel of Hom(P0, A) -> Hom(syzygy, A) for a
projective cover P0 of C, and approximations by a subcategory are built
from Hom bases and greedily stripped to minimal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .algebra import (
    AlgebraError,
    Rep,
    RepMap,
    direct_sum,
    dual_map,
    dual_rep,
    hom_space,
    map_from_coords,
    opposite_algebra,
    standard_modules_projective_only,
    zero_rep,
)

_HOM_CACHE: dict[tuple[int, int], tuple[Rep, Rep, list[RepMap]]] = {}


def homs(m: Rep, n: Rep) -> list[RepMap]:
    """Cached deterministic basis of Hom(m, n)."""
    key = (id(m), id(n))
    got = _HOM_CACHE.get(key)
    if got is not None and got[0] is m and got[1] is n:
        return got[2]
    basis = hom_space(m, n)
    _HOM_CACHE[key] = (m, n, basis)
    return basis


def kernel(f: RepMap) -> tuple[Rep, RepMap]:
    """(K, inc) with inc: K -> source a kernel of f."""
    p = f.p
    alg = f.source.algebra
    q = alg.quiver
    incs = [la.nullspace(b, p) for b in f.blocks]
    dims = [m.shape[1] for m in incs]
    maps = {}
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        rhs = la.matmul(f.source.arrow_maps[aid], incs[i], p)
        sol = la.solve(incs[j], rhs, p)
        if sol is None:
            raise AlgebraError("kernel arrow map failed (not a subrepresentation?)")
        maps[aid] = sol
    k = Rep(alg, f"ker({f.source.name})", dims, maps)
    return k, RepMap._trusted(k, f.source, incs)


def cokernel(f: RepMap) -> tuple[Rep, RepMap]:
    """(C, proj) with proj: target -> C a cokernel of f."""
    p = f.p
    alg = f.target.algebra
    q = alg.quiver
    projs = [la.quotient_map(b, f.target.dims[i], p) for i, b in enumerate(f.blocks)]
    dims = [m.shape[0] for m in projs]
    maps = {}
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        # unique map with maps[aid] @ projs[i] = projs[j] @ N_a
        rhs = la.matmul(projs[j], f.target.arrow_maps[aid], p)
        sol = la.solve(projs[i].T.copy(), rhs.T.copy(), p)
        if sol is None:
            raise AlgebraError("cokernel arrow map failed")
        maps[aid] = sol.T.copy()
    c = Rep(alg, f"coker({f.target.name})", dims, maps)
    return c, RepMap._trusted(f.target, c, projs)


def image(f: RepMap) -> tuple[Rep, RepMap, RepMap]:
    """(I, mono: I -> target, epi: source -> I) with mono o epi = f."""
    p = f.p
    alg = f.target.algebra
    q = alg.quiver
    monos, epis = [], []
    for b in f.blocks:
        r, pivots = la.rref(b.T.copy(), p)
        cols = r[: len(pivots), :].T.copy()  # basis of column space of b
        monos.append(cols)
        sol = la.solve(cols, b, p)
        epis.append(sol)
    dims = [m.shape[1] for m in monos]
    maps = {}
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        rhs = la.matmul(f.target.arrow_maps[aid], monos[i], p)
        sol = la.solve(monos[j], rhs, p)
        if sol is None:
            raise AlgebraError("image arrow map failed")
        maps[aid] = sol
    im = Rep(alg, f"im({f.source.name})", dims, maps)
    return im, RepMap._trusted(im, f.target, monos), RepMap._trusted(f.source, im, epis)


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

    def validate(self) -> "Conflation":
        if self.infl.target is not self.defl.source:
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
    _, proj = cokernel(infl)
    return Conflation(infl, proj).validate()


def conflation_from_defl(defl: RepMap) -> Conflation:
    _, inc = kernel(defl)
    return Conflation(inc, defl).validate()


def split_conflation(a: Rep, c: Rep) -> Conflation:
    b, incs, projs = direct_sum([a, c])
    return Conflation(incs[0], projs[1])


def pushout(f: RepMap, g: RepMap):
    """Pushout of B <--f-- A --g--> C.

    Returns (P, iB: B -> P, iC: C -> P) with iB f = iC g.
    """
    if f.source is not g.source and f.source.dims != g.source.dims:
        raise AlgebraError("pushout legs must share a source")
    bc, incs, projs = direct_sum([f.target, g.target])
    u = incs[0].compose(f).sub(incs[1].compose(g))
    p_rep, proj = cokernel(u)
    return p_rep, proj.compose(incs[0]), proj.compose(incs[1]), proj, (bc, incs, projs)


def pushout_couniversal(po, b_map: RepMap, c_map: RepMap) -> RepMap:
    """Map out of a pushout induced by b_map, c_map with b_map f = c_map g."""
    p_rep, _, _, proj, (bc, incs, projs) = po
    comb = b_map.compose(projs[0]).add(c_map.compose(projs[1]))
    p = b_map.p
    blocks = []
    for pj, cb in zip(proj.blocks, comb.blocks):
        sol = la.solve(pj.T.copy(), cb.T.copy(), p)
        if sol is None:
            raise AlgebraError("pushout couniversal map does not exist")
        blocks.append(sol.T.copy())
    return RepMap(p_rep, b_map.target, blocks)


def pullback(f: RepMap, g: RepMap):
    """Pullback of B --f--> D <--g-- C.

    Returns (P, pB: P -> B, pC: P -> C, inc, biproduct data) with f pB = g pC.
    """
    if f.target is not g.target and f.target.dims != g.target.dims:
        raise AlgebraError("pullback legs must share a target")
    bc, incs, projs = direct_sum([f.source, g.source])
    u = f.compose(projs[0]).sub(g.compose(projs[1]))
    p_rep, inc = kernel(u)
    return p_rep, projs[0].compose(inc), projs[1].compose(inc), inc, (bc, incs, projs)


def pullback_universal(pb, b_map: RepMap, c_map: RepMap) -> RepMap:
    """Map into a pullback induced by b_map, c_map with f b_map = g c_map."""
    p_rep, _, _, inc, (bc, incs, projs) = pb
    comb = incs[0].compose(b_map).add(incs[1].compose(c_map))
    p = b_map.p
    blocks = []
    for bi, cb in zip(inc.blocks, comb.blocks):
        sol = la.solve(bi, cb, p)
        if sol is None:
            raise AlgebraError("pullback universal map does not exist")
        blocks.append(sol)
    return RepMap(b_map.source, p_rep, blocks)


def pushout_conflation(conf: Conflation, f: RepMap) -> tuple[Conflation, RepMap]:
    """Push A >-> B ->> C forward along f: A -> A'.

    Returns the conflation A' >-> P ->> C and the map B -> P.
    """
    po = pushout(f, conf.infl)
    p_rep, i_aprime, i_b = po[0], po[1], po[2]
    defl = pushout_couniversal(po, RepMap.zero(f.target, conf.c), conf.defl)
    return Conflation(i_aprime, defl).validate(), i_b


def pullback_conflation(conf: Conflation, g: RepMap) -> tuple[Conflation, RepMap]:
    """Pull A >-> B ->> C back along g: C' -> C.

    Returns the conflation A >-> P ->> C' and the map P -> B.
    """
    pb = pullback(conf.defl, g)
    p_rep, p_b, p_cprime = pb[0], pb[1], pb[2]
    infl = pullback_universal(pb, conf.infl, RepMap.zero(conf.a, g.source))
    return Conflation(infl, p_cprime).validate(), p_b


# ---------------------------------------------------------------------------
# Projective covers, injective envelopes, syzygies.


def _top_generators(m: Rep):
    """Per vertex: columns of M_v spanning a complement of the radical."""
    alg = m.algebra
    q = alg.quiver
    p = alg.p
    out = {}
    for j, v in enumerate(q.vertices):
        imgs = [m.arrow_maps[aid] for aid, s, t in q.arrows if t == v]
        rad_cols = (
            np.concatenate(imgs, axis=1) if imgs else la.zeros(m.dims[j], 0)
        )
        qm = la.quotient_map(rad_cols, m.dims[j], p)
        lift = la.right_inverse(qm, p) if qm.shape[0] else la.zeros(m.dims[j], 0)
        out[v] = lift  # columns: generators of the top at v
    return out


def projective_cover(m: Rep) -> tuple[Rep, RepMap]:
    """(P, epi) a projective cover of m."""
    alg = m.algebra
    if m.is_zero():
        z = zero_rep(alg)
        return z, RepMap.zero(z, m)
    projs = standard_modules_projective_only(alg)
    gens = _top_generators(m)
    parts, part_maps = [], []
    for v in alg.quiver.vertices:
        lift = gens[v]
        for col in range(lift.shape[1]):
            pv = projs[v]
            f = _map_from_projective(pv, v, m, lift[:, col])
            parts.append(pv)
            part_maps.append(f)
    total, incs, prjs = direct_sum(parts)
    epi = part_maps[0].compose(prjs[0])
    for f, pr in zip(part_maps[1:], prjs[1:]):
        epi = epi.add(f.compose(pr))
    if not epi.is_surjective():
        raise AlgebraError("projective cover construction not surjective")
    return total, RepMap(total, m, epi.blocks)


def _map_from_projective(pv: Rep, v: str, m: Rep, x: np.ndarray) -> RepMap:
    """The map P(v) -> m sending the trivial-path generator to x in m_v.

    In the standard projective the trivial path is the first basis slot at
    vertex v, so this is the unique hom whose block at v has first column x.
    """
    basis = homs(pv, m)
    vi = pv.algebra.quiver.vertex_index(v)
    if not basis:
        if x.any():
            raise AlgebraError("no hom supports the requested generator")
        return RepMap.zero(pv, m)
    cols = np.stack([b.blocks[vi][:, 0] for b in basis], axis=1)
    sol = la.solve(cols, x.reshape(-1, 1), pv.algebra.p)
    if sol is None:
        raise AlgebraError("generator not reachable from the projective")
    return map_from_coords(basis, sol[:, 0])


def syzygy(m: Rep) -> tuple[Rep, Conflation]:
    """(Omega m, conflation Omega m >-> P ->> m) from a projective cover."""
    p_rep, epi = projective_cover(m)
    conf = conflation_from_defl(epi)
    return conf.a, conf


def injective_envelope(m: Rep) -> tuple[Rep, RepMap]:
    """(I, mono) an injective envelope of m, via duality."""
    alg = m.algebra
    if m.is_zero():
        z = zero_rep(alg)
        return z, RepMap.zero(m, z)
    dm = dual_rep(m)
    dp, depi = projective_cover(dm)
    i_rep = dual_rep(dp, alg, f"I>{m.name}")
    ddm = dual_rep(dm, alg)  # same matrices as m
    mono0 = dual_map(depi, ddm, i_rep)
    return i_rep, RepMap(m, i_rep, mono0.blocks)


def cosyzygy(m: Rep) -> tuple[Rep, Conflation]:
    i_rep, mono = injective_envelope(m)
    conf = conflation_from_infl(mono)
    return conf.c, conf


def is_projective(m: Rep) -> bool:
    """Lifting-free test: Ext^1(m, syzygy) would do, but a cover split works."""
    p_rep, epi = projective_cover(m)
    return p_rep.total_dim == m.total_dim


def is_injective_module(m: Rep) -> bool:
    i_rep, _ = injective_envelope(m)
    return i_rep.total_dim == m.total_dim


# ---------------------------------------------------------------------------
# Ext^1 via syzygies.


class Ext1:
    """Ext^1(C, A) = Hom(Omega C, A) / image Hom(P0, A), with realization.

    Elements are coordinate vectors with respect to a chosen complement
    basis of the quotient.
    """

    def __init__(self, c: Rep, a: Rep):
        self.c = c
        self.a = a
        self.p = c.algebra.p
        self.omega, self.cover_conf = syzygy(c)
        self.omega_inc = self.cover_conf.infl  # Omega C >-> P0
        self.cover_epi = self.cover_conf.defl  # P0 ->> C
        self.hom_omega_a = homs(self.omega, a)
        restricted = [h.compose(self.omega_inc) for h in homs(self.cover_conf.b, a)]
        n = len(self.hom_omega_a)
        if n == 0:
            self.qmap = la.zeros(0, 0)
            self.dim = 0
            return
        flat = np.stack([h.flat() for h in self.hom_omega_a], axis=1)
        img_coords = []
        for r in restricted:
            sol = la.solve(flat, r.flat().reshape(-1, 1), self.p)
            if sol is None:
                raise AlgebraError("restriction left Hom(Omega C, A)")
            img_coords.append(sol[:, 0])
        img = (
            np.stack(img_coords, axis=1) if img_coords else la.zeros(n, 0)
        )
        self.qmap = la.quotient_map(img, n, self.p)  # (dim, n)
        self.dim = self.qmap.shape[0]
        self._lift = la.right_inverse(self.qmap, self.p) if self.dim else la.zeros(n, 0)

    def cocycle(self, coords) -> RepMap:
        """A representative Omega C -> A of the class with these coordinates."""
        coords = np.asarray(coords, dtype=np.int64)
        full = la.matmul(self._lift, coords.reshape(-1, 1), self.p)[:, 0]
        if not self.hom_omega_a:
            return RepMap.zero(self.omega, self.a)
        return map_from_coords(self.hom_omega_a, full)

    def realize(self, coords) -> Conflation:
        """A conflation A >-> E ->> C representing the class."""
        g = self.cocycle(coords)
        conf, _ = pushout_conflation(
            Conflation(self.omega_inc, self.cover_epi), g
        )
        return conf

    def coords_of(self, conf: Conflation) -> np.ndarray:
        """Class of a conflation A >-> E ->> C in quotient coordinates."""
        if conf.a.dims != self.a.dims or conf.c.dims != self.c.dims:
            raise AlgebraError("conflation end terms do not match")
        # lift the cover epi P0 ->> C through the deflation E ->> C
        lifts = homs(self.cover_conf.b, conf.b)
        if lifts:
            flat = np.stack([conf.defl.compose(h).flat() for h in lifts], axis=1)
            sol = la.solve(flat, self.cover_epi.flat().reshape(-1, 1), self.p)
        else:
            sol = None
        if sol is None:
            raise AlgebraError("projective lifting failed")
        h = map_from_coords(lifts, sol[:, 0])
        # h o omega_inc lands in ker(defl) = im(infl); divide by the inflation
        rest = h.compose(self.omega_inc)
        blocks = []
        for ib, rb in zip(conf.infl.blocks, rest.blocks):
            s = la.solve(ib, rb, self.p)
            if s is None:
                raise AlgebraError("cocycle division failed")
            blocks.append(s)
        g = RepMap(self.omega, self.a, blocks)
        if not self.hom_omega_a:
            return la.zeros(1, 0)[0][:0]
        flat = np.stack([x.flat() for x in self.hom_omega_a], axis=1)
        sol2 = la.solve(flat, g.flat().reshape(-1, 1), self.p)
        if sol2 is None:
            raise AlgebraError("cocycle not in Hom(Omega C, A)")
        return la.matmul(self.qmap, sol2, self.p)[:, 0]


_EXT_DIM_CACHE: dict[tuple[int, int], tuple[Rep, Rep, int]] = {}


def ext1_dim(c: Rep, a: Rep) -> int:
    key = (id(c), id(a))
    got = _EXT_DIM_CACHE.get(key)
    if got is not None and got[0] is c and got[1] is a:
        return got[2]
    if c.is_zero() or a.is_zero():
        d = 0
    else:
        d = Ext1(c, a).dim
    _EXT_DIM_CACHE[key] = (c, a, d)
    return d


def ext_dim(c: Rep, a: Rep, n: int) -> int:
    """dim Ext^n(c, a) by iterated syzygies."""
    if n == 0:
        return len(homs(c, a))
    cur = c
    for _ in range(n - 1):
        if cur.is_zero():
            return 0
        cur, _conf = syzygy(cur)
    return ext1_dim(cur, a)


# ---------------------------------------------------------------------------
# Factorization through a subcategory, and approximations.


def factors_through(f: RepMap, through: list[Rep]) -> bool:
    """Does f factor as X -> T -> Y with T a finite sum from `through`?"""
    target_flat = f.flat()
    if not target_flat.size or f.is_zero():
        return True
    cols = []
    for t in through:
        into = homs(f.source, t)
        outof = homs(t, f.target)
        for u in into:
            for v in outof:
                cols.append(v.compose(u).flat())
    if not cols:
        return False
    mat = np.stack(cols, axis=1)
    return la.solve(mat, target_flat.reshape(-1, 1), f.p) is not None


def factor_witness(f: RepMap, through: list[Rep]):
    """(T, u: X -> T, v: T -> Y) with v u = f, or None."""
    target_flat = f.flat()
    pairs = []
    cols = []
    for t in through:
        for u in homs(f.source, t):
            for v in homs(t, f.target):
                pairs.append((t, u, v))
                cols.append(v.compose(u).flat())
    if not cols:
        return None if target_flat.any() else (zero_rep(f.source.algebra),
                                               RepMap.zero(f.source, zero_rep(f.source.algebra)),
                                               RepMap.zero(zero_rep(f.source.algebra), f.target))
    mat = np.stack(cols, axis=1)
    sol = la.solve(mat, target_flat.reshape(-1, 1), f.p)
    if sol is None:
        return None
    used = [(pairs[i], int(c)) for i, c in enumerate(sol[:, 0]) if c]
    if not used:
        z = zero_rep(f.source.algebra)
        return z, RepMap.zero(f.source, z), RepMap.zero(z, f.target)
    total, incs, projs = direct_sum([t for (t, _, _), _ in used])
    u_acc = RepMap.zero(f.source, total)
    v_acc = RepMap.zero(total, f.target)
    for ((t, u, v), c), inc, prj in zip(used, incs, projs):
        u_acc = u_acc.add(inc.compose(u.scale(c)))
        v_acc = v_acc.add(v.compose(prj))
    return total, u_acc, v_acc


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


def _is_right_approx(parts, obj: Rep, members: list[Rep], p: int) -> bool:
    for m in members:
        targets = [h for h in homs(m, obj) if not h.is_zero()]
        if not targets:
            continue
        cols = []
        for member, comp in parts:
            for u in homs(m, member):
                cols.append(comp.compose(u).flat())
        if not cols:
            return False
        mat = np.stack(cols, axis=1)
        for h in targets:
            if la.solve(mat, h.flat().reshape(-1, 1), p) is None:
                return False
    return True


def _is_left_approx(parts, obj: Rep, members: list[Rep], p: int) -> bool:
    for m in members:
        targets = [h for h in homs(obj, m) if not h.is_zero()]
        if not targets:
            continue
        cols = []
        for member, comp in parts:
            for u in homs(member, m):
                cols.append(u.compose(comp).flat())
        if not cols:
            return False
        mat = np.stack(cols, axis=1)
        for h in targets:
            if la.solve(mat, h.flat().reshape(-1, 1), p) is None:
                return False
    return True


def _assemble(parts, obj: Rep, side: str) -> Approximation:
    alg = obj.algebra
    if not parts:
        z = zero_rep(alg)
        f = RepMap.zero(z, obj) if side == "right" else RepMap.zero(obj, z)
        return Approximation(obj, z, f, [], side)
    total, incs, projs = direct_sum([m for m, _ in parts])
    if side == "right":
        f = RepMap.zero(total, obj)
        for (m, comp), prj in zip(parts, projs):
            f = f.add(comp.compose(prj))
    else:
        f = RepMap.zero(obj, total)
        for (m, comp), inc in zip(parts, incs):
            f = f.add(inc.compose(comp))
    return Approximation(obj, total, f, list(parts), side)


_approx_cache: dict = {}
_approx_keep: list = []  # pin keyed objects so id()-based keys stay unique


def minimal_right_approximation(members: list[Rep], obj: Rep) -> Approximation:
    """Minimal right approximation of obj by finite sums from `members`.

    Start from one copy per Hom-basis element, then greedily drop copies
    while the factorization property survives; by nilpotency of the radical
    the greedy endpoint is right minimal.
    """
    key = ("right", tuple(sorted(id(m) for m in members)), id(obj))
    cached = _approx_cache.get(key)
    if cached is not None:
        return cached
    _approx_keep.append((tuple(members), obj))
    p = obj.algebra.p
    parts = [(m, h) for m in members for h in homs(m, obj)]
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            trial = parts[:i] + parts[i + 1 :]
            if _is_right_approx(trial, obj, members, p):
                parts = trial
                changed = True
                break
    result = _assemble(parts, obj, "right")
    _approx_cache[key] = result
    return result


def minimal_left_approximation(members: list[Rep], obj: Rep) -> Approximation:
    key = ("left", tuple(sorted(id(m) for m in members)), id(obj))
    cached = _approx_cache.get(key)
    if cached is not None:
        return cached
    _approx_keep.append((tuple(members), obj))
    p = obj.algebra.p
    parts = [(m, h) for m in members for h in homs(obj, m)]
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            trial = parts[:i] + parts[i + 1 :]
            if _is_left_approx(trial, obj, members, p):
                parts = trial
                changed = True
                break
    result = _assemble(parts, obj, "left")
    _approx_cache[key] = result
    return result


def is_right_minimal(f: RepMap) -> bool:
    """f right minimal iff every g with f g = f is invertible.

    Equivalent: the right ideal {h in End(source) : f h = 0} sits inside
    the radical.
    """
    from .algebra import end_radical

    endos = homs(f.source, f.source)
    if not endos:
        return True
    comp_flat = np.stack([f.compose(g).flat() for g in endos], axis=1)
    ker = la.nullspace(comp_flat, f.p)
    if ker.shape[1] == 0:
        return True
    _, rad = end_radical(f.source)
    if not rad:
        return False
    rad_flat = np.stack([r.flat() for r in rad], axis=1)
    for j in range(ker.shape[1]):
        h = map_from_coords(endos, ker[:, j])
        if la.solve(rad_flat, h.flat().reshape(-1, 1), f.p) is None:
            return False
    return True


def is_left_minimal(f: RepMap) -> bool:
    from .algebra import end_radical

    endos = homs(f.target, f.target)
    if not endos:
        return True
    comp_flat = np.stack([g.compose(f).flat() for g in endos], axis=1)
    ker = la.nullspace(comp_flat, f.p)
    if ker.shape[1] == 0:
        return True
    _, rad = end_radical(f.target)
    if not rad:
        return False
    rad_flat = np.stack([r.flat() for r in rad], axis=1)
    for j in range(ker.shape[1]):
        h = map_from_coords(endos, ker[:, j])
        if la.solve(rad_flat, h.flat().reshape(-1, 1), f.p) is None:
            return False
    return True
