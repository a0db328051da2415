"""Mutation of rigid subcategories and localization of hearts.

Given nested rigid subcategories D <= C (both containing the projectives),
the right mutation is C' = CoCone(D, C) intersect D-perp.  The engine
builds the intermediate category H_D = CoCone(D, C), a right
H_D-approximation deflation for every object (the syzygy-and-pushout
pipeline), and the additive quotient H_D / C', then certifies on the given
atlas that the quotient is a localization of the heart of (C, C-perp) at
the class of heart epimorphisms whose kernels lie in D-perp.

The co-side (left mutations, the dual heart, its localization) is computed
by running the same machinery over the opposite algebra via vector-space
duality.  Reflections B -> B+ and coreflections B- -> B connect the two
quotients; their round trips are certified to be naturally isomorphic to
the identities, object by object and on hom bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .algebra import (
    AlgebraError,
    IndecSet,
    Rep,
    RepMap,
    decompose,
    direct_sum,
    map_from_coords,
    zero_rep,
)
from .cotorsion import (
    CotorsionPair,
    Subcategory,
    _left_witness,
    _right_witness,
    build_cotorsion_pair,
    cocone_membership,
    cocone_objects,
    cone_membership,
    cone_objects,
    cotorsion_pair_from_rigid,
    is_rigid,
    perp_right,
    projectives_of,
    satisfies_rcp,
    subcat,
)
from .duality import DualContext, dual_context
from .heart import (
    GabrielQuiver,
    HeartModel,
    QuotientCategory,
    gabriel_quiver,
    heart_epi,
    quivers_isomorphic,
    realize_heart_kernel,
    solve_extend,
    solve_through,
    syzygy_approximation,
)
from .homology import (
    Conflation,
    conflation_from_defl,
    conflation_from_infl,
    cosyzygy,
    ext1_dim,
    ext_dim,
    factors_through,
    homs,
    minimal_right_approximation,
    pullback_conflation,
    pushout_conflation,
    syzygy,
)


# ---------------------------------------------------------------------------
# Mutation of rigid subcategories.


_pair_cache: dict = {}


def _rigid_pair(sub: Subcategory) -> CotorsionPair:
    key = (id(sub.atlas), sub.names)
    got = _pair_cache.get(key)
    if got is None:
        got = cotorsion_pair_from_rigid(sub)
        _pair_cache[key] = got
    return got


@dataclass(frozen=True)
class MutationInput:
    """Nested rigid subcategories D <= C, both containing the projectives."""

    atlas: IndecSet
    c: Subcategory
    d: Subcategory

    def validate(self) -> "MutationInput":
        if not self.d.issubset(self.c):
            raise AlgebraError("inner class is not contained in the outer class")
        for sub, label in ((self.c, "outer"), (self.d, "inner")):
            ok, report = satisfies_rcp(sub)
            if not ok:
                bad = [k for k, v in report.items() if v is False]
                raise AlgebraError(f"{label} class fails: {', '.join(bad)}")
        return self


def right_mutation(inp: MutationInput) -> Subcategory:
    """mu(C; D) = CoCone(D, C) intersect D-perp."""
    return cocone_objects(inp.d, inp.c).intersect(perp_right(inp.d))


def left_mutation(atlas: IndecSet, m_outer: Subcategory, n: Subcategory) -> Subcategory:
    """Cone(M', N) intersect left-perp-of-N, via the opposite algebra.

    For the co-class M' of a mutated pair this recovers the co-class M of
    the original: the co-side analogue of the right mutation.
    """
    ctx = dual_context(atlas)
    op = MutationInput(ctx.datlas, ctx.dsub(m_outer), ctx.dsub(n)).validate()
    return subcat(atlas, right_mutation(op).names)


def mutation_condition_equivalence(
    inp: MutationInput, cmut: Subcategory
) -> tuple[bool, bool]:
    """(CoCone(D, C) == CoCone(C', D),  C' == the right mutation).

    For a rigid candidate C' with D <= C' <= D-perp the two statements are
    equivalent; callers assert the booleans agree.
    """
    lhs = set(cocone_objects(inp.d, inp.c).names) == set(
        cocone_objects(cmut, inp.d).names
    )
    rhs = set(cmut.names) == set(right_mutation(inp).names)
    return lhs, rhs


def ext2_rigidity_criterion(inp: MutationInput) -> bool:
    """Ext^2(C, D) = 0 forces the right mutation to be rigid.

    Returns whether Ext^2 vanishes on all member pairs; when it does, the
    rigidity of the mutation is asserted as a hard check.
    """
    vanishes = all(
        ext_dim(ci, dj, 2) == 0 for ci in inp.c.members for dj in inp.d.members
    )
    if vanishes and not is_rigid(right_mutation(inp)):
        raise AlgebraError("vanishing Ext^2 did not force a rigid mutation")
    return vanishes


# ---------------------------------------------------------------------------
# The right H_D-approximation pipeline.
#
# For outer pair (C, C-perp) and an inner class D (rigid, contains the
# projectives), every X gets a conflation Z >-> Y ->> X with Y in
# CoCone(D, C) and Z in D-perp; the deflation is a right
# CoCone(D, C)-approximation.  Steps: take the left witness X >-> T0 ->> C0,
# pull the projective cover of T0 back to the right Omega(C)-approximation
# Y0 >-> U0 ->> X, take a minimal right Omega(D)-approximation V1 ->> Y0
# assembled from syzygy conflations, form Z as the pushout receptacle and
# push the U0-conflation along Y0 -> Z.


@dataclass
class HdApproximation:
    x: Rep
    conf: Conflation  # Z >-> Y ->> X
    z_conf: Conflation  # Y0 >-> Z ->> D1
    y_in_cocone: bool
    z_in_perp: bool

    @property
    def y(self) -> Rep:
        return self.conf.b

    @property
    def z(self) -> Rep:
        return self.conf.a

    @property
    def f(self) -> RepMap:
        return self.conf.defl


_gen_cache: dict = {}


def _omega_generators(inner: Subcategory):
    """(rep, conflation rep >-> P ->> D-part) generators of Omega(inner)."""
    key = (id(inner.atlas), inner.names)
    got = _gen_cache.get(key)
    if got is not None:
        return got
    gens = []
    for m in inner.members:
        om, conf = syzygy(m)
        if not om.is_zero():
            gens.append((om, conf))
    for pv in projectives_of(inner.atlas).members:
        gens.append((pv, conflation_from_infl(RepMap.identity(pv))))
    _gen_cache[key] = gens
    return gens


def right_hd_approximation(
    outer_pair: CotorsionPair,
    inner: Subcategory,
    x: Rep,
    atlas: IndecSet,
    check_membership: bool = True,
) -> HdApproximation:
    if x.is_zero():
        z = zero_rep(x.algebra)
        conf = Conflation(RepMap.zero(z, x), RepMap.identity(x))
        return HdApproximation(x, conf, conf, True, True)
    sa = syzygy_approximation(outer_pair, x, atlas)
    u0_conf = sa.u0_conf  # Y0 >-> U0 ->> X
    y0 = u0_conf.a
    if y0.is_zero():
        z = zero_rep(x.algebra)
        conf = Conflation(RepMap.zero(z, u0_conf.b), u0_conf.defl)
        return _validated(conf, conf, x, outer_pair, inner, check_membership)
    gens = _omega_generators(inner)
    confs = {id(g): c for g, c in gens}
    approx = minimal_right_approximation([g for g, _ in gens], y0)
    if not approx.map.is_surjective():
        raise AlgebraError("failed clause: approximation by syzygies is not a deflation")
    parts = approx.parts
    v1, _v1_incs, v1_prjs = direct_sum([g for g, _ in parts])
    mids = [confs[id(g)].b for g, _ in parts]
    ends = [confs[id(g)].c for g, _ in parts]
    p1, p1_incs, p1_prjs = direct_sum(mids)
    d1, d1_incs, _ = direct_sum(ends)
    f1 = RepMap.zero(v1, y0)
    h1 = RepMap.zero(v1, p1)
    pd = RepMap.zero(p1, d1)
    for (g, comp), vp, pi, pp, di in zip(parts, v1_prjs, p1_incs, p1_prjs, d1_incs):
        gc = confs[id(g)]
        f1 = f1.add(comp.compose(vp))
        h1 = h1.add(pi.compose(gc.infl).compose(vp))
        pd = pd.add(di.compose(gc.defl).compose(pp))
    y1_conf = conflation_from_defl(f1)  # Y1 >-> V1 ->> Y0
    into_p1 = h1.compose(y1_conf.infl)
    if not into_p1.is_injective():
        raise AlgebraError("failed clause: kernel does not embed into the cover sum")
    zq = conflation_from_infl(into_p1)  # Y1 >-> P1 -q->> Z
    q = zq.defl
    v = solve_extend(q.compose(h1), f1)
    if v is None or not v.is_injective():
        raise AlgebraError("failed clause: induced map Y0 -> Z is not an inflation")
    zd = solve_extend(pd, q)
    if zd is None:
        raise AlgebraError("failed clause: Z does not project onto the D-part")
    z_conf = Conflation(v, zd).validate()  # Y0 >-> Z ->> D1
    conf, _u0_to_y = pushout_conflation(u0_conf, v)  # Z >-> Y ->> X
    return _validated(conf, z_conf, x, outer_pair, inner, check_membership)


def _validated(conf, z_conf, x, outer_pair, inner, check_membership) -> HdApproximation:
    z_ok = all(ext1_dim(m, conf.a) == 0 for m in inner.members)
    if not z_ok:
        raise AlgebraError("failed clause: the kernel is not right-orthogonal to the inner class")
    y_ok = True
    if check_membership:
        y_ok = cocone_membership(conf.b, inner, outer_pair.u)[0]
        if not y_ok:
            raise AlgebraError("failed clause: the middle term is not in CoCone(inner, outer)")
    return HdApproximation(x, conf, z_conf, y_ok, z_ok)


def verify_hd_approximation(
    res: HdApproximation, hd: Subcategory, atlas: IndecSet
) -> bool:
    """Every map from an H_D object to X factors through the deflation."""
    for t in hd.members:
        for h in homs(t, res.x):
            if solve_through(h, res.f) is None:
                return False
    return True


def verify_hd_moreover(
    res: HdApproximation, outer_perp: Subcategory, atlas: IndecSet, limit: int = 6
) -> bool:
    """If x' o f factors through outer-perp then so does x' itself."""
    through = outer_perp.members
    checked = 0
    for t in atlas:
        for xp in homs(res.x, t):
            if xp.is_zero():
                continue
            if factors_through(xp.compose(res.f), through) and not factors_through(
                xp, through
            ):
                return False
            checked += 1
            if checked >= limit:
                break
        if checked >= limit:
            break
    return True


# ---------------------------------------------------------------------------
# The localization model H_D / C' and the functor from the heart.


@dataclass
class LocalizationModel:
    inp: MutationInput
    pair: CotorsionPair  # (C, C-perp)
    heart: HeartModel
    cmut: Subcategory
    hd: Subcategory
    dperp: Subcategory
    quotient: QuotientCategory
    _r_cache: dict = field(default_factory=dict)

    @classmethod
    def build(cls, inp: MutationInput, heart: HeartModel | None = None) -> "LocalizationModel":
        inp.validate()
        pair = heart.pair if heart is not None else _rigid_pair(inp.c)
        if heart is None:
            heart = HeartModel.build(pair, inp.atlas)
        cmut = right_mutation(inp)
        hd = cocone_objects(inp.d, inp.c)
        quotient = QuotientCategory([inp.atlas[n] for n in hd.names], cmut.members)
        return cls(inp, pair, heart, cmut, hd, perp_right(inp.d), quotient)

    def object_names(self) -> tuple[str, ...]:
        return tuple(sorted(x.name for x in self.quotient.nonzero_objects()))

    def r_object(self, x: Rep) -> HdApproximation:
        got = self._r_cache.get(id(x))
        if got is not None and got.x is x:
            return got
        res = right_hd_approximation(self.pair, self.inp.d, x, self.inp.atlas)
        self._r_cache[id(x)] = res
        return res

    def r_map(self, a: RepMap) -> RepMap:
        """R(a): R(X1) -> R(X2) with f2 R(a) = a f1; linear in a."""
        r1 = self.r_object(a.source)
        r2 = self.r_object(a.target)
        lift = solve_through(a.compose(r1.f), r2.f)
        if lift is None:
            raise AlgebraError("morphism transport through the localization failed")
        return lift

    def inverts(self, a: RepMap) -> bool:
        return self.quotient.invertible(self.r_map(a))[0]

    def localized_quiver(self) -> GabrielQuiver:
        return gabriel_quiver(self.quotient)


def a_objects(model: LocalizationModel) -> Subcategory:
    """The Serre-like class A: heart objects that lie in D-perp.

    Cross-checked against the summands of H(X) over all X in D-perp.
    """
    atlas = model.inp.atlas
    via_heart = {
        n for n in model.heart.heart_object_names() if model.dperp.contains_name(n)
    }
    via_h = set()
    for x in model.dperp.members:
        hobj = model.heart.h.h_object(x).obj
        for name in decompose(hobj, atlas):
            if not model.inp.c.contains_name(name):
                via_h.add(name)
    if via_heart != via_h:
        raise AlgebraError("the two descriptions of the kernel class disagree")
    return subcat(atlas, sorted(via_heart))


def in_s_a(model: LocalizationModel, a_sub: Subcategory, f: RepMap) -> bool:
    """Is f a heart epimorphism whose heart kernel lies in the class A."""
    if not heart_epi(model.heart, f):
        return False
    kobj, _, _ = realize_heart_kernel(model.heart, f)
    for name in decompose(kobj, model.inp.atlas):
        if model.inp.c.contains_name(name):
            continue  # zero in the heart
        if not a_sub.contains_name(name):
            return False
    return True


def verify_localization(model: LocalizationModel, rng: np.random.Generator) -> dict:
    """Instance certificate that H_D / C' localizes the heart at S_A.

    - density/natural isomorphism: R(B) ->> B is invertible mod [C'] for
      every H_D object;
    - fullness: transported hom bases span the quotient hom spaces;
    - faithfulness: R(f) vanishes mod [C'] exactly when f factors through C';
    - inversion: R sends S_A members to isomorphisms and nothing else among
      the sampled heart epimorphisms.
    """
    atlas = model.inp.atlas
    p = atlas.members[0].algebra.p
    q = model.quotient
    a_sub = a_objects(model)
    report: dict = {"a_objects": a_sub.names}

    hd_objs = [x for x in q.objects if not q.is_zero_object(x)]
    report["density"] = all(q.invertible(model.r_object(b).f)[0] for b in hd_objs)

    full_ok = True
    faithful_ok = True
    for b1 in hd_objs:
        for b2 in hd_objs:
            basis = homs(b1, b2)
            if basis:
                cols = [q.qcoords(model.r_map(u)) for u in basis]
                mat = np.stack(cols, axis=1)
                y1, y2 = model.r_object(b1).y, model.r_object(b2).y
                if la.rank(mat, p) != q.qdim(y1, y2):
                    full_ok = False
            for _ in range(3):
                f = _random_combination(basis, b1, b2, rng, p)
                if q.is_ideal(f) != q.is_ideal(model.r_map(f)):
                    faithful_ok = False
    report["fullness"] = full_ok
    report["faithfulness"] = faithful_ok

    inverted = 0
    separated = 0
    consistent = True
    heart_objs = [atlas[n] for n in model.heart.heart_object_names()]
    for x1 in heart_objs:
        for x2 in heart_objs:
            for g in homs(x1, x2):
                if not heart_epi(model.heart, g):
                    continue
                if in_s_a(model, a_sub, g):
                    inverted += 1
                    if not model.inverts(g):
                        consistent = False
                else:
                    separated += 1
                    if model.inverts(g):
                        consistent = False
    report["s_a_inverted"] = inverted
    report["non_s_a_separated"] = separated
    report["inversion"] = consistent
    report["ok"] = report["density"] and full_ok and faithful_ok and consistent
    return report


def _random_combination(basis, src, tgt, rng, p) -> RepMap:
    if not basis:
        return RepMap.zero(src, tgt)
    return map_from_coords(basis, [int(rng.integers(0, p)) for _ in basis])


# ---------------------------------------------------------------------------
# Reflections and coreflections between the two quotients.


@dataclass
class Reflection:
    b: Rep
    conf: Conflation  # B >-f-> B+ ->> S  with S in C-perp
    mid_conf: Conflation  # V_B >-> T ->> B+

    @property
    def f(self) -> RepMap:
        return self.conf.infl

    @property
    def b_plus(self) -> Rep:
        return self.conf.b


@dataclass
class TwinData:
    """The derived classes of a mutation instance, on both sides."""

    inp: MutationInput
    cmut: Subcategory
    cperp: Subcategory
    dperp: Subcategory
    m: Subcategory
    n: Subcategory
    m_mut: Subcategory
    hd: Subcategory
    hn: Subcategory
    pair_dn: CotorsionPair  # (D-perp, N)
    pair_cm: CotorsionPair  # (C-perp, M)

    @classmethod
    def build(cls, inp: MutationInput) -> "TwinData":
        inp.validate()
        cmut = right_mutation(inp)
        cperp = perp_right(inp.c)
        dperp = perp_right(inp.d)
        m = perp_right(cperp)
        n = perp_right(dperp)
        m_mut = perp_right(perp_right(cmut))  # co-class of the mutated pair
        hd = cocone_objects(inp.d, inp.c)
        hn = cone_objects(m_mut, n)
        pair_dn = build_cotorsion_pair(dperp, n)
        pair_cm = build_cotorsion_pair(cperp, m)
        return cls(
            inp, cmut, cperp, dperp, m, n, m_mut, hd, hn, pair_dn, pair_cm,
        )


def reflection(twin: TwinData, b: Rep) -> Reflection:
    """B >-> B+ with B+ in Cone(M', N); the inflation is a left approximation."""
    atlas = twin.inp.atlas
    if b is atlas.by_name.get(b.name):
        wr = twin.pair_dn.witness_right(b.name)  # V_B >-> U_B ->> B
    else:
        wr = _right_witness(twin.dperp, twin.n, b)
    u_b = wr.b
    wl = _left_witness(twin.cperp, twin.m, u_b)  # U_B >-> T ->> S
    conf, t_to_bplus = pushout_conflation(wl, wr.defl)  # B >-> B+ ->> S
    mid = Conflation(wl.infl.compose(wr.infl), t_to_bplus).validate()
    ok, _ = cone_membership(conf.b, twin.m_mut, twin.n)
    if not ok:
        raise AlgebraError("failed clause: the reflection is not in Cone(M', N)")
    return Reflection(b, conf, mid)


def coreflection(twin: TwinData, b: Rep) -> HdApproximation:
    """B- ->> B with B- in H_D = CoCone(C', D) and kernel in C'-perp."""
    pair_d = _rigid_pair(twin.inp.d)
    return right_hd_approximation(pair_d, twin.cmut, b, twin.inp.atlas)


def verify_reflection_property(twin: TwinData, refl: Reflection) -> bool:
    """Every map B -> (H'_N object) extends along the reflection inflation."""
    for t in twin.hn.members:
        for h in homs(refl.b, t):
            if solve_extend(h, refl.f) is None:
                return False
    return True


@dataclass
class PseudoMoritaData:
    twin: TwinData
    q_hd: QuotientCategory  # H_D mod [C']
    q_hn: QuotientCategory  # H'_N mod [M]
    _refl: dict = field(default_factory=dict)
    _coref: dict = field(default_factory=dict)

    @classmethod
    def build(cls, twin: TwinData) -> "PseudoMoritaData":
        atlas = twin.inp.atlas
        return cls(
            twin,
            QuotientCategory([atlas[n] for n in twin.hd.names], twin.cmut.members),
            QuotientCategory([atlas[n] for n in twin.hn.names], twin.m.members),
        )

    def refl(self, b: Rep) -> Reflection:
        got = self._refl.get(id(b))
        if got is None:
            got = reflection(self.twin, b)
            self._refl[id(b)] = got
        return got

    def coref(self, b: Rep) -> HdApproximation:
        got = self._coref.get(id(b))
        if got is None:
            got = coreflection(self.twin, b)
            self._coref[id(b)] = got
        return got

    def k_map(self, x: RepMap) -> RepMap:
        """K(x): B0+ -> B1+ extending x along the reflections."""
        r0, r1 = self.refl(x.source), self.refl(x.target)
        lift = solve_extend(r1.f.compose(x), r0.f)
        if lift is None:
            raise AlgebraError("reflection transport failed")
        return lift

    def kprime_map(self, x: RepMap) -> RepMap:
        """K'(x): B0- -> B1- lifting x through the coreflections."""
        c0, c1 = self.coref(x.source), self.coref(x.target)
        lift = solve_through(x.compose(c0.f), c1.f)
        if lift is None:
            raise AlgebraError("coreflection transport failed")
        return lift


def verify_pseudo_morita(
    data: PseudoMoritaData, naturality_samples: int = 0, rng=None
) -> dict:
    """Round trips of reflection/coreflection are naturally isomorphic to id.

    For B in H_D: b solving f'(b) = f gives an iso B -> K'K(B) mod [C'].
    For B in H'_N: g extending the coreflection deflation along the
    reflection inflation gives an iso KK'(B) -> B mod [M].  Naturality is
    checked on hom bases (optionally sampled); object classes biject.
    """
    twin = data.twin
    report: dict = {}
    hd_objs = [x for x in data.q_hd.objects if not data.q_hd.is_zero_object(x)]
    hn_objs = [x for x in data.q_hn.objects if not data.q_hn.is_zero_object(x)]

    unit: dict = {}
    ok_unit = True
    for b in hd_objs:
        refl = data.refl(b)
        coref = data.coref(refl.b_plus)
        u = solve_through(refl.f, coref.f)
        if u is None or not data.q_hd.invertible(u)[0]:
            ok_unit = False
        unit[id(b)] = (u, refl, coref)
    report["unit_iso"] = ok_unit

    counit: dict = {}
    ok_counit = True
    for b in hn_objs:
        coref = data.coref(b)
        refl = data.refl(coref.y)
        c = solve_extend(coref.f, refl.f)
        if c is None or not data.q_hn.invertible(c)[0]:
            ok_counit = False
        counit[id(b)] = (c, coref, refl)
    report["counit_iso"] = ok_counit

    def sampled(pairs):
        pairs = list(pairs)
        if naturality_samples and rng is not None and len(pairs) > naturality_samples:
            idx = rng.choice(len(pairs), size=naturality_samples, replace=False)
            pairs = [pairs[i] for i in sorted(idx)]
        return pairs

    nat_unit = True
    basis_pairs = [
        (x, b0, b1) for b0 in hd_objs for b1 in hd_objs for x in homs(b0, b1)
    ]
    for x, b0, b1 in sampled(basis_pairs):
        y = data.kprime_map(data.k_map(x))
        u0 = unit[id(b0)][0]
        u1 = unit[id(b1)][0]
        if not data.q_hd.equal(u1.compose(x), y.compose(u0)):
            nat_unit = False
    report["unit_natural"] = nat_unit

    nat_counit = True
    basis_pairs = [
        (x, b0, b1) for b0 in hn_objs for b1 in hn_objs for x in homs(b0, b1)
    ]
    for x, b0, b1 in sampled(basis_pairs):
        y = data.k_map(data.kprime_map(x))
        c0 = counit[id(b0)][0]
        c1 = counit[id(b1)][0]
        if not data.q_hn.equal(x.compose(c0), c1.compose(y)):
            nat_counit = False
    report["counit_natural"] = nat_counit

    mapping, dims_ok = object_correspondence(data)
    report["object_map"] = mapping
    report["object_bijection"] = (
        mapping is not None
        and len(set(mapping.values())) == len(mapping) == len(hd_objs) == len(hn_objs)
        and set(mapping.values()) == {x.name for x in hn_objs}
    )
    report["hom_dims_match"] = dims_ok
    report["ok"] = all(
        report[k]
        for k in (
            "unit_iso",
            "counit_iso",
            "unit_natural",
            "counit_natural",
            "object_bijection",
            "hom_dims_match",
        )
    )
    return report


def object_correspondence(data: PseudoMoritaData):
    """(name -> name map via reflections, hom dimensions preserved?)."""
    atlas = data.twin.inp.atlas
    m_names = set(data.twin.m.names)
    hd_objs = [x for x in data.q_hd.objects if not data.q_hd.is_zero_object(x)]
    mapping: dict = {}
    for b in hd_objs:
        names = [
            nm for nm in decompose(data.refl(b).b_plus, atlas) if nm not in m_names
        ]
        if len(names) != 1:
            return None, False
        mapping[b.name] = names[0]
    dims_ok = all(
        data.q_hd.qdim(atlas[a], atlas[b])
        == data.q_hn.qdim(atlas[mapping[a]], atlas[mapping[b]])
        for a in mapping
        for b in mapping
    )
    return mapping, dims_ok


# ---------------------------------------------------------------------------
# The co-side localization, via the opposite algebra.


def dual_localization_model(
    atlas: IndecSet, m_mut: Subcategory, n: Subcategory
) -> LocalizationModel:
    """The localization H'_N / M of the dual heart, computed op-side.

    Objects and subcategories keep their primal names; Gabriel quivers of
    the op-side quotient must be reversed before comparing primal-side.
    """
    ctx = dual_context(atlas)
    op_inp = MutationInput(ctx.datlas, ctx.dsub(m_mut), ctx.dsub(n))
    return LocalizationModel.build(op_inp)


def reversed_quiver(qv: GabrielQuiver) -> GabrielQuiver:
    return GabrielQuiver(qv.nodes, {(t, s): k for (s, t), k in qv.arrows.items()})


# ---------------------------------------------------------------------------
# Morphism classification via the syzygy/cosyzygy diamond.


@dataclass
class DiamondDiagram:
    f: RepMap
    row1: Conflation  # Omega X >-> Z1 -g->> Y
    row2: Conflation  # X >-h-> Z2 ->> Sigma Y

    @property
    def g(self) -> RepMap:
        return self.row1.defl

    @property
    def h(self) -> RepMap:
        return self.row2.infl


def diamond_diagram(f: RepMap) -> DiamondDiagram:
    """Pull the projective cover of the target back along f, and push the
    injective envelope of the source forward along f."""
    x = f.target
    y = f.source
    _omega, cover_conf = syzygy(x)  # Omega X >-> P ->> X
    row1, z1_to_p = pullback_conflation(cover_conf, f)
    _sigma, env_conf = cosyzygy(y)  # Y >-> I ->> Sigma Y
    row2, i_to_z2 = pushout_conflation(env_conf, f)
    if not cover_conf.defl.compose(z1_to_p).sub(f.compose(row1.defl)).is_zero():
        raise AlgebraError("square over the projective cover does not commute")
    if not i_to_z2.compose(env_conf.infl).sub(row2.infl.compose(f)).is_zero():
        raise AlgebraError("square under the injective envelope does not commute")
    return DiamondDiagram(f, row1, row2)


def classify_r(twin: TwinData, f: RepMap, dd: DiamondDiagram | None = None) -> dict:
    """Flags R0 <= R1 <= R2 and R1 <= R1_tilde for a morphism Y -> X."""
    dd = dd or diamond_diagram(f)
    g_through_dperp = factors_through(dd.g, twin.dperp.members)
    h_through_cperp = factors_through(dd.h, twin.cperp.members)
    h_through_dperp = factors_through(dd.h, twin.dperp.members)
    z1 = dd.row1.b
    z1_in_dperp = twin.dperp.contains(z1)
    z1_in_cperp = twin.cperp.contains(z1)
    return {
        "R0": z1_in_cperp and h_through_cperp,
        "R1": z1_in_dperp and h_through_cperp,
        "R1_tilde": g_through_dperp and h_through_cperp,
        "R2": z1_in_dperp and h_through_dperp,
    }


def check_g1_property(
    model: LocalizationModel, a_sub: Subcategory, twin: TwinData, f: RepMap
) -> bool:
    """Members of the widest first-row class map to S_A under the heart functor."""
    flags = classify_r(twin, f)
    if not flags["R1_tilde"]:
        return True  # nothing claimed
    hf = model.heart.h.h_map(f)
    return in_s_a(model, a_sub, hf)


# ---------------------------------------------------------------------------
# End-to-end verification of the equivalence chain for a mutation instance.


def verify_main_theorem(
    atlas: IndecSet,
    c: Subcategory,
    d: Subcategory,
    seed: int = 0,
    naturality_samples: int = 40,
) -> dict:
    """Certify the chain  heart[S_A^-1] = H_D/C' = H'_N/M = heart'[S_A'^-1]
    on the given atlas; returns a structured report with an overall flag."""
    rng = np.random.default_rng(seed)
    report: dict = {"panels": {}, "checks": {}}
    inp = MutationInput(atlas, c, d)
    checks = report["checks"]
    panels = report["panels"]
    try:
        inp.validate()
        checks["classes_admissible"] = True
    except AlgebraError as e:
        checks["classes_admissible"] = False
        report["error"] = str(e)
        report["ok"] = False
        return report

    cmut = right_mutation(inp)
    checks["mutation_rigid"] = is_rigid(cmut)
    checks["mutation_rcp"] = satisfies_rcp(cmut)[0]
    panels["c_mut"] = cmut.names
    if not (checks["mutation_rigid"] and checks["mutation_rcp"]):
        report["error"] = "the mutated class does not satisfy the rigidity hypotheses"
        report["ok"] = False
        return report

    twin = TwinData.build(inp)
    panels["c"] = twin.inp.c.names
    panels["d"] = twin.inp.d.names
    panels["m"] = twin.m.names
    panels["n"] = twin.n.names
    panels["m_mut"] = twin.m_mut.names
    lhs, rhs = mutation_condition_equivalence(inp, twin.cmut)
    checks["mutation_condition"] = lhs and rhs

    model = LocalizationModel.build(inp)
    panels["heart"] = model.heart.heart_object_names()
    loc = verify_localization(model, rng)
    checks["localization"] = loc["ok"]
    panels["a_objects"] = loc["a_objects"]
    panels["localized"] = model.object_names()
    q1 = model.localized_quiver()

    dual_model = dual_localization_model(atlas, twin.m_mut, twin.n)
    checks["dual_mutation_matches"] = set(dual_model.cmut.names) == set(twin.m.names)
    panels["heart_dual"] = dual_model.heart.heart_object_names()
    loc_dual = verify_localization(dual_model, rng)
    checks["dual_localization"] = loc_dual["ok"]
    panels["localized_dual"] = dual_model.object_names()
    q2 = reversed_quiver(dual_model.localized_quiver())

    checks["localized_quivers_isomorphic"] = quivers_isomorphic(q1, q2)
    report["quiver"] = q1
    report["quiver_dual"] = q2

    pm = PseudoMoritaData.build(twin)
    morita = verify_pseudo_morita(pm, naturality_samples=naturality_samples, rng=rng)
    checks["pseudo_morita"] = morita["ok"]
    report["morita"] = morita
    report["localization_report"] = loc
    report["dual_localization_report"] = loc_dual
    report["ok"] = all(checks.values())
    return report
