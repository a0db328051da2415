"""Mutation of rigid subcategories and localization of hearts.

Given nested rigid subcategories D <= C (both containing the projectives),
the right mutation is C' = CoCone(D, C) intersect D-perp.  The engine
builds the intermediate category H_D = CoCone(D, C), a right
H_D-approximation deflation for every object (the syzygy-and-pushout
pipeline), and the additive quotient H_D / C', then certifies on the given
atlas that the quotient is a localization of the heart of (C, C-perp) at
the class of heart epimorphisms whose kernels lie in D-perp.

That class, S_A, is read off Phi = Ext^1(G, -) (`in_s_a`): A is the heart
objects whose Phi vanishes at D's non-projective members, so g is in S_A
iff each member block of Phi(g) is onto, and one-to-one at D's members.
No kernel object is built; the rule leans on Phi being exact on the heart.

The co-side (left mutations, the dual heart, its localization) is computed
by running the same machinery over the opposite algebra via vector-space
duality.  Reflections B -> B+ and coreflections B- -> B connect the two
quotients; their round trips are certified to be naturally isomorphic to
the identities, object by object and on hom bases.  R(X), the reflections
and the coreflections are stored as the conflations that build them
(Z >-> Y ->> X, B >-> B+ ->> S and Z >-> B- ->> B), and the witnesses
they start from are the pairs' own (`CotorsionPair.witness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg as la
from .algebra import (
    AlgebraError,
    IndecSet,
    Rep,
    RepMap,
    composite_columns,
    decompose,
    direct_sum,
    map_from_coords,
    matrix_map,
    zero_rep,
)
from .cotorsion import (
    CotorsionPair,
    Subcategory,
    _identity_conflation,
    build_cotorsion_pair,
    cocone_membership,
    cocone_objects,
    cone_membership,
    cone_objects,
    is_rigid,
    perp_right,
    satisfies_rcp,
    subcat,
)
from .duality import dual_context
from .heart import (
    GabrielQuiver,
    HeartModel,
    QuotientCategory,
    gabriel_quiver,
    quivers_isomorphic,
    solve_columns,
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
    homs,
    minimal_right_approximation,
    pullback_conflation,
    pushout_conflation,
    syzygy,
)
from .linalg import Block
from .workspace import WORKSPACE


# ---------------------------------------------------------------------------
# Mutation of rigid subcategories.


@dataclass(frozen=True)
class MutationInput:
    """Nested rigid subcategories D <= C, both containing the projectives."""

    atlas: IndecSet
    c: Subcategory
    d: Subcategory

    def validate(self) -> "MutationInput":
        if self._failure:
            raise AlgebraError(self._failure)
        return self

    # The checks and derived classes, built once per input (cached_property
    # writes to the instance dict directly, so the frozen fields stay).
    @cached_property
    def _failure(self) -> str | None:
        """Why the classes are not admissible, or None."""
        for sub, label in ((self.c, "outer"), (self.d, "inner")):
            if sub.atlas is not self.atlas and sub.atlas.key != self.atlas.key:
                which = "the dual" if sub.atlas.key == self.atlas.dual.key else "another"
                return f"{label} class is drawn over {which} atlas, not the given one"
        if self.c.atlas is not self.d.atlas:
            return "the two classes are drawn over two copies of the atlas"
        if not self.d.issubset(self.c):
            return "inner class is not contained in the outer class"
        for sub, label in ((self.c, "outer"), (self.d, "inner")):
            ok, report = satisfies_rcp(sub)
            if not ok:
                bad = [k for k, v in report.items() if v is False]
                return f"{label} class fails: {', '.join(bad)}"
        return None

    @cached_property
    def hd(self) -> Subcategory:
        """H_D = CoCone(D, C)."""
        return cocone_objects(self.d, self.c)

    @cached_property
    def cmut(self) -> Subcategory:
        """The right mutation CoCone(D, C) intersect D-perp."""
        return self.hd.intersect(perp_right(self.d))


def right_mutation(inp: MutationInput) -> Subcategory:
    """mu(C; D) = CoCone(D, C) intersect D-perp."""
    return inp.cmut


def mutation_condition_equivalence(
    inp: MutationInput, cmut: Subcategory
) -> tuple[bool, bool]:
    """(CoCone(D, C) == CoCone(C', D),  C' == the right mutation).

    For a rigid candidate C' with D <= C' <= D-perp the two statements are
    equivalent; callers assert the booleans agree.
    """
    lhs = set(inp.hd.names) == set(cocone_objects(cmut, inp.d).names)
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


def right_hd_approximation(
    outer_pair: CotorsionPair, inner: Subcategory, x: Rep
) -> Conflation:
    """R(x) = Z >-> Y ->> x, memoised by the classes (with the atlas's
    content) and the content of x: a hit returns the stored R(x), of the
    module its miss was given; the failed-clause checks run when it is
    first built, and only Z >-> Y ->> X is kept."""
    key = (outer_pair.u.key, outer_pair.v.names, inner.key, x.key)
    return WORKSPACE.memo(
        "right_hd_approximation", key,
        lambda: Conflation(*_right_hd_maps(outer_pair, inner, x)[:2]),
    )


def _right_hd_maps(outer_pair: CotorsionPair, inner: Subcategory, x: Rep) -> list[RepMap]:
    """The maps of Z >-> Y ->> X and Y0 >-> Z ->> D1, checked, uncached."""
    if x.is_zero():
        conf = _identity_conflation("right", x)
        return [*conf, *conf]
    u0_conf = syzygy_approximation(outer_pair, x)  # Y0 >-> U0 ->> X
    y0 = u0_conf.a
    if y0.is_zero():
        z = zero_rep(x.algebra)
        conf = Conflation(RepMap.zero(z, u0_conf.b), u0_conf.defl)
        return _validated(conf, conf, outer_pair, inner)
    gens = inner.omega_generators
    # Equal generators share a key, holding the last one's conflation: the
    # strip keeps only the last one's parts, as the earlier ones' maps
    # factor through it.
    confs = dict(gens)
    approx = minimal_right_approximation([g for g, _ in gens], y0)
    if not approx.map.is_surjective():
        raise AlgebraError("failed clause: approximation by syzygies is not a deflation")
    parts = approx.parts
    gcs = [confs[g] for g, _ in parts]  # per part g: g >-> P ->> D-part
    v1 = direct_sum([g for g, _ in parts])
    p1 = direct_sum([gc.b for gc in gcs])
    d1 = direct_sum([gc.c for gc in gcs])
    n = len(gcs)
    f1 = matrix_map(v1, y0, [[comp for _, comp in parts]])
    h1 = matrix_map(
        v1, p1, [[gc.infl if j == k else None for k in range(n)] for j, gc in enumerate(gcs)]
    )
    pd = matrix_map(
        p1, d1, [[gc.defl if j == k else None for k in range(n)] for j, gc in enumerate(gcs)]
    )
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
    return _validated(conf, z_conf, outer_pair, inner)


def _validated(conf, z_conf, outer_pair, inner) -> list[RepMap]:
    if not all(ext1_dim(m, conf.a) == 0 for m in inner.members):
        raise AlgebraError("failed clause: the kernel is not right-orthogonal to the inner class")
    if not cocone_membership(conf.b, inner, outer_pair.u)[0]:
        raise AlgebraError("failed clause: the middle term is not in CoCone(inner, outer)")
    return [*conf, *z_conf]


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

    @classmethod
    def build(cls, inp: MutationInput) -> "LocalizationModel":
        inp.validate()
        pair = inp.c.rigid_pair
        heart = HeartModel.build(pair, inp.atlas)
        cmut = right_mutation(inp)
        quotient = QuotientCategory([inp.atlas[n] for n in inp.hd.names], cmut.members)
        return cls(inp, pair, heart, cmut, inp.hd, perp_right(inp.d), quotient)

    def object_names(self) -> tuple[str, ...]:
        return tuple(sorted(x.name for x in self.quotient.nonzero_objects()))

    def r_object(self, x: Rep) -> Conflation:
        return right_hd_approximation(self.pair, self.inp.d, x)

    def r_map(self, a: RepMap, r1: Conflation, r2: Conflation) -> RepMap:
        """R(a): R(X1) -> R(X2) with f2 R(a) = a f1, for a: X1 -> X2 given
        r1 = R(X1) and r2 = R(X2) with deflations f1, f2; linear in a."""
        lift = solve_through(a.compose(r1.defl), r2.defl)
        if lift is None:
            raise AlgebraError("morphism transport through the localization failed")
        return lift

    def r_qcoords(self, r1: Conflation, r2: Conflation) -> Block:
        """Quotient coordinates of R(u) for every Hom(X1, X2) basis map u, one
        column each, given r1 = R(X1) and r2 = R(X2), from one solve: the
        lifts of u o f1 through f2 come as coordinates over the Hom(Y1, Y2)
        basis, which is the basis whose quotient map the quotient keeps."""
        cols = composite_columns(homs(r1.c, r2.c), [r1.defl])
        _, lifts = solve_columns("right", r2.defl, r1.b, r2.b, cols)
        if lifts is None:
            raise AlgebraError("morphism transport through the localization failed")
        return la.matmul(self.quotient.qmatrix(r1.b, r2.b), lifts, self.quotient.p)

    def inverts(self, a: RepMap, r1: Conflation, r2: Conflation) -> bool:
        """Is R(a) invertible mod [C'], given the R of a's ends."""
        return self.quotient.invertible(self.r_map(a, r1, r2))[0]

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
        hobj = model.heart.h.h_object(x).b
        for name in decompose(hobj, atlas):
            if not model.inp.c.contains_name(name):
                via_h.add(name)
    if via_heart != via_h:
        raise AlgebraError("the two descriptions of the kernel class disagree")
    return subcat(atlas, sorted(via_heart))


def in_s_a(model: LocalizationModel, f: RepMap) -> bool | None:
    """Is the heart morphism f in S_A; None when f is no heart epimorphism.

    Block i of Phi(f) is Ext^1(C_i, f), C_i the i-th non-projective member
    of C.  f is a heart epimorphism iff every block is onto; its heart
    kernel K then has Ext^1(C_i, K) = ker of block i, so K lies in A (the
    heart objects in D-perp) iff each block at a member of D is also
    one-to-one.  Both steps take Phi to be exact on the heart."""
    phi = model.heart.phi
    ranks = phi.block_ranks(f)
    if any(rank != rows for rank, rows, _ in ranks):
        return None
    d = model.inp.d
    return all(rank == cols for (rank, _, cols), c in zip(ranks, phi.members)
               if d.contains_name(c.name))


def verify_localization(model: LocalizationModel) -> dict:
    """Instance certificate that H_D / C' localizes the heart at S_A.

    - density/natural isomorphism: R(B) ->> B is invertible mod [C'] for
      every H_D object;
    - fullness: transported hom bases span the quotient hom spaces;
    - faithfulness: R(f) vanishes mod [C'] exactly when f factors through C',
      decided on whole hom spaces by rank;
    - inversion: R sends S_A members to isomorphisms and nothing else among
      the heart epimorphisms in the hom bases; `in_s_a` decides both from
      the ranks of Phi(g)'s member blocks (all onto, and one-to-one at the
      members of D), taking Phi to be exact on the heart, unchecked here.
    """
    atlas = model.inp.atlas
    p = atlas.members[0].algebra.p
    q = model.quotient
    a_sub = a_objects(model)
    report: dict = {"a_objects": a_sub.names}

    hd_objs = q.nonzero_objects()
    heart_objs = [atlas[n] for n in model.heart.heart_object_names()]
    r_of = {x: model.r_object(x) for x in hd_objs + heart_objs}
    report["density"] = all(q.invertible(r_of[b].defl)[0] for b in hd_objs)

    full_ok = True
    faithful_ok = True
    for b1 in hd_objs:
        for b2 in hd_objs:
            basis = homs(b1, b2)
            if not basis:
                continue
            mat = model.r_qcoords(r_of[b1], r_of[b2])
            rank = la.rank(mat, p)
            if rank != q.qdim(r_of[b1].b, r_of[b2].b):
                full_ok = False
            # over the basis, f is in [C'] on ker(qmap) and R(f) on ker(mat);
            # the kernels agree iff both row spaces equal their sum
            qmap = q.qmatrix(b1, b2)
            if not la.rank(qmap, p) == rank == la.rank(la.vstack([qmap, mat], len(basis)), p):
                faithful_ok = False
    report["fullness"] = full_ok
    report["faithfulness"] = faithful_ok

    inverted = 0
    separated = 0
    consistent = True
    for x1 in heart_objs:
        for x2 in heart_objs:
            for g in homs(x1, x2):
                s_a = in_s_a(model, g)
                if s_a is None:
                    continue  # no heart epimorphism
                inverted += s_a
                separated += not s_a
                if model.inverts(g, r_of[x1], r_of[x2]) != s_a:
                    consistent = False
    report["s_a_inverted"] = inverted
    report["non_s_a_separated"] = separated
    report["inversion"] = consistent
    report["ok"] = report["density"] and full_ok and faithful_ok and consistent
    return report


# ---------------------------------------------------------------------------
# Reflections and coreflections between the two quotients.  A reflection
# is stored as B >-> B+ ->> S with S in C-perp, a coreflection as
# Z >-> B- ->> B with Z in C'-perp.


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
        hn = cone_objects(m_mut, n)
        pair_dn = build_cotorsion_pair(dperp, n)
        pair_cm = build_cotorsion_pair(cperp, m)
        return cls(
            inp, cmut, cperp, dperp, m, n, m_mut, inp.hd, hn, pair_dn, pair_cm,
        )


def reflection(twin: TwinData, b: Rep) -> Conflation:
    """B >-> B+ ->> S with B+ in Cone(M', N); the inflation is a left
    approximation.

    Memoised by the mutation input's classes (with the atlas's content) and
    the content of b: a hit returns the stored reflection, of the module
    its miss was given; the checks run when it is first built, and only
    B >-> B+ ->> S is kept."""
    key = (twin.inp.c.key, twin.inp.d.names, b.key)
    return WORKSPACE.memo(
        "reflection", key, lambda: Conflation(*_reflection_maps(twin, b)[:2])
    )


def _reflection_maps(twin: TwinData, b: Rep) -> list[RepMap]:
    """The maps of B >-> B+ ->> S and V_B >-> T ->> B+, checked, uncached."""
    wr = twin.pair_dn.witness("right", b)  # V_B >-> U_B ->> B
    u_b = wr.b
    wl = twin.pair_cm.witness("left", u_b)  # U_B >-> T ->> S
    conf, t_to_bplus = pushout_conflation(wl, wr.defl)  # B >-> B+ ->> S
    mid = Conflation(wl.infl.compose(wr.infl), t_to_bplus).validate()
    ok, _ = cone_membership(conf.b, twin.m_mut, twin.n)
    if not ok:
        raise AlgebraError("failed clause: the reflection is not in Cone(M', N)")
    return [*conf, *mid]


def coreflection(twin: TwinData, b: Rep) -> Conflation:
    """B- ->> B with B- in H_D = CoCone(C', D) and kernel in C'-perp."""
    return right_hd_approximation(twin.inp.d.rigid_pair, twin.cmut, b)


@dataclass
class PseudoMoritaData:
    twin: TwinData
    q_hd: QuotientCategory  # H_D mod [C']
    q_hn: QuotientCategory  # H'_N mod [M]

    @classmethod
    def build(cls, twin: TwinData, model: LocalizationModel) -> "PseudoMoritaData":
        """The two quotients; H_D mod [C'] is the localization model's, which
        has the same objects and the same ideal."""
        if model.inp is not twin.inp:
            raise AlgebraError("the localization model is of another mutation input")
        atlas = twin.inp.atlas
        hn = QuotientCategory([atlas[n] for n in twin.hn.names], twin.m.members)
        return cls(twin, model.quotient, hn)

    def refl(self, b: Rep) -> Conflation:
        return reflection(self.twin, b)

    def coref(self, b: Rep) -> Conflation:
        return coreflection(self.twin, b)


def k_maps(xs: list[RepMap], r0: Conflation, r1: Conflation) -> list[RepMap]:
    """K(x): B0+ -> B1+ extending x along the reflections r0 of B0 and r1
    of B1, for maps x: B0 -> B1."""
    return _transport("left", xs, r0.infl, r1.infl)


def kprime_maps(xs: list[RepMap], c0: Conflation, c1: Conflation) -> list[RepMap]:
    """K'(x): B0- -> B1- lifting x through the coreflections c0 of B0 and c1
    of B1, for maps x: B0 -> B1."""
    return _transport("right", xs, c0.defl, c1.defl)


def _transport(side: str, xs: list[RepMap], f0: RepMap, f1: RepMap) -> list[RepMap]:
    """The maps xs: B0 -> B1 carried to the coreflections of B0 and B1 by
    lifting through their deflations f0, f1 (right), or to the reflections
    by extending along their inflations f0, f1 (left), from one
    `solve_columns`; a solve is column by column, so each map is what it
    would be alone."""
    right = side == "right"
    if right:  # f1 o h = x o f0
        src, tgt = f0.source, f1.source
        basis, sol = solve_columns("right", f1, src, tgt, composite_columns(xs, [f0]))
    else:  # h o f0 = f1 o x
        src, tgt = f0.target, f1.target
        basis, sol = solve_columns("left", f0, src, tgt, composite_columns([f1], xs))
    if sol is None:
        raise AlgebraError(f"{'coreflection' if right else 'reflection'} transport failed")
    if not basis:
        return [RepMap.zero(src, tgt) for _ in xs]
    return [map_from_coords(basis, sol.column(j)) for j in range(sol.cols)]


def verify_pseudo_morita(data: PseudoMoritaData) -> dict:
    """Round trips of reflection/coreflection are naturally isomorphic to id.

    For B in H_D: b solving f'(b) = f gives an iso B -> K'K(B) mod [C'].
    For B in H'_N: g extending the coreflection deflation along the
    reflection inflation gives an iso KK'(B) -> B mod [M].  Naturality is
    checked on whole hom bases; object classes biject.
    """
    report: dict = {}
    hd_objs = data.q_hd.nonzero_objects()
    hn_objs = data.q_hn.nonzero_objects()
    unit, report["unit_iso"] = _round_trip(data, "right", hd_objs)
    counit, report["counit_iso"] = _round_trip(data, "left", hn_objs)
    report["unit_natural"] = _natural(data.q_hd, "right", hd_objs, unit)
    report["counit_natural"] = _natural(data.q_hn, "left", hn_objs, counit)

    mapping, dims_ok = object_correspondence(data, unit)
    report["object_map"] = mapping
    report["object_bijection"] = (
        mapping is not None
        and len(set(mapping.values())) == len(mapping) == len(hd_objs) == len(hn_objs)
        and set(mapping.values()) == {x.name for x in hn_objs}
    )
    report["hom_dims_match"] = dims_ok
    report["ok"] = all(val for val in report.values() if isinstance(val, bool))
    return report


def _round_trip(data: PseudoMoritaData, side: str, objs: list[Rep]) -> tuple[dict, bool]:
    """The unit B -> K'K(B) on H_D (right: the reflection inflation lifted
    through the coreflection deflation) or the counit KK'(B) -> B on H'_N
    (left: the coreflection deflation extended along the reflection
    inflation), and whether each is invertible mod the ideal.  Keyed by B:
    the first value of B (its reflection on the right, its coreflection on
    the left), the second value of that one's middle term, and the unit or
    counit at B."""
    right = side == "right"
    q = data.q_hd if right else data.q_hn
    first, then = (data.refl, data.coref) if right else (data.coref, data.refl)
    trips: dict = {}
    ok = True
    for b in objs:
        out = first(b)
        back = then(out.b)
        f, g = (out.infl, back.defl) if right else (out.defl, back.infl)
        e = solve_through(f, g) if right else solve_extend(f, g)
        if e is None or not q.invertible(e)[0]:
            ok = False
        trips[b] = (out, back, e)
    return trips, ok


def _natural(q: QuotientCategory, side: str, objs: list[Rep], trips: dict) -> bool:
    """eta_{b1} o F(x) = G(x) o eta_{b0} modulo the ideal of q, for every Hom
    basis map x: b0 -> b1 between objs, with F = 1 and G = K'K on H_D
    (right) and F = KK' and G = 1 on H'_N (left), each carried on a whole
    basis at once through the values `_round_trip` keeps per object."""
    ok = True
    for b0 in objs:
        for b1 in objs:
            basis = homs(b0, b1)
            if not basis:
                continue
            (out0, back0, eta0), (out1, back1, eta1) = trips[b0], trips[b1]
            if side == "right":
                fs, gs = basis, kprime_maps(k_maps(basis, out0, out1), back0, back1)
            else:
                fs, gs = k_maps(kprime_maps(basis, out0, out1), back0, back1), basis
            lhs = composite_columns([eta1], fs)
            diffs = la.sub(lhs, composite_columns(gs, [eta0]), q.p)
            if q.qcolumns(fs[0].source, eta1.target, diffs).any():
                ok = False
    return ok


def object_correspondence(data: PseudoMoritaData, unit: dict):
    """(name -> name map via reflections, hom dimensions preserved?), the
    reflection of each H_D object read off `unit`, the trips of the right
    `_round_trip`, whose first value is that reflection."""
    atlas = data.twin.inp.atlas
    m_names = set(data.twin.m.names)
    mapping: dict = {}
    for b, (refl, _, _) in unit.items():
        names = [nm for nm in decompose(refl.b, atlas) if nm not in m_names]
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
    datlas = dual_context(atlas)
    op_inp = MutationInput(datlas, Subcategory(datlas, m_mut.names), Subcategory(datlas, n.names))
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


def classify_r(twin: TwinData, f: RepMap) -> dict:
    """Flags R0 <= R1 <= R2 and R1 <= R1_tilde for a morphism Y -> X.  A map
    factors through add T when it lies in the ideal [T] of a quotient."""
    dd = diamond_diagram(f)
    dperp = QuotientCategory([], twin.dperp.members)
    cperp = QuotientCategory([], twin.cperp.members)
    g_through_dperp = dperp.is_ideal(dd.g)
    h_through_cperp = cperp.is_ideal(dd.h)
    h_through_dperp = dperp.is_ideal(dd.h)
    z1 = dd.row1.b
    z1_in_dperp = twin.dperp.contains(z1)
    z1_in_cperp = twin.cperp.contains(z1)
    return {
        "R0": z1_in_cperp and h_through_cperp,
        "R1": z1_in_dperp and h_through_cperp,
        "R1_tilde": g_through_dperp and h_through_cperp,
        "R2": z1_in_dperp and h_through_dperp,
    }


# ---------------------------------------------------------------------------
# End-to-end verification of the equivalence chain for a mutation instance.


def verify_main_theorem(atlas: IndecSet, c: Subcategory, d: Subcategory) -> dict:
    """Certify the chain  heart[S_A^-1] = H_D/C' = H'_N/M = heart'[S_A'^-1]
    on the given atlas; returns a structured report with an overall flag."""
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
    loc = verify_localization(model)
    checks["localization"] = loc["ok"]
    panels["a_objects"] = loc["a_objects"]
    panels["localized"] = model.object_names()
    q1 = model.localized_quiver()

    dual_model = dual_localization_model(atlas, twin.m_mut, twin.n)
    checks["dual_mutation_matches"] = set(dual_model.cmut.names) == set(twin.m.names)
    panels["heart_dual"] = dual_model.heart.heart_object_names()
    loc_dual = verify_localization(dual_model)
    checks["dual_localization"] = loc_dual["ok"]
    panels["localized_dual"] = dual_model.object_names()
    q2 = reversed_quiver(dual_model.localized_quiver())

    pm = PseudoMoritaData.build(twin, model)
    morita = verify_pseudo_morita(pm)
    # the pseudo-Morita equivalence on objects is the quiver isomorphism
    checks["localized_quivers_isomorphic"] = quivers_isomorphic(q1, q2, morita["object_map"])
    checks["pseudo_morita"] = morita["ok"]
    report["quiver"] = q1
    report["quiver_dual"] = q2
    report["morita"] = morita
    report["localization_report"] = loc
    report["dual_localization_report"] = loc_dual
    report["ok"] = all(checks.values())
    return report
