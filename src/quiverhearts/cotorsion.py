"""Subcategory calculus: perpendiculars, rigidity, cotorsion pairs, Cone/CoCone.

Subcategories are additive closures of a chosen set of indecomposables from a
fixed atlas, so summand-closure is structural.  Cotorsion pairs carry witness
conflations for every atlas object; Cone/CoCone membership is decided by a
minimal-approximation criterion that is exact whenever Ext^1 from the cokernel
class to the middle class vanishes (which covers every use in the engine), and
otherwise falls back to a bounded exhaustive search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import (
    AlgebraError,
    IndecSet,
    Rep,
    RepMap,
    decompose,
    direct_sum,
    is_isomorphic,
    map_from_coords,
    standard_modules,
    zero_rep,
)
from .homology import (
    Conflation,
    conflation_from_defl,
    conflation_from_infl,
    ext1_dim,
    homs,
    minimal_left_approximation,
    minimal_right_approximation,
    syzygy,
)


class Inconclusive(Exception):
    """A bounded search was exhausted without a decision."""


@dataclass(frozen=True)
class Subcategory:
    """The additive closure of a set of atlas indecomposables."""

    atlas: IndecSet = field(compare=False)
    names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(sorted(set(self.names))))
        for n in self.names:
            if n not in self.atlas.by_name:
                raise AlgebraError(f"{n} is not an atlas member")

    @property
    def members(self) -> list[Rep]:
        return [self.atlas[n] for n in self.names]

    def contains_name(self, name: str) -> bool:
        return name in self.names

    def contains(self, x: Rep) -> bool:
        """Is x in the additive closure?"""
        if x.is_zero():
            return True
        return all(n in self.names for n in decompose(x, self.atlas))

    def union(self, other: "Subcategory") -> "Subcategory":
        return Subcategory(self.atlas, self.names + other.names)

    def intersect(self, other: "Subcategory") -> "Subcategory":
        return Subcategory(self.atlas, tuple(n for n in self.names if n in other.names))

    def issubset(self, other: "Subcategory") -> bool:
        return set(self.names) <= set(other.names)

    # Derived data, built once per object (cached_property writes to the
    # instance dict directly, so the frozen fields, equality and hash stay).
    @cached_property
    def rigid_pair(self) -> "CotorsionPair":
        """The cotorsion pair (self, self-perp) of a rigid class with the
        projectives, with its witnesses."""
        return cotorsion_pair_from_rigid(self)

    @cached_property
    def omega_generators(self) -> list[tuple[Rep, Conflation]]:
        """Generators of Omega(self), each with its conflation rep >-> P ->> D:
        the nonzero syzygies of the members, then the projectives."""
        gens = []
        for m in self.members:
            om, conf = syzygy(m)
            if not om.is_zero():
                gens.append((om, conf))
        for pv in projectives_of(self.atlas).members:
            gens.append((pv, conflation_from_infl(RepMap.identity(pv))))
        return gens

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.names)


def subcat(atlas: IndecSet, names) -> Subcategory:
    return Subcategory(atlas, tuple(names))


def full_subcat(atlas: IndecSet) -> Subcategory:
    return Subcategory(atlas, tuple(atlas.names))


def projectives_of(atlas: IndecSet) -> Subcategory:
    return _standard_class(atlas, "projective")


def injectives_of(atlas: IndecSet) -> Subcategory:
    return _standard_class(atlas, "injective")


def _standard_class(atlas: IndecSet, kind: str) -> Subcategory:
    """The atlas members isomorphic to the standard modules of this kind."""
    std = standard_modules(atlas.members[0].algebra)
    names = []
    for v, s in std[kind].items():
        for m in atlas:
            if m.dims == s.dims and is_isomorphic(m, s)[0]:
                names.append(m.name)
                break
        else:
            raise AlgebraError(f"{kind} at {v} missing from atlas")
    return Subcategory(atlas, tuple(names))


def perp_right(c: Subcategory) -> Subcategory:
    keep = [
        x.name
        for x in c.atlas
        if all(ext1_dim(m, x) == 0 for m in c.members)
    ]
    return Subcategory(c.atlas, tuple(keep))


def perp_left(c: Subcategory) -> Subcategory:
    keep = [
        x.name
        for x in c.atlas
        if all(ext1_dim(x, m) == 0 for m in c.members)
    ]
    return Subcategory(c.atlas, tuple(keep))


def is_rigid(c: Subcategory) -> bool:
    return all(ext1_dim(a, b) == 0 for a in c.members for b in c.members)


def is_corigid_pairwise(c: Subcategory, d: Subcategory) -> bool:
    """Ext^1(c, d) = 0 for all member pairs."""
    return all(ext1_dim(a, b) == 0 for a in c.members for b in d.members)


def satisfies_rcp(c: Subcategory) -> tuple[bool, dict]:
    """Contains all projectives, rigid, fully contravariantly finite."""
    report = {}
    projs = projectives_of(c.atlas)
    report["contains_projectives"] = projs.issubset(c)
    report["rigid"] = is_rigid(c)
    cf = True
    for x in c.atlas:
        approx = minimal_right_approximation(c.members, x)
        if not approx.map.is_surjective():
            cf = False
            break
    report["fully_contravariantly_finite"] = cf
    report["summand_closed"] = True  # structural: membership by indecomposables
    return all(report.values()), report


def satisfies_rcp_dual(v: Subcategory) -> tuple[bool, dict]:
    """Contains all injectives, rigid, fully covariantly finite."""
    report = {}
    injs = injectives_of(v.atlas)
    report["contains_injectives"] = injs.issubset(v)
    report["rigid"] = is_rigid(v)
    cf = True
    for x in v.atlas:
        approx = minimal_left_approximation(v.members, x)
        if not approx.map.is_injective():
            cf = False
            break
    report["fully_covariantly_finite"] = cf
    report["summand_closed"] = True
    return all(report.values()), report


@dataclass
class CotorsionPair:
    u: Subcategory
    v: Subcategory
    # per atlas object name: (V_B >-> U_B ->> B, B >-> V^B ->> U^B)
    witnesses: dict = field(default_factory=dict)

    def witness_right(self, name: str) -> Conflation:
        return self.witnesses[name][0]

    def witness_left(self, name: str) -> Conflation:
        return self.witnesses[name][1]


def _right_witness(u: Subcategory, v: Subcategory, b: Rep) -> Conflation:
    """V_B >-> U_B ->> B with U_B in add u and V_B in add v."""
    approx = minimal_right_approximation(u.members, b)
    if not approx.map.is_surjective():
        raise AlgebraError(f"right approximation of {b.name} is not a deflation")
    conf = conflation_from_defl(approx.map)
    if not v.contains(conf.a):
        raise AlgebraError(
            f"kernel of the right approximation of {b.name} is not in the second class"
        )
    return conf


def _left_witness(u: Subcategory, v: Subcategory, b: Rep) -> Conflation:
    """B >-> V^B ->> U^B with V^B in add v and U^B in add u."""
    approx = minimal_left_approximation(v.members, b)
    if not approx.map.is_injective():
        raise AlgebraError(f"left approximation of {b.name} is not an inflation")
    conf = conflation_from_infl(approx.map)
    if not u.contains(conf.c):
        raise AlgebraError(
            f"cokernel of the left approximation of {b.name} is not in the first class"
        )
    return conf


def build_cotorsion_pair(u: Subcategory, v: Subcategory) -> CotorsionPair:
    """Assemble witness conflations for a claimed pair; raises on failure."""
    if not is_corigid_pairwise(u, v):
        raise AlgebraError("Ext^1(first class, second class) does not vanish")
    witnesses = {}
    for b in u.atlas:
        witnesses[b.name] = (_right_witness(u, v, b), _left_witness(u, v, b))
    return CotorsionPair(u, v, witnesses)


def cotorsion_pair_from_rigid(c: Subcategory) -> CotorsionPair:
    ok, report = satisfies_rcp(c)
    if not ok:
        bad = [k for k, val in report.items() if not val]
        raise AlgebraError(f"rigid-pair construction precondition failed: {bad}")
    return build_cotorsion_pair(c, perp_right(c))


def verify_cotorsion_pair(u: Subcategory, v: Subcategory) -> tuple[bool, dict]:
    """Orthogonality, witnesses, maximality, and P/I containment."""
    report = {}
    report["orthogonal"] = is_corigid_pairwise(u, v)
    try:
        build_cotorsion_pair(u, v)
        report["witnesses"] = True
    except AlgebraError as e:
        report["witnesses"] = False
        report["witness_error"] = str(e)
    # maximality: u is exactly the left perp of v, and dually
    report["u_maximal"] = set(perp_left(v).names) == set(u.names)
    report["v_maximal"] = set(perp_right(u).names) == set(v.names)
    report["projectives_in_u"] = projectives_of(u.atlas).issubset(u)
    report["injectives_in_v"] = injectives_of(v.atlas).issubset(v)
    ok = all(val for key, val in report.items() if isinstance(val, bool))
    return ok, report


# ---------------------------------------------------------------------------
# Cone / CoCone membership.


def cocone_membership(
    x: Rep, bp: Subcategory, bpp: Subcategory, cap: int | None = None
) -> tuple[bool, Conflation | None]:
    """X in CoCone(bp, bpp): a conflation X >-> B' ->> B'' with ends in the classes.

    Criterion: the minimal left bp-approximation is injective with cokernel
    in add(bpp).  Exact when Ext^1(bpp, bp) = 0 (every witness inflation is
    then itself a left approximation, and minimal approximations are
    summands).  Without that hypothesis a positive answer is still a
    witness; a negative answer falls back to bounded search.
    """
    if x.is_zero():
        z = zero_rep(x.algebra)
        return True, Conflation(RepMap.zero(x, z), RepMap.zero(z, z))
    approx = minimal_left_approximation(bp.members, x)
    if approx.map.is_injective():
        conf = conflation_from_infl(approx.map)
        if bpp.contains(conf.c):
            return True, conf
    if is_corigid_pairwise(bpp, bp):
        return False, None
    found = cocone_membership_bruteforce(x, bp, bpp, cap=cap)
    return (found is not None), found


def cone_membership(
    x: Rep, bp: Subcategory, bpp: Subcategory, cap: int | None = None
) -> tuple[bool, Conflation | None]:
    """X in Cone(bp, bpp): a conflation B' >-> B'' ->> X.

    Dual criterion: minimal right bpp-approximation surjective with kernel
    in add(bp); exact when Ext^1(bpp, bp) = 0.
    """
    if x.is_zero():
        z = zero_rep(x.algebra)
        return True, Conflation(RepMap.zero(z, z), RepMap.zero(z, x))
    approx = minimal_right_approximation(bpp.members, x)
    if approx.map.is_surjective():
        conf = conflation_from_defl(approx.map)
        if bp.contains(conf.a):
            return True, conf
    if is_corigid_pairwise(bpp, bp):
        return False, None
    found = cone_membership_bruteforce(x, bp, bpp, cap=cap)
    return (found is not None), found


def cocone_objects(bp: Subcategory, bpp: Subcategory) -> Subcategory:
    keep = [x.name for x in bp.atlas if cocone_membership(x, bp, bpp)[0]]
    return Subcategory(bp.atlas, tuple(keep))


def cone_objects(bp: Subcategory, bpp: Subcategory) -> Subcategory:
    keep = [x.name for x in bp.atlas if cone_membership(x, bp, bpp)[0]]
    return Subcategory(bp.atlas, tuple(keep))


def _candidate_sums(members: list[Rep], max_total: int):
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


def _all_maps(x: Rep, b: Rep):
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


def cocone_membership_bruteforce(
    x: Rep, bp: Subcategory, bpp: Subcategory, cap: int | None = None
) -> Conflation | None:
    """Exhaustive search over conflations X >-> B' ->> B'' up to a size cap."""
    if x.is_zero():
        z = zero_rep(x.algebra)
        return Conflation(RepMap.zero(x, z), RepMap.zero(z, z))
    max_extra = 2 * max((m.total_dim for m in bp.atlas), default=0)
    cap = cap if cap is not None else x.total_dim + max_extra
    for combo in _candidate_sums(bp.members, cap):
        total = direct_sum(combo)
        if total.total_dim < x.total_dim:
            continue
        for f in _all_maps(x, total):
            if not f.is_injective():
                continue
            conf = conflation_from_infl(f)
            if bpp.contains(conf.c):
                return conf
    return None


def cone_membership_bruteforce(
    x: Rep, bp: Subcategory, bpp: Subcategory, cap: int | None = None
) -> Conflation | None:
    if x.is_zero():
        z = zero_rep(x.algebra)
        return Conflation(RepMap.zero(z, z), RepMap.zero(z, x))
    max_extra = 2 * max((m.total_dim for m in bpp.atlas), default=0)
    cap = cap if cap is not None else x.total_dim + max_extra
    for combo in _candidate_sums(bpp.members, cap):
        total = direct_sum(combo)
        if total.total_dim < x.total_dim:
            continue
        for f in _all_maps(total, x):
            if not f.is_surjective():
                continue
            conf = conflation_from_defl(f)
            if bp.contains(conf.a):
                return conf
    return None


def star_membership(x: Rep, pair: CotorsionPair) -> bool:
    """X in add(U * V) for a cotorsion pair (U, V).

    When U is rigid, U is contained in V and a long exact sequence shows
    add(U*V) = V exactly; dually add(U*V) = U when V is rigid.  Otherwise a
    bounded search over conflations U0 >-> X' ->> V0 decides it.
    """
    if x.is_zero():
        return True
    if is_rigid(pair.u):
        return pair.v.contains(x)
    if is_rigid(pair.v):
        return pair.u.contains(x)
    return _star_bruteforce(x, pair.u, pair.v)


def _star_bruteforce(x: Rep, u: Subcategory, v: Subcategory) -> bool:
    # search for U0 >-> X ->> V0 directly (add-closure: check each summand)
    for name, _mult in decompose(x, u.atlas).items():
        member = u.atlas[name]
        found = False
        if u.contains(member) or v.contains(member):
            found = True
        else:
            cap = member.total_dim
            for combo in _candidate_sums(u.members, cap):
                total = direct_sum(combo)
                for f in _all_maps(total, member):
                    if f.is_injective():
                        conf = conflation_from_infl(f)
                        if v.contains(conf.c):
                            found = True
                            break
                if found:
                    break
        if not found:
            return False
    return True


# ---------------------------------------------------------------------------
# Twin cotorsion pairs.


@dataclass
class TwinCotorsionPair:
    first: CotorsionPair  # (S, T)
    second: CotorsionPair  # (U, V)

    def validate(self) -> "TwinCotorsionPair":
        if not self.first.u.issubset(self.second.u):
            raise AlgebraError("twin pair inclusion S <= U fails")
        return self

    @property
    def core_w(self) -> Subcategory:
        return self.first.v.intersect(self.second.u)


def b_plus_objects(twin: TwinCotorsionPair) -> Subcategory:
    """Objects with a conflation V_B >-> W_B ->> B, W_B in W, V_B in V."""
    return cone_objects(twin.second.v, twin.core_w)


def b_minus_objects(twin: TwinCotorsionPair) -> Subcategory:
    """Objects with a conflation B >-> W^B ->> S^B, W^B in W, S^B in S."""
    return cocone_objects(twin.core_w, twin.first.u)


def heart_objects(twin: TwinCotorsionPair) -> Subcategory:
    return b_plus_objects(twin).intersect(b_minus_objects(twin))
