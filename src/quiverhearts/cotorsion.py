"""Subcategory calculus: perpendiculars, rigidity, cotorsion pairs, Cone/CoCone.

Subcategories are additive closures of a chosen set of indecomposables from a
fixed atlas, so summand-closure is structural.  Cotorsion pairs carry witness
conflations for every atlas object; Cone/CoCone membership is decided by a
minimal-approximation criterion that is exact whenever Ext^1 from the cokernel
class to the middle class vanishes (which covers every use in the engine), and
otherwise falls back to a complete search.

The answers about whole classes, (RCP) reports, perpendicular classes,
Cone/CoCone classes and the check of a claimed cotorsion pair, are
memoised by the classes' content in the workspace, as names and reports;
a pair whose check is stored builds each witness when it is looked up.

The search (`_search`, also behind the brute-force oracles and the tests'
add(U*V) search, `star_membership` in `tests/lemmas.py`) runs through the
direct sums S of a class that hold each member B at most dim Hom(B, X) (or
dim Hom(X, B)) times, and tries the maps between S and X whose components
into (out of) the copies of B span each subspace of that Hom space once;
`_search` proves that no conflation is missed.  The far end of a
conflation built from such a map has a dimension vector fixed by S and X
alone, so a sum is skipped unless that vector is a sum of dimension
vectors of the far class.  A sum with more than 200,000 candidate maps
stops the search with `Inconclusive`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import (
    AlgebraError,
    IndecSet,
    Rep,
    RepMap,
    decompose,
    direct_sum,
    map_from_coords,
    matrix_map,
    zero_rep,
)
from .homology import (
    Conflation,
    conflation_from_defl,
    conflation_from_infl,
    homs,
    minimal_left_approximation,
    minimal_right_approximation,
    syzygy,
)
from .workspace import WORKSPACE


class Inconclusive(Exception):
    """A search stopped at its cap without a decision."""


MAX_CANDIDATES = 200_000  # candidate maps of one sum in `_search`


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

    def intersect(self, other: "Subcategory") -> "Subcategory":
        return Subcategory(self.atlas, tuple(n for n in self.names if n in other.names))

    def issubset(self, other: "Subcategory") -> bool:
        return set(self.names) <= set(other.names)

    # Derived data, built once per object (cached_property writes to the
    # instance dict directly, so the frozen fields, equality and hash stay).
    @cached_property
    def key(self) -> tuple:
        """Exact content: the atlas's member names and content, and the
        member names; the memo key of data derived from the class."""
        return self.atlas.key, self.names

    @cached_property
    def index(self) -> tuple[int, ...]:
        """The members' positions in the atlas, in name order."""
        return tuple(self.atlas.position[n] for n in self.names)

    @cached_property
    def rigid(self) -> bool:
        return is_corigid_pairwise(self, self)

    @cached_property
    def rigid_pair(self) -> "CotorsionPair":
        """The cotorsion pair (self, self-perp) of a rigid class with the
        projectives; its witnesses are built as they are looked up."""
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
            gens.append((pv, _identity_conflation("left", pv)))
        return gens

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.names)


def subcat(atlas: IndecSet, names) -> Subcategory:
    return Subcategory(atlas, tuple(names))


def projectives_of(atlas: IndecSet) -> Subcategory:
    return Subcategory(atlas, atlas.standard_names("projective"))


def injectives_of(atlas: IndecSet) -> Subcategory:
    return Subcategory(atlas, atlas.standard_names("injective"))


def perp_right(c: Subcategory) -> Subcategory:
    """Atlas objects X with Ext^1(c, X) = 0."""
    return _perp("right", c)


def perp_left(c: Subcategory) -> Subcategory:
    """Atlas objects X with Ext^1(X, c) = 0."""
    return _perp("left", c)


def _perp(side: str, c: Subcategory) -> Subcategory:
    """The right (left) perpendicular class of c, memoised by side and the
    content of c."""
    return Subcategory(c.atlas, WORKSPACE.memo("perp", (side, c.key), _perp_names, side, c))


def _perp_names(side: str, c: Subcategory) -> tuple[str, ...]:
    """The atlas columns (right) or rows (left) of the Ext^1 table that
    vanish on every member of c."""
    atlas = c.atlas
    if side == "right":
        rows = atlas.rows("ext1", c.index)
        hit = [any(row[j] for row in rows) for j in range(len(atlas))]
    else:
        hit = [any(row[j] for j in c.index) for row in atlas.rows("ext1", range(len(atlas)))]
    return tuple(n for n, h in zip(atlas.names, hit) if not h)


def is_rigid(c: Subcategory) -> bool:
    return c.rigid


def is_corigid_pairwise(c: Subcategory, d: Subcategory) -> bool:
    """Ext^1(c, d) = 0 for all member pairs."""
    _check_one_atlas(c, d)
    return not any(row[j] for row in c.atlas.rows("ext1", c.index) for j in d.index)


def _check_one_atlas(c: Subcategory, d: Subcategory) -> None:
    if c.atlas is not d.atlas:
        raise AlgebraError("the two classes lie in different atlases")


def satisfies_rcp(c: Subcategory) -> tuple[bool, dict]:
    """Contains all projectives, rigid, fully contravariantly finite."""
    return WORKSPACE.memo("rcp", ("right", c.key), _rcp, "right", c)


def satisfies_rcp_dual(v: Subcategory) -> tuple[bool, dict]:
    """Contains all injectives, rigid, fully covariantly finite."""
    return WORKSPACE.memo("rcp", ("left", v.key), _rcp, "left", v)


def _rcp(side: str, c: Subcategory) -> tuple[bool, dict]:
    """Every atlas object has a right (left) c-approximation that is a
    deflation (inflation); the report keys name the side.  Callers must
    not mutate the report: it is the stored one.

    Finiteness holds iff c holds the projectives (right), and no object
    is approximated.  If it does, the projective cover P ->> X has P in
    add(c), so it factors through every right add(c)-approximation of X,
    which is then onto.  If not, an indecomposable projective P misses c,
    and an epimorphism onto P splits, so P's right approximation is onto
    only if P is a summand of add(c), that is in c.  Dually for the
    injectives (left) and the injective envelope."""
    right = side == "right"
    holds = "contains_projectives" if right else "contains_injectives"
    report = {holds: (projectives_of if right else injectives_of)(c.atlas).issubset(c)}
    report["rigid"] = c.rigid
    report["fully_contravariantly_finite" if right else "fully_covariantly_finite"] = report[holds]
    report["summand_closed"] = True  # structural: membership by indecomposables
    return all(report.values()), report


@dataclass
class CotorsionPair:
    u: Subcategory
    v: Subcategory
    # per atlas object name: (V_B >-> U_B ->> B, B >-> V^B ->> U^B)
    witnesses: dict = field(init=False, repr=False)

    def __post_init__(self):
        _check_one_atlas(self.u, self.v)
        self.witnesses = _Witnesses(self.u, self.v)

    def witness(self, side: str, b: Rep) -> Conflation:
        """The right (left) witness of b: `witnesses` of an atlas member,
        built for any other module."""
        if b == self.u.atlas.by_name.get(b.name):
            return self.witnesses[b.name][0 if side == "right" else 1]
        return _witness(side, self.u, self.v, b)


class _Witnesses(dict):
    """The witnesses of the atlas members by name, each pair built through
    `_witness` on its first lookup."""

    def __init__(self, u: Subcategory, v: Subcategory):
        super().__init__()
        self.u, self.v = u, v

    def __missing__(self, name: str) -> tuple[Conflation, Conflation]:
        u, v, b = self.u, self.v, self.u.atlas[name]
        pair = self[name] = (_witness("right", u, v, b), _witness("left", u, v, b))
        return pair


def _witness(side: str, u: Subcategory, v: Subcategory, b: Rep) -> Conflation:
    """V_B >-> U_B ->> B (right) or B >-> V^B ->> U^B (left), with U_B, U^B in
    add u and V_B, V^B in add v; through 1_B when B has the content of a member
    of u (v)."""
    right = side == "right"
    if _owns(u if right else v, b):
        return _identity_conflation(side, b)
    f, ok = _approximation(side, u if right else v, b)
    if not ok:
        kind = "a deflation" if right else "an inflation"
        raise AlgebraError(f"{side} approximation of {b.name} is not {kind}")
    conf, end = _conflation(side, f)
    if not (v if right else u).contains(end):
        end_name, cls = ("kernel", "second") if right else ("cokernel", "first")
        raise AlgebraError(
            f"{end_name} of the {side} approximation of {b.name} is not in the {cls} class"
        )
    return conf


def _owns(c: Subcategory, b: Rep) -> bool:
    """Is b equal to one of c's members (the member itself, a renamed
    copy, a one-summand sum)?  Then 1_b is its minimal right and left
    add(c)-approximation, an isomorphism, and the callers answer with 1_b,
    brick or not, and approximate nothing."""
    m = c.atlas.by_content.get(b)
    return m is not None and c.contains_name(m.name)


def _approximation(side: str, c: Subcategory, b: Rep) -> tuple[RepMap, bool]:
    """The minimal right (left) approximation of b by sums of members of c,
    and whether it is surjective (injective)."""
    if side == "right":
        f = minimal_right_approximation(c.members, b).map
        return f, f.is_surjective()
    f = minimal_left_approximation(c.members, b).map
    return f, f.is_injective()


def _conflation(side: str, f: RepMap) -> tuple[Conflation, Rep]:
    """K >-> A -f->> B with K for a surjective f (right), B >-f-> A ->> K
    with K for an injective f (left)."""
    if side == "right":
        conf = conflation_from_defl(f)
        return conf, conf.a
    conf = conflation_from_infl(f)
    return conf, conf.c


def _identity_conflation(side: str, x: Rep) -> Conflation:
    """0 >-> x ->> x (right) or x >-> x ->> 0 (left), through 1_x: the
    conflation of a zero x, of a module with a class member's content, and
    of a projective among the Omega generators."""
    z = zero_rep(x.algebra)
    if side == "right":
        return Conflation(RepMap.zero(z, x), RepMap.identity(x))
    return Conflation(RepMap.identity(x), RepMap.zero(x, z))


def build_cotorsion_pair(u: Subcategory, v: Subcategory) -> CotorsionPair:
    """The claimed pair, checked: Ext^1(u, v) = 0 and both witnesses of
    every atlas object; raises on failure.  That the check passed is
    memoised by the content of the two classes, so a pair of checked
    content builds its witnesses only as they are asked for."""
    pair = CotorsionPair(u, v)
    WORKSPACE.memo("cotorsion_pair", (u.key, v.names), _checked, pair)
    return pair


def _checked(pair: CotorsionPair) -> bool:
    if not is_corigid_pairwise(pair.u, pair.v):
        raise AlgebraError("Ext^1(first class, second class) does not vanish")
    for name in pair.u.atlas.names:
        pair.witnesses[name]
    return True


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


def cocone_membership(x: Rep, bp: Subcategory, bpp: Subcategory) -> tuple[bool, Conflation | None]:
    """X in CoCone(bp, bpp): a conflation X >-> B' ->> B'' with ends in the classes.

    Criterion: the minimal left bp-approximation is injective with cokernel
    in add(bpp).  Exact when Ext^1(bpp, bp) = 0 (every witness inflation is
    then itself a left approximation, and minimal approximations are
    summands).  Without that hypothesis a positive answer is still a
    witness; a negative answer falls back to `cocone_membership_bruteforce`,
    a complete search whose "no" is proven (`_search`), or raises
    `Inconclusive` when one sum of that search has too many candidates.
    """
    return _membership("left", x, bp, bpp)


def cone_membership(x: Rep, bp: Subcategory, bpp: Subcategory) -> tuple[bool, Conflation | None]:
    """X in Cone(bp, bpp): a conflation B' >-> B'' ->> X.

    Dual criterion: minimal right bpp-approximation surjective with kernel
    in add(bp); exact when Ext^1(bpp, bp) = 0.  Otherwise a negative answer
    falls back to the complete `cone_membership_bruteforce`.
    """
    return _membership("right", x, bp, bpp)


def _membership(
    side: str, x: Rep, bp: Subcategory, bpp: Subcategory
) -> tuple[bool, Conflation | None]:
    """Cone (right) or CoCone (left) membership by the criterion above; a
    zero x, or an x with the content of a member of bpp (bp), is in through
    1_x.  When the criterion fails and Ext^1(bpp, bp) != 0, the complete
    search decides: its witness, or a proven "no"."""
    right = side == "right"
    if x.is_zero() or _owns(bpp if right else bp, x):
        return True, _identity_conflation(side, x)
    f, ok = _approximation(side, bpp if right else bp, x)
    if ok:
        conf, end = _conflation(side, f)
        if (bp if right else bpp).contains(end):
            return True, conf
    if is_corigid_pairwise(bpp, bp):
        return False, None
    search = cone_membership_bruteforce if right else cocone_membership_bruteforce
    found = search(x, bp, bpp)
    return (found is not None), found


def cocone_objects(bp: Subcategory, bpp: Subcategory) -> Subcategory:
    """The atlas objects in CoCone(bp, bpp)."""
    return _objects("left", bp, bpp)


def cone_objects(bp: Subcategory, bpp: Subcategory) -> Subcategory:
    """The atlas objects in Cone(bp, bpp)."""
    return _objects("right", bp, bpp)


def _objects(side: str, bp: Subcategory, bpp: Subcategory) -> Subcategory:
    """The Cone (right) or CoCone (left) class, memoised by side and the
    content of both classes."""
    key = (side, bp.key, bpp.key)
    return Subcategory(bp.atlas, WORKSPACE.memo("cone_objects", key, _object_names, side, bp, bpp))


def _object_names(side: str, bp: Subcategory, bpp: Subcategory) -> tuple[str, ...]:
    member = cone_membership if side == "right" else cocone_membership
    return tuple(x.name for x in bp.atlas if member(x, bp, bpp)[0])


def _dim_sums(end_class: Subcategory):
    """Is a dimension vector the dimension vector of an object of
    add(end_class), that is, a sum of members' dimension vectors?  The
    returned test is memoised, so build it once per search."""
    gens = sorted({m.dims for m in end_class.members if not m.is_zero()})
    known: dict[tuple[int, ...], bool] = {}

    def reachable(dims: tuple[int, ...]) -> bool:
        if dims not in known:
            known[dims] = not any(dims) or min(dims) >= 0 and any(
                reachable(tuple(d - g for d, g in zip(dims, gen))) for gen in gens
            )
        return known[dims]

    return reachable


def _search(
    side: str, x: Rep, members: list[Rep], into_x: bool, end_class: Subcategory
) -> Conflation | None:
    """A conflation with deflation (right) or inflation (left) a map f:
    S -> x (into_x) or x -> S, S a sum of `members`, whose far end lies in
    add(end_class), or None when there is none; the search is complete.

    Each member B occurs in S at most h_B = dim Hom(B, x) (into_x) or
    dim Hom(x, B) times, and its k copies are tried only as the
    k-dimensional subspaces of that Hom space, each through the rows of its
    reduced row echelon basis.

    Proof that nothing is missed.  Let f have components f_1 ... f_k
    between the k copies of B and x.  An automorphism of B^k is a matrix g
    in GL_k(F_p); composing f with it replaces the components by their
    combinations with g's coefficients and gives a conflation with
    isomorphic ends.  If the components are linearly dependent, some g
    makes one of them zero.  For a surjection S ->> x that copy of B then
    lies in the kernel, and for an injection x >-> S it splits off the
    cokernel: the rest of f is a surjection (injection) between x and a
    smaller S whose far end is a summand of the old one, so still in
    add(end_class), which is closed under summands.  An injection S >-> x
    (the search of `star_membership` in `tests/lemmas.py`) has no zero
    component at all.  So if a conflation exists, one exists whose
    components at each B are linearly independent, which needs k <= h_B;
    and independent k-tuples that span the same subspace differ by some g,
    so they give isomorphic conflations, and one basis per subspace is
    enough.

    The far end of a surjection (injection) src -> tgt is its kernel
    (cokernel), of dimension vector dim src - dim tgt (dim tgt - dim src)
    whatever the map, so a sum for which that vector is not a sum of
    end_class dimension vectors is skipped before it is built.  A sum with
    more than MAX_CANDIDATES candidates (the product of the Gaussian
    binomials [h_B, k_B]_p, the subspace counts) stops the search with
    `Inconclusive` before any of its maps is built."""
    reachable = _dim_sums(end_class)
    sign = 1 if (side == "right") == into_x else -1
    p = x.algebra.p
    # Largest member first, so that the last, smallest one varies fastest
    # and the first sums tried are the small ones.
    spaces = []
    nonzero = (m for m in members if not m.is_zero())
    for m in sorted(nonzero, key=lambda m: (m.total_dim, m.name), reverse=True):
        basis = homs(m, x) if into_x else homs(x, m)
        if basis:
            spaces.append((m, basis))
    for mults in itertools.product(*(range(len(basis) + 1) for _, basis in spaces)):
        chosen = [(m, basis, k) for (m, basis), k in zip(spaces, mults) if k]
        if not chosen:
            continue
        far = tuple(
            sign * (sum(k * m.dims[i] for m, _, k in chosen) - d) for i, d in enumerate(x.dims)
        )
        if not reachable(far):
            continue
        count = math.prod(_subspace_count(len(basis), k, p) for _, basis, k in chosen)
        if count > MAX_CANDIDATES:
            raise Inconclusive(
                f"{count} candidate maps for one sum, more than {MAX_CANDIDATES}"
            )
        total = direct_sum([m for m, _, k in chosen for _ in range(k)])
        for rows in itertools.product(*(_subspaces(len(b), k, p) for _, b, k in chosen)):
            comps = [
                map_from_coords(basis, row)
                for (_, basis, _), some in zip(chosen, rows)
                for row in some
            ]
            if into_x:
                f = matrix_map(total, x, [comps])
            else:
                f = matrix_map(x, total, [[c] for c in comps])
            if f.is_surjective() if side == "right" else f.is_injective():
                conf, end = _conflation(side, f)
                if end_class.contains(end):
                    return conf
    return None


def _subspace_count(h: int, k: int, p: int) -> int:
    """The Gaussian binomial [h, k]_p: the number of k-dimensional subspaces
    of F_p^h."""
    num = den = 1
    for i in range(k):
        num *= p ** (h - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subspaces(h: int, k: int, p: int):
    """Every k-dimensional subspace of F_p^h once, as the k rows of its
    reduced row echelon basis: pivot columns, a 1 at each pivot, and any
    entries right of a pivot outside the pivot columns."""
    for pivots in itertools.combinations(range(h), k):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, h) if j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * h for _ in pivots]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), value in zip(free, values):
                rows[i][j] = value
            yield rows


def cocone_membership_bruteforce(x: Rep, bp: Subcategory, bpp: Subcategory) -> Conflation | None:
    """Complete search over conflations X >-> B' ->> B'': each member B of
    bp at most dim Hom(X, B) times in B', its copies one subspace of
    Hom(X, B) at a time (`_search` has the proof)."""
    return _bruteforce("left", x, bp, bpp)


def cone_membership_bruteforce(x: Rep, bp: Subcategory, bpp: Subcategory) -> Conflation | None:
    """Complete search over conflations B' >-> B'' ->> X: each member B of
    bpp at most dim Hom(B, X) times in B'', its copies one subspace of
    Hom(B, X) at a time (`_search` has the proof)."""
    return _bruteforce("right", x, bp, bpp)


def _bruteforce(side: str, x: Rep, bp: Subcategory, bpp: Subcategory) -> Conflation | None:
    right = side == "right"
    if x.is_zero():
        return _identity_conflation(side, x)
    sums, end_class = (bpp, bp) if right else (bp, bpp)
    return _search(side, x, sums.members, right, end_class)
