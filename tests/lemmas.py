"""The paper's lemmas that the certificate does not run, decided on whole
Hom spaces, with the Ext^1 and minimality helpers, random heart morphisms
and the A2 fixture that the tests share; the heart kernel built as an
object (`realize_heart_kernel`), the route by which S_A was decided before
`mutation.in_s_a` read it off the ranks of Phi's blocks; and the
brute-force references the tests hold the engine to: the plain Cone/CoCone
search, which tries every map between X and every direct sum of the middle
class up to dim X plus twice the largest atlas dimension (the search that
`cotorsion._search` replaced with a complete one), the add(U*V) search
(`star_membership`), and the quiver isomorphism search, which tries every
bijection of the nodes."""

import itertools

import numpy as np

from quiverhearts import linalg as la
from quiverhearts.algebra import (
    AlgebraError, BoundQuiverAlgebra, IndecSet, Quiver, Rep, RepMap, _as_matrix_algebra,
    _radical_of_span, composite_columns, decompose, direct_sum, flat_columns, hom_space,
    map_from_coords, matrix_map,
)
from quiverhearts.cotorsion import (
    CotorsionPair, Inconclusive, Subcategory, _conflation, _dim_sums, _search, cocone_objects,
    projectives_of,
)
from quiverhearts.fixtures import DEFAULT_P
from quiverhearts.heart import (
    HeartModel, QuotientCategory, solve_extend, solve_through, syzygy_approximation,
)
from quiverhearts.homology import (
    Conflation, Ext1, conflation_from_defl, ext1_dim, homs, pullback_conflation,
    pushout_conflation,
)
from quiverhearts.mutation import LocalizationModel, TwinData, classify_r, in_s_a


def is_approximation(side: str, members: list[Rep], f: RepMap) -> bool:
    """Every map from a member into the target of f factors through f
    (right), or every map from the source of f into a member extends along
    f (left)."""
    right = side == "right"
    for m in members:
        for h in homs(m, f.target) if right else homs(f.source, m):
            if (solve_through(h, f) if right else solve_extend(h, f)) is None:
                return False
    return True


def verify_hd_moreover(res: Conflation, outer_perp: Subcategory, atlas: IndecSet) -> bool:
    """If x' o f factors through outer-perp then so does x' itself.

    Decided for all x': X -> T at once, for every atlas object T: over the
    Hom(X, T) basis, x' o f lies in [outer-perp] on the kernel of M1 (the
    quotient coordinates of x' o f) and x' on the kernel of M2 (those of
    x'), and ker M1 lies in ker M2 exactly when stacking M2 under M1 adds
    no rank.
    """
    q = QuotientCategory(list(atlas.members), outer_perp.members)
    for t in atlas:
        basis = homs(res.c, t)
        if not basis:
            continue
        m1 = q.qcolumns(res.b, t, composite_columns(basis, [res.defl]))
        m2 = q.qmatrix(res.c, t)
        if la.rank(la.vstack([m1, m2], len(basis)), q.p) != la.rank(m1, q.p):
            return False
    return True


def check_g1_property(model: LocalizationModel, twin: TwinData, f: RepMap) -> bool:
    """Members of the widest first-row class map to S_A under the heart functor."""
    flags = classify_r(twin, f)
    if not flags["R1_tilde"]:
        return True  # nothing claimed
    hf = model.heart.h.h_map(f)
    return in_s_a(model, hf) is True


def heart_epi(model: HeartModel, f: RepMap) -> bool:
    return heart_cokernel_dim(model, f) == 0


def heart_cokernel_dim(model: HeartModel, f: RepMap) -> int:
    m = model.phi.phi_map(f)
    return model.phi.dim(f.target) - la.rank(m, model.phi.p)


def realize_heart_kernel(model: HeartModel, g: RepMap) -> Rep:
    """For a heart epi g: B -> C, the kernel object K_g.

    K_g is the pullback of g along the witness deflation W_C ->> C: the
    middle term of the witness V_C >-> W_C ->> C pulled back along g,
    V_C >-> K_g ->> B, whose deflation is the map K_g -> B.  It exhibits
    0 -> K_g -> B -> C -> 0 in the heart, certified in the Phi model.
    """
    if not heart_epi(model, g):
        raise AlgebraError("not exact: the morphism is not an epimorphism in the heart")
    wr = model.pair.witness("right", g.target)  # V_C >-> W_C ->> C
    to_b = pullback_conflation(wr, g)[0].defl  # V_C >-> K_g ->> B
    # exactness certificate in the Phi model
    mk = model.phi.phi_map(to_b)
    mg = model.phi.phi_map(g)
    p = model.phi.p
    if la.matmul(mg, mk, p).any():
        raise AlgebraError("not exact: kernel composite does not vanish")
    if la.rank(mk, p) != model.phi.dim(to_b.source):
        raise AlgebraError("not exact: kernel inclusion is not a heart mono")
    if la.rank(mk, p) + la.rank(mg, p) != model.phi.dim(g.source):
        raise AlgebraError("not exact: rank identity fails")
    return to_b.source


def in_s_a_by_kernel(model: LocalizationModel, a_sub: Subcategory, f: RepMap) -> bool:
    """Is f a heart epimorphism whose heart kernel lies in the class A: the
    kernel object built (`realize_heart_kernel`) and decomposed, each
    summand outside C checked against `a_sub`."""
    if not heart_epi(model.heart, f):
        return False
    kobj = realize_heart_kernel(model.heart, f)
    for name in decompose(kobj, model.inp.atlas):
        if model.inp.c.contains_name(name):
            continue  # zero in the heart
        if not a_sub.contains_name(name):
            return False
    return True


def realize_ses_in_heart(model: HeartModel, g: RepMap) -> Conflation:
    """Conflation K_g >-> B + W_C ->> C realizing 0 -> ker -> B -> C -> 0."""
    realize_heart_kernel(model, g)  # certifies that g is a heart epi
    wr = model.pair.witness("right", g.target)  # V_C >-> W_C ->> C
    total = direct_sum([g.source, wr.b])
    defl = matrix_map(total, g.target, [[g, wr.defl]])
    conf = conflation_from_defl(defl)
    return conf.validate()


def verify_factors_through_p(pair: CotorsionPair, x: Rep, b: Rep) -> bool:
    """If Ext^1(T0, B) = 0 then Hom(g0, B) is surjective, for the left
    witness X >-> T0 ->> C0 and the inflation g0 of Y0 >-> U0 ->> X."""
    t0 = pair.witness("left", x).b
    if ext1_dim(t0, b) != 0:
        return True  # hypothesis empty; nothing to check
    return is_approximation("left", [b], syzygy_approximation(pair, x).infl)


def check_syzygyepi(model: HeartModel, g: RepMap) -> bool:
    """For a heart-epi deflation g between H-objects, Hom(X, g) is surjective
    for every X in Omega(U) = CoCone(P, U)."""
    if not g.is_surjective():
        raise AlgebraError("precondition violation: g is not a deflation")
    if not heart_epi(model, g):
        raise AlgebraError("precondition violation: g is not an epimorphism in the heart")
    u = model.pair.u
    return is_approximation("right", cocone_objects(projectives_of(u.atlas), u).members, g)


def classes(ext: Ext1, maps: list[RepMap]):
    """Coordinates of the classes of cocycles Omega C -> A, one column
    per map, (dim, len(maps)); every class of a zero Ext^1 is zero."""
    if not (ext.dim and maps):
        return la.zeros(ext.dim, len(maps))
    return ext.column_classes(flat_columns(maps))


def realize(ext: Ext1, coords) -> Conflation:
    """A conflation A >-> E ->> C representing the class with these
    coordinates: the syzygy conflation pushed along its cocycle."""
    g = RepMap.zero(ext.cover_conf.a, ext.a)
    for c, cocycle in zip(coords, ext.cocycles):
        g = g.add(cocycle.scale(c))
    conf, _ = pushout_conflation(ext.cover_conf, g)
    return conf


def coords_of(ext: Ext1, conf: Conflation) -> tuple[int, ...]:
    """Class of a conflation A >-> E ->> C in quotient coordinates."""
    if conf.a != ext.a or conf.c != ext.c:
        raise AlgebraError("conflation end terms do not match")
    omega_inc, cover_epi = ext.cover_conf  # Omega C >-> P0 ->> C
    # lift the cover epi P0 ->> C through the deflation E ->> C
    lifts = homs(ext.cover_conf.b, conf.b)
    if lifts:
        flat = flat_columns([conf.defl.compose(h) for h in lifts])
        sol = la.solve(flat, la.column(cover_epi.flat()), ext.p)
    else:
        sol = None
    if sol is None:
        raise AlgebraError("projective lifting failed")
    h = map_from_coords(lifts, sol.data)
    # h o omega_inc lands in ker(defl) = im(infl); divide by the inflation
    rest = h.compose(omega_inc)
    blocks = []
    for ib, rb in zip(conf.infl.blocks, rest.blocks):
        s = la.solve(ib, rb, ext.p)
        if s is None:
            raise AlgebraError("cocycle division failed")
        blocks.append(s)
    return classes(ext, [RepMap._checked(omega_inc.source, ext.a, blocks)]).data


def end_radical(m: Rep) -> tuple[list[RepMap], list[RepMap]]:
    """(basis of End(m), basis of rad End(m))."""
    endos = hom_space(m, m)
    mats = _as_matrix_algebra(endos)
    radc = _radical_of_span(mats, m.algebra.p)
    return endos, [map_from_coords(endos, radc.column(j)) for j in range(radc.cols)]


def is_minimal(f: RepMap, side: str) -> bool:
    """Right (left) minimality of f: the one-sided ideal of endomorphisms h
    of its source (target) with f h = 0 (h f = 0) sits inside the radical."""
    right = side == "right"
    x = f.source if right else f.target
    endos = homs(x, x)
    if not endos:
        return True
    comp_flat = composite_columns([f], endos) if right else composite_columns(endos, [f])
    ker = la.nullspace(comp_flat, f.p)
    if ker.cols == 0:
        return True
    _, rad = end_radical(x)
    if not rad:
        return False
    endo_flat = flat_columns(endos)
    rad_flat = flat_columns(rad)
    return la.solve(rad_flat, la.matmul(endo_flat, ker, f.p), f.p) is not None


def heart_morphisms(ex61, n: int, seed: int) -> list[RepMap]:
    """n random combinations of the Hom basis between two heart objects of
    ex61, drawn from a generator with this seed."""
    rng = np.random.default_rng(seed)
    names = ex61.subcats["heart"]
    out = []
    while len(out) < n:
        x = ex61.atlas[names[rng.integers(len(names))]]
        y = ex61.atlas[names[rng.integers(len(names))]]
        basis = homs(x, y)
        if basis:
            out.append(map_from_coords(basis, rng.integers(0, ex61.algebra.p, len(basis))))
    return out


def a2_algebra(p: int = DEFAULT_P) -> BoundQuiverAlgebra:
    return BoundQuiverAlgebra(Quiver(("1", "2"), (("a", "1", "2"),)), p)


def a2_atlas(p: int = DEFAULT_P) -> IndecSet:
    alg = a2_algebra(p)
    mods = [Rep(alg, "1", (1, 0)), Rep(alg, "2", (0, 1)), Rep(alg, "1/2", (1, 1), {"a": [[1]]})]
    return IndecSet(mods, validate=False)


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


def star_membership(x: Rep, pair: CotorsionPair) -> bool:
    """X in add(U * V) for a cotorsion pair (U, V).

    When U is rigid, U is contained in V and a long exact sequence shows
    add(U*V) = V exactly; dually add(U*V) = U when V is rigid.  Otherwise
    a complete search over conflations U0 >-> X' ->> V0, one for each
    summand X' of X outside U and V, decides it: U0 injects into X', so each
    member B of U occurs in U0 at most dim Hom(B, X') times, with linearly
    independent components (`cotorsion._search`).
    """
    if x.is_zero():
        return True
    if pair.u.rigid:
        return pair.v.contains(x)
    if pair.v.rigid:
        return pair.u.contains(x)
    return star_bruteforce(x, pair.u, pair.v)


def star_bruteforce(x: Rep, u: Subcategory, v: Subcategory) -> bool:
    # search for U0 >-> X ->> V0 directly (add-closure: check each summand)
    for name in decompose(x, u.atlas):
        member = u.atlas[name]
        if u.contains(member) or v.contains(member):
            continue
        if _search("left", member, u.members, True, v) is None:
            return False
    return True
