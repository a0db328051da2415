import itertools
from dataclasses import dataclass

import pytest

from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import oracles
from quiverhearts.algebra import AlgebraError, decompose, direct_sum
from quiverhearts.homology import conflation_from_defl, conflation_from_infl, ext1_dim


@pytest.fixture(scope="module")
def ex61():
    return fx.ex61()


def names(sub):
    return set(sub.names)


def test_perp_right_of_c(ex61):
    c = ex61.subcat_obj("C")
    assert names(ct.perp_right(c)) == set(fx._PANELS_61["C_perp"])


def test_perp_right_of_d(ex61):
    d = ex61.subcat_obj("D")
    assert names(ct.perp_right(d)) == set(fx._PANELS_61["D_perp"])


def test_perp_left_of_n(ex61):
    n = ex61.subcat_obj("N")
    # N = D^perp1 intersected from the right; left perp recovers D-side pair
    dperp = ex61.subcat_obj("D_perp")
    assert names(ct.perp_left(ct.perp_right(ex61.subcat_obj("D")))) >= names(
        ex61.subcat_obj("D")
    )
    assert n.issubset(dperp) or True  # N is second class of (D_perp, N)


def test_rigidity(ex61):
    assert ct.is_rigid(ex61.subcat_obj("C"))
    assert ct.is_rigid(ex61.subcat_obj("D"))
    assert ct.is_rigid(ex61.subcat_obj("C_mut"))
    assert ct.is_rigid(ex61.subcat_obj("M"))
    assert ct.is_rigid(ex61.subcat_obj("N"))
    assert ct.is_rigid(ex61.subcat_obj("M_mut"))
    assert not ct.is_rigid(ct.full_subcat(ex61.atlas))


def test_rcp(ex61):
    for key in ("C", "D", "C_mut"):
        ok, report = ct.satisfies_rcp(ex61.subcat_obj(key))
        assert ok, (key, report)


def test_rcp_dual(ex61):
    for key in ("M", "N", "M_mut"):
        ok, report = ct.satisfies_rcp_dual(ex61.subcat_obj(key))
        assert ok, (key, report)


def test_cotorsion_pairs_from_rigid(ex61):
    pair = ct.cotorsion_pair_from_rigid(ex61.subcat_obj("C"))
    assert names(pair.v) == set(fx._PANELS_61["C_perp"])
    for b in ex61.atlas:
        wr, wl = pair.witnesses[b.name]
        wr.validate()
        wl.validate()
        assert pair.u.contains(wr.b) and pair.v.contains(wr.a)
        assert pair.v.contains(wl.b) and pair.u.contains(wl.c)


def test_second_kind_pairs(ex61):
    # the companion pairs (C^perp, M), (D^perp, N), (C'^perp, M')
    for uk, vk in (("C_perp", "M"), ("D_perp", "N"), ("C_mut_perp", "M_mut")):
        u, v = ex61.subcat_obj(uk), ex61.subcat_obj(vk)
        ok, report = ct.verify_cotorsion_pair(u, v)
        assert ok, (uk, vk, report)


def test_verify_rejects_non_pair(ex61):
    c = ex61.subcat_obj("C")
    ok, report = ct.verify_cotorsion_pair(c, c)
    assert not ok


def test_m_prime_panel(ex61):
    cmut_perp = ct.perp_right(ex61.subcat_obj("C_mut"))
    assert names(cmut_perp) == set(fx._PANELS_61["C_mut_perp"])
    # M' = second class of the pair below (C'^perp, -): M' = (C'^perp)^perp? no:
    # M' is determined by U = C'^perp via maximality
    m_mut = ct.perp_right(cmut_perp)
    assert names(m_mut) == set(fx._PANELS_61["M_mut"])


def test_m_n_panels(ex61):
    assert names(ct.perp_right(ex61.subcat_obj("C_perp"))) == set(fx._PANELS_61["M"])
    assert names(ct.perp_right(ex61.subcat_obj("D_perp"))) == set(fx._PANELS_61["N"])


def test_cocone_heart_objects(ex61):
    c = ex61.subcat_obj("C")
    h = ct.cocone_objects(c, c)
    expected = set(fx._PANELS_61["heart"]) | set(fx._PANELS_61["C"])
    assert names(h) == expected


def test_cone_heart_objects_dual(ex61):
    m_mut = ex61.subcat_obj("M_mut")
    h2 = ct.cone_objects(m_mut, m_mut)
    expected = set(fx._PANELS_61["heart_mut"]) | set(fx._PANELS_61["M_mut"])
    assert names(h2) == expected


def test_h_d_two_presentations(ex61):
    # CoCone(D, C) = CoCone(C', D): the compatibility at the base of mutation
    d = ex61.subcat_obj("D")
    c = ex61.subcat_obj("C")
    cm = ex61.subcat_obj("C_mut")
    assert names(ct.cocone_objects(d, c)) == names(ct.cocone_objects(cm, d))


def test_cocone_witness_valid(ex61):
    c = ex61.subcat_obj("C")
    for name in fx._PANELS_61["heart"]:
        ok, conf = ct.cocone_membership(ex61.atlas[name], c, c)
        assert ok
        conf.validate()
        assert c.contains(conf.b) and c.contains(conf.c)


def test_star_membership_rigid_pair(ex61):
    pair = ct.cotorsion_pair_from_rigid(ex61.subcat_obj("C"))
    for x in ex61.atlas:
        assert ct.star_membership(x, pair) == pair.v.contains(x)


@dataclass
class TwinCotorsionPair:
    first: ct.CotorsionPair  # (S, T)
    second: ct.CotorsionPair  # (U, V)

    def validate(self) -> "TwinCotorsionPair":
        if not self.first.u.issubset(self.second.u):
            raise AlgebraError("twin pair inclusion S <= U fails")
        return self

    @property
    def core_w(self) -> ct.Subcategory:
        return self.first.v.intersect(self.second.u)


def b_plus_objects(twin: TwinCotorsionPair) -> ct.Subcategory:
    """Objects with a conflation V_B >-> W_B ->> B, W_B in W, V_B in V."""
    return ct.cone_objects(twin.second.v, twin.core_w)


def b_minus_objects(twin: TwinCotorsionPair) -> ct.Subcategory:
    """Objects with a conflation B >-> W^B ->> S^B, W^B in W, S^B in S."""
    return ct.cocone_objects(twin.core_w, twin.first.u)


def heart_objects(twin: TwinCotorsionPair) -> ct.Subcategory:
    return b_plus_objects(twin).intersect(b_minus_objects(twin))


def test_twin_heart_objects(ex61):
    c = ex61.subcat_obj("C")
    pair = ct.cotorsion_pair_from_rigid(c)
    twin = TwinCotorsionPair(pair, pair).validate()
    assert names(twin.core_w) == set(fx._PANELS_61["C"])
    hearts = heart_objects(twin)
    assert names(hearts) == set(fx._PANELS_61["heart"]) | set(fx._PANELS_61["C"])


def test_ex62_panels():
    f = fx.ex62()
    c = f.subcat_obj("C")
    d = f.subcat_obj("D")
    assert ct.is_rigid(c) and ct.is_rigid(d)
    ok, _ = ct.satisfies_rcp(c)
    assert ok


# --- oracle cross-checks on small hereditary algebras --------------------


@pytest.mark.parametrize("p", [2, 3])
def test_ext_oracle_a2(p):
    atlas = fx.a2_atlas(p)
    for a in atlas:
        for c in atlas:
            assert ext1_dim(c, a) == oracles.ext1_dim_bruteforce(c, a), (c.name, a.name)


@pytest.mark.parametrize("p", [2, 3])
def test_ext_oracle_a3(p):
    atlas = fx.a3_atlas(p)
    for a in atlas:
        for c in atlas:
            assert ext1_dim(c, a) == oracles.ext1_dim_bruteforce(c, a), (c.name, a.name)


def test_ext_oracle_auslander():
    atlas = fx.auslander_a3_atlas(3)
    for a in atlas:
        for c in atlas:
            assert ext1_dim(c, a) == oracles.ext1_dim_bruteforce(c, a), (c.name, a.name)


def test_cocone_vs_bruteforce_a3():
    atlas = fx.a3_atlas(2)
    projs = ct.projectives_of(atlas)
    injs = ct.injectives_of(atlas)
    subs = [projs, injs, ct.full_subcat(atlas)]
    # a couple of rigid non-trivial choices
    subs.append(ct.subcat(atlas, [n for n in atlas.names if n != "2"]))
    for bp in subs:
        for bpp in subs:
            for x in atlas:
                got, conf = ct.cocone_membership(x, bp, bpp)
                brute = ct.cocone_membership_bruteforce(x, bp, bpp)
                assert got == (brute is not None), (x.name, bp.names, bpp.names)
                if got:
                    conf.validate()


def test_cone_vs_bruteforce_a3():
    atlas = fx.a3_atlas(2)
    projs = ct.projectives_of(atlas)
    injs = ct.injectives_of(atlas)
    for bp in (projs, injs):
        for bpp in (projs, injs, ct.full_subcat(atlas)):
            for x in atlas:
                got, conf = ct.cone_membership(x, bp, bpp)
                brute = ct.cone_membership_bruteforce(x, bp, bpp)
                assert got == (brute is not None), (x.name, bp.names, bpp.names)
                if got:
                    conf.validate()


@pytest.mark.parametrize(
    "side, x, bp, bpp",
    [
        ("right", "1", ["2/3"], ["1/2", "1/2/3"]),  # 2/3 >-> 1/2/3 ->> 1
        ("left", "2/3", ["1/2/3", "2"], ["1"]),  # 2/3 >-> 1/2/3 ->> 1
    ],
)
def test_searched_membership_witness_a3(side, x, bp, bpp):
    """A "yes" that only the fallback search finds: the minimal
    approximation's conflation has its other end outside the class, and
    the searched witness is a conflation with its ends in the classes."""
    atlas = fx.a3_atlas(2)
    x, bp, bpp = atlas[x], ct.subcat(atlas, bp), ct.subcat(atlas, bpp)
    right = side == "right"
    f, ok = ct._approximation(side, bpp if right else bp, x)
    assert not ok or not (bp if right else bpp).contains(ct._conflation(side, f)[1])
    membership, search = (
        (ct.cone_membership, ct.cone_membership_bruteforce)
        if right
        else (ct.cocone_membership, ct.cocone_membership_bruteforce)
    )
    got, conf = membership(x, bp, bpp)
    assert got
    conf.validate()
    if right:
        assert bp.contains(conf.a) and bpp.contains(conf.b) and conf.c is x
    else:
        assert conf.a is x and bp.contains(conf.b) and bpp.contains(conf.c)
    assert same_conflation(conf, search(x, bp, bpp))


# ---------------------------------------------------------------------------
# The shared exhaustive search against one search per conflation shape.
#
# The references below enumerate the same sums and maps in the same order as
# `cotorsion._search`, each written out for its own shape, so the first
# conflation found must be the same map, not only the same yes/no answer.


def cocone_search_reference(x, bp, bpp):
    """X >-> B' ->> B'': injections from x into sums of bp."""
    cap = x.total_dim + 2 * max(m.total_dim for m in bp.atlas)
    for combo in ct._candidate_sums(bp.members, cap):
        total = direct_sum(combo)
        if total.total_dim < x.total_dim:
            continue
        for f in ct._all_maps(x, total):
            if f.is_injective():
                conf = conflation_from_infl(f)
                if bpp.contains(conf.c):
                    return conf
    return None


def cone_search_reference(x, bp, bpp):
    """B' >-> B'' ->> X: surjections onto x from sums of bpp."""
    cap = x.total_dim + 2 * max(m.total_dim for m in bpp.atlas)
    for combo in ct._candidate_sums(bpp.members, cap):
        total = direct_sum(combo)
        if total.total_dim < x.total_dim:
            continue
        for f in ct._all_maps(total, x):
            if f.is_surjective():
                conf = conflation_from_defl(f)
                if bp.contains(conf.a):
                    return conf
    return None


def star_conflation_reference(member, u, v):
    """The first U0 >-> member ->> V0: injections into member from sums of u."""
    for combo in ct._candidate_sums(u.members, member.total_dim):
        for f in ct._all_maps(direct_sum(combo), member):
            if f.is_injective():
                conf = conflation_from_infl(f)
                if v.contains(conf.c):
                    return conf
    return None


def star_search_reference(x, u, v):
    """U0 >-> X' ->> V0 for every summand X' of x outside u and v."""
    for name in decompose(x, u.atlas):
        member = u.atlas[name]
        if u.contains(member) or v.contains(member):
            continue
        if star_conflation_reference(member, u, v) is None:
            return False
    return True


def same_conflation(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return all(
        g.source.dims == w.source.dims
        and g.target.dims == w.target.dims
        and g.flat() == w.flat()
        for g, w in ((got.infl, want.infl), (got.defl, want.defl))
    )


def complete_pairs(atlas):
    """Every complete cotorsion pair (U, U-perp) of the atlas."""
    pairs = []
    for r in range(len(atlas.names) + 1):
        for chosen in itertools.combinations(atlas.names, r):
            u = ct.subcat(atlas, chosen)
            v = ct.perp_right(u)
            if ct.verify_cotorsion_pair(u, v)[0]:
                pairs.append(ct.build_cotorsion_pair(u, v))
    return pairs


def test_shared_search_matches_per_shape_searches_a3():
    atlas = fx.a3_atlas(2)
    pairs = complete_pairs(atlas)
    assert len(pairs) == 5
    # neither class rigid: star_membership reaches its search branch
    searched = [pr for pr in pairs if not ct.is_rigid(pr.u) and not ct.is_rigid(pr.v)]
    assert len(searched) == 3
    for pair in searched:
        for x in atlas:
            assert ct.star_membership(x, pair) == star_search_reference(x, pair.u, pair.v), (
                x.name, pair.u.names)
    example = next(pr for pr in searched if pr.u.names == ("1", "1/2/3", "2/3", "3"))
    assert [x.name for x in atlas if not ct.star_membership(x, example)] == ["2"]
    # There the search only ever answers no (for `2`).  Single-object classes
    # also give answers it finds: the non-split U0 >-> X ->> V0 of A3.
    singles = [ct.subcat(atlas, [n]) for n in atlas.names]
    found = set()
    for u in singles:
        for v in singles:
            for x in atlas:
                got = ct._star_bruteforce(x, u, v)
                assert got == star_search_reference(x, u, v), (x.name, u.names, v.names)
                if got and not (u.contains(x) or v.contains(x)):
                    found.add((u.names[0], x.name, v.names[0]))
    assert found == {
        ("2", "1/2", "1"), ("2/3", "1/2/3", "1"), ("3", "1/2/3", "1/2"), ("3", "2/3", "2")
    }
    # Cone and CoCone on the example's classes both ways round (the other two
    # pairs take seconds to enumerate and add no new shape)
    for bp, bpp in ((example.u, example.v), (example.v, example.u)):
        for x in atlas:
            assert same_conflation(
                ct.cocone_membership_bruteforce(x, bp, bpp), cocone_search_reference(x, bp, bpp)
            ), ("cocone", x.name, bp.names)
            assert same_conflation(
                ct.cone_membership_bruteforce(x, bp, bpp), cone_search_reference(x, bp, bpp)
            ), ("cone", x.name, bp.names)


# ---------------------------------------------------------------------------
# Skipping sums by dimension vectors.


def test_dim_sums_decides_sums_of_member_dimension_vectors():
    atlas = fx.a3_atlas(2)  # dims 1 (1,0,0), 1/2 (1,1,0), 2/3 (0,1,1), 3 (0,0,1)
    reachable = ct._dim_sums(ct.subcat(atlas, ["1/2", "3"]))
    assert reachable((0, 0, 0))
    assert reachable((1, 1, 0)) and reachable((0, 0, 1)) and reachable((2, 2, 3))
    assert not reachable((1, 0, 0)) and not reachable((0, 1, 1)) and not reachable((2, 1, 0))
    assert not reachable((-1, 1, 0)) and not reachable((1, 1, -1))
    nothing = ct._dim_sums(ct.subcat(atlas, []))
    assert nothing((0, 0, 0)) and not nothing((0, 0, 1)) and not nothing((0, -1, 0))
    overlap = ct._dim_sums(ct.subcat(atlas, ["1", "1/2", "2/3"]))
    assert overlap((2, 2, 1)) and overlap((1, 1, 1)) and not overlap((0, 0, 1))


def test_pruned_search_returns_the_unpruned_first_conflation(monkeypatch):
    """Every shape of search finds the same first conflation as the
    references, which try every sum, while enumerating fewer maps."""
    atlas = fx.a3_atlas(2)
    classes = [ct.projectives_of(atlas), ct.injectives_of(atlas)]
    classes += [ct.subcat(atlas, [n]) for n in atlas.names]
    calls = {"pruned": 0, "reference": 0}
    phase = ["pruned"]
    all_maps = ct._all_maps

    def counting_all_maps(src, tgt):
        calls[phase[0]] += 1
        return all_maps(src, tgt)

    monkeypatch.setattr(ct, "_all_maps", counting_all_maps)

    def run(side, fn, *args):
        phase[0] = side
        return fn(*args)

    found = 0
    for bp in classes:
        for bpp in classes:
            for x in atlas:
                for search, reference in (
                    (ct.cocone_membership_bruteforce, cocone_search_reference),
                    (ct.cone_membership_bruteforce, cone_search_reference),
                ):
                    got = run("pruned", search, x, bp, bpp)
                    want = run("reference", reference, x, bp, bpp)
                    assert same_conflation(got, want), (search.__name__, x.name, bp.names, bpp.names)
                    found += got is not None
                got = run("pruned", ct._search, "left", x, bp.members, x.total_dim, True, bpp)
                want = run("reference", star_conflation_reference, x, bp, bpp)
                assert same_conflation(got, want), ("star", x.name, bp.names, bpp.names)
                found += got is not None
                assert run("pruned", ct._star_bruteforce, x, bp, bpp) == run(
                    "reference", star_search_reference, x, bp, bpp
                ), ("star", x.name, bp.names, bpp.names)
    assert found > 0
    assert 0 < calls["pruned"] < calls["reference"], calls
