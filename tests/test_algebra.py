import numpy as np
import pytest

from quiverhearts import fixtures as fx
from quiverhearts import linalg as la
from quiverhearts.algebra import (
    AlgebraError,
    BoundQuiverAlgebra,
    Quiver,
    Rep,
    RepMap,
    decompose,
    decompose_with_maps,
    direct_sum,
    dual_rep,
    end_radical,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    map_from_coords,
    path_basis,
    standard_modules,
)


def test_a2_path_basis():
    pb = path_basis(fx.a2_algebra())
    assert len(pb.basis) == 1  # only the arrow itself


def test_a3_path_basis():
    pb = path_basis(fx.a3_algebra())
    assert len(pb.basis) == 3  # a, b, ab


def test_auslander_path_basis_dimension():
    alg = fx.auslander_a3_algebra()
    pb = path_basis(alg)
    # algebra dimension = nontrivial basis paths + one trivial path per vertex
    assert len(pb.basis) + 6 == 15


def test_auslander_relations_hold_on_atlas():
    atlas = fx.auslander_a3_atlas()
    for m in atlas:
        assert m.relation_defect() == []


def test_standard_projectives_match_atlas():
    atlas = fx.auslander_a3_atlas()
    std = standard_modules(fx.auslander_a3_algebra())
    expected = {"1": "1/2/3", "2": "2/34/5", "3": "3/5/6", "4": "4/5", "5": "5/6", "6": "6"}
    for v, name in expected.items():
        iso, wit = is_isomorphic(std["projective"][v], atlas[name])
        assert iso and wit.is_isomorphism()


def test_standard_injectives_match_atlas():
    atlas = fx.auslander_a3_atlas()
    std = standard_modules(fx.auslander_a3_algebra())
    expected = {"1": "1", "2": "1/2", "3": "1/2/3", "4": "2/4", "5": "2/34/5", "6": "3/5/6"}
    for v, name in expected.items():
        iso, _ = is_isomorphic(std["injective"][v], atlas[name])
        assert iso


def test_a2_hom_dims():
    atlas = fx.a2_atlas()
    s1, s2, p1 = atlas["1"], atlas["2"], atlas["1/2"]
    table = {
        ("1", "1"): 1, ("2", "2"): 1, ("1/2", "1/2"): 1,
        ("1/2", "1"): 1, ("1", "1/2"): 0,
        ("2", "1/2"): 1, ("1/2", "2"): 0,
        ("1", "2"): 0, ("2", "1"): 0,
    }
    for (a, b), d in table.items():
        assert hom_dim(atlas[a], atlas[b]) == d, (a, b)


def test_hom_maps_intertwine():
    atlas = fx.auslander_a3_atlas()
    for a in list(atlas)[:6]:
        for b in list(atlas)[:6]:
            for f in hom_space(a, b):
                assert f.intertwines()


def test_atlas_members_indecomposable():
    for m in fx.auslander_a3_atlas():
        assert is_indecomposable(m)


def test_direct_sum_decomposable():
    atlas = fx.auslander_a3_atlas()
    s, _, _ = direct_sum([atlas["3/5"], atlas["2/4"]])
    assert not is_indecomposable(s)


def test_decompose_roundtrip():
    atlas = fx.auslander_a3_atlas()
    picks = [atlas["3/5/6"], atlas["2/34"], atlas["2/34"], atlas["5"]]
    s, _, _ = direct_sum(picks)
    counts = decompose(s, atlas)
    assert counts == {"3/5/6": 1, "2/34": 2, "5": 1}


def test_decompose_with_maps_biproduct():
    atlas = fx.auslander_a3_atlas()
    s, _, _ = direct_sum([atlas["1/2"], atlas["4/5"]])
    parts = decompose_with_maps(s, atlas)
    assert sorted(m.name for m, _, _ in parts) == ["1/2", "4/5"]
    for m, inc, prj in parts:
        assert prj.compose(inc).is_isomorphism()
    # the idempotents sum to the identity
    total = None
    for m, inc, prj in parts:
        e = inc.compose(prj)
        total = e if total is None else total.add(e)
    from quiverhearts.algebra import RepMap

    assert total.sub(RepMap.identity(s)).is_zero()


def test_is_isomorphic_rejects_different():
    atlas = fx.auslander_a3_atlas()
    iso, _ = is_isomorphic(atlas["3/5"], atlas["4/5"])
    assert not iso


def test_end_radical_local_algebra():
    atlas = fx.auslander_a3_atlas()
    endos, rad = end_radical(atlas["2/34/5"])
    assert len(endos) - len(rad) == 1  # local with residue field F_p


def test_dual_rep_roundtrip():
    atlas = fx.auslander_a3_atlas()
    m = atlas["2/34/5"]
    dd = dual_rep(dual_rep(m))
    assert dd.dims == m.dims
    for aid in m.arrow_maps:
        assert np.array_equal(dd.arrow_maps[aid], m.arrow_maps[aid])


def test_rep_validation_catches_bad_relation():
    alg = fx.auslander_a3_algebra()
    from quiverhearts.algebra import Rep

    bad = Rep(alg, "bad", (0, 0, 0, 1, 1, 1), {"e": [[1]], "b": [[1]]})
    with pytest.raises(AlgebraError):
        bad.validate()


def test_atlas_full_validation():
    fx.auslander_a3_atlas(validate=True)


# ---------------------------------------------------------------------------
# Field checks.


@pytest.mark.parametrize("p", [2, 3, 101, 1009, 2147483647])
def test_primes_are_accepted(p):
    assert fx.a2_algebra(p).p == p


@pytest.mark.parametrize("n", [0, 1, 4, 1022117, 2147483649])  # 1009*1013, 3*715827883
def test_composites_are_refused(n):
    with pytest.raises(AlgebraError, match="not prime"):
        fx.a2_algebra(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 2**61 - 1])
def test_fields_past_the_int64_bound_are_refused(n):
    # Refused on size alone: two strong pseudoprimes to small bases and a prime.
    with pytest.raises(AlgebraError, match="too large"):
        fx.a2_algebra(n)


def test_largest_accepted_prime_is_exact():
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    alg = fx.a2_algebra(p)
    s1, s2 = Rep(alg, "1", (1, 0)), Rep(alg, "2", (0, 1))
    assert is_indecomposable(s1)
    # End(S1 + S2) = F_p x F_p: its elements have split minimal polynomials
    # of degree 2, whose irreducibility test multiplies degree-1 residues.
    total, _, _ = direct_sum([s1, s2])
    assert not is_indecomposable(total)
    # A Kronecker module with End = F_p[x]/(x^2 - c) = F_{p^2} for a
    # non-square c: its End/rad has an irreducible minimal polynomial.
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    kron = BoundQuiverAlgebra(Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))), p)
    r = Rep(kron, "R", (2, 2), {"a": la.eye(2), "b": [[0, c], [1, 0]]})
    assert len(hom_space(r, r)) == 2
    assert is_indecomposable(r)


def test_map_from_coords_does_not_wrap_at_p31():
    p = 2**31 - 1
    alg = BoundQuiverAlgebra(Quiver(("x",), ()), p)
    s = Rep(alg, "s", (1,))
    basis = [RepMap(s, s, [[[p - 1]]]) for _ in range(4)]
    assert map_from_coords(basis, [p - 1] * 4).blocks[0].tolist() == [[4]]



# ---------------------------------------------------------------------------
# RepMap arithmetic: trusted results against the public constructor.


def _hom_pairs():
    atlas = fx.auslander_a3_atlas()
    members = list(atlas)
    return [(a, b) for a in members for b in members if len(hom_space(a, b)) >= 2][:12]


def test_map_from_coords_equals_scale_add_chain():
    rng = np.random.default_rng(3)
    for a, b in _hom_pairs():
        basis = hom_space(a, b)
        p = a.algebra.p
        for _ in range(5):
            coords = rng.integers(0, p, size=len(basis))
            chain = basis[0].scale(int(coords[0]))
            for f, c in zip(basis[1:], coords[1:]):
                chain = chain.add(f.scale(int(c)))
            got = map_from_coords(basis, coords)
            assert all(np.array_equal(x, y) for x, y in zip(got.blocks, chain.blocks))


def _assert_clean(f):
    for blk in f.blocks:
        assert blk.dtype == np.int64 and not blk.flags.writeable
        assert ((blk >= 0) & (blk < f.p)).all()
    assert f.intertwines()


def test_arithmetic_results_are_reduced_and_read_only():
    atlas = fx.auslander_a3_atlas()
    m = atlas["2/34/5"]
    endos = hom_space(m, m)
    for f in endos:
        _assert_clean(f)
    f, g = endos[0], endos[-1]
    for h in (f.compose(g), f.add(g), f.scale(-3), f.sub(g),
              map_from_coords(endos, [-1] * len(endos)),
              RepMap.zero(m, m), RepMap.identity(m)):
        _assert_clean(h)


def test_public_constructor_reduces_and_checks():
    atlas = fx.auslander_a3_atlas()
    s2, p12 = atlas["2"], atlas["1/2"]
    (f,) = hom_space(s2, p12)  # the socle inclusion
    g = RepMap(s2, p12, [b + s2.algebra.p for b in f.blocks])
    assert all(np.array_equal(x, y) for x, y in zip(g.blocks, f.blocks))
    _assert_clean(g)
    with pytest.raises(AlgebraError, match="shape"):
        RepMap(s2, p12, [la.zeros(1, 1)] * len(f.blocks))
    # Hom(1/2, 2) = 0, so nonzero blocks cannot intertwine.
    assert hom_space(p12, s2) == []
    ones = [np.ones((t, s), dtype=np.int64) for s, t in zip(p12.dims, s2.dims)]
    with pytest.raises(AlgebraError, match="intertwine"):
        RepMap(p12, s2, ones)
