import dataclasses
from unittest import mock

import numpy as np
import pytest

from quiverhearts import algebra as al
from quiverhearts import cli, problemfile
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts.linalg import Block
from quiverhearts.algebra import (
    AlgebraError,
    BoundQuiverAlgebra,
    IndecSet,
    Quiver,
    Rep,
    RepMap,
    decompose,
    decompose_with_maps,
    direct_sum,
    dual_rep,
    hom_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    map_from_coords,
    matrix_map,
    path_basis,
    path_endpoints,
    standard_modules,
)
from quiverhearts.workspace import WORKSPACE
from lemmas import a2_algebra, a2_atlas, all_maps, end_radical
from test_linalg import matmul_reference, nullspace_reference, rref_reference
from test_workspace import nakayama_atlas


def test_a2_path_basis():
    pb = path_basis(a2_algebra())
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
    atlas = a2_atlas()
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


def test_algebra_equality_is_by_content():
    a, b = fx.ex61().algebra, fx.ex61().algebra
    assert a is b and a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, p=7)
    (c0, path0), *rest = a.relations[0]
    changed = (((c0 + 1) % a.p, path0), *rest)
    assert a != dataclasses.replace(a, relations=(changed,) + a.relations[1:])


def test_equal_algebras_are_one_object():
    alg = fx.ex61().algebra
    assert fx.ex62().algebra is alg
    text = problemfile.serialize(problemfile.problem_from_fixture(fx.ex61()))
    assert problemfile.parse(text).algebra() is alg
    assert dataclasses.replace(alg) is alg and alg.opposite.opposite is alg


def test_a_refused_algebra_leaves_no_entry():
    alg = a2_algebra()
    WORKSPACE.clear()
    with pytest.raises(AlgebraError, match="not prime"):
        dataclasses.replace(alg, p=4)
    assert a2_algebra() is not alg
    assert WORKSPACE.stats()["algebra"] == {"hits": 0, "misses": 1, "entries": 1}


def test_clear_forgets_the_one_object():
    old = a2_algebra()
    assert a2_algebra() is old
    WORKSPACE.clear()
    new = a2_algebra()
    assert new is not old and new == old and hash(new) == hash(old)
    assert a2_algebra() is new


def test_demo_commands_build_each_path_basis_once(capsys):
    WORKSPACE.clear()
    with mock.patch.object(al, "path_basis", wraps=al.path_basis) as spy:
        for argv in (["check"], ["heart", "C"], ["localize"]):
            assert cli.main(["demo", "ex61", *argv]) == 0
    capsys.readouterr()
    alg = fx.ex61().algebra
    built = [c.args[0] for c in spy.call_args_list]
    assert len(built) == 2 and set(built) == {alg, alg.opposite}


def test_direct_sum_decomposable():
    atlas = fx.auslander_a3_atlas()
    s = direct_sum([atlas["3/5"], atlas["2/4"]])
    assert not is_indecomposable(s)


def test_decompose_roundtrip():
    atlas = fx.auslander_a3_atlas()
    picks = [atlas["3/5/6"], atlas["2/34"], atlas["2/34"], atlas["5"]]
    s = direct_sum(picks)
    counts = decompose(s, atlas)
    assert counts == {"3/5/6": 1, "2/34": 2, "5": 1}


def test_decompose_with_maps_biproduct():
    atlas = fx.auslander_a3_atlas()
    s = direct_sum([atlas["1/2"], atlas["4/5"]])
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
        assert dd.arrow_maps[aid] == m.arrow_maps[aid]


def test_rep_validation_catches_bad_relation():
    alg = fx.auslander_a3_algebra()
    from quiverhearts.algebra import Rep

    bad = Rep(alg, "bad", (0, 0, 0, 1, 1, 1), {"e": [[1]], "b": [[1]]})
    with pytest.raises(AlgebraError):
        bad.validate()


def test_rep_refuses_a_map_for_an_undeclared_arrow():
    alg = a2_algebra()
    assert Rep(alg, "x", (1, 1), {"a": [[1]]}).arrow_maps["a"].tolist() == [[1]]
    with pytest.raises(AlgebraError, match="unknown arrow zz"):
        Rep(alg, "x", (1, 1), {"zz": [[1]]})


def test_atlas_full_validation():
    fx.auslander_a3_atlas(validate=True)


# ---------------------------------------------------------------------------
# Field checks.


@pytest.mark.parametrize("p", [2, 3, 101, 1009, 2147483647])
def test_primes_are_accepted(p):
    assert a2_algebra(p).p == p


@pytest.mark.parametrize("n", [0, 1, 4, 1022117, 2147483649])  # 1009*1013, 3*715827883
def test_composites_are_refused(n):
    with pytest.raises(AlgebraError, match="not prime"):
        a2_algebra(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 2**61 - 1])
def test_fields_past_the_int64_bound_are_refused(n):
    # Refused on size alone: two strong pseudoprimes to small bases and a prime.
    with pytest.raises(AlgebraError, match="too large"):
        a2_algebra(n)


def test_largest_accepted_prime_is_exact():
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    alg = a2_algebra(p)
    s1, s2 = Rep(alg, "1", (1, 0)), Rep(alg, "2", (0, 1))
    assert is_indecomposable(s1)
    # End(S1 + S2) = F_p x F_p: Frobenius fixes both factors, so its fixed
    # space has dimension 2.  It takes about 64 2 x 2 products per basis
    # element, each entry a sum of two (p-1)^2 terms.
    total = direct_sum([s1, s2])
    assert not is_indecomposable(total)
    # A Kronecker module with End = F_p[x]/(x^2 - c) = F_{p^2} for a
    # non-square c: Frobenius is conjugation, whose fixed space is F_p.
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    kron = BoundQuiverAlgebra(Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))), p)
    r = Rep(kron, "R", (2, 2), {"a": la.eye(2), "b": [[0, c], [1, 0]]})
    assert len(hom_space(r, r)) == 2
    assert is_indecomposable(r)


def kronecker_module(p: int, a, b) -> Rep:
    kron = BoundQuiverAlgebra(Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))), p)
    a, b = la.modmat(a, p), la.modmat(b, p)
    return Rep(kron, "K", (a.cols, a.rows), {"a": a, "b": b})


def has_only_trivial_idempotents(m: Rep) -> bool:
    """Reference: End(m) enumerated element by element."""
    one = RepMap.identity(m)
    for e in all_maps(m, m):
        if not (e.is_zero() or e.sub(one).is_zero()) and e.compose(e).sub(e).is_zero():
            return False
    return True


def test_indecomposable_matches_idempotent_enumeration():
    # Kronecker modules of dimension (2, 2) have End/rad equal to F_p,
    # F_p x F_p, F_{p^2} or larger; the companion matrix of x^2 - c gives
    # F_{p^2} for a non-square c and F_p x F_p for a nonzero square.
    modules = []
    for p in (5, 7):
        rng = np.random.default_rng(p)
        for c in range(p):
            modules.append(kronecker_module(p, la.eye(2), [[0, c], [1, 0]]))
        for shape in [(1, 1)] * 20 + [(2, 2)] * 80:
            modules.append(kronecker_module(p, *rng.integers(0, p, size=(2, *shape))))
    seen = set()
    for m in modules:
        got = is_indecomposable(m)
        assert got == has_only_trivial_idempotents(m), m.arrow_maps
        endos, rad = end_radical(m)
        seen.add((len(endos) - len(rad), got))
    # both answers where the Frobenius test decides, on End/rad of dimension 2
    assert {(1, True), (2, True), (2, False)} <= seen, seen


def test_missing_standard_module_is_named():
    atlas = fx.auslander_a3_atlas()
    assert atlas.standard_names("simple")[0] == "1"
    rest = IndecSet([m for m in atlas if m.name != "1/2/3"], validate=False)
    with pytest.raises(AlgebraError, match="projective module at vertex 1 missing from atlas"):
        rest.standard_names("projective")


def test_isomorphic_decomposables_without_a_basis_witness_are_refused():
    # Hom(S + S, S + S) = M_2(F_p) with the matrix units as basis: neither
    # they nor their products are invertible, and neither side is
    # indecomposable, so a miss would prove nothing.
    alg = BoundQuiverAlgebra(Quiver(("x",), ()), 5)
    s = Rep(alg, "S", (1,))
    two = Rep(alg, "2S", (2,))
    assert not is_indecomposable(two)
    with pytest.raises(AlgebraError, match="cannot decide"):
        is_isomorphic(two, direct_sum([s, s]))


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
            assert got.blocks == chain.blocks


def _assert_clean(f):
    for blk in f.blocks:
        assert type(blk) is Block and all(type(x) is int and 0 <= x < f.p for x in blk.data)
        _assert_frozen(blk)
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
    p = s2.algebra.p
    g = RepMap(s2, p12, [Block(b.rows, b.cols, tuple(x + p for x in b.data)) for b in f.blocks])
    assert g.blocks == f.blocks
    _assert_clean(g)
    with pytest.raises(AlgebraError, match="shape"):
        RepMap(s2, p12, [la.zeros(1, 1)] * len(f.blocks))
    # Hom(1/2, 2) = 0, so nonzero blocks cannot intertwine.
    assert hom_space(p12, s2) == []
    ones = [Block(t, s, (1,) * (t * s)) for s, t in zip(p12.dims, s2.dims)]
    with pytest.raises(AlgebraError, match="intertwine"):
        RepMap(p12, s2, ones)


# ---------------------------------------------------------------------------
# Empty blocks: maps between A6/rad^3 interval modules, which are zero at
# most vertices, against the per-vertex loops that touch every block.


@pytest.fixture(scope="module")
def interval_maps():
    """Every Hom-basis map between the members, a zero map, and for each
    member z a map onto z from a sum and a map from z into a sum."""
    members = list(nakayama_atlas(6, 3))
    maps = [f for x in members for y in members for f in hom_space(x, y)]
    maps.append(RepMap.zero(members[0], members[-1]))
    for z in members:
        into = [hom_space(x, z)[0] for x in members if hom_space(x, z)]
        out = [hom_space(z, x)[0] for x in members if hom_space(z, x)]
        maps.append(matrix_map(direct_sum([h.source for h in into]), z, [into]))
        maps.append(matrix_map(z, direct_sum([h.target for h in out]), [[h] for h in out]))
    assert any(not b.size for f in maps for b in f.blocks)
    return maps


def _kernel_reference(f):
    p, q = f.p, f.source.algebra.quiver
    incs = [la.nullspace(b, p) for b in f.blocks]
    maps = []
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        maps.append(la.solve(incs[j], la.matmul(f.source.arrow_maps[aid], incs[i], p), p))
    return incs, maps


def _cokernel_reference(f):
    p, q = f.p, f.target.algebra.quiver
    projs = [la.quotient_map(b, f.target.dims[i], p) for i, b in enumerate(f.blocks)]
    maps = []
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        rhs = la.matmul(projs[j], f.target.arrow_maps[aid], p)
        maps.append(la.solve(projs[i].T, rhs.T, p).T)
    return projs, maps


def _same_blocks(xs, ys):
    xs, ys = list(xs), list(ys)
    return xs == ys and all(type(x) is Block for x in xs)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_injective_and_surjective_match_the_rank(p):
    """Empty and 1x1 blocks take the fast paths of `linalg.rank`; every
    block shape gives what the row reduction gives."""
    alg = BoundQuiverAlgebra(Quiver(("1",), ()), p)
    rng = np.random.default_rng(p % 1000)
    for shape in [(0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 4)]:
        for _ in range(20):
            entries = [0, 1, p - 1, int(rng.integers(0, p))]
            drawn = rng.choice(entries, size=shape)
            block = Block(*shape, tuple(int(x) for x in drawn.flat))
            f = RepMap._trusted(Rep(alg, "X", (shape[1],)), Rep(alg, "Y", (shape[0],)), [block])
            rank = len(rref_reference(block, p)[1])
            assert f.is_injective() == (rank == shape[1])
            assert f.is_surjective() == (rank == shape[0])


def _eight_operations(maps):
    """The operations that skip empty blocks, each with its result."""
    rng = np.random.default_rng(5)
    for f in maps:
        yield "flat", f, f.flat()
        yield "is_zero", f, f.is_zero()
        yield "is_injective", f, f.is_injective()
        yield "is_surjective", f, f.is_surjective()
        yield "kernel", f, ho.kernel(f)
        yield "cokernel", f, ho.cokernel(f)
        for g in maps:
            if g.source is f.target:
                yield "compose", (g, f), g.compose(f)
    for x, y in {(f.source, f.target) for f in maps}:
        basis = hom_space(x, y)
        if basis:
            coords = rng.integers(0, x.algebra.p, size=len(basis))
            yield "map_from_coords", (basis, coords), map_from_coords(basis, coords)


def test_empty_blocks_agree_with_per_vertex_loops(interval_maps):
    seen = set()
    for op, arg, got in _eight_operations(interval_maps):
        seen.add(op)
        if op == "compose":
            g, f = arg
            want = [matmul_reference(b2, b1, f.p) for b1, b2 in zip(f.blocks, g.blocks)]
            assert _same_blocks(got.blocks, want)
        elif op == "map_from_coords":
            basis, coords = arg
            p = basis[0].p
            want = []
            for i, b0 in enumerate(basis[0].blocks):
                acc = la.zeros(*b0.shape)
                for c, h in zip(coords, basis):
                    acc = la.add(acc, la.scale(int(c), h.blocks[i], p), p)
                want.append(acc)
            assert _same_blocks(got.blocks, want)
        elif op == "flat":
            # an immutable vector of the blocks' entries, block after block
            assert type(got) is tuple
            assert got == tuple(x for b in arg.blocks for x in b.data)
        elif op == "is_zero":
            assert got == all(not b.any() for b in arg.blocks)
        elif op == "is_injective":
            assert got == all(la.rank(b, arg.p) == b.shape[1] for b in arg.blocks)
        elif op == "is_surjective":
            assert got == all(la.rank(b, arg.p) == b.shape[0] for b in arg.blocks)
        else:
            end, g = got
            blocks, maps = (_kernel_reference if op == "kernel" else _cokernel_reference)(arg)
            assert _same_blocks(g.blocks, blocks)
            assert _same_blocks(end.arrow_maps.values(), maps)
            assert end.dims == tuple(b.shape[1 if op == "kernel" else 0] for b in blocks)
    assert len(seen) == 8


def _refuse_empty_operands(fn):
    def guarded(*args):
        if any(isinstance(a, Block) and not a.size for a in args):
            raise AssertionError(f"linalg.{fn.__name__} called on an empty block")
        return fn(*args)
    return guarded


def test_empty_blocks_cost_no_linalg_call(interval_maps):
    members = list(nakayama_atlas(6, 3))
    qc = ht.QuotientCategory(members, members)  # every class is zero
    with mock.patch.object(la, "matmul", _refuse_empty_operands(la.matmul)), \
            mock.patch.object(la, "solve", _refuse_empty_operands(la.solve)), \
            mock.patch.object(la, "nullspace", _refuse_empty_operands(la.nullspace)), \
            mock.patch.object(la, "rank", _refuse_empty_operands(la.rank)):
        assert len({op for op, _, _ in _eight_operations(interval_maps)}) == 8
        # the public constructor checks that the blocks intertwine
        for f in interval_maps:
            assert RepMap(f.source, f.target, f.blocks).intertwines()
        # a 0x0 block is invertible, so an isomorphism's empty blocks pass
        assert la.is_invertible(la.zeros(0, 0), 101)
        assert all(RepMap.identity(x).is_isomorphism() for x in members)
        # a path through a vertex where the module is zero
        simple = next(x for x in members if x.name == "1")
        got = simple.evaluate_path(("a1", "a2"))
        assert got == la.zeros(0, 1)
        # quotient coordinates in a quotient Hom space of dimension 0
        x = members[0]
        got = qc.qcoords(RepMap.identity(x))
        assert got == () and qc.is_zero_object(x)


def _assert_frozen(block):
    """The block is immutable: assignment raises."""
    with pytest.raises(TypeError):
        block[0, 0] = 1
    with pytest.raises(AttributeError):
        block.data = ()


def test_identity_and_empty_products_bind_shared_read_only_blocks(interval_maps):
    for x in {f.source for f in interval_maps}:
        ident = RepMap.identity(x)
        assert all(a is b for a, b in zip(ident.blocks, RepMap.identity(x).blocks))
        assert all(b == la.eye(d) for b, d in zip(ident.blocks, x.dims))
        for b in ident.blocks:
            _assert_frozen(b)
    empty = 0
    for op, (g, f), h in (t for t in _eight_operations(interval_maps) if t[0] == "compose"):
        for b in h.blocks:
            _assert_frozen(b)
            if not b.size:
                empty += 1
                assert b == la.zeros(*b.shape)
    assert empty
    # a product through a 0-dimensional space is a zero block of its own
    members = list(nakayama_atlas(6, 3))
    x, y = members[0], members[-1]
    h = RepMap.zero(y, x).compose(RepMap.zero(x, y))
    assert any(b.size and not y.dims[i] for i, b in enumerate(h.blocks))
    for b in h.blocks:
        assert not b.any()
        _assert_frozen(b)


def _unpruned_generators(alg, paths, cap):
    """The generator loop of `path_basis` as it was before it stopped at
    the first factor that is too long: every (left, relation, right)
    triple gets a vector before its length is checked."""
    q = alg.quiver
    index = {pt[0]: i for i, pt in enumerate(paths)}
    n = len(paths)
    gens = []
    for rel in alg.relations:
        rsrc, rtgt = path_endpoints(q, rel[0][1])
        lefts = [()] + [pt[0] for pt in paths if pt[2] == rsrc]
        rights = [()] + [pt[0] for pt in paths if pt[1] == rtgt]
        for lp in lefts:
            for rp in rights:
                vec = [0] * n
                ok = True
                for coeff, mid in rel:
                    full = lp + mid + rp
                    if len(full) > cap:
                        ok = False
                        break
                    vec[index[full]] = (vec[index[full]] + coeff) % alg.p
                if ok and any(vec):
                    gens.append(tuple(vec))
    return gens


PATH_ALGEBRAS = {
    "ex61": fx.auslander_a3_algebra,
    "A6/rad^3": lambda: nakayama_atlas(6, 3).members[0].algebra,
    # a a = b b = 0 leaves ab, aba, ... nonzero: refused at cap 8, with 510 paths
    "two loops": lambda: BoundQuiverAlgebra(
        Quiver(("1",), (("a", "1", "1"), ("b", "1", "1"))), 101,
        (((1, ("a", "a")),), ((1, ("b", "b")),)),
    ),
}


@pytest.mark.parametrize("name", sorted(PATH_ALGEBRAS))
def test_path_basis_matches_the_unpruned_generator_loop(name):
    alg = PATH_ALGEBRAS[name]()
    for cap in range(2, 7):
        paths = al._enumerate_paths(alg.quiver, cap)
        got, want = al._ideal_generators(alg, paths, cap), _unpruned_generators(alg, paths, cap)
        assert got == want, cap
    with mock.patch.object(al, "_ideal_generators", _unpruned_generators):
        try:
            want = path_basis(alg)
        except AlgebraError as e:
            want = str(e)
    try:
        got = path_basis(alg)
    except AlgebraError as e:
        got = str(e)
    assert got == want
    assert isinstance(got, str) == (name == "two loops")


# ---------------------------------------------------------------------------
# The Hom solver against its plain form: every arrow's equations, dead ones
# too, in one block whose kernel comes from the reference elimination.


def _hom_blocks_reference(m, n):
    """(basis blocks, shape of the equation matrix) of Hom(m, n)."""
    p, q = m.algebra.p, m.algebra.quiver
    layout = [(n.dims[i], m.dims[i]) for i in range(len(m.dims))]
    offsets, total = [], 0
    for r, c in layout:
        offsets.append(total)
        total += r * c
    if total == 0:
        return (), (0, 0)
    eqs = []
    for aid, s, t in q.arrows:
        i, j = q.vertex_index(s), q.vertex_index(t)
        na, ma = n.arrow_maps[aid], m.arrow_maps[aid]
        di, dj = m.dims[i], m.dims[j]
        for r in range(n.dims[j]):
            for c in range(di):
                eq = [0] * total
                for k in range(n.dims[i]):
                    eq[offsets[i] + k * di + c] += int(na[r, k])
                for k in range(dj):
                    eq[offsets[j] + r * dj + k] -= int(ma[k, c])
                eqs.append(eq)
    eqs = [eq for eq in eqs if any(eq)]
    mat = Block(len(eqs), total, tuple(x % p for eq in eqs for x in eq))
    ns = nullspace_reference(mat, p) if eqs else la.eye(total)
    blocks = tuple(
        tuple(Block(r, c, ns.column(k)[off : off + r * c]) for (r, c), off in zip(layout, offsets))
        for k in range(ns.cols)
    )
    return blocks, mat.shape


def _hom_solver_pairs():
    """Every ordered pair of members of ex61, A8/rad^3 and their duals, each
    syzygy, cosyzygy and a few sums of 2-3 members against every member and
    each other, and pairs of Kronecker modules, which are not thin."""
    for atlas in (fx.ex61().atlas, nakayama_atlas(8, 3)):
        for a in (atlas, atlas.dual):
            members = list(a)
            rng = np.random.default_rng(len(members))
            extra = [ho.syzygy(x)[0] for x in members] + [ho.cosyzygy(x)[0] for x in members]
            extra = [x for x in extra if not x.is_zero()]
            extra += [direct_sum([members[i] for i in rng.choice(len(members), k, replace=False)])
                      for k in (2, 3, 3)]
            yield from ((x, y) for x in members for y in members)
            yield from ((x, y) for x in extra for y in members + extra)
            yield from ((x, y) for x in members for y in extra)
    for p in (5, 7):
        rng = np.random.default_rng(p)
        kron = [kronecker_module(p, la.eye(2), [[0, c], [1, 0]]) for c in range(p)]
        kron += [kronecker_module(p, *rng.integers(0, p, size=(2, *shape)))
                 for shape in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2), (3, 2)]]
        yield from ((x, y) for x in kron for y in kron)


def test_hom_solver_equals_the_plain_loops():
    sizes = set()
    for m, n in _hom_solver_pairs():
        got = al._hom_blocks(m, n)
        want, shape = _hom_blocks_reference(m, n)
        sizes.add(shape[0] * shape[1] > 32)
        assert got == want, (m, n)
        assert all(type(x) is Block for g in got for x in g)
        # an empty block is one block per shape, shared by the basis maps
        for i, b in enumerate(got[0] if got else ()):
            if not b.size:
                assert all(g[i] is next(h for h in got[0] if h.shape == b.shape) for g in got)
    assert sizes == {False, True}  # equation blocks of up to 32 entries and of more
