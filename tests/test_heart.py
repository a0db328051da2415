import itertools

import numpy as np
import pytest

from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import linalg as la
from quiverhearts.algebra import (
    AlgebraError, BoundQuiverAlgebra, Rep, RepMap, direct_sum, flat_columns, hom_dim,
    map_from_coords, meets,
)
from quiverhearts.homology import Ext1, ext1_dim, homs
from quiverhearts.linalg import Block
from quiverhearts.mutation import verify_main_theorem
from quiverhearts.workspace import WORKSPACE
from lemmas import (
    check_syzygyepi, classes, heart_cokernel_dim, heart_epi, heart_morphisms, path_map,
    quivers_isomorphic_bruteforce, realize, realize_heart_kernel, realize_ses_in_heart,
    star_membership, validate_action,
)
from test_mutation import EX61_AND_LADDER, instance, rigid_classes_with_projectives
from test_workspace import nakayama_atlas


@pytest.fixture(scope="module")
def ex61():
    return fx.ex61()


@pytest.fixture(scope="module")
def model(ex61):
    pair = ct.cotorsion_pair_from_rigid(ex61.subcat_obj("C"))
    return ht.HeartModel.build(pair, ex61.atlas)


def test_quotient_by_everything(ex61):
    objs = ex61.atlas.members[:4]
    qc = ht.QuotientCategory(objs, objs)
    for x in objs:
        assert qc.is_zero_object(x)


def test_quotient_by_nothing(ex61):
    objs = ex61.atlas.members[:4]
    qc = ht.QuotientCategory(objs, [])
    for x in objs:
        for y in objs:
            assert qc.qdim(x, y) == len(homs(x, y))


def test_an_empty_quotient_category_is_refused():
    with pytest.raises(AlgebraError, match="needs an object or an ideal member"):
        ht.QuotientCategory([], [])


def test_nonzero_objects_are_decided_once(model, monkeypatch):
    """The objects are fixed at construction, so a second call makes no
    `qcolumns` solve and returns the same objects in a list of its own."""
    qc = ht.QuotientCategory(model.quotient.objects, model.quotient.ideal)
    first = qc.nonzero_objects()
    assert first and len(first) < len(qc.objects)
    calls = []
    real = qc.qcolumns
    monkeypatch.setattr(qc, "qcolumns", lambda *a: calls.append(a) or real(*a))
    solves = []
    real_solve = la.solve
    monkeypatch.setattr(la, "solve", lambda *a: solves.append(a) or real_solve(*a))
    again = qc.nonzero_objects()
    assert again == first and again is not first
    assert not calls and not solves


def test_hom_data_skips_members_and_eliminations_it_does_not_need(ex61, monkeypatch):
    """No Hom lookup through an ideal member that shares no vertex with x or
    y, and without an ideal composite no `quotient_map` or `rref`: the
    basis is its own quotient basis."""
    atlas = ex61.atlas

    def split(x, y):
        far = [t for t in atlas if not meets(t, x) or not meets(t, y)]
        return far, [t for t in atlas if t not in far]

    x, y = next(
        (x, y) for x in atlas for y in atlas if x is not y and homs(x, y) and all(split(x, y))
    )
    far, near = split(x, y)
    asked = []
    real = ht.homs
    monkeypatch.setattr(ht, "homs", lambda a, b: asked.append((a, b)) or real(a, b))
    spies = {name: [] for name in ("quotient_map", "rref")}
    for name, calls in spies.items():
        fn = getattr(la, name)
        monkeypatch.setattr(la, name, lambda *a, fn=fn, calls=calls: calls.append(a) or fn(*a))
    qc = ht.QuotientCategory([x, y], far)
    basis, flats, qmap, reps = qc._hom_data(x, y)
    assert asked == [(x, y)] and not any(spies.values())
    assert basis and reps is basis and qmap == la.eye(len(basis))
    assert qc.qdim(x, y) == len(real(x, y))
    asked.clear()
    qc = ht.QuotientCategory([x, y], atlas.members)
    qc._hom_data(x, y)
    assert asked[0] == (x, y) and {t for pair in asked[1:] for t in pair} - {x, y} <= set(near)
    assert spies["quotient_map"]  # 1_x is an ideal composite


def test_quotient_composition_well_defined(ex61, model):
    qc = model.quotient
    rng = np.random.default_rng(3)
    objs = qc.objects
    p = qc.p
    for _ in range(100):
        x, y, z = (objs[rng.integers(len(objs))] for _ in range(3))
        fb, gb = homs(x, y), homs(y, z)
        if not fb or not gb:
            continue
        f = map_from_coords(fb, rng.integers(0, p, len(fb)))
        g = map_from_coords(gb, rng.integers(0, p, len(gb)))
        # composing an ideal element with anything stays in the ideal
        for t in qc.ideal:
            for u in homs(x, t):
                for v in homs(t, y):
                    assert qc.is_ideal(g.compose(v.compose(u)))
        # associativity of coset composition is inherited; check coset algebra
        assert qc.qcoords(g.compose(f)) is not None


def test_heart_panel_objects(model):
    assert set(model.heart_object_names()) == set(fx._PANELS_61["heart"])


def test_heart_gabriel_quiver(model):
    q = ht.gabriel_quiver(model.quotient)
    assert q.arrows == {
        ("3/5", "3"): 1,
        ("3", "2/34"): 1,
        ("2/34", "2/3"): 1,
        ("2/3", "2"): 1,
    }


def test_quiver_map_check():
    q1 = ht.GabrielQuiver(("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 2, ("c", "c"): 1})
    q2 = ht.GabrielQuiver(("x", "y", "z"), {("y", "z"): 1, ("z", "x"): 2, ("x", "x"): 1})
    iso = {"a": "y", "b": "z", "c": "x"}
    assert ht.quivers_isomorphic(q1, q2, iso)
    assert quivers_isomorphic_bruteforce(q1, q2)
    assert not ht.quivers_isomorphic(q1, q2, None)
    # not injective; missing a node; a node that is not in q1
    assert not ht.quivers_isomorphic(q1, q2, {"a": "y", "b": "y", "c": "x"})
    assert not ht.quivers_isomorphic(q1, q2, {"a": "y", "b": "z"})
    assert not ht.quivers_isomorphic(q1, q2, {**iso, "d": "x"})
    # onto nodes that are not q2's
    assert not ht.quivers_isomorphic(q1, q2, {"a": "y", "b": "z", "c": "w"})
    # a bijection that is no isomorphism: the loop lands on a non-loop
    assert not ht.quivers_isomorphic(q1, q2, {"a": "x", "b": "z", "c": "y"})
    # a multiplicity that differs, and an arrow q2 has on top
    q3 = ht.GabrielQuiver(q2.nodes, {**q2.arrows, ("z", "x"): 1})
    q4 = ht.GabrielQuiver(q2.nodes, {**q2.arrows, ("x", "y"): 1})
    for q in (q3, q4):
        assert not ht.quivers_isomorphic(q1, q, iso)
        assert not quivers_isomorphic_bruteforce(q1, q)
    # a zero multiplicity is no arrow
    assert ht.quivers_isomorphic(q1, ht.GabrielQuiver(q2.nodes, {**q2.arrows, ("x", "z"): 0}), iso)


def test_quiver_map_check_on_relabelled_quivers():
    """A random quiver against a relabelled copy: the relabelling passes, and
    every other bijection passes exactly when it is an automorphism, as the
    permutation oracle says."""
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for _ in range(100):
        n = int(rng.integers(1, 6))
        nodes = [f"a{i}" for i in range(n)]
        arrows = {}
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            a = (nodes[int(rng.integers(n))], nodes[int(rng.integers(n))])
            arrows[a] = arrows.get(a, 0) + 1
        q1 = ht.GabrielQuiver(tuple(nodes), arrows)
        rename = dict(zip(nodes, (f"b{i}" for i in rng.permutation(n))))
        q2 = ht.GabrielQuiver(
            tuple(sorted(rename.values())), {(rename[s], rename[t]): k for (s, t), k in arrows.items()}
        )
        assert ht.quivers_isomorphic(q1, q2, rename)
        for perm in itertools.permutations(nodes):
            auto = {(perm[nodes.index(s)], perm[nodes.index(t)]): k for (s, t), k in arrows.items()}
            other = {u: rename[v] for u, v in zip(nodes, perm)}
            want = auto == arrows
            assert ht.quivers_isomorphic(q1, q2, other) == want
            seen[want] += 1
    assert seen[True] >= 100 and seen[False] >= 500, seen


def test_h_kills_exactly_star(ex61, model):
    pair = model.pair
    for x in ex61.atlas:
        assert model.h.is_zero_h(x) == star_membership(x, pair), x.name
        assert (model.phi.module(x).total_dim == 0) == star_membership(x, pair), x.name


def test_h_restricts_to_projection(ex61, model):
    for n in fx._PANELS_61["heart"]:
        hx = model.h.h_object(ex61.atlas[n])
        ok, _ = model.quotient.invertible(hx.defl)
        assert ok, n


def test_h_on_c_members(ex61, model):
    for n in fx._PANELS_61["C"]:
        assert model.h.is_zero_h(ex61.atlas[n])


def test_h_functorial(ex61, model):
    rng = np.random.default_rng(5)
    objs = ex61.atlas.members
    p = ex61.algebra.p
    count = 0
    while count < 15:
        x, y, z = (objs[rng.integers(len(objs))] for _ in range(3))
        fb, gb = homs(x, y), homs(y, z)
        if not fb or not gb:
            continue
        f = map_from_coords(fb, rng.integers(0, p, len(fb)))
        g = map_from_coords(gb, rng.integers(0, p, len(gb)))
        hf = model.h.h_map(f)
        hg = model.h.h_map(g)
        hgf = model.h.h_map(g.compose(f))
        diff = hgf.sub(hg.compose(hf))
        # equal in the heart: the difference factors through the rigid class
        assert model.phi.phi_map(diff).size == 0 or not model.phi.phi_map(diff).any()
        count += 1


def test_half_exactness_on_ext_basis(ex61, model):
    p = ex61.algebra.p
    for a in ex61.atlas:
        for c in ex61.atlas:
            if ext1_dim(c, a) == 0:
                continue
            e = Ext1(c, a)
            for j in range(e.dim):
                conf = realize(e, [int(i == j) for i in range(e.dim)])
                m1 = model.phi.phi_map(model.h.h_map(conf.infl))
                m2 = model.phi.phi_map(model.h.h_map(conf.defl))
                mid = model.phi.module(model.h.h_object(conf.b).b).total_dim
                assert not la.matmul(m2, m1, p).any()
                assert la.rank(m1, p) == mid - la.rank(m2, p), (c.name, a.name)


def test_phi_respects_sums(ex61, model):
    from quiverhearts.algebra import direct_sum

    x, y = ex61.atlas["2/34"], ex61.atlas["3/5"]
    s = direct_sum([x, y])
    ms = model.phi.module(s)
    mx, my = model.phi.module(x), model.phi.module(y)
    assert ms.total_dim == mx.total_dim + my.total_dim


def test_phi_action_axioms(ex61, model):
    for n in fx._PANELS_61["heart"]:
        assert validate_action(model.phi, ex61.atlas[n]), n


def test_zeroing_an_arrow_fails_the_action_check(ex61, model):
    """Phi(3) with one arrow acting by zero still satisfies Gamma's zero
    relations, but no longer carries the action built from Ext^1."""
    mod = model.phi.module(ex61.atlas["3"])
    aid = next(a for a, m in mod.arrow_maps.items() if m.any())
    zero = la.zeros(*mod.arrow_maps[aid].shape)
    bad = Rep(mod.algebra, "bad", mod.dims, {**mod.arrow_maps, aid: zero})
    assert not bad.relation_defect()
    assert validate_action(model.phi, ex61.atlas["3"])
    assert not validate_action(model.phi, ex61.atlas["3"], bad)


def test_identity_mono_epi(ex61, model):
    x = ex61.atlas["2/34"]
    f = RepMap.identity(x)
    assert heart_epi(model, f) and ht.heart_mono(model, f)
    assert ht.heart_kernel_dim(model, f) == 0
    assert heart_cokernel_dim(model, f) == 0


def test_kernel_two_ways(ex61, model):
    for f in heart_morphisms(ex61, 10, seed=9):
        if not heart_epi(model, f) or not f.is_surjective():
            continue
        kobj = realize_heart_kernel(model, f)
        assert model.phi.module(kobj).total_dim == ht.heart_kernel_dim(model, f)


def test_realize_ses(ex61, model):
    # an actual heart epi: surjection with heart-epi certificate
    found = None
    for f in heart_morphisms(ex61, 40, seed=13):
        if f.is_surjective() and heart_epi(model, f) and not ht.heart_mono(model, f):
            found = f
            break
    assert found is not None
    conf = realize_ses_in_heart(model, found)
    conf.validate()


def test_kernel_module_matches(ex61, model):
    for f in heart_morphisms(ex61, 10, seed=21):
        km = ht.heart_kernel_module(model, f)
        assert km.total_dim == ht.heart_kernel_dim(model, f)
        cm = ht.heart_cokernel_module(model, f)
        assert cm.total_dim == heart_cokernel_dim(model, f)


# Reference Gamma-module algebra: a module is (dimension, one matrix on its
# whole space per vertex idempotent and per arrow), and Hom, submodules and
# quotients are solved directly on those matrices, independently of
# `hom_space`, `kernel` and `cokernel`.


def action_of(mod):
    """A Gamma-module `Rep` as (dimension, the projection onto each vertex,
    then each arrow's map placed in its (target, source) block)."""
    dims = mod.dims

    def placed(i, j, m):
        n = len(dims)
        cells = [[m if (r, c) == (j, i) else None for c in range(n)] for r in range(n)]
        return la.grid(cells, dims, dims)

    idempotents = [placed(v, v, la.eye(d)) for v, d in enumerate(dims)]
    ends = mod.algebra.quiver._arrow_ends
    return mod.total_dim, idempotents + [placed(i, j, mod.arrow_maps[a]) for a, i, j in ends]


def ref_gamma_hom(m, n, p):
    """Basis of module maps m -> n: matrices T with T R_m = R_n T."""
    (mdim, mact), (ndim, nact) = m, n
    if mdim == 0 or ndim == 0:
        return []
    rows = []
    for rm, rn in zip(mact, nact):
        # T rm - rn T = 0, unknowns T (ndim x mdim) flattened row-major;
        # row-major vec(AXB) = (A kron B^T) vec(X)
        rm, rn = np.array(rm.tolist()).reshape(rm.shape), np.array(rn.tolist()).reshape(rn.shape)
        eq = np.kron(np.eye(ndim, dtype=np.int64), rm.T) - np.kron(rn, np.eye(mdim, dtype=np.int64))
        rows.append(eq % p)
    width = ndim * mdim
    mat = la.modmat(np.concatenate(rows, axis=0), p) if rows else la.zeros(0, width)
    ns = la.nullspace(mat, p)
    return [Block(ndim, mdim, ns.column(j)) for j in range(ns.cols)]


def ref_submodule(mod, cols, p):
    """The submodule spanned by the given coordinate columns (must be stable)."""
    d = la.rank(cols, p)
    r, pivots = la.rref(cols.T, p) if cols.cols else (la.zeros(0, mod[0]), [])
    k = len(pivots)
    basis = Block(k, r.cols, r.data[: k * r.cols]).T  # independent spanning columns
    acts = []
    for a in mod[1]:
        sol = la.solve(basis, la.matmul(a, basis, p), p)
        assert sol is not None, "column span is not action-stable"
        acts.append(sol)
    return d, acts


def ref_kernel_module(model, f):
    p = model.phi.p
    ker = la.nullspace(model.phi.phi_map(f), p)
    return ref_submodule(action_of(model.phi.module(f.source)), ker, p)


def ref_cokernel_module(model, f):
    p = model.phi.p
    m = model.phi.phi_map(f)
    dim, action = action_of(model.phi.module(f.target))
    q = la.quotient_map(m, dim, p)
    rinv = la.right_inverse(q, p) if q.rows else la.zeros(dim, 0)
    return q.rows, [la.matmul(la.matmul(q, r, p), rinv, p) for r in action]


def test_gamma_hom_dims_match_the_reference(ex61, model):
    p = model.phi.p
    mods = [model.phi.module(ex61.atlas[n]) for n in model.heart_object_names()]
    assert any(a.any() for m in mods for a in m.arrow_maps.values())
    for x, y in itertools.product(mods, repeat=2):
        assert hom_dim(x, y) == len(ref_gamma_hom(action_of(x), action_of(y), p)), (x, y)


def test_kernel_and_cokernel_modules_match_the_reference(ex61, model):
    p = model.phi.p
    for f in heart_morphisms(ex61, 10, seed=21):
        for got, want in (
            (ht.heart_kernel_module(model, f), ref_kernel_module(model, f)),
            (ht.heart_cokernel_module(model, f), ref_cokernel_module(model, f)),
        ):
            assert got.total_dim == want[0], f
            assert hom_dim(got, got) == len(ref_gamma_hom(want, want, p)), f


def test_module_map_checks_the_gamma_action(ex61, model, monkeypatch):
    x = ex61.atlas["3"]
    mod = model.phi.module(x)
    # an arrow acts by 1 between the two vertices where Phi(3) is nonzero ...
    assert mod.dims == (0, 1, 1)
    assert [m.data for m in mod.arrow_maps.values() if m.size] == [(1,)]
    ident = RepMap.identity(x)
    assert model.phi.module_map(ident).is_isomorphism()
    # ... so diag(2, 1), which scales the two vertices apart, is no module map
    perturbed = Block(2, 2, (2, 0, 0, 1))
    monkeypatch.setattr(model.phi, "phi_map", lambda f: perturbed)
    with pytest.raises(AlgebraError, match="intertwine"):
        model.phi.module_map(ident)


def presents(phi, alg) -> bool:
    """Does `alg`, on Gamma's quiver, present the stable category of phi's
    members: every relation vanishes modulo [P], and dim kQ/I (basis paths
    and vertices) is the sum of the stable Hom dimensions."""
    for rel in alg.relations:
        maps = [path_map(phi, path) for _, path in rel]
        coords = phi.stable.qcolumns(maps[0].source, maps[0].target, flat_columns(maps))
        if la.matmul(coords, la.column([c for c, _ in rel]), phi.p).any():
            return False
    want = sum(phi.stable.qdim(x, y) for x in phi.members for y in phi.members)
    return len(alg.quiver.vertices) + len(alg.path_basis.basis) == want


@pytest.mark.parametrize("name, counts", [("ex61", (20, 40, 16, 4)), ("A6/rad^3", (17, 28, 7, 0))])
def test_gamma_presents_the_stable_category(name, counts):
    """On every rigid class containing the projectives, Gamma has a vertex
    per non-projective member, the stable quiver's arrows reversed, and a
    finite path algebra of the dimension of the stable category."""
    atlas = fx.ex61().atlas if name == "ex61" else nakayama_atlas(6, 3)
    classes = rigid_classes_with_projectives(atlas)
    totals = [len(classes), 0, 0, 0]
    for c in classes:
        phi = ht.PhiModel(c)
        gamma = phi.gamma
        assert gamma.quiver.vertices == tuple(m.name for m in phi.members)
        assert presents(phi, gamma), c.names
        arrows = {}
        for _, s, t in gamma.quiver.arrows:
            arrows[(t, s)] = arrows.get((t, s), 0) + 1
        assert arrows == ht.gabriel_quiver(phi.stable).arrows, c.names
        for i, part in enumerate((gamma.quiver.vertices, gamma.quiver.arrows, gamma.relations)):
            totals[i + 1] += len(part)
    assert tuple(totals) == counts


def test_gamma_does_not_depend_on_the_field():
    got = {}
    for p in (2, 3, 5, 101):
        gamma = ht.PhiModel(fx.ex61(p).subcat_obj("C")).gamma
        got[p] = (gamma.quiver, len(gamma.relations))
    assert got[101][0].arrows and got[101][1]
    assert all(g == got[101] for g in got.values()), got


def test_gamma_of_the_projectives_has_no_vertex(ex61):
    phi = ht.PhiModel(ct.projectives_of(ex61.atlas))
    assert not phi.members and phi.gamma.quiver.vertices == ()
    mod = phi.module(ex61.atlas["3"])
    assert mod.dims == () and mod.is_zero() and phi.dim(ex61.atlas["3"]) == 0


def test_a_changed_relation_coefficient_breaks_the_presentation(model):
    phi = model.phi
    gamma = phi.gamma
    assert presents(phi, gamma) and gamma.relations
    (c, path), *rest = gamma.relations[0]
    changed = ((0, path), *rest)
    wrong = BoundQuiverAlgebra(gamma.quiver, gamma.p, (changed, *gamma.relations[1:]))
    assert not presents(phi, wrong)


def test_syzygyepi(ex61, model):
    checked = 0
    names = fx._PANELS_61["heart"]
    for xn in names:
        for yn in names:
            x, y = ex61.atlas[xn], ex61.atlas[yn]
            for g in homs(x, y):
                if g.is_surjective() and heart_epi(model, g):
                    assert check_syzygyepi(model, g), (xn, yn)
                    checked += 1
    assert checked >= 5


def test_syzygyepi_identity_and_split(ex61, model):
    from quiverhearts.algebra import direct_sum

    x = ex61.atlas["2/34"]
    assert check_syzygyepi(model, RepMap.identity(x))
    y = ex61.atlas["3/5"]
    s = direct_sum([y, x])
    # the projection onto x, from identity blocks
    prj = RepMap(s, x, [la.hstack([la.zeros(b, a), la.eye(b)], b) for a, b in zip(y.dims, x.dims)])
    assert check_syzygyepi(model, prj)


def test_dim_hom_quotient_matches_gamma(model):
    rep = model.validate_equivalence()
    assert rep["ok"], rep["mismatches"]


def test_phi_dim_is_the_module_dimension(ex61, model):
    for x in ex61.atlas:
        assert model.phi.dim(x) == model.phi.module(x).total_dim, x.name


def ext1_spy(monkeypatch) -> list:
    """The (C, X) of every `Ext1` built, by any module, in order."""
    built = []
    real = Ext1.__init__

    def init(self, c, x):
        built.append((c, x))
        real(self, c, x)

    monkeypatch.setattr(Ext1, "__init__", init)
    return built


def test_phi_dim_reads_the_ext_that_phi_map_built(monkeypatch):
    f = fx.ex61()
    c = f.subcat_obj("C")
    phi = ht.PhiModel(c)
    x = f.atlas["2"].renamed("x")  # content the workspace may not hold yet
    built = ext1_spy(monkeypatch)
    WORKSPACE.clear()
    phi.phi_map(RepMap.identity(x))
    before = WORKSPACE.stats()
    nonzero = [m for m in phi.members if ext1_dim(m, x)]
    # one Ext^1 per nonzero block, and none for a zero block or a dimension
    assert 0 < len(nonzero) < len(phi.members) and built == [(m, x) for m in nonzero]
    assert before["ext1_dim"]["misses"] == len(phi.members)
    assert before["phi_ext"]["entries"] == len(nonzero)
    got = phi.dim(x)
    after = WORKSPACE.stats()
    # dim read what phi_map stored: no table missed, and no second Ext^1 was built
    assert all(after[t]["misses"] == counts["misses"] for t, counts in before.items())
    assert len(built) == len(nonzero)
    assert got == ext1_dim(direct_sum(c.members), x)


def test_phi_dim_sums_the_member_ext1_entries():
    """Without Phi(f), dim Phi(x) reads one shared `ext1_dim` entry per
    non-projective member of C and builds a block only where it is
    nonzero; a projective member adds nothing."""
    f = fx.ex61()
    c = f.subcat_obj("C")
    phi = ht.PhiModel(c)
    projective = set(ct.projectives_of(f.atlas).names)
    assert [m.name for m in phi.members] == [m.name for m in c.members if m.name not in projective]
    assert len(phi.members) < len(c.members)
    x = f.atlas["2"].renamed("x")
    WORKSPACE.clear()
    got = phi.dim(x)
    assert WORKSPACE.stats()["ext1_dim"]["entries"] == len(phi.members)
    nonzero = [m for m in phi.members if ext1_dim(m, x)]
    assert WORKSPACE.stats()["phi_ext"]["entries"] == len(nonzero) > 0
    assert got == sum(ext1_dim(m, x) for m in phi.members) == ext1_dim(direct_sum(c.members), x)


def test_phi_builds_an_ext1_only_for_a_nonzero_block(monkeypatch):
    """On a certificate, an `Ext1` is built only for a nonzero member block
    of Phi, once per content, and stored as that block; a zero block is read
    off `ext1_dim`, which builds none."""
    f = fx.ex61()
    built = ext1_spy(monkeypatch)
    asked = []
    real_dim = ht.ext1_dim

    def dim(c, x):
        asked.append((c, x))
        return real_dim(c, x)

    monkeypatch.setattr(ht, "ext1_dim", dim)
    WORKSPACE.clear()
    assert verify_main_theorem(f.atlas, f.subcat_obj("C"), f.subcat_obj("D"))["ok"]
    stored = WORKSPACE.tables["phi_ext"]
    keys = [(c.key, x.key) for c, x in built]
    assert len(keys) == len(set(keys)) and len(stored) > 0 and set(stored) == set(keys)
    assert all(block.dim > 0 for block in stored.values())
    zero = {(c.key, x.key) for c, x in asked if not real_dim(c, x)}
    assert zero and not zero & set(stored)


@pytest.mark.parametrize("n, k, c, d", EX61_AND_LADDER[:2])
def test_a_certificate_builds_one_ext1_per_content(monkeypatch, n, k, c, d):
    """From a cleared workspace a certificate builds one `Ext1` per distinct
    (C_i, X) content."""
    atlas, outer, inner = instance(n, k, c, d)
    built = ext1_spy(monkeypatch)
    WORKSPACE.clear()
    assert verify_main_theorem(atlas, outer, inner)["ok"]
    keys = [(c.key, x.key) for c, x in built]
    assert WORKSPACE.stats()["phi_ext"]["misses"] > 0
    assert len(keys) == len(set(keys)) > 0


@pytest.mark.parametrize("n, k, c, d", EX61_AND_LADDER)
def test_member_wise_phi_matches_ext1_of_the_sum(n, k, c, d):
    """Phi(x) = sum_i Ext^1(C_i, x) has the dimension of Ext^1(G, x) for
    every atlas object, and Phi(f) has the shape and rank of Ext^1(G, f)
    (kept here only as the reference) for every Hom basis map between
    objects of H = CoCone(C, C); Phi is a functor there, and its Gamma-modules
    realise the heart."""
    atlas, c, _ = instance(n, k, c, d)
    phi = ht.PhiModel(c)
    g = direct_sum(c.members)
    for x in atlas:
        assert phi.dim(x) == ext1_dim(g, x), x.name
    objs = ct.cocone_objects(c, c).members
    exts = {x: Ext1(g, x) for x in objs}
    p = phi.p
    for x, y in itertools.product(objs, objs):
        for f in homs(x, y):
            want = classes(exts[y], [f.compose(cc) for cc in exts[x].cocycles])
            got = phi.phi_map(f)
            assert got.shape == want.shape and la.rank(got, p) == la.rank(want, p)
            for z in objs:
                for h in homs(y, z)[:2]:
                    assert phi.phi_map(h.compose(f)) == la.matmul(phi.phi_map(h), got, p)
    # Phi(x) is a module of the bound quiver algebra Gamma, with the member
    # blocks as its dimension vector, that carries the action of End(G)/[P]
    # and whose Hom dimensions are those of the quotient H/[U]
    model = ht.HeartModel(c.rigid_pair, atlas, ht.CohomologicalH(c.rigid_pair, atlas), phi)
    names = model.heart_object_names()
    assert names
    for n in names:
        mod = phi.module(atlas[n])
        assert list(mod.dims) == [e.dim if e else 0 for e in phi._blocks(atlas[n])], n
        assert not mod.relation_defect() and validate_action(phi, atlas[n]), n
    assert model.validate_equivalence()["ok"]


def test_phi_map_is_computed_once_per_map():
    f = fx.ex61()
    phi = ht.PhiModel(f.subcat_obj("C"))
    x, y = f.atlas["2/34"], f.atlas["2"]
    g = homs(x, y)[0]
    WORKSPACE.clear()
    m = phi.phi_map(g)
    with pytest.raises(TypeError):  # the block is immutable: assignment raises
        m[0, 0] = 1
    copy = RepMap(x.renamed("x"), y.renamed("y"), g.blocks)  # same content, new objects
    assert phi.phi_map(g) is m and phi.phi_map(copy) is m
    assert WORKSPACE.stats()["phi_map"] == {"hits": 2, "misses": 1, "entries": 1}


def test_certificate_builds_no_gamma_action(monkeypatch):
    """A certificate builds neither Gamma nor the arrows' syzygy
    restrictions; Phi(3) as a module builds each once."""
    built = {"gamma": [], "_omega_acts": []}
    for name, calls in built.items():
        real = getattr(ht.PhiModel, name).func
        monkeypatch.setattr(ht.PhiModel, name, property(
            lambda self, real=real, calls=calls: calls.append(self) or real(self)
        ))
    f = fx.ex61()
    assert verify_main_theorem(f.atlas, f.subcat_obj("C"), f.subcat_obj("D"))["ok"]
    assert built == {"gamma": [], "_omega_acts": []}
    WORKSPACE.clear()  # an earlier test may have stored Phi(3) already
    assert ht.PhiModel(f.subcat_obj("C")).module(f.atlas["3"]).total_dim == 2
    assert [len(calls) for calls in built.values()] == [1, 1]
