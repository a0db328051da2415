"""Mutation, intermediate categories, localization, and the round trips."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from quiverhearts import linalg as la
from quiverhearts import mutation as mu
from quiverhearts.algebra import (
    AlgebraError,
    RepMap,
    flat_columns,
    map_from_coords,
)
from quiverhearts.cotorsion import (
    Subcategory,
    cocone_membership,
    cone_objects,
    cocone_objects,
    is_rigid,
    projectives_of,
    satisfies_rcp,
    subcat,
)
from quiverhearts.fixtures import (
    a3_atlas,
    auslander_a3_atlas,
    ex61,
    ex62,
)
from quiverhearts.heart import (
    HeartModel,
    gabriel_quiver,
    quivers_isomorphic,
    solve_extend,
    solve_through,
)
from quiverhearts.homology import Conflation, ext1_dim, homs
from quiverhearts.mutation import (
    LocalizationModel,
    MutationInput,
    PseudoMoritaData,
    TwinData,
    a_objects,
    classify_r,
    diamond_diagram,
    dual_localization_model,
    ext2_rigidity_criterion,
    in_s_a,
    k_maps,
    kprime_maps,
    mutation_condition_equivalence,
    reversed_quiver,
    right_mutation,
    verify_localization,
    verify_main_theorem,
    verify_pseudo_morita,
)
from lemmas import (
    check_g1_property, heart_epi, in_s_a_by_kernel, is_approximation,
    quivers_isomorphic_bruteforce, verify_hd_moreover,
)
from test_shortcuts import ladder_instances
from test_workspace import nakayama_atlas, same_blocks


@pytest.fixture(scope="module")
def fx():
    return ex61()


@pytest.fixture(scope="module")
def inp(fx):
    return MutationInput(fx.atlas, fx.subcat_obj("C"), fx.subcat_obj("D")).validate()


@pytest.fixture(scope="module")
def twin(inp):
    return TwinData.build(inp)


@pytest.fixture(scope="module")
def model(inp):
    return LocalizationModel.build(inp)


@pytest.fixture(scope="module")
def morita(twin, model):
    return PseudoMoritaData.build(twin, model)


def test_right_mutation_panel(fx, inp):
    assert set(right_mutation(inp).names) == set(fx.subcats["C_mut"])


def test_right_mutation_panel_second_example():
    fx2 = ex62()
    inp2 = MutationInput(fx2.atlas, fx2.subcat_obj("C"), fx2.subcat_obj("D"))
    cmut = right_mutation(inp2.validate())
    assert set(cmut.names) == set(fx2.subcats["C_mut"])
    assert not is_rigid(cmut)


def test_ext2_criterion_fails_where_mutation_is_not_rigid():
    fx2 = ex62()
    inp2 = MutationInput(fx2.atlas, fx2.subcat_obj("C"), fx2.subcat_obj("D"))
    assert ext2_rigidity_criterion(inp2) is False


def test_ext2_criterion_on_hereditary_algebra():
    # no relations: Ext^2 always vanishes, so the criterion must hold and
    # internally assert that the mutation is rigid
    from quiverhearts.cotorsion import projectives_of

    atlas = a3_atlas()
    c = projectives_of(atlas)
    assert ext2_rigidity_criterion(MutationInput(atlas, c, c).validate()) is True


def test_co_classes_match_panels(fx, twin):
    assert set(twin.m.names) == set(fx.subcats["M"])
    assert set(twin.n.names) == set(fx.subcats["N"])
    assert set(twin.m_mut.names) == set(fx.subcats["M_mut"])
    assert is_rigid(twin.m_mut)


def test_co_mutation_recovers_co_class(fx, twin):
    # Cone(M', N) meet the left perp of N: the right mutation over the
    # opposite algebra
    dual = fx.atlas.dual
    op = MutationInput(dual, Subcategory(dual, twin.m_mut.names),
                       Subcategory(dual, twin.n.names)).validate()
    got = subcat(fx.atlas, right_mutation(op).names)
    assert set(got.names) == set(twin.m.names)


def test_mutation_condition_biconditional(inp, twin):
    lhs, rhs = mutation_condition_equivalence(inp, twin.cmut)
    assert lhs and rhs
    # a rigid candidate that is not the mutation falsifies both sides
    wrong = inp.d
    lhs, rhs = mutation_condition_equivalence(inp, wrong)
    assert lhs == rhs == False  # noqa: E712


def test_intermediate_class_two_descriptions(inp, twin):
    assert set(twin.hd.names) == set(cocone_objects(twin.cmut, inp.d).names)
    w = twin.m.intersect(twin.dperp)
    assert set(twin.hn.names) == set(cone_objects(twin.n, w).names)


# ---------------------------------------------------------------------------
# The approximation pipeline.


def test_pipeline_approximation_all_atlas(fx, model):
    for x in fx.atlas:
        res = model.r_object(x)
        res.validate()
        # Y0 >-> Z ->> D1, which R(X) does not keep, from the uncached builder
        Conflation(*mu._right_hd_maps(model.pair, model.inp.d, x)[2:]).validate()
        assert cocone_membership(res.b, model.inp.d, model.pair.u)[0]
        assert all(ext1_dim(m, res.a) == 0 for m in model.inp.d.members)
        assert is_approximation("right", model.hd.members, res.defl)


def test_pipeline_moreover_clause(fx, model, twin):
    cperp = twin.cperp
    for x in fx.atlas:
        assert verify_hd_moreover(model.r_object(x), cperp, fx.atlas)


def test_coreflection_kernel_orthogonality(fx, twin, morita):
    # coreflections land in the intermediate class with kernel right-
    # orthogonal to the mutation
    for b in morita.q_hn.nonzero_objects():
        res = morita.coref(b)
        assert cocone_membership(res.b, twin.cmut, twin.inp.d.rigid_pair.u)[0]
        assert all(ext1_dim(m, res.a) == 0 for m in twin.cmut.members)
        assert twin.hd.contains(res.b)


# ---------------------------------------------------------------------------
# The localization model.


def test_localized_objects_panel(fx, model):
    assert set(model.object_names()) == set(fx.subcats["heart_localized"])


def test_kernel_class_objects(fx, model):
    assert a_objects(model).names == ("2",)


def test_localization_certificate(model):
    rep = verify_localization(model)
    assert rep["ok"]
    assert rep["s_a_inverted"] >= 1
    assert rep["non_s_a_separated"] >= 1


def test_faithfulness_catches_r_changed_on_one_basis_map(model, monkeypatch):
    # Sending one basis map outside [C'] to zero breaks faithfulness: the exact
    # check must see it for every such map, not only for lucky samples.
    q = model.quotient
    objs = [x for x in q.objects if not q.is_zero_object(x)]
    honest = model.r_qcoords
    changed = [
        (b1, b2, j)
        for b1 in objs
        for b2 in objs
        for j, u in enumerate(homs(b1, b2))
        if not q.is_ideal(u)
    ]
    assert len(changed) >= 5
    for b1, b2, j in changed:

        def r_qcoords(r1, r2, b1=b1, b2=b2, j=j):
            image = honest(r1, r2)
            if r1.c == b1 and r2.c == b2:  # by content: a memo hit may hand back an equal copy
                zero = (0,) * image.rows
                cols = [zero if i == j else image.column(i) for i in range(image.cols)]
                image = la.columns(cols, image.rows)
            return image

        monkeypatch.setattr(model, "r_qcoords", r_qcoords)
        assert not verify_localization(model)["faithfulness"], (b1.name, b2.name)
    monkeypatch.undo()
    assert verify_localization(model)["faithfulness"]


def test_r_of_a_whole_basis_is_r_of_each_map(fx, model):
    """One solve for R of a whole Hom basis gives the quotient coordinates
    of each `r_map`, column by column."""
    q = model.quotient
    objs = q.nonzero_objects()
    seen = 0
    for b1 in objs:
        for b2 in objs:
            basis = homs(b1, b2)
            if basis:
                r1, r2 = model.r_object(b1), model.r_object(b2)
                want = la.columns([q.qcoords(model.r_map(u, r1, r2)) for u in basis],
                                  q.qdim(r1.b, r2.b))
                assert model.r_qcoords(r1, r2) == want
                seen += want.any()
    assert seen


def test_localized_quiver_shape(fx, model):
    qv = model.localized_quiver()
    assert set(qv.nodes) == set(fx.subcats["heart_localized"])
    assert qv.arrows == {("3/5", "3"): 1, ("3", "2/34"): 1, ("2/34", "2/3"): 1}


# ---------------------------------------------------------------------------
# The dual side.


def test_dual_heart_objects_panel(fx, twin):
    dual = fx.atlas.dual
    hm = HeartModel.build(Subcategory(dual, twin.m_mut.names).rigid_pair, dual)
    assert set(hm.heart_object_names()) == set(fx.subcats["heart_mut"])
    # the heart of the mutated pair has the same nonzero objects
    hm2 = HeartModel.build(twin.cmut.rigid_pair, fx.atlas)
    assert set(hm2.heart_object_names()) == set(fx.subcats["heart_mut"])


def test_dual_localization_model(fx, twin):
    dm = dual_localization_model(fx.atlas, twin.m_mut, twin.n)
    assert set(dm.cmut.names) == set(twin.m.names)
    assert set(dm.object_names()) == set(fx.subcats["heart_mut_localized"])
    rep = verify_localization(dm)
    assert rep["ok"]
    assert rep["a_objects"] == ("4",)


def test_dual_quiver_matches_direct_computation(fx, twin, morita):
    dm = dual_localization_model(fx.atlas, twin.m_mut, twin.n)
    via_op = reversed_quiver(dm.localized_quiver())
    direct = gabriel_quiver(morita.q_hn)
    assert set(via_op.nodes) == set(direct.nodes)
    assert via_op.arrows == direct.arrows


def test_localized_quivers_isomorphic_but_distinct(model, fx, twin, morita):
    q1 = model.localized_quiver()
    q2 = reversed_quiver(
        dual_localization_model(fx.atlas, twin.m_mut, twin.n).localized_quiver()
    )
    assert quivers_isomorphic(q1, q2, verify_pseudo_morita(morita)["object_map"])
    assert q1.arrows != q2.arrows  # same shape, different labels


@pytest.mark.parametrize(
    "n, k, c, d", [pytest.param(None, None, None, None, id="ex61")] + ladder_instances()
)
def test_object_map_is_the_localized_quiver_isomorphism(monkeypatch, n, k, c, d):
    """On ex61 and every recorded ladder instance, the certificate checks the
    pseudo-Morita object map, which passes, and the permutation oracle
    agrees that the localized quivers are isomorphic."""
    if n is None:
        fx61 = ex61()
        atlas, c, d = fx61.atlas, fx61.subcat_obj("C"), fx61.subcat_obj("D")
    else:
        atlas = nakayama_atlas(n, k)
        c, d = subcat(atlas, c), subcat(atlas, d)
    calls = []

    def spy(q1, q2, mapping):
        calls.append((q1, q2, mapping, quivers_isomorphic(q1, q2, mapping)))
        return calls[-1][-1]

    monkeypatch.setattr(mu, "quivers_isomorphic", spy)
    report = verify_main_theorem(atlas, c, d)
    assert report["ok"], report["checks"]
    [(q1, q2, mapping, ok)] = calls
    assert ok and mapping is report["morita"]["object_map"]
    assert (q1, q2) == (report["quiver"], report["quiver_dual"])
    assert quivers_isomorphic_bruteforce(q1, q2)


def test_a_corrupted_object_map_fails_the_quiver_check(monkeypatch, fx, model):
    """Swap the images of two localized objects whose arrows differ: the map
    still bijects and the pseudo-Morita checks pass, but it carries the
    quiver onto another one, so the certificate fails."""
    q1 = model.localized_quiver()

    def arrows_at(u):
        ends = ((s == u, t == u, k) for (s, t), k in q1.arrows.items())
        return sorted(end for end in ends if end[0] or end[1])

    u, v = next(
        (u, v) for u, v in itertools.combinations(q1.nodes, 2) if arrows_at(u) != arrows_at(v)
    )
    real = mu.object_correspondence

    def swapped(data, unit):
        mapping, dims_ok = real(data, unit)
        mapping[u], mapping[v] = mapping[v], mapping[u]
        return mapping, dims_ok

    monkeypatch.setattr(mu, "object_correspondence", swapped)
    report = verify_main_theorem(fx.atlas, fx.subcat_obj("C"), fx.subcat_obj("D"))
    checks = report["checks"]
    assert report["morita"]["object_bijection"] and checks["pseudo_morita"]
    assert not checks["localized_quivers_isomorphic"] and not report["ok"]


# ---------------------------------------------------------------------------
# Reflections, coreflections and the round trips.


def test_reflection_left_approximation_property(twin, morita):
    for b in morita.q_hd.nonzero_objects():
        assert is_approximation("left", twin.hn.members, morita.refl(b).infl)


def test_round_trips(morita):
    rep = verify_pseudo_morita(morita)
    assert rep["ok"], rep
    assert rep["object_map"]["3/5"] == "34/5"
    assert rep["object_map"]["3"] == "3"


def rigid_classes_with_projectives(atlas) -> list:
    """Every rigid subcategory containing the projectives."""
    proj = projectives_of(atlas).names
    rest = [n for n in atlas.names if n not in proj]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            c = subcat(atlas, sorted(proj + extra))
            if is_rigid(c):
                out.append(c)
    return out


def admissible_pairs(atlas) -> list[MutationInput]:
    """Every nested pair D in C of rigid classes containing the projectives
    that is admissible and whose mutation is rigid and satisfies (RCP)."""
    classes = rigid_classes_with_projectives(atlas)
    out = []
    for c in classes:
        for d in classes:
            if not d.issubset(c):
                continue
            inp = MutationInput(atlas, c, d)
            try:
                inp.validate()
            except AlgebraError:
                continue
            cmut = right_mutation(inp)
            if is_rigid(cmut) and satisfies_rcp(cmut)[0]:
                out.append(inp)
    return out


def test_every_nested_rigid_pair_on_the_auslander_atlas():
    # Every nested pair D in C of rigid classes containing the projectives;
    # each admissible one whose mutation is rigid and satisfies (RCP) is
    # certified through the round trips.
    atlas = auslander_a3_atlas()
    classes = rigid_classes_with_projectives(atlas)
    assert len(classes) == 20
    assert sum(d.issubset(c) for c in classes for d in classes) == 99
    done = moved = 0
    for inp in admissible_pairs(atlas):
        twin = TwinData.build(inp)
        lhs, rhs = mutation_condition_equivalence(inp, twin.cmut)
        assert lhs and rhs
        rep = verify_pseudo_morita(PseudoMoritaData.build(twin, LocalizationModel.build(inp)))
        assert rep["ok"], (inp.c.names, inp.d.names, rep)
        done += 1
        moved += twin.cmut.names != inp.c.names
    assert (done, moved) == (24, 4)


@pytest.mark.parametrize("name", ["ex61", "A6/rad^3"])
def test_s_a_by_block_ranks_equals_the_kernel_object_route(name):
    """On every admissible pair D < C, `in_s_a` (ranks of Phi's member
    blocks) answers as the route that builds the heart kernel and
    decomposes it, on every Hom basis map between heart objects; it says
    None exactly where the map is no heart epimorphism."""
    atlas = ex61().atlas if name == "ex61" else nakayama_atlas(6, 3)
    pairs = [inp for inp in admissible_pairs(atlas) if inp.d.names != inp.c.names]
    assert len(pairs) == {"ex61": 4, "A6/rad^3": 14}[name]
    seen = {None: 0, False: 0, True: 0}
    for inp in pairs:
        model = LocalizationModel.build(inp)
        a_sub = a_objects(model)
        hobjs = [atlas[n] for n in model.heart.heart_object_names()]
        for x in hobjs:
            for y in hobjs:
                for g in homs(x, y):
                    got = in_s_a(model, g)
                    seen[got] += 1
                    want = in_s_a_by_kernel(model, a_sub, g) if heart_epi(model.heart, g) else None
                    assert got == want, (inp.c.names, inp.d.names, x.name, y.name)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Morphism classification.


def _sample_morphisms(atlas, per_pair=3, rng=None):
    out = []
    for x in atlas:
        for y in atlas:
            basis = homs(x, y)
            out.extend(basis[:per_pair])
            if rng is not None and basis:
                p = x.algebra.p
                f = basis[0].scale(0)
                for b in basis:
                    f = f.add(b.scale(int(rng.integers(1, p))))
                out.append(f)
    return out


def test_diamond_squares_commute(fx):
    count = 0
    for f in _sample_morphisms(fx.atlas, per_pair=1):
        dd = diamond_diagram(f)
        dd.row1.validate()
        dd.row2.validate()
        count += 1
    assert count >= 20


def test_classification_flag_monotonicity(fx, twin):
    sample = _sample_morphisms(fx.atlas, rng=np.random.default_rng(5))
    assert len(sample) >= 100
    seen = {"R0": 0, "R1": 0, "R1_tilde": 0, "R2": 0}
    for f in sample:
        flags = classify_r(twin, f)
        assert flags["R0"] <= flags["R1"] <= flags["R2"]
        assert flags["R1"] <= flags["R1_tilde"]
        for k in seen:
            seen[k] += flags[k]
    assert all(v > 0 for v in seen.values())


def test_widest_class_maps_into_inverted_morphisms(fx, twin, model):
    hobjs = [fx.atlas[n] for n in model.heart.heart_object_names()]
    harvested = 0
    for x in hobjs:
        for y in hobjs:
            for f in homs(x, y):
                flags = classify_r(twin, f)
                if flags["R1_tilde"]:
                    assert check_g1_property(model, twin, f)
                    harvested += 1
                if flags["R1"]:
                    hf = model.heart.h.h_map(f)
                    assert in_s_a(model, hf)
                    assert model.inverts(hf, *map(model.r_object, (hf.source, hf.target)))
    assert harvested >= 1


# ---------------------------------------------------------------------------
# End to end.


def test_main_theorem_certificate(fx):
    rep = verify_main_theorem(fx.atlas, fx.subcat_obj("C"), fx.subcat_obj("D"))
    assert rep["ok"], rep["checks"]
    assert len(rep["panels"]["heart"]) == 5
    assert len(rep["panels"]["heart_dual"]) == 6
    assert len(rep["panels"]["localized"]) == 4
    assert len(rep["panels"]["localized_dual"]) == 4


def test_main_theorem_rejects_inadmissible_input(fx):
    bad = subcat(fx.atlas, fx.atlas.names)  # the whole category is not rigid
    rep = verify_main_theorem(fx.atlas, bad, fx.subcat_obj("D"))
    assert rep["ok"] is False
    assert rep["checks"]["classes_admissible"] is False


@pytest.mark.parametrize("drawn", ["both dual", "inner dual", "second ex61", "one on a copy"])
def test_main_theorem_refuses_classes_from_another_atlas(fx, drawn):
    c, d = fx.subcat_obj("C"), fx.subcat_obj("D")
    dual = fx.atlas.dual
    other = ex61()
    assert other.atlas is not fx.atlas
    if drawn == "second ex61":
        # an atlas of equal content is the same atlas
        rep = verify_main_theorem(fx.atlas, other.subcat_obj("C"), other.subcat_obj("D"))
        assert rep["ok"], rep["checks"]
        return
    if drawn == "one on a copy":
        rep = verify_main_theorem(fx.atlas, other.subcat_obj("C"), d)
        assert rep["checks"]["classes_admissible"] is False
        assert rep["error"] == "the two classes are drawn over two copies of the atlas"
        return
    outer = subcat(dual, c.names) if drawn == "both dual" else c
    rep = verify_main_theorem(fx.atlas, outer, subcat(dual, d.names))
    assert rep["ok"] is False and rep["checks"]["classes_admissible"] is False
    label = "outer" if drawn == "both dual" else "inner"
    assert rep["error"] == f"{label} class is drawn over the dual atlas, not the given one"


def test_certificate_keeps_no_atlas_alive():
    # Derived data lives on the Subcategory objects, not in module caches.
    f = ex61()
    rep = verify_main_theorem(f.atlas, f.subcat_obj("C"), f.subcat_obj("D"))
    assert rep["ok"], rep["checks"]
    ref = weakref.ref(f.atlas)
    del f, rep
    gc.collect()
    assert ref() is None


def test_omega_generators_are_over_the_callers_algebra():
    # Atlases rebuilt over alternating fields are freed and their ids reused.
    for i in range(30):
        p = 2 if i % 2 else 101
        atlas = a3_atlas(p)
        alg = atlas.members[0].algebra
        gens = subcat(atlas, atlas.names).omega_generators
        assert gens
        for g, conf in gens:
            assert g.algebra == alg and conf.b.algebra == alg and conf.c.algebra == alg


# ---------------------------------------------------------------------------
# ex61 and every recorded ladder instance: inversion counts, and quotient
# coordinates of whole Hom bases against the per-map route.

EX61_AND_LADDER = [pytest.param(None, None, None, None, id="ex61")] + ladder_instances()


def instance(n, k, c, d):
    """(atlas, C, D) of ex61 (n is None) or of a recorded ladder instance."""
    if n is None:
        f = ex61()
        return f.atlas, f.subcat_obj("C"), f.subcat_obj("D")
    atlas = nakayama_atlas(n, k)
    return atlas, subcat(atlas, c), subcat(atlas, d)


# s_a_inverted and non_s_a_separated of the primal and the dual localization
# reports, as recorded before S_A was read off Phi's block ranks.
S_A_COUNTS = {
    "ex61": ((5, 2), (7, 3)),
    "A6-rad3-0": ((3, 1), (3, 1)), "A6-rad3-1": ((3, 1), (3, 1)),
    "A6-rad3-2": ((3, 1), (3, 1)), "A6-rad3-3": ((5, 0), (5, 0)),
    "A6-rad3-4": ((4, 0), (2, 0)),
    "A8-rad3-0": ((7, 1), (7, 1)), "A8-rad3-1": ((6, 2), (6, 2)),
    "A8-rad3-2": ((6, 0), (6, 0)), "A8-rad3-3": ((7, 1), (7, 1)),
    "A8-rad3-4": ((7, 1), (7, 1)), "A8-rad3-5": ((5, 1), (7, 1)),
    "A8-rad3-6": ((6, 2), (6, 2)), "A8-rad3-7": ((6, 0), (6, 0)),
    "A10-rad3-0": ((7, 2), (7, 2)),
}


@pytest.mark.parametrize("n, k, c, d", EX61_AND_LADDER)
def test_inversion_counts_of_both_localizations(request, n, k, c, d):
    atlas, c, d = instance(n, k, c, d)
    inp = MutationInput(atlas, c, d).validate()
    twin = TwinData.build(inp)
    reports = [verify_localization(LocalizationModel.build(inp)),
               verify_localization(dual_localization_model(atlas, twin.m_mut, twin.n))]
    assert all(r["ok"] for r in reports)
    got = tuple((r["s_a_inverted"], r["non_s_a_separated"]) for r in reports)
    assert got == S_A_COUNTS[request.node.callspec.id]


def qcoords_reference(q, f):
    """One map's quotient coordinates: its coordinates over the Hom basis
    (one solve), then the quotient map."""
    basis = homs(f.source, f.target)
    qmap = q.qmatrix(f.source, f.target)
    c = la.solve(flat_columns(basis), la.column(f.flat()), q.p) if basis else la.zeros(0, 1)
    assert c is not None
    if not qmap.size:
        return (0,) * qmap.rows
    return la.matmul(qmap, c, q.p).data


def invertible_reference(q, f):
    """Invertibility modulo the ideal with one pair of composites and their
    two per-map coordinate solves per Hom(y, x) basis map."""
    x, y = f.source, f.target
    cand = homs(y, x)
    if not cand:
        ok = q.qdim(x, x) == 0 and q.qdim(y, y) == 0
        return ok, (RepMap.zero(y, x) if ok else None)
    cols = [qcoords_reference(q, b.compose(f)) + qcoords_reference(q, f.compose(b)) for b in cand]
    rhs = qcoords_reference(q, RepMap.identity(x)) + qcoords_reference(q, RepMap.identity(y))
    sol = la.solve(la.columns(cols, len(rhs)), la.column(rhs), q.p)
    if sol is None:
        return False, None
    return True, map_from_coords(cand, sol.data)


@pytest.mark.parametrize("n, k, c, d", EX61_AND_LADDER)
def test_batched_quotient_coordinates_equal_per_map_solves(n, k, c, d):
    """On every Hom pair of every quotient the certificate builds (the heart,
    H_D/[C'], H'_N/[M] and the dual model's two), `qcolumns` of the basis
    and a random combination equals the per-map route entry for entry, and
    `invertible` returns the (bool, map) of the per-basis-map loop."""
    atlas, c, d = instance(n, k, c, d)
    inp = MutationInput(atlas, c, d).validate()
    twin = TwinData.build(inp)
    model = LocalizationModel.build(inp)
    dual = dual_localization_model(atlas, twin.m_mut, twin.n)
    quotients = [model.heart.quotient, model.quotient, dual.heart.quotient, dual.quotient,
                 PseudoMoritaData.build(twin, model).q_hn]
    rng = np.random.default_rng(0)
    pairs = invertible = 0
    for q in quotients:
        for x in q.objects:
            for y in q.objects:
                basis = homs(x, y)
                maps = [RepMap.zero(x, y)]
                if basis:
                    maps = basis + [map_from_coords(basis, rng.integers(0, q.p, len(basis)))]
                want = la.columns([qcoords_reference(q, f) for f in maps], q.qdim(x, y))
                got = q.qcolumns(x, y, flat_columns(maps))
                assert got == want, (x.name, y.name)
                for f in maps:
                    ok, inv = q.invertible(f)
                    want_ok, want_inv = invertible_reference(q, f)
                    assert ok == want_ok and (inv is want_inv or same_blocks(inv.blocks, want_inv.blocks))
                    invertible += ok
                pairs += 1
    assert pairs >= 5 * 4 and invertible > 0


def test_pseudo_morita_shares_the_localization_quotient(fx, inp, twin, model):
    """The certificate builds H_D/[C'] once: the pseudo-Morita data takes
    the localization model's quotient, and refuses one of another input."""
    data = PseudoMoritaData.build(twin, model)
    assert data.q_hd is model.quotient
    assert [x.name for x in model.quotient.objects] == list(twin.hd.names)
    assert [x.name for x in model.quotient.ideal] == list(twin.cmut.names)
    other = MutationInput(fx.atlas, fx.subcat_obj("C"), fx.subcat_obj("D")).validate()
    with pytest.raises(AlgebraError, match="another mutation input"):
        PseudoMoritaData.build(TwinData.build(other), model)


def transport_reference(data: PseudoMoritaData, side: str, x: RepMap) -> RepMap:
    """K(x) (left) or K'(x) (right) of one map, by its own solve."""
    if side == "right":
        f0, f1 = data.coref(x.source).defl, data.coref(x.target).defl
        return solve_through(x.compose(f0), f1)
    f0, f1 = data.refl(x.source).infl, data.refl(x.target).infl
    return solve_extend(f1.compose(x), f0)


@pytest.mark.parametrize("n, k, c, d", EX61_AND_LADDER)
def test_batched_transport_equals_per_map_solves(n, k, c, d):
    """K and K' of a whole Hom basis, and of its image, from one solve per
    Hom space and side, equal the per-map lifts entry for entry, on the
    round trips of the certificate: K then K' on H_D, K' then K on H'_N."""
    atlas, outer, inner = instance(n, k, c, d)
    inp = MutationInput(atlas, outer, inner).validate()
    data = PseudoMoritaData.build(TwinData.build(inp), LocalizationModel.build(inp))
    batched = {"left": k_maps, "right": kprime_maps}
    ends = {"left": data.refl, "right": data.coref}
    lifted = 0
    for q, order in ((data.q_hd, ("left", "right")), (data.q_hn, ("right", "left"))):
        objs = q.nonzero_objects()
        for b0, b1 in itertools.product(objs, objs):
            xs = homs(b0, b1)
            if not xs:
                continue
            for side in order:
                got = batched[side](xs, ends[side](xs[0].source), ends[side](xs[0].target))
                assert len(got) == len(xs)
                for x, g in zip(xs, got):
                    want = transport_reference(data, side, x)
                    assert g.source.key == want.source.key and g.target.key == want.target.key
                    assert same_blocks(g.blocks, want.blocks)
                lifted += len(xs)
                xs = got
    assert lifted > 0
