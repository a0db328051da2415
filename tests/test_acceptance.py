"""End-to-end acceptance suite.

Each test certifies one headline guarantee of the engine on the bundled
demo data or against an independent oracle:

 1. the full equivalence certificate on the first demo fixture,
 2. the non-rigid mutation on the second demo fixture,
 3. Ext dimensions against a brute-force extension enumerator,
 4. cocone membership against the complete conflation search,
 5. the half-exact functor H (exactness, kernel class, heart restriction),
 6. the approximation pipeline clauses on every atlas object,
 7. density / fullness / faithfulness of both localization functors,
 8. round-trip natural isomorphisms and the mutation biconditional,
 9. the morphism classification flags and what they imply,
10. byte-identical command output under a fixed seed.
"""

import time

import numpy as np
import pytest

from quiverhearts import cli
from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import linalg as la
from quiverhearts.homology import Conflation, Ext1, ext1_dim, homs
from quiverhearts.mutation import (
    LocalizationModel,
    MutationInput,
    PseudoMoritaData,
    TwinData,
    classify_r,
    dual_localization_model,
    ext2_rigidity_criterion,
    in_s_a,
    mutation_condition_equivalence,
    right_mutation,
    verify_localization,
    verify_main_theorem,
    verify_pseudo_morita,
    _right_hd_maps,
)
from quiverhearts import oracles, problemfile
from quiverhearts.workspace import WORKSPACE
from lemmas import (
    a2_atlas, check_g1_property, check_syzygyepi, heart_epi, heart_morphisms, is_approximation,
    realize, realize_heart_kernel, realize_ses_in_heart, star_membership,
    verify_factors_through_p, verify_hd_moreover,
)


@pytest.fixture(scope="module")
def ex61():
    return fx.ex61()


@pytest.fixture(scope="module")
def inp(ex61):
    return MutationInput(ex61.atlas, ex61.subcat_obj("C"), ex61.subcat_obj("D")).validate()


@pytest.fixture(scope="module")
def twin(inp):
    return TwinData.build(inp)


@pytest.fixture(scope="module")
def model(inp):
    return LocalizationModel.build(inp)


@pytest.fixture(scope="module")
def dual_model(ex61, twin):
    return dual_localization_model(ex61.atlas, twin.m_mut, twin.n)


@pytest.fixture(scope="module")
def report(ex61):
    return verify_main_theorem(ex61.atlas, ex61.subcat_obj("C"), ex61.subcat_obj("D"))


def _names(sub):
    return set(sub.names)


# ---------------------------------------------------------------------------
# 1. Full equivalence certificate on the first demo fixture.


def test_1_demo_equivalence_end_to_end(capsys, ex61, inp, twin, report):
    assert cli.main(["demo", "ex61", "verify-main-theorem"]) == 0
    capsys.readouterr()

    # (a) all three classes satisfy the rigidity hypotheses
    for sub in (inp.c, inp.d, twin.cmut):
        assert ct.is_rigid(sub)
        assert ct.satisfies_rcp(sub)[0]

    # (b) orthogonal and co-class panels
    panels = ex61.subcats
    assert _names(ct.perp_right(inp.c)) == set(panels["C_perp"])
    assert _names(ct.perp_right(inp.d)) == set(panels["D_perp"])
    assert _names(ct.perp_right(twin.cmut)) == set(panels["C_mut_perp"])
    assert _names(twin.m) == set(panels["M"])
    assert _names(twin.m_mut) == set(panels["M_mut"])
    assert _names(twin.n) == set(panels["N"])

    # (c) the mutation itself
    assert _names(right_mutation(inp)) == set(panels["C_mut"])

    # (d) heart sizes on both sides
    assert len(report["panels"]["heart"]) == 5
    assert set(report["panels"]["heart"]) == set(panels["heart"])
    assert len(report["panels"]["heart_dual"]) == 6
    assert set(report["panels"]["heart_dual"]) == set(panels["heart_mut"])

    # (e) localized models: 4 objects each, equivalent as categories
    assert len(report["panels"]["localized"]) == 4
    assert len(report["panels"]["localized_dual"]) == 4
    assert set(report["panels"]["localized"]) == set(panels["heart_localized"])
    assert set(report["panels"]["localized_dual"]) == set(panels["heart_mut_localized"])
    assert report["checks"]["localized_quivers_isomorphic"]
    morita = report["morita"]
    assert morita["object_bijection"] and morita["hom_dims_match"]
    assert report["ok"]


# ---------------------------------------------------------------------------
# 2. Non-rigid mutation on the second demo fixture.


def test_2_nonrigid_mutation_demo():
    f62 = fx.ex62()
    inp62 = MutationInput(f62.atlas, f62.subcat_obj("C"), f62.subcat_obj("D")).validate()
    cmut = right_mutation(inp62)
    assert _names(cmut) == set(f62.subcats["C_mut"])
    assert not ct.is_rigid(cmut)
    assert ext2_rigidity_criterion(inp62) is False


# ---------------------------------------------------------------------------
# 3. Ext dimensions against the brute-force enumerator.


def test_3_ext_dimensions_match_bruteforce():
    start = time.monotonic()
    for atlas in (a2_atlas(2), fx.a3_atlas(2)):
        for c in atlas:
            for a in atlas:
                assert ext1_dim(c, a) == oracles.ext1_dim_bruteforce(c, a), (
                    c.name,
                    a.name,
                )
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 4. Cocone membership against the complete search.


def test_4_cocone_matches_exhaustive_search():
    rng = np.random.default_rng(4)
    for atlas in (a2_atlas(2), fx.a3_atlas(2)):
        subs = [
            ct.projectives_of(atlas),
            ct.injectives_of(atlas),
            ct.subcat(atlas, atlas.names),
            fx.random_rigid_subcat(atlas, rng),
            fx.random_rigid_subcat(atlas, rng, stop_chance=0.3),
        ]
        for bp in subs:
            for bpp in subs:
                for x in atlas:
                    got, conf = ct.cocone_membership(x, bp, bpp)
                    brute = ct.cocone_membership_bruteforce(x, bp, bpp)
                    assert got == (brute is not None), (x.name, bp.names, bpp.names)
                    if got:
                        conf.validate()


# ---------------------------------------------------------------------------
# 5. The half-exact functor H.


def test_5_half_exact_functor(ex61, model):
    hm = model.heart
    p = ex61.algebra.p
    # exact in the middle on every basis conflation
    for a in ex61.atlas:
        for c in ex61.atlas:
            if ext1_dim(c, a) == 0:
                continue
            e = Ext1(c, a)
            for j in range(e.dim):
                conf = realize(e, [int(i == j) for i in range(e.dim)])
                m1 = hm.phi.phi_map(hm.h.h_map(conf.infl))
                m2 = hm.phi.phi_map(hm.h.h_map(conf.defl))
                mid = hm.phi.module(hm.h.h_object(conf.b).b).total_dim
                assert not la.matmul(m2, m1, p).any()
                assert la.rank(m1, p) == mid - la.rank(m2, p), (c.name, a.name)
    # kernel class: H kills exactly the extension-closed sum class
    for x in ex61.atlas:
        assert hm.h.is_zero_h(x) == star_membership(x, hm.pair), x.name
    # restriction to the heart is the quotient projection up to iso
    for n in ex61.subcats["heart"]:
        hx = hm.h.h_object(ex61.atlas[n])
        assert hm.quotient.invertible(hx.defl)[0], n


# ---------------------------------------------------------------------------
# 6. The approximation pipeline, clause by clause.


def test_6_pipeline_clauses_every_object(ex61, twin, model):
    for x in ex61.atlas:
        res = model.r_object(x)
        res.validate()
        # Y0 >-> Z ->> D1, which R(X) does not keep, from the uncached builder
        Conflation(*_right_hd_maps(model.pair, model.inp.d, x)[2:]).validate()
        # (i) middle term in the cocone class
        assert ct.cocone_membership(res.b, model.inp.d, model.pair.u)[0], x.name
        # (ii) kernel orthogonal to the inner class
        assert all(ext1_dim(m, res.a) == 0 for m in model.inp.d.members), x.name
        assert is_approximation("right", model.hd.members, res.defl), x.name  # (iii)
        assert verify_hd_moreover(res, twin.cperp, ex61.atlas), x.name  # (iv)


def test_6_syzygy_approximation_exhaustive(ex61, model):
    hm = model.heart
    omega = ct.cocone_objects(ct.projectives_of(ex61.atlas), hm.pair.u)  # Omega(U)
    for x in ex61.atlas:
        f0 = ht.syzygy_approximation(hm.pair, x).defl
        assert is_approximation("right", omega.members, f0), x.name
    for x in ex61.atlas:
        for b in ex61.atlas:
            assert verify_factors_through_p(hm.pair, x, b), (
                x.name,
                b.name,
            )


def test_6_epi_deflations_lift(ex61, model):
    hm = model.heart
    checked = 0
    for g in heart_morphisms(ex61, 400, seed=6):
        if g.is_surjective() and heart_epi(hm, g):
            assert check_syzygyepi(hm, g)
            checked += 1
        if checked >= 50:
            break
    assert checked >= 50


def test_6_short_exact_sequences_realize(ex61, model):
    hm = model.heart
    realized = 0
    for g in heart_morphisms(ex61, 600, seed=16):
        if not (g.is_surjective() and heart_epi(hm, g) and not ht.heart_mono(hm, g)):
            continue
        conf = realize_ses_in_heart(hm, g)
        conf.validate()
        kobj = realize_heart_kernel(hm, g)
        assert hm.phi.module(kobj).total_dim == ht.heart_kernel_dim(hm, g)
        realized += 1
        if realized >= 20:
            break
    assert realized >= 20


# ---------------------------------------------------------------------------
# 7. Localization functor certificates, primal and dual.


def _exhaustive_faithfulness(model):
    # R(f) vanishes mod the mutated class exactly when f already does,
    # checked on every hom basis element of the intermediate quotient
    q = model.quotient
    objs = [x for x in q.objects if not q.is_zero_object(x)]
    for x in objs:
        for y in objs:
            rx, ry = model.r_object(x), model.r_object(y)
            for f in homs(x, y):
                assert q.is_ideal(f) == q.is_ideal(model.r_map(f, rx, ry)), (x.name, y.name)


def test_7_localization_certificates(model, dual_model):
    for idx, mdl in enumerate((model, dual_model)):
        rep = verify_localization(mdl)
        assert rep["density"], idx
        assert rep["fullness"], idx
        assert rep["inversion"], idx
        assert rep["ok"], idx
        _exhaustive_faithfulness(mdl)


# ---------------------------------------------------------------------------
# 8. Round trips and the mutation biconditional.


def test_8_round_trip_natural_isomorphisms(twin, model):
    data = PseudoMoritaData.build(twin, model)
    rep = verify_pseudo_morita(data)  # naturality on full hom bases
    assert rep["unit_iso"] and rep["counit_iso"]
    assert rep["unit_natural"] and rep["counit_natural"]
    assert rep["object_bijection"] and rep["hom_dims_match"]


def test_8_mutation_biconditional(ex61, inp, twin):
    lhs, rhs = mutation_condition_equivalence(inp, twin.cmut)
    assert lhs and rhs
    # falsified candidate: both sides must flip together
    lhs, rhs = mutation_condition_equivalence(inp, inp.d)
    assert lhs == rhs is False
    rng = np.random.default_rng(8)
    tried = 0
    while tried < 10:
        c, d = fx.random_mutation_instance(ex61.atlas, rng)
        cand = MutationInput(ex61.atlas, c, d)
        try:
            cand.validate()
        except Exception:
            continue
        cmut = right_mutation(cand)
        lhs, rhs = mutation_condition_equivalence(cand, cmut)
        assert lhs == rhs, (c.names, d.names)
        tried += 1


# ---------------------------------------------------------------------------
# 9. Morphism classification flags.


def _spanning_morphisms(atlas, rng):
    out = []
    for x in atlas:
        for y in atlas:
            basis = homs(x, y)
            out.extend(basis[:3])
            if basis:
                p = x.algebra.p
                f = basis[0].scale(0)
                for b in basis:
                    f = f.add(b.scale(int(rng.integers(1, p))))
                out.append(f)
    return out


def test_9_flag_monotonicity_and_consequences(ex61, twin, model):
    sample = _spanning_morphisms(ex61.atlas, np.random.default_rng(9))
    assert len(sample) >= 100
    seen = {"R0": 0, "R1": 0, "R1_tilde": 0, "R2": 0}
    for f in sample:
        flags = classify_r(twin, f)
        assert flags["R0"] <= flags["R1"] <= flags["R2"]
        assert flags["R1"] <= flags["R1_tilde"]
        for k in seen:
            seen[k] += flags[k]
    assert all(v > 0 for v in seen.values())

    hobjs = [ex61.atlas[n] for n in model.heart.heart_object_names()]
    harvested_wide = harvested_r1 = 0
    for x in hobjs:
        for y in hobjs:
            for f in homs(x, y):
                flags = classify_r(twin, f)
                if flags["R1_tilde"]:
                    assert check_g1_property(model, twin, f)
                    harvested_wide += 1
                if flags["R1"]:
                    hf = model.heart.h.h_map(f)
                    assert in_s_a(model, hf)
                    assert model.inverts(hf, *map(model.r_object, (hf.source, hf.target)))
                    harvested_r1 += 1
    assert harvested_wide >= 1 and harvested_r1 >= 1


# ---------------------------------------------------------------------------
# 10. Determinism under a fixed seed.


DETERMINISM_COMMANDS = [
    ["demo", "ex61", "check"],
    ["demo", "ex61", "perp", "C"],
    ["demo", "ex61", "rigid", "C"],
    ["demo", "ex61", "cotorsion", "C"],
    ["demo", "ex61", "heart", "C"],
    ["demo", "ex61", "mutate", "--seed", "5"],
    ["demo", "ex61", "localize", "--seed", "5"],
    ["demo", "ex61", "verify-main-theorem", "--seed", "5", "--print-panels"],
    ["demo", "ex61", "classify-morphism", "3", "2/34"],
    ["demo", "ex61", "export-dot", "localized"],
    ["demo", "ex62", "mutate"],
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS, ids=lambda a: " ".join(a))
def test_10_output_is_deterministic(capsys, argv):
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out.encode()
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out.encode()
    assert code1 == code2
    assert out1 == out2


# Certificate values memoised by content; a second round of the commands
# rebuilds none of them.  No command builds Phi(x) as a module (`phi_module`).
CERTIFICATE_TABLES = (
    "h_object", "phi_ext", "phi_map", "quotient_hom", "reflection", "right_hd_approximation",
)


def test_10_a_second_round_rebuilds_no_certificate_value(capsys, tmp_path):
    path = tmp_path / "ex61.qh"
    problem = problemfile.problem_from_fixture(fx.ex61())
    path.write_text(problemfile.serialize(problem), encoding="utf-8")
    commands = [*DETERMINISM_COMMANDS, ["verify-main-theorem", str(path), "C", "D"]]
    rounds = []
    for _ in range(2):
        outs = []
        for argv in commands:
            code = cli.main(list(argv))
            outs.append((code, capsys.readouterr().out.encode()))
        rounds.append((outs, WORKSPACE.stats()))
    (first, after_first), (second, after_second) = rounds
    assert first == second
    for table in CERTIFICATE_TABLES:
        assert after_second[table]["misses"] == after_first[table]["misses"], table
        assert after_second[table]["hits"] > after_first[table]["hits"], table
