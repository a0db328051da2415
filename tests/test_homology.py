import functools
import itertools

import pytest

from quiverhearts import fixtures as fx
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts.algebra import (
    AlgebraError,
    RepMap,
    decompose,
    direct_sum,
    hom_space,
    is_isomorphic,
    matrix_map,
)
from quiverhearts.heart import QuotientCategory
from quiverhearts.workspace import WORKSPACE
from lemmas import a2_atlas, classes, coords_of, is_minimal, realize
from test_batched import objects


def test_kernel_cokernel_a2():
    atlas = a2_atlas()
    p1, s1 = atlas["1/2"], atlas["1"]
    f = hom_space(p1, s1)[0]  # the projection 1/2 ->> 1
    k, inc = ho.kernel(f)
    iso, _ = is_isomorphic(k, atlas["2"])
    assert iso
    c, prj = ho.cokernel(inc)
    iso, _ = is_isomorphic(c, s1)
    assert iso


def test_conflation_validate():
    atlas = a2_atlas()
    f = hom_space(atlas["2"], atlas["1/2"])[0]
    conf = ho.conflation_from_infl(f)
    iso, _ = is_isomorphic(conf.c, atlas["1"])
    assert iso
    conf.validate()


def test_conflations_are_memoised_and_bound_to_the_caller():
    """Content-equal maps under other names share one entry.  Each call's
    conflation holds the caller's own map and the stored cokernel (kernel)
    map, which a hit returns as it is: it runs from (to) the middle term
    the miss was given, which equals the caller's, and its blocks and end
    are those the uncached `_end_map` builds."""
    atlas = fx.ex61().atlas
    WORKSPACE.clear()
    stored = {}
    for tag in ("", "'"):
        m, n, s = (atlas[x].renamed(x + tag) for x in ("34/5", "2/34/5", "2"))
        assert n == atlas["2/34/5"] and hash(n) == hash(atlas["2/34/5"])
        infl, defl = hom_space(m, n)[0], hom_space(n, s)[0]
        c = ho.conflation_from_infl(infl)
        k = ho.conflation_from_defl(defl)
        assert c.infl is infl and k.defl is defl
        assert c.defl is stored.setdefault("infl", c.defl)
        assert k.infl is stored.setdefault("defl", k.infl)
        assert c.defl.source == n and k.infl.target == n
        for got, want, end in ((c.defl, ho._end_map("infl", infl), "target"),
                               (k.infl, ho._end_map("defl", defl), "source")):
            assert got.blocks == want.blocks
            assert getattr(got, end) == getattr(want, end)
        # the ends keep the names they were built under
        assert c.c.name == "coker(2/34/5)" and k.a.name == "ker(2/34/5)"
        assert is_isomorphic(c.c, s)[0] and is_isomorphic(k.a, m)[0]
        assert WORKSPACE.stats()["conflation"] == {
            "hits": 2 if tag else 0, "misses": 2, "entries": 2
        }


def test_a_map_that_raises_leaves_no_conflation_entry():
    atlas = fx.ex61().atlas
    f = hom_space(atlas["2/34/5"], atlas["2"])[0]  # onto the top: not injective
    WORKSPACE.clear()
    for _ in range(2):
        with pytest.raises(AlgebraError, match="not injective"):
            ho.conflation_from_infl(f)
    assert WORKSPACE.stats()["conflation"] == {"hits": 0, "misses": 0, "entries": 0}


def test_projective_cover_simple():
    atlas = fx.auslander_a3_atlas()
    p, epi = ho.projective_cover(atlas["2"])
    iso, _ = is_isomorphic(p, atlas["2/34/5"])
    assert iso and epi.is_surjective()


def test_syzygy_of_simple_2():
    atlas = fx.auslander_a3_atlas()
    om, conf = ho.syzygy(atlas["2"])
    # rad P(2) = 34/5
    iso, _ = is_isomorphic(om, atlas["34/5"])
    assert iso


def test_injective_envelope():
    atlas = fx.auslander_a3_atlas()
    i, mono = ho.injective_envelope(atlas["2"])
    iso, _ = is_isomorphic(i, atlas["1/2"])
    assert iso and mono.is_injective()


def test_cover_and_envelope_multiplicities_are_the_top_and_the_socle():
    """Counted without the approximations that build them: P(v) occurs in
    the projective cover of m as often as S(v) in its top, dim m_v less the
    rank of the arrow maps into v side by side, and I(v) in the injective
    envelope as often as S(v) in its socle, dim m_v less the rank of the
    arrow maps out of v stacked.  Both maps are minimal."""
    atlas = fx.auslander_a3_atlas()
    alg = atlas.members[0].algebra
    q, p = alg.quiver, alg.p
    std = alg.standard_modules
    for m in [*atlas, *objects(atlas)]:
        p_rep, epi = ho.projective_cover(m)
        i_rep, mono = ho.injective_envelope(m)
        assert is_minimal(epi, "right") and is_minimal(mono, "left"), m.name
        tops, socles = decompose(p_rep, atlas), decompose(i_rep, atlas)
        for j, v in enumerate(q.vertices):
            into = [m.arrow_maps[aid] for aid, _, t in q.arrows if t == v]
            out = [m.arrow_maps[aid] for aid, s, _ in q.arrows if s == v]
            top = m.dims[j] - la.rank(la.hstack(into, m.dims[j]), p)
            socle = m.dims[j] - la.rank(la.vstack(out, m.dims[j]), p)
            assert tops.get(atlas.by_content[std["projective"][v]].name, 0) == top, (m.name, v)
            assert socles.get(atlas.by_content[std["injective"][v]].name, 0) == socle, (m.name, v)


def test_pushout_pullback_and_coords_of_refuse_ends_of_equal_dimensions():
    """Legs or end terms must be the same module, not modules with the same
    dimension vector: 3 + 4/5 has the dimensions of 34/5."""
    atlas = fx.auslander_a3_atlas()
    m = atlas["34/5"]
    other = direct_sum([atlas["3"], atlas["4/5"]])
    assert other.dims == m.dims and other != m
    onto_m = ho.conflation_from_infl(RepMap.identity(m))  # m >-> m ->> 0
    with pytest.raises(AlgebraError, match="share a source"):
        ho.pushout_conflation(onto_m, RepMap.zero(other, m))
    into_m = ho.conflation_from_defl(RepMap.identity(m))  # 0 >-> m ->> m
    with pytest.raises(AlgebraError, match="share a target"):
        ho.pullback_conflation(into_m, RepMap.zero(m, other))
    c = atlas["2"]
    column = [[RepMap.identity(other)], [RepMap.zero(other, c)]]
    split = ho.conflation_from_infl(matrix_map(other, direct_sum([other, c]), column))
    with pytest.raises(AlgebraError, match="end terms do not match"):
        coords_of(ho.Ext1(c, m), split)


def is_projective(m) -> bool:
    """m is projective iff its projective cover is an isomorphism."""
    p_rep, _ = ho.projective_cover(m)
    return p_rep.total_dim == m.total_dim


def test_is_projective_flags():
    atlas = fx.auslander_a3_atlas()
    for name in ("1/2/3", "2/34/5", "3/5/6", "4/5", "5/6", "6"):
        assert is_projective(atlas[name])
    for name in ("1", "2", "3", "3/5", "2/34"):
        assert not is_projective(atlas[name])


def test_ext_dim_refuses_a_negative_degree():
    atlas = fx.auslander_a3_atlas()
    c, a = atlas["1"], atlas["2"]
    assert ho.ext_dim(c, a, 1) == ho.ext1_dim(c, a)
    with pytest.raises(AlgebraError, match="negative degree"):
        ho.ext_dim(c, a, -1)


def test_ext1_a2():
    atlas = a2_atlas()
    assert ho.ext1_dim(atlas["1"], atlas["2"]) == 1
    assert ho.ext1_dim(atlas["2"], atlas["1"]) == 0
    assert ho.ext1_dim(atlas["1/2"], atlas["2"]) == 0


def test_ext1_a3_nonsplit():
    atlas = fx.a3_atlas()
    assert ho.ext1_dim(atlas["1/2"], atlas["3"]) == 1
    assert ho.ext1_dim(atlas["1"], atlas["2/3"]) == 1
    assert ho.ext1_dim(atlas["1"], atlas["3"]) == 0


def test_ext1_realize_and_coords_roundtrip():
    atlas = a2_atlas()
    ext = ho.Ext1(atlas["1"], atlas["2"])
    assert ext.dim == 1
    conf = realize(ext, [1])
    conf.validate()
    iso, _ = is_isomorphic(conf.b, atlas["1/2"])
    assert iso
    coords = coords_of(ext, conf)
    assert list(coords) == [1]
    # the zero class realizes as a split extension
    conf0 = realize(ext, [0])
    assert decompose(conf0.b, atlas) == {"1": 1, "2": 1}
    assert list(coords_of(ext, conf0)) == [0]


def test_ext1_classes_of_its_cocycles_are_the_unit_vectors():
    atlas = fx.auslander_a3_atlas()
    seen = 0
    for c in atlas:
        for a in atlas:
            ext = ho.Ext1(c, a)
            assert len(ext.cocycles) == ext.dim
            assert classes(ext, ext.cocycles) == la.eye(ext.dim)
            assert classes(ext, []).shape == (ext.dim, 0)
            seen += ext.dim > 0
    assert seen


def test_ext1_builds_its_lift_on_first_use(monkeypatch):
    """A dimension takes no right inverse of the quotient map; the first
    cocycle asked for builds it, once."""
    atlas = fx.auslander_a3_atlas()
    solves = []
    lift = ho.Ext1._lift.func
    spy = functools.cached_property(lambda self: solves.append(self) or lift(self))
    spy.__set_name__(ho.Ext1, "_lift")
    monkeypatch.setattr(ho.Ext1, "_lift", spy)
    c, a = atlas["1"], atlas["2"].renamed("a")  # content the workspace may not hold yet
    WORKSPACE.clear()
    assert ho.ext1_dim(c, a) == 1 and ho.Ext1(c, a).dim == 1
    assert solves == []
    ext = ho.Ext1(c, a)
    assert classes(ext, ext.cocycles).data == (1,)
    assert len(ext.cocycles) == 1 and len(solves) == 1
    empty = ho.Ext1(atlas["2"], atlas["1"])
    assert empty.dim == 0 and empty.cocycles == [] and len(solves) == 1


def test_ext1_auslander_known_values():
    atlas = fx.auslander_a3_atlas()
    # almost split sequence 0 -> 2 -> 1/2 + 2/34 -> ... sample values:
    assert ho.ext1_dim(atlas["1"], atlas["2"]) == 1
    assert ho.ext1_dim(atlas["2"], atlas["34/5"]) == 1
    # projectives have no extensions
    for name in ("1/2/3", "2/34/5", "3/5/6", "4/5", "5/6", "6"):
        for other in ("1", "2", "3", "4", "5", "3/5"):
            assert ho.ext1_dim(atlas[name], atlas[other]) == 0
    # nothing extends into injectives
    for name in ("1", "1/2", "2/4"):
        for other in ("3/5", "2/34", "2"):
            assert ho.ext1_dim(atlas[other], atlas[name]) == 0


def test_pushout_pullback_conflation():
    atlas = fx.auslander_a3_atlas()
    ext = ho.Ext1(atlas["1"], atlas["2"])
    conf = realize(ext, [1])
    # pushing forward along 2 -> 1/2 (the socle inclusion)
    f = hom_space(atlas["2"], atlas["1/2"])[0]
    conf2, bmap = ho.pushout_conflation(conf, f)
    conf2.validate()
    assert conf2.a == atlas["1/2"]
    # pulling back the cover conflation of 2 along 34/5 -> 0 is trivial-safe
    g = RepMap.zero(atlas["3"], conf.c)
    conf3, pmap = ho.pullback_conflation(conf, g)
    conf3.validate()
    s = direct_sum([conf.a, atlas["3"]])
    assert decompose(conf3.b, atlas) == decompose(s, atlas) == {"2": 1, "3": 1}


@pytest.mark.parametrize("build", ["pullback_conflation", "pushout_conflation"])
def test_a_wrong_section_or_retraction_fails_the_checked_leg(monkeypatch, build):
    """The corner blocks of the split middle term are certified by the leg's
    intertwining check: a section or retraction that comes back zero at one
    vertex, whichever, makes the construction raise instead of returning a
    conflation."""
    atlas = fx.auslander_a3_atlas()
    conf = realize(ho.Ext1(atlas["1/2"], atlas["2/3"]), [1])  # 2/3 >-> B ->> 1/2
    along = RepMap.identity(conf.c if build == "pullback_conflation" else conf.a)
    honest, made = ho._section, []

    def recorded(block, p):
        made.append(honest(block, p))
        return made[-1]

    monkeypatch.setattr(ho, "_section", recorded)
    honest_conf, _ = getattr(ho, build)(conf, along)
    assert is_isomorphic(honest_conf.b, conf.b)[0]
    nonzero = [k for k, s in enumerate(made) if s.any()]
    assert len(nonzero) == 3  # sections and retractions both: two of one, one of the other
    for k in nonzero:

        def zeroed_at_k(block, p, k=k, calls=itertools.count()):
            s = honest(block, p)
            return la.zeros(s.rows, s.cols) if next(calls) == k else s

        monkeypatch.setattr(ho, "_section", zeroed_at_k)
        with pytest.raises(AlgebraError, match="do not intertwine"):
            getattr(ho, build)(conf, along)


def test_factors_through():
    atlas = fx.auslander_a3_atlas()
    # 2/34/5 ->> 2 ->> ... every map 2/34/5 -> 1/2 hits the socle through 2
    f = hom_space(atlas["2/34/5"], atlas["1/2"])[0]
    assert QuotientCategory([], [atlas["2"]]).is_ideal(f)
    assert not QuotientCategory([], [atlas["3"]]).is_ideal(f)


def test_minimal_right_approximation_projectives():
    atlas = fx.auslander_a3_atlas()
    projs = [atlas[n] for n in ("1/2/3", "2/34/5", "3/5/6", "4/5", "5/6", "6")]
    approx = ho.minimal_right_approximation(projs, atlas["2"])
    # must be the projective cover P(2) = 2/34/5
    iso, _ = is_isomorphic(approx.total, atlas["2/34/5"])
    assert iso
    assert approx.map.is_surjective()
    assert is_minimal(approx.map, "right")


def test_minimal_left_approximation_injectives():
    atlas = fx.auslander_a3_atlas()
    injs = [atlas[n] for n in ("1", "1/2", "1/2/3", "2/4", "2/34/5", "3/5/6")]
    approx = ho.minimal_left_approximation(injs, atlas["2"])
    iso, _ = is_isomorphic(approx.total, atlas["1/2"])
    assert iso
    assert approx.map.is_injective()
    assert is_minimal(approx.map, "left")


def test_ext_dim_higher():
    atlas = fx.auslander_a3_atlas()
    # global dimension of an Auslander algebra is at most 2
    for a in ("1", "2", "3", "3/5"):
        for b in ("1", "2", "3", "3/5"):
            assert ho.ext_dim(atlas[a], atlas[b], 3) == 0
