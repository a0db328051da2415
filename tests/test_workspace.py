"""The content-addressed memo: same answers as the uncached paths, a hit
that returns the value its miss stored, modules that compare by content
(a renamed copy is equal, with the same hash, and gets the same entry),
one miss per distinct content key, no growth when the same instance is
certified again, and nothing kept alive once it is cleared."""

import contextlib
import gc
import io
import json
import types
import weakref
from pathlib import Path
from unittest import mock

import pytest

from quiverhearts import algebra as al
from quiverhearts import cli
from quiverhearts import cotorsion as ct
from quiverhearts import fixtures as fx
from quiverhearts import heart as ht
from quiverhearts import homology as ho
from quiverhearts import linalg as la
from quiverhearts.algebra import (
    BoundQuiverAlgebra,
    IndecSet,
    Quiver,
    Rep,
    RepMap,
    direct_sum,
    zero_rep,
)
from quiverhearts.mutation import (
    LocalizationModel,
    MutationInput,
    TwinData,
    _reflection_maps,
    _right_hd_maps,
    reflection,
    verify_main_theorem,
)
from quiverhearts.homology import Conflation
from quiverhearts.linalg import Block
from quiverhearts.workspace import WORKSPACE


def nakayama_atlas(n: int, k: int, p: int = 101) -> IndecSet:
    """Interval modules of A_n / rad^k over F_p: [i, j] with j - i < k."""
    vertices = tuple(str(v) for v in range(1, n + 1))
    arrows = tuple((f"a{v}", str(v), str(v + 1)) for v in range(1, n))
    relations = tuple(
        ((1, tuple(f"a{v}" for v in range(s, s + k))),) for s in range(1, n - k + 1)
    )
    alg = BoundQuiverAlgebra(Quiver(vertices, arrows), p, relations)
    members = []
    for i in range(1, n + 1):
        for j in range(i, min(i + k - 1, n) + 1):
            dims = [1 if i <= v <= j else 0 for v in range(1, n + 1)]
            maps = {f"a{v}": [[1]] for v in range(i, j)}
            members.append(Rep(alg, "/".join(map(str, range(i, j + 1))), dims, maps))
    return IndecSet(members)


ATLASES = {"ex61": lambda: fx.ex61().atlas, "A4/rad^2": lambda: nakayama_atlas(4, 2)}


@pytest.fixture(params=sorted(ATLASES), scope="module")
def atlas(request):
    return ATLASES[request.param]()


def same_blocks(xs, ys) -> bool:
    return list(xs) == list(ys)


def same_rep(a: Rep, b: Rep) -> bool:
    return a.name == b.name and a.key == b.key


def test_hom_space_matches_uncached(atlas):
    WORKSPACE.clear()
    for m in atlas:
        for n in atlas:
            want = al._hom_blocks(m, n)
            for _ in range(2):  # a miss, then a hit
                got = al.hom_space(m, n)
                assert len(got) == len(want)
                assert all(same_blocks(f.blocks, w) for f, w in zip(got, want))


def test_syzygy_matches_uncached(atlas):
    WORKSPACE.clear()
    for m in atlas:
        want = ho._syzygy(m)
        for _ in range(2):
            omega, conf = ho.syzygy(m)
            assert omega is conf.a
            assert same_rep(conf.a, want.a) and same_rep(conf.b, want.b)
            assert same_blocks(conf.infl.blocks, want.infl.blocks)
            assert same_blocks(conf.defl.blocks, want.defl.blocks)


def test_ext1_dim_matches_uncached(atlas):
    WORKSPACE.clear()
    for c in atlas:
        for a in atlas:
            want = ho._ext1_dim(c, a)
            assert ho.ext1_dim(c, a) == want == ho.ext1_dim(c, a)


def test_decompose_with_maps_matches_uncached(atlas):
    WORKSPACE.clear()
    ms = atlas.members
    sums = [ms[0], direct_sum([ms[1], ms[-1]]), direct_sum([ms[2], ms[2], ms[3]])]
    for m in sums:
        want = al._decompose_with_maps(m, atlas)
        for _ in range(2):
            got = al.decompose_with_maps(m, atlas)
            assert [x.name for x, _, _ in got] == [x.name for x, _, _ in want]
            for (_, inc, prj), (_, winc, wprj) in zip(got, want):
                assert same_blocks(inc.blocks, winc.blocks)
                assert same_blocks(prj.blocks, wprj.blocks)


@pytest.mark.parametrize("side", ["right", "left"])
def test_approximations_match_uncached(atlas, side):
    WORKSPACE.clear()
    approx = {"right": ho.minimal_right_approximation, "left": ho.minimal_left_approximation}
    members = ct.projectives_of(atlas).members if side == "right" else ct.injectives_of(
        atlas
    ).members
    for obj in atlas:
        want = ho._minimal_approximation(side, members, obj)
        for _ in range(2):
            got = approx[side](members, obj)
            assert got.side == side
            assert same_rep(got.total, want.total)
            assert same_blocks(got.map.blocks, want.map.blocks)
            assert [m.name for m, _ in got.parts] == [m.name for m, _ in want.parts]
            assert all(
                same_blocks(h.blocks, w.blocks) for (_, h), (_, w) in zip(got.parts, want.parts)
            )


def same_map(f: RepMap, g: RepMap) -> bool:
    """Equal ends and equal blocks."""
    return f.source == g.source and f.target == g.target and same_blocks(f.blocks, g.blocks)


def test_results_are_bound_to_the_callers_objects():
    """Hom bases run between the caller's two modules.  The other tables
    return on a hit the value their miss stored, whose modules are the ones
    the miss was given, equal to the caller's, and the ones it built."""
    atlas = fx.ex61().atlas
    m = atlas["2/34"]
    a, b = m.renamed("a"), m.renamed("b")
    assert a == b == m and hash(a) == hash(b) == hash(m)
    WORKSPACE.clear()
    for x in (a, b):
        assert all(f.source is x and f.target is x for f in al.hom_space(x, x))
    assert WORKSPACE.stats()["hom_space"]["misses"] == 1

    omega1, conf1 = ho.syzygy(a)
    omega2, conf2 = ho.syzygy(b)
    assert conf2 is conf1 and omega2 is omega1 is conf1.a
    assert conf1.defl.target is a and conf2.defl.target == b
    assert conf1.infl.source is omega1 and conf1.infl.target is conf1.defl.source
    assert all(map(same_map, conf2, ho._syzygy(b)))

    s = direct_sum([atlas["1"], m])
    got = al.decompose_with_maps(s, atlas)
    assert al.decompose_with_maps(direct_sum([atlas["1"], b]), atlas) is got
    for member, inc, prj in got:
        assert member is atlas[member.name]
        assert inc.source is member and inc.target is s
        assert prj.source is s and prj.target is member

    members = ct.projectives_of(atlas).members
    twins = [x.renamed(x.name + "'") for x in members]
    for mem in (members, twins):
        r = ho.minimal_right_approximation(mem, a)
        assert ho.minimal_right_approximation(mem, b) is r
        assert r.obj is a and r.map.target is a and r.map.source is r.total
        assert all(any(x is y for y in mem) and h.target is a for x, h in r.parts)
    # names are part of the key: the renamed members get their own entry
    names = {x.name for x, _ in ho.minimal_right_approximation(twins, a).parts}
    assert names and all(n.endswith("'") for n in names)


def test_equal_summands_do_not_collapse():
    """Equal modules are one dict key, but equal summands stay apart: x + x
    + y decomposes with multiplicities {x: 2, y: 1}, its inclusions and
    projections form a biproduct of the sum, and x + x has a minimal right
    approximation by a class that holds x; each equals its uncached
    builder."""
    atlas = fx.ex61().atlas
    x, y = atlas["2/34"], atlas["3/5"]
    WORKSPACE.clear()
    s = direct_sum([x, x, y])
    got = al.decompose_with_maps(s, atlas)
    assert al.decompose(s, atlas) == {x.name: 2, y.name: 1}
    assert sorted(m.name for m, _, _ in got) == sorted([x.name, x.name, y.name])
    split = RepMap.zero(s, s)
    for i, (mi, inc, prj) in enumerate(got):
        split = split.add(inc.compose(prj))
        for j, (_, other, _) in enumerate(got):
            back = prj.compose(other)
            one = RepMap.identity(mi)
            assert same_blocks(back.blocks, one.blocks) if i == j else back.is_zero()
    assert same_blocks(split.blocks, RepMap.identity(s).blocks)
    want = al._decompose_with_maps(s, atlas)
    assert [m for m, _, _ in got] == [m for m, _, _ in want]
    for (_, inc, prj), (_, winc, wprj) in zip(got, want, strict=True):
        assert same_map(inc, winc) and same_map(prj, wprj)

    members = ct.subcat(atlas, [x.name, y.name]).members
    xx = direct_sum([x, x])
    got = ho.minimal_right_approximation(members, xx)
    want = ho._minimal_approximation("right", members, xx)
    assert [m.name for m, _ in got.parts] == [x.name, x.name] and got.map.is_isomorphism()
    assert got.total == want.total and same_map(got.map, want.map)
    assert all(m is w and same_map(h, v) for (m, h), (w, v) in zip(got.parts, want.parts))


def test_hits_bind_the_stored_blocks():
    """A hit rebinds the stored immutable blocks themselves, no copy."""
    atlas = fx.ex61().atlas
    m, n = atlas["2/34/5"], atlas["2/34"]
    WORKSPACE.clear()
    al.hom_space(m, n)
    stored = WORKSPACE.tables["hom_space"][(m.key, n.key)]
    got = al.hom_space(m.renamed("m"), n)
    assert WORKSPACE.stats()["hom_space"] == {"hits": 1, "misses": 1, "entries": 1}
    assert len(got) == len(stored) > 0
    for f, blocks in zip(got, stored):
        assert all(b is s and type(b) is Block for b, s in zip(f.blocks, blocks))


def test_misses_equal_distinct_content_keys():
    atlas = nakayama_atlas(5, 3)
    objs = atlas.members[:6] + [x.renamed(x.name + "*") for x in atlas.members[:3]]
    distinct = {m.key for m in objs}
    assert len(distinct) == 6 < len(objs)
    # pairs whose supports share no vertex are answered without a lookup
    overlapping = {(m.key, n.key) for m in objs for n in objs if any(map(min, m.dims, n.dims))}
    assert len(overlapping) < len(distinct) ** 2
    WORKSPACE.clear()
    for m in objs:
        for n in objs:
            al.hom_space(m, n)
    assert WORKSPACE.stats()["hom_space"]["misses"] == len(overlapping)
    for m in objs:
        ho.syzygy(m)
    assert WORKSPACE.stats()["syzygy"]["misses"] == len(distinct)


def test_disjoint_supports_add_no_hom_entry():
    atlas = nakayama_atlas(5, 3)
    x, y = atlas["1"], atlas["3/4/5"]
    assert al._hom_blocks(x, y) == al._hom_blocks(y, x) == ()
    WORKSPACE.clear()
    assert al.hom_space(x, y) == al.hom_space(y, x) == []
    assert al.hom_space(x, x)
    assert WORKSPACE.stats()["hom_space"] == {"hits": 0, "misses": 1, "entries": 1}


def test_certifying_a_fresh_copy_adds_nothing():
    first = fx.ex61()
    rep1 = verify_main_theorem(first.atlas, first.subcat_obj("C"), first.subcat_obj("D"))
    before = WORKSPACE.stats()
    second = fx.ex61()
    assert second.atlas is not first.atlas
    rep2 = verify_main_theorem(second.atlas, second.subcat_obj("C"), second.subcat_obj("D"))
    after = WORKSPACE.stats()
    assert rep1["ok"] and rep2["ok"]
    assert set(after) == set(before)
    for table, counts in before.items():
        assert after[table]["misses"] == counts["misses"], table
        assert after[table]["entries"] == counts["entries"], table
    # Every table answers the copy from memory, except three the copy never
    # asks: it builds no witness, conflation or split decomposition, since
    # each one the certificate needs lies under a stored H(X), R(X),
    # reflection or quotient.
    unread = {"approximation", "conflation", "decompose_with_maps"}
    for table, counts in before.items():
        assert (after[table]["hits"] > counts["hits"]) == (table not in unread), table


def rep_taking_id(freed: int, make) -> Rep:
    """A Rep from `make`, preferring one that lands on the freed id (CPython
    usually hands a freed object's memory to the next one of its size)."""
    keep = []
    for _ in range(1000):
        y = make()
        if id(y) == freed:
            break
        keep.append(y)
    return y


def test_phi_model_pins_no_module_it_was_asked_about():
    """The Phi tables key by content and store no caller's module, so a
    module the live model was asked about is freed with its last
    reference, and a fresh module gets its own Phi-module, named after it."""
    fixture = fx.ex61()
    c = fixture.subcat_obj("C")
    pm = ht.PhiModel(c)
    g = direct_sum(c.members)
    member = fixture.atlas["2"]
    assert pm.dim(member) == sum(ho.ext1_dim(m, member) for m in pm.members)
    assert pm.dim(member) == ho.ext1_dim(g, member) == 1
    z = zero_rep(fixture.algebra)
    assert pm.module(z).total_dim == 0 and pm.phi_map(RepMap.identity(z)).shape == (0, 0)
    y = member.renamed("y")
    mod = pm.module(y)
    assert mod.name == "Phi(y)" and mod.total_dim == pm.dim(y) == 1
    assert mod.total_dim == ho.ext1_dim(g, y)
    assert pm.phi_map(RepMap.identity(y)).shape == (1, 1)
    refs = [weakref.ref(z), weakref.ref(y)]
    del z, y, mod
    gc.collect()
    assert all(ref() is None for ref in refs)  # the model is alive
    w = member.renamed("w")
    assert pm.module(w).name == "Phi(w)" and pm.module(w).total_dim == 1


def test_certificate_values_are_bound_to_a_renamed_copy():
    """R(X), the reflection and H(X) of a renamed copy: the copy equals X,
    with the same hash, and gets X's entry, the very value the miss stored,
    a `Conflation` that validates, whose ends equal the copy; its maps
    equal those the uncached builders give for the copy, and a second
    lookup adds no miss.  The second
    conflation of R(X) (Y0 >-> Z ->> D1) and of the reflection
    (V_B >-> T ->> B+) are not stored: the uncached builders give equal
    ones for the copy and for X."""
    f = fx.ex61()
    inp = MutationInput(f.atlas, f.subcat_obj("C"), f.subcat_obj("D")).validate()
    model = LocalizationModel.build(inp)
    twin = TwinData.build(inp)
    hd = model.quotient.nonzero_objects()
    # (table, objects, value, its ends that must equal the copy, its maps,
    # the uncached builder's maps)
    cases = [
        ("right_hd_approximation", f.atlas.members, model.r_object,
         lambda r: [r.c, r.defl.target], lambda r: list(r),
         lambda x: _right_hd_maps(model.pair, inp.d, x)),
        ("reflection", hd, lambda b: reflection(twin, b),
         lambda r: [r.a, r.infl.source], lambda r: list(r),
         lambda x: _reflection_maps(twin, x)),
        ("h_object", f.atlas.members, model.heart.h.h_object,
         lambda h: [h.c, h.defl.target], lambda h: [h.defl],
         lambda x: [model.heart.h._h_object(x).defl]),
    ]
    for table, objs, value, ends, maps_of, uncached in cases:
        for x in objs:
            want = value(x)
            copy = x.renamed("copy")
            assert copy == x and hash(copy) == hash(x)
            misses = WORKSPACE.stats()[table]["misses"]
            for _ in range(2):
                got = value(copy)
                assert got is want, (table, x.name)
                assert isinstance(got, Conflation) and got.validate() is got, (table, x.name)
                assert all(end == copy for end in ends(got)), (table, x.name)
            fresh = uncached(copy)
            assert all(map(same_map, maps_of(got), fresh)), (table, x.name)
            assert all(map(same_map, fresh, uncached(x))), (table, x.name)
            if len(fresh) > 2:
                Conflation(*fresh[2:]).validate()
            if table == "h_object":
                assert got.defl.is_surjective() and got.b == got.defl.source
            assert WORKSPACE.stats()[table]["misses"] == misses, (table, x.name)


def decomposition_maps(x, atlas, cached=True):
    decompose = al.decompose_with_maps if cached else al._decompose_with_maps
    return [f for _, inc, prj in decompose(x, atlas) for f in (inc, prj)]


def conflation_maps(x, atlas, cached=True):
    """The kernel conflations of the deflations out of x and the cokernel
    conflations of the inflations into x, among the Hom basis maps."""

    def conflation(kind, h):
        if cached:
            return (ho.conflation_from_defl if kind == "defl" else ho.conflation_from_infl)(h)
        g = ho._end_map(kind, h)
        return Conflation(g, h) if kind == "defl" else Conflation(h, g)

    out = []
    for y in atlas:
        for h in al.hom_space(x, y):
            out += conflation("defl", h) if h.is_surjective() else []
        for h in al.hom_space(y, x):
            out += conflation("infl", h) if h.is_injective() else []
    return out


def approximation_parts_maps(a: ho.Approximation) -> list[RepMap]:
    """The map, then each part's map."""
    return [a.map, *(h for _, h in a.parts)]


def approximation_maps(x, atlas, cached=True):
    right = ct.projectives_of(atlas).members, ho.minimal_right_approximation
    left = ct.injectives_of(atlas).members, ho.minimal_left_approximation
    out = []
    for side, (members, approx) in (("right", right), ("left", left)):
        got = approx(members, x) if cached else ho._minimal_approximation(side, members, x)
        out += approximation_parts_maps(got)
    return out


# (table, the objects, their maps from the table, given the atlas, or from
# the uncached builders)
CONTENT_TABLES = {
    "syzygy": (
        lambda atlas: atlas.members,
        lambda x, atlas, cached=True: list(ho.syzygy(x)[1] if cached else ho._syzygy(x)),
    ),
    "conflation": (lambda atlas: atlas.members, conflation_maps),
    "approximation": (lambda atlas: atlas.members, approximation_maps),
    "decompose_with_maps": (
        lambda atlas: [direct_sum([m, atlas.members[-1]]) for m in atlas],
        decomposition_maps,
    ),
}


@pytest.mark.parametrize("table", sorted(CONTENT_TABLES))
def test_content_values_are_bound_to_a_renamed_copy(atlas, table):
    """A renamed copy b of a module a equals it, with the same hash, and
    gets a's entries: each of b's maps is a's map that the table stores
    (all but the maps a caller hands `conflation_from_defl` and
    `conflation_from_infl`, which come back as given), so its ends equal
    a's ends by role, and are the very atlas members where a's are.  The
    blocks and ends equal those of the uncached builders, and b's lookups
    add no miss."""
    objects, maps_of = CONTENT_TABLES[table]
    for x in objects(atlas):
        a, b = x.renamed("a"), x.renamed("b")
        assert a == b == x and hash(a) == hash(b) == hash(x)
        want = maps_of(a, atlas)
        misses = WORKSPACE.stats()[table]["misses"]
        for _ in range(2):
            got = maps_of(b, atlas)
            assert len(got) == len(want) > 0, (table, x.name)
            for g, w in zip(got, want):
                assert g is w or any(e is b for e in (g.source, g.target)), (table, x.name)
                for ge, we in ((g.source, w.source), (g.target, w.target)):
                    assert ge == we and hash(ge) == hash(we), (table, x.name)
                    assert ge is we or not any(we is m for m in atlas), (table, x.name)
            assert all(map(same_map, got, maps_of(b, atlas, cached=False))), (table, x.name)
        assert WORKSPACE.stats()[table]["misses"] == misses, (table, x.name)


@pytest.mark.parametrize("side", ["right", "left"])
def test_an_approximated_member_binds_parts_and_map_by_role(atlas, side):
    """A member approximated by a class that holds it, and then a renamed
    copy of it, equal to it with the same hash: both get the approximation
    the miss stored, which equals a fresh `_minimal_approximation` of
    either, with the parts on the members and the map between the object
    and the sum, by role."""
    approx = {"right": ho.minimal_right_approximation, "left": ho.minimal_left_approximation}
    members = ct.projectives_of(atlas).members
    total = {"right": 0, "left": 1}[side]
    WORKSPACE.clear()
    for x in members:
        stored = approx[side](members, x)
        assert stored.obj is x
        for obj in (x, x.renamed("copy")):
            assert obj == x and hash(obj) == hash(x)
            want = ho._minimal_approximation(side, members, obj)
            for _ in range(2):
                got = approx[side](members, obj)
                assert got is stored and got.obj == obj and got.total == want.total
                ends = [(f.source, f.target) for f in approximation_parts_maps(got)]
                assert ends[0][1 - total] is x and ends[0][total] is got.total
                assert ends == [(f.source, f.target) for f in approximation_parts_maps(want)]
                assert all(m is w for (m, _), (w, _) in zip(got.parts, want.parts, strict=True))
                pairs = zip(approximation_parts_maps(got), approximation_parts_maps(want))
                assert all(same_map(g, w) for g, w in pairs)
    assert WORKSPACE.stats()["approximation"]["misses"] == len(members)


def test_quotient_hom_data_ignores_a_reused_id():
    """An empty cached Hom is not handed to a later Rep that gets the same id."""
    atlas = fx.ex61().atlas
    qc = ht.QuotientCategory(atlas.members, [])
    b = atlas["2"]
    a = next(x for x in atlas if not al.hom_space(x, b))
    x = a.renamed("x")
    assert qc.qdim(x, b) == 0
    freed = id(x)
    del x
    w = rep_taking_id(freed, lambda: b.renamed("w"))
    assert qc.qdim(w, b) == len(al.hom_space(w, b)) > 0


def test_clear_releases_the_algebra():
    # F_13 is a field no other test builds the algebra over, so no equal
    # algebra from an earlier test can stand in for this one in a table.
    # The opposite refers back to this algebra, so it cannot outlive it either.
    f = fx.ex61(13)
    ref = weakref.ref(f.algebra)
    rep = verify_main_theorem(f.atlas, f.subcat_obj("C"), f.subcat_obj("D"))
    assert rep["ok"], rep["checks"]
    del f, rep
    WORKSPACE.clear()
    gc.collect()
    assert ref() is None


def reachable_blocks(root) -> list[Block]:
    """Every block reachable from `root`, each object once, through
    containers and instance dicts; types, modules and functions are not
    followed."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if type(obj) is Block:
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_stored_values_hold_the_shared_blocks():
    """After a recorded A6/rad^3 certificate, every empty or unit block that
    the memo reaches is `linalg`'s shared object for its value.  The other
    blocks of at most one entry are 1x1 blocks of p - 1, whose value depends
    on p, so the table keeps none."""
    ladder = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    rung = json.loads((ladder / "nakayama-ladder.json").read_text())["rungs"][0]
    inst = rung["pool"][0]
    atlas = nakayama_atlas(rung["n"], rung["k"])
    WORKSPACE.clear()
    rep = verify_main_theorem(atlas, ct.subcat(atlas, inst["c"]), ct.subcat(atlas, inst["d"]))
    assert (rung["n"], rung["k"]) == (6, 3) and rep["ok"], rep["checks"]
    small = [b for b in reachable_blocks(WORKSPACE.tables) if b.size <= 1]
    shared = [b for b in small if b in la._SHARED]
    assert shared and len(shared) == len(set(shared))  # one object per value
    assert all(b is la._SHARED[b] for b in shared)
    p = atlas.members[0].algebra.p
    assert all(b.shape == (1, 1) and b.data == (p - 1,) for b in small if b not in la._SHARED)


def test_a_large_field_adds_no_shared_block():
    """The shared table is a constant: a certificate over F_65537 leaves it
    as it was, object for object."""
    before = {k: id(v) for k, v in la._SHARED.items()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["demo", "ex61", "verify-main-theorem", "--field", "65537"])
    assert code == 0 and out.getvalue().endswith("ok: true\n")
    assert {k: id(v) for k, v in la._SHARED.items()} == before


def class_answers(f) -> dict:
    """The (RCP) reports, (RCP) pairs, perps and Cone/CoCone classes of the
    classes C, D and C-perp of an ex61 copy, as plain names and reports."""
    c, d = f.subcat_obj("C"), f.subcat_obj("D")
    cperp = ct.perp_right(c)
    out = {}
    for label, x in (("C", c), ("D", d), ("C_perp", cperp)):
        out[label] = (
            ct.satisfies_rcp(x), ct.satisfies_rcp_dual(x),
            ct.perp_right(x).names, ct.perp_left(x).names,
        )
    for label, x in (("C", c), ("D", d)):
        pair = x.rigid_pair
        out[label + " pair"] = (pair.u.names, pair.v.names)
    for bp, bpp in ((d, c), (c, c), (d, d), (cperp, cperp)):
        out[bp.names, bpp.names] = (
            ct.cocone_objects(bp, bpp).names, ct.cone_objects(bp, bpp).names,
        )
    return out


def test_a_fresh_copy_reads_its_class_answers_from_the_workspace():
    """A second copy of the instance gets every class answer by content: no
    approximation is asked for, and no approximation or conflation is
    built."""
    want = class_answers(fx.ex61())
    before = WORKSPACE.stats()
    with mock.patch.object(ct, "_approximation", wraps=ct._approximation) as spy:
        got = class_answers(fx.ex61())
    after = WORKSPACE.stats()
    assert got == want
    assert not spy.called
    for table in ("approximation", "conflation"):
        assert after[table]["misses"] == before[table]["misses"], table
    for table in ("rcp", "perp", "cone_objects", "cotorsion_pair"):
        assert after[table]["misses"] == before[table]["misses"], table
        assert after[table]["hits"] > before[table]["hits"], table


def test_a_failed_pair_check_stores_nothing():
    """A build that raises, in the witness loop or on Ext-orthogonality,
    leaves no entry and raises again."""
    f = fx.ex61()
    c, full = f.subcat_obj("C"), ct.subcat(f.atlas, f.atlas.names)
    for u, v, why in ((c, c, "not in the second class"), (full, full, "does not vanish")):
        for _ in range(2):
            misses = WORKSPACE.stats().get("cotorsion_pair", {}).get("misses", 0)
            with pytest.raises(al.AlgebraError, match=why):
                ct.build_cotorsion_pair(u, v)
            assert (u.key, v.names) not in WORKSPACE.tables.get("cotorsion_pair", {})
            assert WORKSPACE.stats().get("cotorsion_pair", {}).get("misses", 0) == misses


def test_a_checked_pair_builds_the_witnesses_of_the_miss_path():
    """A pair returned from a hit builds each member's witnesses on lookup:
    equal to the witnesses its check built, and made of the maps that the
    check stored wherever it approximated."""
    first = fx.ex61()
    WORKSPACE.clear()
    c = first.subcat_obj("C")
    built = ct.build_cotorsion_pair(c, ct.perp_right(c))
    assert len(built.witnesses) == len(first.atlas)
    second = fx.ex61()
    c2 = second.subcat_obj("C")
    pair = ct.build_cotorsion_pair(c2, ct.perp_right(c2))
    assert WORKSPACE.stats()["cotorsion_pair"] == {"hits": 1, "misses": 1, "entries": 1}
    assert not pair.witnesses
    for b in second.atlas:
        for conf, ref in zip(pair.witnesses[b.name], built.witnesses[b.name], strict=True):
            conf.validate()
            assert (conf.a, conf.b, conf.c) == (ref.a, ref.b, ref.c)
            assert same_blocks(conf.infl.blocks, ref.infl.blocks)
            assert same_blocks(conf.defl.blocks, ref.defl.blocks)
            # a witness through 1_b is built again; an approximated one is
            # made of the maps that the check stored
            assert conf.b == b or conf.infl is ref.infl and conf.defl is ref.defl
        assert pair.witness("right", b) is pair.witnesses[b.name][0]
    assert len(pair.witnesses) == len(second.atlas)
    # the stored check does not stand in for classes over two atlases
    with pytest.raises(al.AlgebraError, match="different atlases"):
        ct.build_cotorsion_pair(c2, ct.perp_right(c))
