"""Hearts of cotorsion pairs, in two presentations.

For a cotorsion pair (U, V) with U rigid, the heart is the ideal quotient
H/U where H = CoCone(U, U).  The engine carries the heart both as a
quotient category (hom spaces modulo morphisms factoring through U) and as
a module category over the stable endomorphism algebra Gamma of G = the
sum of the U-members, via X |-> Ext^1(G, X).  A Gamma-module is a `Rep` of
Gamma's loop quiver (one vertex, one loop per basis element of Gamma), so
its Hom spaces, kernels and cokernels come from `hom_space`, `kernel` and
`cokernel` like any module's.  The two presentations are bridged by
dimension assertions; epi/mono/kernel/cokernel questions are answered in
the module model where they are plain linear algebra.  H(X) is the
conflation V0 >-> B^- ->> X built from the pair's own witnesses
(`CotorsionPair.witness`), and is stored as that conflation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from . import linalg as la
from .algebra import (
    AlgebraError,
    BoundQuiverAlgebra,
    IndecSet,
    Quiver,
    Rep,
    RepMap,
    _radical_of_span,
    composite_columns,
    direct_sum,
    flat_columns,
    hom_dim,
    map_from_coords,
    meets,
)
from .cotorsion import (
    CotorsionPair,
    Subcategory,
    _identity_conflation,
    cocone_objects,
    projectives_of,
)
from .homology import (
    Conflation,
    Ext1,
    cokernel,
    ext1_dim,
    homs,
    kernel,
    pullback_conflation,
    syzygy,
)
from .linalg import Block
from .workspace import WORKSPACE


def solve_through(f: RepMap, g: RepMap) -> RepMap | None:
    """h with g o h = f, if one exists (f: X->Z, g: Y->Z)."""
    return _solve("right", f, g)


def solve_extend(f: RepMap, g: RepMap) -> RepMap | None:
    """h with h o g = f, if one exists (g: X->Y, f: X->Z)."""
    return _solve("left", f, g)


def _solve(side: str, f: RepMap, g: RepMap) -> RepMap | None:
    """h composed with g on the right (g o h = f) or on the left (h o g = f)."""
    src, tgt = (f.source, g.source) if side == "right" else (g.target, f.target)
    basis, sol = solve_columns(side, g, src, tgt, la.column(f.flat()))
    if sol is None:
        return None
    return map_from_coords(basis, sol.data) if basis else RepMap.zero(src, tgt)


def solve_columns(side: str, g: RepMap, src: Rep, tgt: Rep, cols: Block):
    """(the Hom(src, tgt) basis, over it the coordinates of one h per column
    of `cols`) from one solve, where each column holds the flat entries of
    a map f and g o h = f (right) or h o g = f (left); the coordinates are
    None when some f has no such h."""
    basis = homs(src, tgt)
    if not basis:
        a = la.zeros(cols.rows, 0)
    else:
        a = composite_columns([g], basis) if side == "right" else composite_columns(basis, [g])
    return basis, la.solve(a, cols, g.p)


# ---------------------------------------------------------------------------
# Quotient categories.


class QuotientCategory:
    """An additive category with hom spaces Hom_B(X, Y) / [ideal](X, Y)."""

    def __init__(self, objects: list[Rep], ideal: list[Rep]):
        self.objects = list(objects)
        self.ideal = list(ideal)
        if not (self.objects or self.ideal):
            raise AlgebraError("a quotient category needs an object or an ideal member")
        self.p = (self.objects or self.ideal)[0].algebra.p
        self._ideal_key = tuple(t.key for t in self.ideal)

    def _hom_data(self, x: Rep, y: Rep):
        """(full basis, its flat entries as columns, quotient map
        coords->quotient coords, representatives), the stored entry bound
        to the caller's x and y."""
        basis = homs(x, y)
        flats, qmap, idx = self._entry(x, y, basis)
        return basis, flats, qmap, basis if idx is None else [basis[i] for i in idx]

    def _entry(self, x: Rep, y: Rep, basis: list[RepMap] | None = None) -> tuple:
        """(flats, qmap, the representatives' basis positions, None for the
        whole basis), memoised by the content of the ideal's members in
        order and of x and y."""
        key = (self._ideal_key, x.key, y.key)
        return WORKSPACE.memo("quotient_hom", key, self._hom_parts, x, y, basis)

    def _hom_parts(self, x: Rep, y: Rep, basis: list[RepMap] | None) -> tuple:
        basis = homs(x, y) if basis is None else basis
        n = len(basis)
        flat_dim = sum(a * b for a, b in zip(x.dims, y.dims))
        flats = flat_columns(basis) if n else la.zeros(flat_dim, 0)
        # Every ideal composite v o u, solved against the basis in one go; a
        # member sharing no vertex with x or with y has no Hom to ask for.
        blocks = []
        for t in self.ideal:
            if meets(t, x) and meets(t, y):
                into = homs(x, t)
                if into:
                    blocks.append(composite_columns(homs(t, y), into))
        comps = la.hstack(blocks, flat_dim)
        if not comps.any():  # nothing to divide by: the basis is the quotient basis
            return flats, la.eye(n), None
        img = la.solve(flats, comps, self.p)
        if img is None:  # for n = 0 too: every composite must then vanish
            raise AlgebraError("ideal composite outside hom space")
        qmap = la.quotient_map(img, n, self.p)
        # representatives: the basis maps at the pivot columns of rref(qmap),
        # the first whose classes span the quotient (none when it is zero)
        return flats, qmap, tuple(la.rref(qmap, self.p)[1]) if qmap.rows else ()

    def qdim(self, x: Rep, y: Rep) -> int:
        return self._entry(x, y)[1].rows

    def qcolumns(self, x: Rep, y: Rep, cols: Block) -> Block:
        """Quotient coordinates of the maps x -> y whose flat entries are the
        columns of `cols`, (qdim, columns), from one solve against the
        stacked basis; a solve is column by column, so each column is what
        it would be alone."""
        flats, qmap, _ = self._entry(x, y)
        if flats.cols:
            sol = la.solve(flats, cols, self.p)
        else:  # Hom(x, y) = 0
            sol = None if cols.any() else la.zeros(0, cols.cols)
        if sol is None:
            raise AlgebraError("morphism outside hom space")
        # a quotient map onto all n coordinates is the identity
        if qmap.rows == qmap.cols:
            return sol
        return la.matmul(qmap, sol, self.p) if qmap.size else la.zeros(0, cols.cols)

    def qcoords(self, f: RepMap) -> tuple[int, ...]:
        return self.qcolumns(f.source, f.target, la.column(f.flat())).data

    def is_ideal(self, f: RepMap) -> bool:
        return not any(self.qcoords(f))

    def qmatrix(self, x: Rep, y: Rep) -> Block:
        """Quotient coordinates of the Hom(x, y) basis maps, as columns."""
        return self._entry(x, y)[1]

    def qbasis(self, x: Rep, y: Rep) -> list[RepMap]:
        """Representative morphisms whose classes form a basis."""
        return self._hom_data(x, y)[3]

    def invertible(self, f: RepMap) -> tuple[bool, RepMap | None]:
        """Is f invertible modulo the ideal; returns a two-sided quasi-inverse.

        Over the basis b of Hom(y, x), solve for the b whose classes give
        [b o f] = [1_x] and [f o b] = [1_y] together: the composites with
        every basis map, and the identity after them, take one
        `composite_columns` call and one `qcolumns` solve per end."""
        x, y = f.source, f.target
        cand = homs(y, x)
        if not cand:
            ok = self.qdim(x, x) == 0 and self.qdim(y, y) == 0
            return ok, (RepMap.zero(y, x) if ok else None)
        k = len(cand)
        idx, idy = flat_columns([RepMap.identity(x)]), flat_columns([RepMap.identity(y)])
        left = self.qcolumns(x, x, la.hstack([composite_columns(cand, [f]), idx], idx.rows))
        right = self.qcolumns(y, y, la.hstack([composite_columns([f], cand), idy], idy.rows))
        both = la.vstack([left, right], k + 1)  # the identities' coordinates last
        lhs = la.submatrix(both, range(both.rows), range(k))
        sol = la.solve(lhs, la.column(both.column(k)), self.p)
        if sol is None:
            return False, None
        return True, map_from_coords(cand, sol.data)

    def is_zero_object(self, x: Rep) -> bool:
        """Is 1_x in the ideal.  A module equal to an ideal member is zero at
        once: 1_x factors through x, which lies in add(ideal).  Any other
        object, a sum of members included, takes the quotient test."""
        return x in self.ideal or not any(self.qcoords(RepMap.identity(x)))

    def nonzero_objects(self) -> list[Rep]:
        return list(self._nonzero)

    @cached_property
    def _nonzero(self) -> tuple[Rep, ...]:
        """The objects that are not zero, decided once: the objects are
        fixed at construction."""
        return tuple(x for x in self.objects if not self.is_zero_object(x))


# ---------------------------------------------------------------------------
# Gabriel quivers of quotient categories, graph isomorphism.


@dataclass
class GabrielQuiver:
    nodes: tuple[str, ...]
    arrows: dict = field(default_factory=dict)  # (src, tgt) -> multiplicity


def _local_radical(qc: QuotientCategory, x: Rep) -> list[RepMap]:
    """Radical of End(x)/[ideal] via the trace form on the regular representation."""
    reps = qc.qbasis(x, x)
    if not reps:
        return []
    d = len(reps)
    # one solve: the representatives' own quotient coordinates (the change
    # of basis), then every product r o s, column s * d + r
    span = flat_columns(reps)
    cols = qc.qcolumns(x, x, la.hstack([span, composite_columns(reps, reps)], span.rows))
    rows = range(cols.rows)
    binv = la.inv(la.submatrix(cols, rows, range(d)), qc.p)
    if binv is None:
        raise AlgebraError("quotient basis representatives are dependent")
    regular = [
        la.matmul(binv, la.submatrix(cols, rows, range(d + j, cols.cols, d)), qc.p)
        for j in range(d)
    ]
    radc = _radical_of_span(regular, qc.p)
    return [map_from_coords(reps, radc.column(j)) for j in range(radc.cols)]


def gabriel_quiver(qc: QuotientCategory) -> GabrielQuiver:
    """Quiver of the quotient category on its nonzero objects.

    Arrows X -> Y counted as dim rad(X,Y)/rad^2(X,Y), where rad(X,Y) is the
    whole quotient hom space for X != Y and the non-invertible classes for
    X = Y.  Per pair, the radical basis and every composite g o f through
    a third object t take one `qcolumns` solve.
    """
    objs = qc.nonzero_objects()
    rad_basis = {
        (x, y): _local_radical(qc, x) if x is y else qc.qbasis(x, y) for x in objs for y in objs
    }
    arrows = {}
    for x in objs:
        for y in objs:
            basis = rad_basis[(x, y)]
            if not basis:
                continue
            sq = [composite_columns(rad_basis[(t, y)], rad_basis[(x, t)]) for t in objs]
            span = flat_columns(basis)
            cols = qc.qcolumns(x, y, la.hstack([span, *sq], span.rows))
            b, rows = len(basis), range(cols.rows)
            k = (la.rank(la.submatrix(cols, rows, range(b)), qc.p)
                 - la.rank(la.submatrix(cols, rows, range(b, cols.cols)), qc.p))
            if k > 0:
                arrows[(x.name, y.name)] = k
    return GabrielQuiver(tuple(o.name for o in objs), arrows)


def quivers_isomorphic(q1: GabrielQuiver, q2: GabrielQuiver, mapping: dict | None) -> bool:
    """Is `mapping` (node -> node) an isomorphism q1 -> q2 with arrow
    multiplicities?  It must biject the nodes of q1 onto those of q2 and
    carry every nonzero multiplicity of q1 onto the same one in q2, which
    has no other arrows; a None mapping is none.  O(nodes + arrows)."""
    if (
        mapping is None
        or set(mapping) != set(q1.nodes)
        or set(mapping.values()) != set(q2.nodes)
        or len(q1.nodes) != len(q2.nodes)
    ):
        return False
    image = {(mapping[s], mapping[t]): k for (s, t), k in q1.arrows.items() if k}
    return image == {a: k for a, k in q2.arrows.items() if k}


# ---------------------------------------------------------------------------
# The cohomological functor H of a cotorsion pair with rigid first class.


class CohomologicalH:
    """H: B -> H/U for a cotorsion pair (U, V) with U rigid.

    H(X) is the pullback B^- of the witness diagram: X >-> V^X ->> U^X and
    the right witness V0 >-> U0 ->> V^X; then V0 >-> B^- ->> X, the right
    witness pulled back along X >-> V^X (`pullback_conflation`, so B^- is
    V0 + X at each vertex), has kernel V0 in V and its deflation is a
    right H-approximation, which makes morphism transport a linear solve,
    well-defined modulo [U].  H(X) is stored as that conflation.
    """

    def __init__(self, pair: CotorsionPair, atlas: IndecSet):
        if not pair.u.rigid:
            raise AlgebraError("cohomological functor needs a rigid first class")
        self.pair = pair
        self.h_objects = cocone_objects(pair.u, pair.u)
        self.quotient = QuotientCategory(
            [atlas[n] for n in self.h_objects.names], pair.u.members
        )

    def h_object(self, x: Rep) -> Conflation:
        """H(x) as V0 >-> B^- ->> x, memoised by the pair's classes and the
        content of x: a hit returns the stored conflation, of the module its
        miss was given; the check that B^- lies in CoCone(U, U) runs when it
        is first built."""
        key = (self.pair.u.key, self.pair.v.names, x.key)
        return WORKSPACE.memo("h_object", key, self._h_object, x)

    def _h_object(self, x: Rep) -> Conflation:
        """H(x), checked, uncached."""
        if x.is_zero():
            return _identity_conflation("right", x)
        wl = self.pair.witness("left", x)  # X >-> V^X ->> U^X
        wr = self.pair.witness("right", wl.b)  # V0 >-> U0 ->> V^X
        conf, _ = pullback_conflation(wr, wl.infl)  # V0 >-> B^- ->> X
        if not self.h_objects.contains(conf.b):
            raise AlgebraError(f"H({x.name}) fell outside CoCone(U, U)")
        return conf

    def h_map(self, f: RepMap) -> RepMap:
        """A representative of H(f): H(X) -> H(Y), well-defined mod [U]."""
        hx, hy = self.h_object(f.source), self.h_object(f.target)
        lift = solve_through(f.compose(hx.defl), hy.defl)
        if lift is None:
            raise AlgebraError("morphism transport through H failed")
        return lift

    def is_zero_h(self, x: Rep) -> bool:
        """H(X) = 0, i.e. every summand of B^- lies in U."""
        return self.pair.u.contains(self.h_object(x).b)


# ---------------------------------------------------------------------------
# The module-category model: Gamma = stable End(G), Phi = Ext^1(G, -).


class PhiModel:
    """Phi(X) = Ext^1(G, X) as a right module over Gamma = End(G)/[P].

    G is the sum of the members of a rigid subcategory containing the
    projectives.  Ext^1(G, X) is the sum of the Ext^1(C_i, X) over the
    members C_i, and a projective member adds nothing (Ext^1(P, -) = 0),
    so Phi(X) is carried as the blocks Ext^1(C_i, X) of the non-projective
    members, in member order, Phi(f) is block-diagonal, and no Ext^1 is
    taken on the sum G.  Morphisms factoring through projectives act as
    zero on Ext^1, so the action descends to Gamma; a Gamma basis element
    acts through its components C_j -> C_i, one block each.  A right
    Gamma-module is a representation of `gamma`, the quiver with one vertex
    and one loop per basis element of Gamma, so Phi(X) is a `Rep` of it and
    its Hom spaces, kernels and cokernels are the ones of every other
    module.
    """

    def __init__(self, c: Subcategory):
        self.c = c
        self.atlas = c.atlas
        self.p = c.atlas.members[0].algebra.p
        self.projectives = projectives_of(c.atlas)
        self.members = [m for m in c.members if not self.projectives.contains_name(m.name)]
        self._members_key = tuple(m.key for m in self.members)

    # Gamma and its action are built on first use: the certificate needs
    # only dimensions and Phi(f), never the action.
    @cached_property
    def g(self) -> Rep:
        """G, the sum of all the members, projective ones included."""
        return direct_sum(self.c.members)

    @cached_property
    def stable(self) -> QuotientCategory:
        """End(G) modulo the maps that factor through projectives."""
        return QuotientCategory([self.g], self.projectives.members)

    @cached_property
    def gamma_basis(self) -> list[RepMap]:
        return self.stable.qbasis(self.g, self.g)

    @cached_property
    def gamma(self) -> BoundQuiverAlgebra:
        """Vertex `*` with loops g0 .. g{k-1}, one per `gamma_basis` element,
        and no relations.  Its path algebra is infinite: never ask it for
        `path_basis` or `projectives`."""
        loops = tuple((f"g{i}", "*", "*") for i in range(len(self.gamma_basis)))
        return BoundQuiverAlgebra(Quiver(("*",), loops), self.p)

    @cached_property
    def _omega_acts(self) -> list[dict[tuple[int, int], RepMap]]:
        """Per Gamma basis element, keyed (i, j) by positions in `members`:
        the syzygy restriction Omega C_j -> Omega C_i of each nonzero
        component C_j -> C_i."""
        summands = self.c.members
        # where each of `members` has its rows and columns in G's block, per vertex
        at = [summands.index(m) for m in self.members]
        starts = [list(accumulate([m.dims[v] for m in summands], initial=0))
                  for v in range(len(self.g.dims))]
        spans = [[range(s[a], s[a + 1]) for a in at] for s in starts]
        covers = [syzygy(m)[1] for m in self.members]
        acts = []
        for gmap in self.gamma_basis:
            act = {}
            for i, ci in enumerate(self.members):
                for j, cj in enumerate(self.members):
                    blocks = [la.submatrix(b, sp[i], sp[j]) for b, sp in zip(gmap.blocks, spans)]
                    comp = RepMap._trusted(cj, ci, blocks)
                    if comp.is_zero():
                        continue
                    lift = solve_through(comp.compose(covers[j].defl), covers[i].defl)
                    if lift is None:
                        raise AlgebraError("projective lifting failed for Gamma element")
                    # restrict to the syzygies: solve infl_i o w = lift o infl_j
                    w = solve_through(lift.compose(covers[j].infl), covers[i].infl)
                    if w is None:
                        raise AlgebraError("syzygy restriction failed for Gamma element")
                    act[(i, j)] = w
            acts.append(act)
        return acts

    def dim(self, x: Rep) -> int:
        """dim Phi(x), read off the member blocks that `phi_map` builds."""
        return sum(_dims(self._blocks(x)))

    def _blocks(self, x: Rep) -> list[Ext1 | None]:
        """Ext^1(C_i, x) per non-projective member, None where it is zero.
        The shared `ext1_dim` entry is read first, so a zero block builds no
        `Ext1`; a nonzero one is memoised by the content of C_i and x."""
        return [
            WORKSPACE.memo("phi_ext", (c.key, x.key), Ext1, c, x) if ext1_dim(c, x) else None
            for c in self.members
        ]

    def module(self, x: Rep) -> Rep:
        """Phi(x), on which loop gi acts as the i-th Gamma basis element;
        memoised by the class and the content of x, and named after x."""
        got = WORKSPACE.memo("phi_module", (self.c.key, x.key), self._module, x)
        return Rep._trusted(got.algebra, f"Phi({x.name})", got.dims, got.arrow_maps)

    def _module(self, x: Rep) -> Rep:
        blocks = self._blocks(x)
        acts = {f"g{i}": self._action(blocks, act) for i, act in enumerate(self._omega_acts)}
        return Rep(self.gamma, f"Phi({x.name})", [sum(_dims(blocks))], acts)

    def _action(self, blocks: list[Ext1 | None], act: dict) -> Block:
        """The matrix of one Gamma basis element on sum_i Ext^1(C_i, X):
        block (j, i) takes the cocycles of Ext^1(C_i, X) along the
        restriction Omega C_j -> Omega C_i of its component into
        Ext^1(C_j, X)."""
        cells = [[None] * len(blocks) for _ in blocks]
        for (i, j), w in act.items():
            if blocks[i] and blocks[j]:
                cells[j][i] = blocks[j].column_classes(composite_columns(blocks[i].cocycles, [w]))
        dims = _dims(blocks)
        return la.grid(cells, dims, dims)

    def phi_map(self, f: RepMap) -> Block:
        """Matrix of Phi(f) in quotient coordinates: block i is
        Ext^1(C_i, f), the classes of the cocycles of Ext^1(C_i, source)
        pushed along f.  Memoised by the members' content and the content of
        f's ends and blocks."""
        key = (self._members_key, f.source.key, f.target.key, f.blocks)
        return WORKSPACE.memo("phi_map", key, self._phi_matrix, f)

    def _phi_matrix(self, f: RepMap) -> Block:
        src, tgt = self._blocks(f.source), self._blocks(f.target)
        return la.block_diag([
            ey.column_classes(composite_columns([f], ex.cocycles))
            if ex and ey else la.zeros(rows, cols)
            for ex, ey, cols, rows in zip(src, tgt, _dims(src), _dims(tgt))
        ])

    def block_ranks(self, f: RepMap) -> list[tuple[int, int, int]]:
        """(rank, rows, columns) of each block Ext^1(C_i, f) of `phi_map(f)`,
        in member order."""
        m = self.phi_map(f)
        rows, cols = _dims(self._blocks(f.target)), _dims(self._blocks(f.source))
        tops, lefts = accumulate(rows, initial=0), accumulate(cols, initial=0)
        return [
            (la.rank(la.submatrix(m, range(t, t + r), range(l, l + c)), self.p), r, c)
            for r, c, t, l in zip(rows, cols, tops, lefts)
        ]

    def module_map(self, f: RepMap) -> RepMap:
        """Phi(f) as a map of Gamma-modules; checks that it is one."""
        return RepMap(self.module(f.source), self.module(f.target), [self.phi_map(f)])

    def validate_action(self, x: Rep) -> bool:
        """Associativity/unitality of the action on Phi(x), and [P] acts as 0."""
        mod = self.module(x)
        acts = list(mod.arrow_maps.values())
        d = mod.total_dim

        def act(coords) -> Block:
            acc = la.zeros(d, d)
            for c, r in zip(coords, acts):
                acc = la.add(acc, la.scale(c, r, self.p), self.p)
            return acc

        # unit: the identity's class expands over the basis; its action is id
        if d and act(self.stable.qcoords(RepMap.identity(self.g))) != la.eye(d):
            return False
        # right modules act by precomposition: R_{g1 o g2} = R_{g2} R_{g1}
        for i, g1 in enumerate(self.gamma_basis):
            for j, g2 in enumerate(self.gamma_basis):
                lhs = act(self.stable.qcoords(g1.compose(g2)))
                if lhs != la.matmul(acts[j], acts[i], self.p):
                    return False
        return True


def _dims(blocks: list[Ext1 | None]) -> list[int]:
    """The dimension of each block, 0 for a zero one."""
    return [e.dim if e else 0 for e in blocks]


@dataclass
class HeartModel:
    """The heart of a cotorsion pair with rigid first class, both presentations."""

    pair: CotorsionPair
    atlas: IndecSet
    h: CohomologicalH
    phi: PhiModel

    @classmethod
    def build(cls, pair: CotorsionPair, atlas: IndecSet) -> "HeartModel":
        return cls(pair, atlas, CohomologicalH(pair, atlas), PhiModel(pair.u))

    @property
    def quotient(self) -> QuotientCategory:
        return self.h.quotient

    def heart_object_names(self) -> tuple[str, ...]:
        """Nonzero objects of the heart, sorted."""
        return tuple(sorted(x.name for x in self.quotient.nonzero_objects()))

    def validate_equivalence(self) -> dict:
        """Dimension bridge between H/U and mod Gamma on heart objects."""
        report = {"pairs": 0, "mismatches": []}
        objs = [self.atlas[n] for n in self.heart_object_names()]
        for x in objs:
            for y in objs:
                lhs = self.quotient.qdim(x, y)
                rhs = hom_dim(self.phi.module(x), self.phi.module(y))
                report["pairs"] += 1
                if lhs != rhs:
                    report["mismatches"].append((x.name, y.name, lhs, rhs))
        report["ok"] = not report["mismatches"]
        return report


def heart_mono(model: HeartModel, f: RepMap) -> bool:
    return heart_kernel_dim(model, f) == 0


def heart_kernel_dim(model: HeartModel, f: RepMap) -> int:
    m = model.phi.phi_map(f)
    return model.phi.dim(f.source) - la.rank(m, model.phi.p)


def heart_kernel_module(model: HeartModel, f: RepMap) -> Rep:
    return kernel(model.phi.module_map(f))[0]


def heart_cokernel_module(model: HeartModel, f: RepMap) -> Rep:
    return cokernel(model.phi.module_map(f))[0]


# ---------------------------------------------------------------------------
# Syzygy approximations.


def syzygy_approximation(pair: CotorsionPair, x: Rep) -> Conflation:
    """Y0 >-> U0 ->> X, whose deflation is the right Omega(U)-approximation
    of the pair: the projective cover P0 ->> T0 of the middle term of the
    left witness X >-> T0 ->> C0, pulled back along the inflation."""
    wl = pair.witness("left", x)
    _y0, cover_conf = syzygy(wl.b)
    return pullback_conflation(cover_conf, wl.infl)[0]
