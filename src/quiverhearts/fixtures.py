"""Built-in worked examples.

The main fixture is the Auslander algebra of the linear A3 quiver: six
vertices, six arrows, three mesh relations, seventeen indecomposable
modules.  Two bundles of named subcategories on it (`ex61`, `ex62`) drive
the demo commands: the first satisfies all mutation hypotheses, the second
deliberately breaks rigidity of the mutated subcategory.

A small A3 path algebra is included for cross-checking the homological
machinery against hand-computable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import BoundQuiverAlgebra, IndecSet, Quiver, Rep

DEFAULT_P = 101


@dataclass
class Fixture:
    algebra: BoundQuiverAlgebra
    atlas: IndecSet
    subcats: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def subcat_obj(self, name: str):
        from .cotorsion import Subcategory

        return Subcategory(self.atlas, self.subcats[name])


def auslander_a3_algebra(p: int = DEFAULT_P) -> BoundQuiverAlgebra:
    q = Quiver(
        vertices=("1", "2", "3", "4", "5", "6"),
        arrows=(
            ("a", "3", "5"),
            ("b", "5", "6"),
            ("g", "2", "3"),
            ("d", "2", "4"),
            ("e", "4", "5"),
            ("z", "1", "2"),
        ),
    )
    relations = (
        ((1, ("e", "b")),),          # 4 -> 5 -> 6 vanishes
        ((1, ("z", "d")),),          # 1 -> 2 -> 4 vanishes
        ((1, ("g", "a")), (-1, ("d", "e"))),  # the mesh square commutes
    )
    return BoundQuiverAlgebra(q, p, relations)


# name -> (dims over vertices 1..6, arrow maps with a single 1x1 entry)
_AUSLANDER_MODULES = {
    "1": ((1, 0, 0, 0, 0, 0), ()),
    "2": ((0, 1, 0, 0, 0, 0), ()),
    "3": ((0, 0, 1, 0, 0, 0), ()),
    "4": ((0, 0, 0, 1, 0, 0), ()),
    "5": ((0, 0, 0, 0, 1, 0), ()),
    "6": ((0, 0, 0, 0, 0, 1), ()),
    "1/2": ((1, 1, 0, 0, 0, 0), ("z",)),
    "2/3": ((0, 1, 1, 0, 0, 0), ("g",)),
    "2/4": ((0, 1, 0, 1, 0, 0), ("d",)),
    "3/5": ((0, 0, 1, 0, 1, 0), ("a",)),
    "4/5": ((0, 0, 0, 1, 1, 0), ("e",)),
    "5/6": ((0, 0, 0, 0, 1, 1), ("b",)),
    "1/2/3": ((1, 1, 1, 0, 0, 0), ("z", "g")),
    "3/5/6": ((0, 0, 1, 0, 1, 1), ("a", "b")),
    "34/5": ((0, 0, 1, 1, 1, 0), ("a", "e")),
    "2/34": ((0, 1, 1, 1, 0, 0), ("g", "d")),
    "2/34/5": ((0, 1, 1, 1, 1, 0), ("g", "d", "a", "e")),
}


def auslander_a3_atlas(p: int = DEFAULT_P, validate: bool = False) -> IndecSet:
    alg = auslander_a3_algebra(p)
    q = alg.quiver
    members = []
    for name, (dims, arrows) in _AUSLANDER_MODULES.items():
        maps = {}
        for aid in arrows:
            _, s, t = q.arrow(aid)
            maps[aid] = [[1]]
        members.append(Rep(alg, name, dims, maps).validate())
    return IndecSet(members, validate=validate)


_PANELS_61 = {
    "C": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4"),
    "C_perp": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4", "4", "5"),
    "D": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "4/5", "2/4"),
    "D_perp": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4", "4", "5", "2"),
    "C_mut": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "2", "4/5", "2/4"),
    "C_mut_perp": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "5", "2/34/5", "2", "1", "4/5", "2/4"),
    "M": ("3/5/6", "1/2/3", "5/6", "4", "1/2", "2/34/5", "1", "4/5", "2/4"),
    "N": ("3/5/6", "1/2/3", "5/6", "1/2", "2/34/5", "1", "4/5", "2/4"),
    "M_mut": ("3/5/6", "1/2/3", "5/6", "1/2", "2/34/5", "1", "4/5", "2/4", "5"),
    # nonzero objects of the two hearts and of their localized models
    "heart": ("3/5", "2/3", "2/34", "2", "3"),
    "heart_mut": ("3/5", "4", "2/3", "34/5", "2/34", "3"),
    "heart_localized": ("3/5", "3", "2/34", "2/3"),
    "heart_mut_localized": ("34/5", "3", "2/34", "2/3"),
}

_PANELS_62 = {
    "C": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4", "4"),
    "D": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4"),
    "C_mut": ("3/5/6", "1/2/3", "5/6", "1/2", "6", "2/34/5", "1", "4/5", "2/4", "5"),
}


def ex61(p: int = DEFAULT_P) -> Fixture:
    atlas = auslander_a3_atlas(p)
    return Fixture(atlas.members[0].algebra, atlas, dict(_PANELS_61))


def ex62(p: int = DEFAULT_P) -> Fixture:
    atlas = auslander_a3_atlas(p)
    return Fixture(atlas.members[0].algebra, atlas, dict(_PANELS_62))


# ---------------------------------------------------------------------------
# Small path algebras for oracle-style cross checks.


def a3_algebra(p: int = DEFAULT_P) -> BoundQuiverAlgebra:
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
    return BoundQuiverAlgebra(q, p)


def a3_atlas(p: int = DEFAULT_P) -> IndecSet:
    alg = a3_algebra(p)
    mods = [
        Rep(alg, "1", (1, 0, 0)),
        Rep(alg, "2", (0, 1, 0)),
        Rep(alg, "3", (0, 0, 1)),
        Rep(alg, "1/2", (1, 1, 0), {"a": [[1]]}),
        Rep(alg, "2/3", (0, 1, 1), {"b": [[1]]}),
        Rep(alg, "1/2/3", (1, 1, 1), {"a": [[1]], "b": [[1]]}),
    ]
    return IndecSet(mods, validate=False)


def random_rigid_subcat(atlas: IndecSet, rng, within=None, stop_chance: float = 0.0):
    """A random rigid subcategory containing the projectives.

    Greedy: shuffle the atlas names (restricted to `within` if given) and
    add each whose extensions against the current set, itself included,
    vanish both ways: a row and a column of the atlas's Ext^1 table.
    """
    from .cotorsion import projectives_of, subcat

    names = list(projectives_of(atlas).names)
    pool = [n for n in (within if within is not None else atlas.names) if n not in names]
    rng.shuffle(pool)
    chosen = [atlas.position[n] for n in names]
    for nm in pool:
        i = atlas.position[nm]
        with_x = chosen + [i]
        [row_x] = atlas.rows("ext1", [i])
        if not (any(row_x[j] for j in with_x) or any(r[i] for r in atlas.rows("ext1", chosen))):
            names.append(nm)
            chosen.append(i)
            if stop_chance and rng.random() < stop_chance:
                break
    return subcat(atlas, sorted(names))


def random_mutation_instance(atlas: IndecSet, rng):
    """Random nested rigid pair (C, D) with the projectives in both."""
    c = random_rigid_subcat(atlas, rng)
    d = random_rigid_subcat(atlas, rng, within=list(c.names), stop_chance=0.35)
    return c, d
