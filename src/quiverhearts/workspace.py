"""One memo for results that depend only on content.

A module's content key (`Rep.key`) is its algebra, its dimension vector
and the blocks of its arrow maps, compared by equality and hashed once.
A `Rep` is a value that compares and hashes by that key, so two `Rep`s
with the same matrices are equal and share entries whatever their names
or ids.  The tables:

- `hom_space` and `decompose_with_maps` (in `algebra`);
- `syzygy`, `ext1_dim`, `approximation` and `conflation` (in `homology`;
  the last keyed by the kind and the map's source, target and blocks);
- the answers about classes, in `cotorsion`: `rcp` (a class's (RCP) or
  dual (RCP) report, by side), `perp` (the member names of its right or
  left perpendicular class), `cone_objects` (the member names of
  Cone(B', B'') or CoCone(B', B''), by kind and both classes) and
  `cotorsion_pair` (True once `build_cotorsion_pair` has checked
  Ext^1(U, V) = 0 and both witnesses of every atlas object);
- the certificate's values: `right_hd_approximation` (R(X), and the
  coreflections) and `reflection` (in `mutation`), and `h_object` (H(X)),
  each stored as the `Conflation` its build returns, and `phi_ext` (the
  `Ext1` of each nonzero member block of Phi), `phi_map` (Phi(f)),
  `phi_module` (Phi(X)) and `quotient_hom` (a quotient category's Hom
  data) in `heart`.

Each memo site stores under a key that holds everything its result
depends on: the classes' member names and the atlas's content
(`Subcategory.key`, whose atlas part is a `ContentKey`, hashed once), an
ideal's member contents, and the argument's content.  A hit returns the
value its miss stored, as it is: names, booleans, reports and immutable
blocks, and the modules and maps of a syzygy, a conflation, an
approximation, a decomposition, R(X), a reflection, H(X) and a Phi
block's `Ext1`, whose modules are the ones the miss was given, equal to the
caller's, and the ones it built.  Their empty blocks and 1x1 blocks 0 and 1
are `linalg`'s shared objects, so a value holds references to those, not
copies.  Callers must not mutate a value.  Only
`hom_space` binds on lookup: it stores the bare blocks of a Hom basis,
which `algebra.hom_space` binds to the caller's two modules.  No value
holds an atlas or a
`Subcategory`: a class is rebuilt over the caller's atlas from its names,
and a checked cotorsion pair builds a witness when it is first looked up
(`CotorsionPair.witnesses`).  Only constructions and checks that a value
passes when it is built are shared; a check that raises stores nothing,
and every certificate still runs its own verdicts.  A module equal to an
atlas member decomposes as that member without a lookup
(`IndecSet.by_content`), so `decompose_with_maps` holds only other
modules.
The `algebra` table maps an algebra's content, the plain tuple that its
equality compares, to its one live object (`BoundQuiverAlgebra`), so the
content keys above all hold that one object and match by identity.

The certificate's values lived on their objects (a quotient category's
Hom data, H(X), R(X), Phi and the (co)reflections of a model, in dicts
keyed by the object) until they moved here: a second certificate of the
same instance, or a command that builds its localization again, builds
new objects and missed every one of them.  The answers about classes
followed for the same reason: every CLI command builds its own atlas and
classes, so a `cached_property` on a `Subcategory` answered the same
(RCP), perpendicular, Cone/CoCone and cotorsion-pair questions once per
command.  Nothing else belongs here.  Data derived from one object (an
algebra's path basis, projectives, standard modules and opposite, an
atlas's dual atlas and its Hom and Ext^1 dimension tables, a
subcategory's rigidity, its pair `rigid_pair` and its `omega_generators`,
a mutation input's classes, a quotient category's nonzero objects) lives
on that object as a `cached_property` and goes when the object goes.  The
dimension tables belong to their `IndecSet`, not here: a row is read off
the `hom_space` entries of its members.  A table that a second
certificate of the same instance would never hit does not belong here
either.
"""

from __future__ import annotations


class Workspace:
    """Named memo tables with hit and miss counts per table."""

    def __init__(self):
        self.tables: dict[str, dict] = {}
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def memo(self, table: str, key, compute, *args):
        """The stored value of `key` in `table`, else `compute(*args)`, stored."""
        entries = self.tables.get(table)
        if entries is None:
            entries = self.tables[table] = {}
            self.hits[table] = self.misses[table] = 0
        try:
            value = entries[key]
        except KeyError:
            value = compute(*args)
            entries[key] = value
            self.misses[table] += 1
            return value
        self.hits[table] += 1
        return value

    def stats(self) -> dict[str, dict[str, int]]:
        """Per table: hits, misses and stored entries."""
        return {
            t: {"hits": self.hits[t], "misses": self.misses[t], "entries": len(e)}
            for t, e in sorted(self.tables.items())
        }

    def clear(self) -> None:
        """Drop every entry and reset the counts."""
        self.tables.clear()
        self.hits.clear()
        self.misses.clear()


class ContentKey(tuple):
    """A content key that is hashed once, when it is built: a key of many
    modules (an atlas's) is hashed on every lookup of every key that holds
    it.  It compares and hashes as the plain tuple."""

    def __new__(cls, items):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


WORKSPACE = Workspace()
