"""One memo for results that depend only on module content.

A module's content key (`Rep.key`) is its algebra, its dimension vector
and the bytes of its arrow maps, compared by equality, so two `Rep`s with
the same matrices share entries whatever their names or ids.  The tables
are `hom_space` and `decompose_with_maps` (in `algebra`), and `syzygy`,
`ext1_dim`, `approximation` and `conflation` (in `homology`; the last
keyed by the kind and the map's source, target and block bytes).  Each
memo site stores plain read-only blocks under a key that holds everything
its result depends on (member names too, where the result names them) and
binds them to the caller's objects on every lookup, freezing nothing
again, so no stored value refers to a caller's `Rep`.  A module with an
atlas member's content decomposes as that member without a lookup
(`IndecSet.by_key`), so `decompose_with_maps` holds only other modules.
The `algebra` table maps an algebra's content, the plain tuple that its
equality compares, to its one live object (`BoundQuiverAlgebra`), so the
content keys above all hold that one object and match by identity.

Nothing else belongs here.  Data derived from one object (an algebra's
path basis, projectives, standard modules and opposite, an atlas's dual
atlas and its Hom and Ext^1 dimension tables, a subcategory's rigidity,
(RCP) reports and cotorsion pair, a mutation input's classes, a quotient
category's Hom data, H(X) or R(X) of a model) lives on that object, as a
`cached_property` or a dict keyed by the object itself, and goes when
the object goes.  The dimension tables belong to their `IndecSet`, not
here: a row is read off the `hom_space` entries of its members.  A table
that a second certificate of the same instance would never hit does not
belong here either.
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


WORKSPACE = Workspace()
