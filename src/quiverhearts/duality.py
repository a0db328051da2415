"""Vector-space duality onto the opposite algebra.

Every left-sided construction (Cone, left mutation, the dual heart and its
localization) is computed by dualizing into modules over the opposite
algebra, running the right-sided machinery there, and reading the answer
back.  Atlas member names are preserved, so subcategories transport by
name.
"""

from __future__ import annotations

from .algebra import IndecSet, Rep, RepMap, dual_map, dual_rep, opposite_algebra
from .cotorsion import Subcategory
from .homology import Conflation


class DualContext:
    def __init__(self, atlas: IndecSet):
        self.atlas = atlas
        alg = atlas.members[0].algebra
        self.op_alg = opposite_algebra(alg)
        duals = [dual_rep(m, self.op_alg, name=m.name) for m in atlas]
        self.datlas = IndecSet(duals, validate=False)
        self._cache = {id(m): self.datlas[m.name] for m in atlas}
        self._pin = list(atlas.members)

    def drep(self, x: Rep) -> Rep:
        got = self._cache.get(id(x))
        if got is not None:
            return got
        d = dual_rep(x, self.op_alg if x.algebra is self.atlas.members[0].algebra else None)
        self._cache[id(x)] = d
        self._pin.append(x)
        return d

    def dsub(self, sub: Subcategory) -> Subcategory:
        return Subcategory(self.datlas, sub.names)

    def dmap(self, f: RepMap) -> RepMap:
        return dual_map(f, self.drep(f.target), self.drep(f.source))

    def dconf(self, conf: Conflation) -> Conflation:
        """Dual conflation: inflation and deflation swap roles."""
        return Conflation(self.dmap(conf.defl), self.dmap(conf.infl))


def dual_context(atlas: IndecSet) -> DualContext:
    """A fresh transport of `atlas` onto the opposite algebra."""
    return DualContext(atlas)
