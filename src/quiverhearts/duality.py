"""Vector-space duality onto the opposite algebra.

The left mutation and the dual localization (`mutation.left_mutation`,
`mutation.dual_localization_model`) dualize into modules over the opposite
algebra, run the right-sided machinery there, and read the answer back;
Cone and CoCone membership run directly (`cotorsion._membership`).  Atlas
member names are preserved, so subcategories transport by name.
"""

from __future__ import annotations

from .algebra import IndecSet, dual_rep
from .cotorsion import Subcategory


class DualContext:
    """The atlas and its subcategories carried to the opposite algebra."""

    def __init__(self, atlas: IndecSet):
        self.datlas = IndecSet([dual_rep(m, m.name) for m in atlas], validate=False)

    def dsub(self, sub: Subcategory) -> Subcategory:
        return Subcategory(self.datlas, sub.names)


def dual_context(atlas: IndecSet) -> DualContext:
    """A fresh transport of `atlas` onto the opposite algebra."""
    return DualContext(atlas)
