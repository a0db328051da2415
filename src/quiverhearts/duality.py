"""Vector-space duality onto the opposite algebra.

The dual localization (`mutation.dual_localization_model`), whose mutated
class is the left mutation, dualizes into modules over the opposite
algebra, runs the right-sided machinery there, and reads the answer back;
Cone and CoCone membership run directly (`cotorsion._membership`).  Atlas
member names are preserved, so subcategories transport by name.
"""

from __future__ import annotations

from .algebra import IndecSet
from .cotorsion import Subcategory


class DualContext:
    """The atlas and its subcategories carried to the opposite algebra."""

    def __init__(self, atlas: IndecSet):
        self.datlas = atlas.dual

    def dsub(self, sub: Subcategory) -> Subcategory:
        return Subcategory(self.datlas, sub.names)


def dual_context(atlas: IndecSet) -> DualContext:
    """The transport of `atlas` onto the opposite algebra by its one dual atlas."""
    return DualContext(atlas)
