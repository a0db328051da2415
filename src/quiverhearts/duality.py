"""Vector-space duality onto the opposite algebra.

The dual localization (`mutation.dual_localization_model`), whose mutated
class is the left mutation, dualizes into modules over the opposite
algebra, runs the right-sided machinery there, and reads the answer back;
Cone and CoCone membership run directly (`cotorsion._membership`).  Atlas
member names are preserved, so subcategories transport by name.
"""

from __future__ import annotations

from .algebra import IndecSet


def dual_context(atlas: IndecSet) -> IndecSet:
    """The atlas carried to the opposite algebra: its one dual atlas, whose
    members keep their names, so a class moves over as
    `Subcategory(dual_context(atlas), names)`."""
    return atlas.dual
