"""Interval-module atlases of the Nakayama algebras A_n / rad^k.

A_n is the linear quiver 1 -> 2 -> ... -> n; A_n / rad^k kills every path
of length k.  Its indecomposable modules are the interval modules [i, j]
with j - i < k (Assem, Simson, Skowronski, Elements I, V.3), each with a
1x1 identity on every arrow inside the interval, so the atlas is complete
by construction and has n*k - k*(k-1)/2 members.
"""

from __future__ import annotations

from quiverhearts.algebra import BoundQuiverAlgebra, IndecSet, Quiver, Rep

# The field is the demo default, so rungs compare with the ex61 fixture.
FIELD = 101


def expected_size(n: int, k: int) -> int:
    return n * k - k * (k - 1) // 2


def algebra(n: int, k: int) -> BoundQuiverAlgebra:
    vertices = tuple(str(v) for v in range(1, n + 1))
    arrows = tuple((f"a{v}", str(v), str(v + 1)) for v in range(1, n))
    relations = tuple(
        ((1, tuple(f"a{v}" for v in range(s, s + k))),) for s in range(1, n - k + 1)
    )
    return BoundQuiverAlgebra(Quiver(vertices, arrows), FIELD, relations)


def interval_name(i: int, j: int) -> str:
    """Radical layers from top to socle, as in the demo fixture: `3/4/5`."""
    return "/".join(str(v) for v in range(i, j + 1))


def atlas(n: int, k: int, validate: bool = False) -> IndecSet:
    """The atlas of A_n / rad^k, checked against the closed-form size."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n} k={k}")
    alg = algebra(n, k)
    members = []
    for i in range(1, n + 1):
        for j in range(i, min(i + k - 1, n) + 1):
            dims = tuple(1 if i <= v <= j else 0 for v in range(1, n + 1))
            maps = {f"a{v}": [[1]] for v in range(i, j)}
            members.append(Rep(alg, interval_name(i, j), dims, maps).validate())
    out = IndecSet(members, validate=validate)
    if len(out) != expected_size(n, k):
        raise AssertionError(
            f"A{n}/rad^{k}: {len(out)} interval modules, expected {expected_size(n, k)}"
        )
    return out
