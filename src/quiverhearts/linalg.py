"""Exact linear algebra over the prime field F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
A linear map F^n -> F^m is an (m, n) matrix acting on column vectors.
Zero-dimensional shapes like (0, n) and (m, 0) are legal everywhere.

int64 bound: a product of two reduced entries is at most (p-1)^2, so a
sum of n such products is exact while n*(p-1)^2 < 2^63.  Fields are
only accepted when (p-1)^2 < 2^63 (p < ~3.04e9), which keeps every
single product, the rref row update and a scaled matrix exact; `matmul`
sums longer products in chunks that stay under the bound.  Any other sum
of products must go through `matmul` or reduce as it goes.

Stacked operands: `matmul` also takes arrays of shape (..., m, n) and
(..., n, k), broadcast over the leading axes as `@` does.  The bound is
the same, on the contracted axis n alone: each output entry is one sum
of n products, whatever the number of stacked matrices, and the chunks
slice that axis (the last of `a`, the second to last of `b`).

Empty operands: `matmul` with a 2-D operand of size 0, `solve` with no
rows or no columns, `nullspace` with no rows or no columns and
`is_invertible` on a 0x0 matrix return without elimination or arithmetic:
the zero product; the zero solution, or None when a has no columns and b
is not zero mod p; the identity; True.  Each is exactly what the general
path returns.

Two paths, one result: `rref`, `rank`, `solve` and `nullspace` (and so
`quotient_map`) row-reduce an operand of at most SMALL entries (for
`solve`, the augmented matrix) as lists of Python ints, and larger ones
with the vectorised numpy loop.  `solve` and `nullspace` read their result
off the reduced lists and build one int64 array at the end; only `rref`
turns the reduced rows themselves back into an array.  Python ints never
overflow, so the small path needs no int64 bound.  The reduced row echelon
form is unique, so both paths return the same matrix, pivots, solution
and kernel basis.  SMALL is a constant, not a
setting.  It comes from timing both paths on random matrices mod 101 on
a 2-core host (Python 3.11, numpy 2.4): up to 32 entries the lists are
faster at every rank (1x1: 6 us against 13 us; full-rank 4x8: 38 us
against 58 us), and from 36 entries on numpy wins on matrices of rank
one (6x6: 18 us against 25 us).
"""

from __future__ import annotations

import numpy as np


def modmat(a, p: int) -> np.ndarray:
    """Coerce to an int64 matrix with entries reduced mod p."""
    m = np.array(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return np.mod(m, p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


INT64_BOUND = 2**63


def _chunked_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p when inner*(p-1)^2 reaches INT64_BOUND: sum the inner
    dimension in chunks that stay below it, reducing after each."""
    step = (INT64_BOUND - 1) // (p - 1) ** 2
    if step == 0:
        raise ValueError(f"p = {p} is too large for exact int64 arithmetic")
    acc = np.mod(a[..., :step] @ b[..., :step, :], p)
    for lo in range(step, a.shape[-1], step):
        acc = np.mod(acc + np.mod(a[..., lo : lo + step] @ b[..., lo : lo + step, :], p), p)
    return acc


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.ndim == b.ndim == 2 and not (a.size and b.size) and a.shape[1] == b.shape[0]:
        return zeros(a.shape[0], b.shape[1])
    if a.shape[-1] * (p - 1) ** 2 < INT64_BOUND:
        return np.mod(a @ b, p)
    return _chunked_dot(a, b, p)


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


SMALL = 32


def _rref_ints(rows: list[list[int]], p: int) -> list[int]:
    """Row-reduce a list of Python-int rows mod p in place; the pivots."""
    rows[:] = [[x % p for x in row] for row in rows]
    n = len(rows)
    pivots: list[int] = []
    for col in range(len(rows[0]) if n else 0):
        lead = len(pivots)
        for piv in range(lead, n):
            if rows[piv][col]:
                break
        else:
            continue
        top, rows[piv] = rows[piv], rows[lead]
        inv = pow(top[col], -1, p)
        rows[lead] = top = [x * inv % p for x in top] if inv != 1 else top
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != lead:
                rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(col)
        if lead + 1 == n:
            break
    return pivots


def _rref_array(r: np.ndarray, p: int) -> list[int]:
    """Row-reduce a reduced int64 matrix mod p in place; the pivots."""
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        nz = r[lead:, col].nonzero()[0]
        if not len(nz):
            continue
        piv = lead + int(nz[0])
        if piv != lead:
            r[[lead, piv]] = r[[piv, lead]]
        r[lead] = np.mod(r[lead] * inv_scalar(r[lead, col], p), p)
        # Clear the pivot column in every other row at once; the pivot row
        # is zero left of `col`, so only columns from `col` on change.
        factors = r[:, col].copy()
        factors[lead] = 0
        r[:, col:] = np.mod(r[:, col:] - np.outer(factors, r[lead, col:]), p)
        pivots.append(col)
        lead += 1
    return pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column indices)."""
    a = np.asarray(a, dtype=np.int64)
    if a.size <= SMALL:
        rows = a.tolist()
        pivots = _rref_ints(rows, p)
        return np.array(rows, dtype=np.int64).reshape(a.shape), pivots
    r = np.mod(a, p)
    return r, _rref_array(r, p)


def rank(a: np.ndarray, p: int) -> int:
    if a.size <= SMALL:
        return len(_rref_ints(a.tolist(), p))
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of ker(a); shape (n, n - rank)."""
    rows, cols = a.shape
    if not (rows and cols):
        return eye(cols)
    if a.size > SMALL:
        r, pivots = rref(a, p)
        free = [c for c in range(cols) if c not in pivots]
        basis = zeros(cols, len(free))
        basis[free, range(len(free))] = 1
        basis[pivots] = np.mod(-r[: len(pivots), free], p)
        return basis
    r = a.tolist()
    pivots = _rref_ints(r, p)
    vecs = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(r, pivots):
            vec[pc] = -row[fc] % p
        vecs.append(vec)
    # One row per basis vector, so the basis is the transpose.
    return np.array(vecs, dtype=np.int64).reshape(len(vecs), cols).T


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b (columnwise for matrix b), or None."""
    rows, cols = a.shape
    b = b.reshape(rows, 1) if b.ndim == 1 else b
    if not rows:
        return zeros(cols, b.shape[1])
    if not cols:
        return None if np.mod(b, p).any() else zeros(0, b.shape[1])
    small = rows * (cols + b.shape[1]) <= SMALL
    if small:
        r = [ra + rb for ra, rb in zip(a.tolist(), b.tolist())]
        pivots = _rref_ints(r, p)
    else:
        r, pivots = rref(np.concatenate([a, np.mod(b, p)], axis=1), p)
    if pivots and pivots[-1] >= cols:
        return None
    x = [[0] * b.shape[1]] * cols if small else zeros(cols, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols:]  # replaces a whole row, so shared zero rows stay zero
    return np.asarray(x, dtype=np.int64)


def inv(a: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square matrix, or None if singular."""
    n, m = a.shape
    if n != m:
        return None
    if n == 0:
        return zeros(0, 0)
    x = solve(a, eye(n), p)
    if x is None or not np.array_equal(matmul(a, x, p), eye(n)):
        return None
    return x


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and (not a.size or rank(a, p) == a.shape[0])


def quotient_map(w_cols: np.ndarray, n: int, p: int) -> np.ndarray:
    """Surjection q: F^n -> F^m with ker(q) = column space of w_cols.

    q is nullspace(w_cols^T)^T: its rows span the functionals that vanish
    on im(w_cols), so row k reads off the k-th non-pivot coordinate of a
    vector reduced modulo im(w_cols).
    """
    if not w_cols.size:
        return eye(n)
    return nullspace(w_cols.T, p).T


def right_inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """s with a @ s = id, when a is surjective."""
    return solve(a, eye(a.shape[0]), p)


def vstack(mats: list[np.ndarray], cols: int) -> np.ndarray:
    if not mats:
        return zeros(0, cols)
    return np.concatenate([m for m in mats], axis=0)


def hstack(mats: list[np.ndarray], rows: int) -> np.ndarray:
    """The matrices side by side, skipping those without columns (their row
    count may differ); (rows, 0) when none has a column."""
    mats = [m for m in mats if m.shape[1]]
    if not mats:
        return zeros(rows, 0)
    return np.concatenate(mats, axis=1)
