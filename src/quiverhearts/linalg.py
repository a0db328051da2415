"""Exact linear algebra over the prime field F_p.

All matrices are numpy int64 arrays with entries reduced into [0, p).
A linear map F^n -> F^m is an (m, n) matrix acting on column vectors.
Zero-dimensional shapes like (0, n) and (m, 0) are legal everywhere.

int64 bound: a product of two reduced entries is at most (p-1)^2, so a
sum of n such products is exact while n*(p-1)^2 < 2^63.  Fields are
only accepted when (p-1)^2 < 2^63 (p < ~3.04e9), which keeps every
single product, the rref row update and a scaled matrix exact; `matmul`
sums longer products in chunks that stay under the bound.  Any other sum
of products must go through `matmul` or reduce as it goes (polynomial
products in `algebra` use Python ints).
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
    acc = np.mod(a[..., :step] @ b[:step], p)
    for lo in range(step, a.shape[-1], step):
        acc = np.mod(acc + np.mod(a[..., lo : lo + step] @ b[lo : lo + step], p), p)
    return acc


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[-1] * (p - 1) ** 2 < INT64_BOUND:
        return np.mod(a @ b, p)
    return _chunked_dot(a, b, p)


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column indices)."""
    r = np.mod(np.asarray(a, dtype=np.int64), p)
    rows, cols = r.shape
    if rows == 0 or cols == 0:
        return r, []
    if rows == 1:
        nz = r[0].nonzero()[0]
        if not len(nz):
            return r, []
        col = int(nz[0])
        r[0] = np.mod(r[0] * inv_scalar(r[0, col], p), p)
        return r, [col]
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
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of ker(a); shape (n, n - rank)."""
    rows, cols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Matrix whose rows are an rref basis of the row space of a."""
    if a.shape[0] == 0:
        return zeros(0, a.shape[1])
    r, pivots = rref(a, p)
    return r[: len(pivots)]


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b (columnwise for matrix b), or None."""
    rows, cols = a.shape
    b = b.reshape(rows, -1) if b.ndim == 1 else b
    aug = np.concatenate([a, np.mod(b, p)], axis=1)
    r, pivots = rref(aug, p)
    n_rhs = b.shape[1]
    for i, pc in enumerate(pivots):
        if pc >= cols:
            return None
    x = zeros(cols, n_rhs)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


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
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def quotient_map(w_cols: np.ndarray, n: int, p: int) -> np.ndarray:
    """Surjection q: F^n -> F^m with ker(q) = column space of w_cols.

    Rows of q are the coordinates, in the standard basis, of the quotient
    F^n / im(w_cols) with respect to the non-pivot coordinate functionals.
    """
    if n == 0:
        return zeros(0, 0)
    if w_cols.size == 0:
        return eye(n)
    r, pivots = rref(w_cols.T, p)  # row space of W^T = column space coords
    w_basis = r[: len(pivots)]  # rows: basis of im(w_cols), rref'd
    free = [c for c in range(n) if c not in pivots]
    q = zeros(len(free), n)
    # e_j = (combination of w_basis rows) + (free coordinates); q reads off
    # the free coordinates of the reduction of e_j modulo im(w_cols).
    for j in range(n):
        ej = zeros(1, n)
        ej[0, j] = 1
        red = ej[0].copy()
        for i, pc in enumerate(pivots):
            if red[pc]:
                red = np.mod(red - red[pc] * w_basis[i], p)
        for k, fc in enumerate(free):
            q[k, j] = red[fc]
    return q


def right_inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """s with a @ s = id, when a is surjective."""
    return solve(a, eye(a.shape[0]), p)


def left_inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """r with r @ a = id, when a is injective."""
    s = solve(a.T, eye(a.shape[1]), p)
    return None if s is None else np.mod(s.T, p)


def vstack(mats: list[np.ndarray], cols: int) -> np.ndarray:
    if not mats:
        return zeros(0, cols)
    return np.concatenate([m for m in mats], axis=0)
