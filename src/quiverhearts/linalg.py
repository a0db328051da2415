"""Exact linear algebra over the prime field F_p.

Every matrix is a `Block`: an immutable (rows, cols, data) tuple whose
`data` holds the entries row by row as Python ints reduced into [0, p).
A linear map F^n -> F^m is an (m, n) block acting on column vectors, and
shapes like (0, n) and (m, 0) are legal everywhere.  The functions take
and return reduced blocks; `modmat` reduces entries from outside.  Python
ints never overflow, so all arithmetic is exact for every prime p.

One path: `rref`, `rank`, `solve` and `nullspace` (and so `quotient_map`)
row-reduce lists of Python-int rows with `_rref_ints`.  A 1x1 or empty
operand of these and of `matmul` takes a fast path without elimination,
which returns exactly what the general path returns.

Shared blocks: the blocks without entries, of either side up to
`SHARED_SIDE`, and the 1x1 blocks 0 and 1 exist once each, in `_SHARED`,
a constant built at import.  Every constructor here (`_block`) and every
block builder of `algebra` returns the shared object for such a value; an
operand returned as given stays that operand.  Thin modules and maps are
made almost only of such blocks, so the memo holds references, not
copies.  The table is bounded whatever p or the instance: a larger empty
block, or a 1x1 block of another value, is allocated as before.  Blocks
still compare and hash by content; no code compares them by identity.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import chain
from operator import mul

_flatten = chain.from_iterable
# `_new(Block, (rows, cols, data))` is `Block(rows, cols, data)` without the
# Python frame of the namedtuple's `__new__`, for the hot constructors.
_new = tuple.__new__


class Block(namedtuple("Block", "rows cols data")):
    """An immutable rows x cols matrix: `data` holds the rows*cols entries
    row by row.  Equal content means equal blocks, so a block is its own
    content key.  It is a tuple underneath, but not a sequence of entries:
    `len`, iteration, `+` and `*` raise, and `b[i, j]` is an entry."""

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @property
    def T(self) -> "Block":
        rows, cols, data = self.rows, self.cols, self.data
        if rows <= 1 or cols <= 1:  # a row or a column: the same entries
            return _block(cols, rows, data)
        return _new(Block, (cols, rows, tuple(_flatten(data[j::cols] for j in range(cols)))))

    def any(self) -> bool:
        return any(self.data)

    def column(self, j: int) -> tuple:
        return self.data[j :: self.cols]

    def tolist(self) -> list[list[int]]:
        cols, data = self.cols, self.data
        return [list(data[i * cols : (i + 1) * cols]) for i in range(self.rows)]

    def tobytes(self) -> bytes:
        """The entries as native int64 bytes, row by row, as a C-ordered
        int64 array of the same entries would give them."""
        return array("q", self.data).tobytes()

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i * self.cols + j]

    def __getnewargs__(self):  # copy and pickle by fields, not by iteration
        return (self.rows, self.cols, self.data)

    def _not_a_sequence(self, *args):
        raise TypeError("a Block is a matrix, not a sequence: use its fields and linalg")

    __len__ = __iter__ = __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence


SHARED_SIDE = 16
# A Block hashes and compares as its plain (rows, cols, data) tuple, so the
# table is looked up by the fields without building a block.
_SHARED = {b: b for b in [
    *(_new(Block, (r, c, ())) for r in range(SHARED_SIDE + 1) for c in range(SHARED_SIDE + 1)
      if not r * c),
    _new(Block, (1, 1, (0,))),
    _new(Block, (1, 1, (1,))),
]}


def _block(rows: int, cols: int, data: tuple) -> Block:
    """The block of these fields: the shared one if `_SHARED` holds its value."""
    shared = _SHARED.get((rows, cols, data)) if len(data) <= 1 else None
    return _new(Block, (rows, cols, data)) if shared is None else shared


def modmat(a, p: int) -> Block:
    """A block with entries reduced mod p, from a block or from a nested
    sequence of rows (a flat sequence of ints is one row)."""
    if isinstance(a, Block):
        return _block(a.rows, a.cols, tuple(x % p for x in a.data))
    rows = list(a)
    if rows and not hasattr(rows[0], "__len__"):
        rows = [rows]
    cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise ValueError("rows of different lengths")
    return _block(len(rows), cols, tuple(int(x) % p for x in _flatten(rows)))


def zeros(rows: int, cols: int) -> Block:
    return _block(rows, cols, (0,) * (rows * cols))


def eye(n: int) -> Block:
    data = [0] * (n * n)
    data[:: n + 1] = [1] * n
    return _block(n, n, tuple(data))


def column(vec) -> Block:
    """The (n, 1) block of a vector of n reduced entries."""
    vec = tuple(vec)
    return _block(len(vec), 1, vec)


def columns(vecs, n: int) -> Block:
    """The (n, len(vecs)) block whose columns are the given n-vectors."""
    vecs = list(vecs)
    return _block(n, len(vecs), tuple(_flatten(zip(*vecs))) if vecs else ())


def matmul(a: Block, b: Block, p: int) -> Block:
    m, n, k = a.rows, a.cols, b.cols
    if n != b.rows:
        raise ValueError(f"cannot multiply a {a.shape} block by a {b.shape} block")
    if n == 1:  # an outer product, 1x1 included
        if m == k == 1:
            return _block(1, 1, (a.data[0] * b.data[0] % p,))
        return _block(m, k, tuple(x * y % p for x in a.data for y in b.data))
    if not (m and n and k):
        return zeros(m, k)
    ad, bd = a.data, b.data
    cols = [bd[j::k] for j in range(k)]
    return _block(m, k, tuple(
        sum(map(mul, ad[i : i + n], col)) % p for i in range(0, m * n, n) for col in cols
    ))


def add(a: Block, b: Block, p: int) -> Block:
    if a.shape != b.shape:
        raise ValueError(f"cannot add a {a.shape} block to a {b.shape} block")
    return _block(a.rows, a.cols, tuple((x + y) % p for x, y in zip(a.data, b.data)))


def sub(a: Block, b: Block, p: int) -> Block:
    if a.shape != b.shape:
        raise ValueError(f"cannot subtract a {b.shape} block from a {a.shape} block")
    return _block(a.rows, a.cols, tuple((x - y) % p for x, y in zip(a.data, b.data)))


def scale(c: int, a: Block, p: int) -> Block:
    c %= p
    return _block(a.rows, a.cols, tuple(c * x % p for x in a.data))


def _rref_ints(rows: list[list[int]], p: int) -> list[int]:
    """Row-reduce a list of reduced Python-int rows mod p in place; the pivots."""
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


def rref(a: Block, p: int) -> tuple[Block, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column indices)."""
    if a.rows * a.cols <= 1:
        return (_block(1, 1, (1,)), [0]) if a.data and a.data[0] else (a, [])
    rows = a.tolist()
    pivots = _rref_ints(rows, p)
    return _new(Block, (a.rows, a.cols, tuple(_flatten(rows)))), pivots


def rank(a: Block, p: int) -> int:
    if a.rows * a.cols <= 1:
        return int(bool(a.data and a.data[0]))
    return len(_rref_ints(a.tolist(), p))


def nullspace(a: Block, p: int) -> Block:
    """Columns form a basis of ker(a); shape (n, n - rank)."""
    rows, cols = a.rows, a.cols
    if not (rows and cols):
        return eye(cols)
    if rows == cols == 1:
        return _block(1, 0, ()) if a.data[0] else _block(1, 1, (1,))
    r = a.tolist()
    pivots = _rref_ints(r, p)
    pivot_cols = set(pivots)
    vecs = []  # one per free column
    for fc in (c for c in range(cols) if c not in pivot_cols):
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(r, pivots):
            vec[pc] = -row[fc] % p
        vecs.append(vec)
    return columns(vecs, cols)


def solve(a: Block, b: Block, p: int) -> Block | None:
    """One solution x of a @ x = b (columnwise), or None."""
    rows, cols, k = a.rows, a.cols, b.cols
    if b.rows != rows:
        raise ValueError(f"a {a.shape} block and a right-hand side of {b.rows} rows")
    if not rows:
        return zeros(cols, k)
    if not cols:
        return None if b.any() else zeros(0, k)
    if rows == cols == 1:
        x = a.data[0]
        if not x:
            return None if b.any() else zeros(1, k)
        inv = pow(x, -1, p)
        return b if inv == 1 else _block(1, k, tuple(y * inv % p for y in b.data))
    ad, bd = a.data, b.data
    r = [list(ad[i * cols : (i + 1) * cols] + bd[i * k : (i + 1) * k]) for i in range(rows)]
    pivots = _rref_ints(r, p)
    if pivots and pivots[-1] >= cols:
        return None
    x = [[0] * k] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols:]  # replaces a whole row, so shared zero rows stay zero
    return _block(cols, k, tuple(_flatten(x)))


def inv(a: Block, p: int) -> Block | None:
    """Inverse of a square matrix, or None if singular: a square matrix
    with a right inverse is invertible, and a 0x0 one is its own."""
    if a.rows != a.cols:
        return None
    return solve(a, eye(a.rows), p) if a.rows else a


def is_invertible(a: Block, p: int) -> bool:
    return a.rows == a.cols and (not a.rows or rank(a, p) == a.rows)


def quotient_map(w_cols: Block, n: int, p: int) -> Block:
    """Surjection q: F^n -> F^m with ker(q) = column space of w_cols.

    q is nullspace(w_cols^T)^T: its rows span the functionals that vanish
    on im(w_cols), so row k reads off the k-th non-pivot coordinate of a
    vector reduced modulo im(w_cols).
    """
    if not w_cols.size:
        return eye(n)
    return nullspace(w_cols.T, p).T


def right_inverse(a: Block, p: int) -> Block | None:
    """s with a @ s = id, when a is surjective."""
    return solve(a, eye(a.rows), p)


def submatrix(a: Block, rows: range, cols: range) -> Block:
    """The entries of a in the given rows and columns, in their order."""
    c, data = a.cols, a.data
    return _block(len(rows), len(cols), tuple(data[i * c + j] for i in rows for j in cols))


def vstack(mats: list[Block], cols: int) -> Block:
    """The blocks of `cols` columns one above the other; (0, cols) for none."""
    return grid([[m] for m in mats], [m.rows for m in mats], [cols])


def hstack(mats: list[Block], rows: int) -> Block:
    """The blocks side by side, skipping those without columns (their row
    count may differ); (rows, 0) when none has a column."""
    mats = [m for m in mats if m.cols]
    return mats[0] if len(mats) == 1 and mats[0].rows == rows else grid(
        [mats], [rows], [m.cols for m in mats]
    )


def grid(cells, heights: list[int], widths: list[int]) -> Block:
    """The block matrix whose cell (j, k), of heights[j] rows and widths[k]
    columns, is cells[j][k] (its shape checked, empty or not), or zero if None."""
    data: list[int] = []
    for row, h in zip(cells, heights):
        for cell, w in zip(row, widths):
            if cell is not None and cell.shape != (h, w):
                raise ValueError(f"a {cell.shape} cell in a ({h}, {w}) place")
        for i in range(h):
            for cell, w in zip(row, widths):
                data += cell.data[i * w : i * w + w] if cell is not None else (0,) * w
    return _block(sum(heights), sum(widths), tuple(data))


def block_diag(mats: list[Block]) -> Block:
    """The blocks along the diagonal, zero elsewhere: rows zeros | block row | zeros."""
    width, left, data = sum(m.cols for m in mats), 0, []
    for m in mats:
        c, pad = m.cols, (0,) * (width - m.cols)
        for i in range(m.rows):
            data += pad[:left] + m.data[i * c : i * c + c] + pad[left:]
        left += c
    return _block(sum(m.rows for m in mats), width, tuple(data))
