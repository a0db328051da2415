import copy
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhearts import linalg as la
from quiverhearts.linalg import Block

PRIMES = [2, 3, 101]
P31 = 2**31 - 1


def entries(p, shape):
    # Unreduced entries too: `modmat` reduces them into [0, p).
    m, n = shape
    return st.lists(st.integers(-p, 2 * p), min_size=m * n, max_size=m * n).map(
        lambda xs: la.modmat(Block(m, n, tuple(xs)), p)
    )


def mat_strategy(p, max_dim=5):
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda s: entries(p, s)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_rref_idempotent_and_rank(p, data):
    a = data.draw(mat_strategy(p))
    r, pivots = la.rref(a, p)
    assert la.rank(a, p) == len(pivots)
    r2, piv2 = la.rref(r, p)
    assert r == r2
    assert piv2 == pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_nullspace_is_kernel(p, data):
    a = data.draw(mat_strategy(p))
    ns = la.nullspace(a, p)
    assert not la.matmul(a, ns, p).any()
    assert ns.cols == a.cols - la.rank(a, p)
    assert la.rank(ns, p) == ns.cols


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_solve_roundtrip(p, data):
    a = data.draw(mat_strategy(p))
    x = data.draw(mat_strategy(p))
    if x.rows != a.cols:
        x = la.zeros(a.cols, 2)
    b = la.matmul(a, x, p)
    sol = la.solve(a, b, p)
    assert sol is not None
    assert la.matmul(a, sol, p) == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_quotient_map_kernel(p, data):
    w = data.draw(mat_strategy(p))
    q = la.quotient_map(w, w.rows, p)
    # q surjective with kernel exactly the column space of w
    assert q.cols == w.rows
    assert la.rank(q, p) == q.rows
    assert not la.matmul(q, w, p).any()
    assert q.rows == w.rows - la.rank(w, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_inverse(p, data):
    a = data.draw(mat_strategy(p))
    if a.rows != a.cols:
        a = la.eye(3)
    if la.is_invertible(a, p):
        inv = la.inv(a, p)
        assert la.matmul(a, inv, p) == la.eye(a.rows)
        assert la.matmul(inv, a, p) == la.eye(a.rows)
    else:
        assert la.inv(a, p) is None


def left_inverse(a, p):
    """r with r @ a = id, when a is injective."""
    s = la.solve(a.T, la.eye(a.cols), p)
    return None if s is None else s.T


def test_right_left_inverse():
    p = 101
    q = la.modmat([[1, 2, 3], [0, 1, 4]], p)
    r = la.right_inverse(q, p)
    assert la.matmul(q, r, p) == la.eye(2)
    m = q.T
    l = left_inverse(m, p)
    assert la.matmul(l, m, p) == la.eye(2)


def test_zero_dims():
    p = 5
    a = la.zeros(0, 3)
    assert la.rank(a, p) == 0
    assert la.nullspace(a, p).shape == (3, 3)
    b = la.zeros(3, 0)
    assert la.nullspace(b, p).shape == (0, 0)
    q = la.quotient_map(la.zeros(3, 0), 3, p)
    assert q.shape == (3, 3)


def test_solve_takes_a_column_right_hand_side():
    p = 5
    x = la.solve(la.zeros(0, 3), la.column(()), p)
    assert x.shape == (3, 1) and not x.any()
    assert la.solve(la.eye(2), la.column([7 % p, 3]), p).tolist() == [[2], [3]]


# ---------------------------------------------------------------------------
# Blocks are immutable values.


def test_blocks_are_immutable_values():
    p = 7
    b = la.modmat([[1, 9], [-1, 3]], p)
    assert b.shape == (2, 2) and b.data == (1, 2, 6, 3) and b[1, 0] == 6
    assert b == la.modmat([[8, 2], [6, 10]], p) and hash(b) == hash(Block(2, 2, (1, 2, 6, 3)))
    assert b != Block(1, 4, b.data)  # equal entries, another shape
    with pytest.raises(AttributeError):
        b.data = (0, 0, 0, 0)
    with pytest.raises(TypeError):
        b[0, 0] = 5
    with pytest.raises(TypeError):
        b.data[0] = 5
    for not_a_sequence in (len, list, lambda x: x + x, lambda x: 2 * x):
        with pytest.raises(TypeError):
            not_a_sequence(b)
    # the entries as a C-ordered int64 array gives them, whatever the shape
    assert b.tobytes() == array("q", [1, 2, 6, 3]).tobytes()
    assert b.T.tolist() == [[1, 6], [2, 3]] and b.T.T == b
    assert copy.deepcopy(b) == b == pickle.loads(pickle.dumps(b))
    assert la.modmat([4, 5], p).shape == (1, 2)  # a flat sequence is one row
    with pytest.raises(ValueError):
        la.modmat([[1, 2], [3]], p)


# ---------------------------------------------------------------------------
# Every kernel, on operands of every shape up to 144 entries, against plain
# row loops written out here: `rref_reference` and the references below.


def transpose_reference(a):
    m, n = a.shape
    return Block(n, m, tuple(a.data[i * n + j] for j in range(n) for i in range(m)))


def rref_reference(a, p):
    """Row-by-row Gauss-Jordan elimination mod p."""
    rows, cols = a.shape
    r = [list(a.data[i * cols : (i + 1) * cols]) for i in range(rows)]
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = next((i for i in range(lead, rows) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = pow(r[lead][col], p - 2, p)
        r[lead] = [x * inv % p for x in r[lead]]
        for i in range(rows):
            f = r[i][col]
            if i != lead and f:
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return Block(rows, cols, tuple(x for row in r for x in row)), pivots


def matmul_reference(a, b, p):
    m, n, k = a.rows, a.cols, b.cols
    return Block(m, k, tuple(
        sum(a.data[i * n + t] * b.data[t * k + j] for t in range(n)) % p
        for i in range(m) for j in range(k)
    ))


def solve_reference(a, b, p):
    rows, cols = a.shape
    k = b.cols
    joined = Block(rows, cols + k, tuple(
        x for i in range(rows)
        for x in a.data[i * cols : (i + 1) * cols] + b.data[i * k : (i + 1) * k]
    ))
    r, pivots = rref_reference(joined, p)
    if any(pc >= cols for pc in pivots):
        return None
    x = [[0] * k for _ in range(cols)]
    for i, pc in enumerate(pivots):
        x[pc] = list(r.data[i * (cols + k) + cols : (i + 1) * (cols + k)])
    return Block(cols, k, tuple(v for row in x for v in row))


def nullspace_reference(a, p):
    r, pivots = rref_reference(a, p)
    n = a.cols
    free = [c for c in range(n) if c not in pivots]
    basis = [[0] * len(free) for _ in range(n)]
    for k, fc in enumerate(free):
        basis[fc][k] = 1
        for i, pc in enumerate(pivots):
            basis[pc][k] = (-r.data[i * n + fc]) % p
    return Block(n, len(free), tuple(v for row in basis for v in row))


def quotient_map_reference(w, n, p):
    r, pivots = rref_reference(transpose_reference(w), p)
    free = [c for c in range(n) if c not in pivots]
    q = [[0] * n for _ in free]
    for j in range(n):
        red = [int(i == j) for i in range(n)]
        for i, pc in enumerate(pivots):
            f = red[pc]
            red = [(x - f * y) % p for x, y in zip(red, r.data[i * n : (i + 1) * n])]
        for row, fc in zip(q, free):
            row[j] = red[fc]
    return Block(len(free), n, tuple(v for row in q for v in row))


SHAPES = {
    "0xn": st.tuples(st.just(0), st.integers(0, 6)),
    "nx0": st.tuples(st.integers(0, 6), st.just(0)),
    "1x1": st.just((1, 1)),
    "1xn": st.tuples(st.just(1), st.integers(1, 8)),
    "nx1": st.tuples(st.integers(1, 8), st.just(1)),
    "mxn": st.tuples(st.integers(0, 8), st.integers(0, 8)),
    "small": st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
        lambda s: 1 < s[0] * s[1] <= 32
    ),
    "large": st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
        lambda s: s[0] * s[1] > 32
    ),
}


def low_rank(p, shape):
    """A product through a space of dimension at most 2: wide kernels."""
    m, n = shape
    return st.integers(0, 2).flatmap(
        lambda k: st.tuples(entries(p, (m, k)), entries(p, (k, n)))
    ).map(lambda uv: matmul_reference(uv[0], uv[1], p))


def python_ints(x):
    return x is None or all(type(v) is int for v in x.data)


@pytest.mark.parametrize("kind", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES + [P31]), product=st.booleans(), data=st.data())
def test_kernels_equal_reference_rref(kind, p, product, data):
    a = data.draw(SHAPES[kind].flatmap(lambda s: (low_rank if product else entries)(p, s)))
    b = data.draw(entries(p, (a.rows, data.draw(st.integers(0, 3)))))
    r, pivots = rref_reference(a, p)
    assert la.rref(a, p) == (r, pivots)
    assert la.rank(a, p) == len(pivots)
    assert la.nullspace(a, p) == nullspace_reference(a, p)
    assert la.quotient_map(a, a.rows, p) == quotient_map_reference(a, a.rows, p)
    # b is mostly outside the column space; a @ x is inside it
    x = data.draw(entries(p, (a.cols, b.cols)))
    for rhs in (b, la.matmul(a, x, p)):
        got = la.solve(a, rhs, p)
        assert got == solve_reference(a, rhs, p) and python_ints(got)


def _solve_each_column(a, b, p):
    """One `solve` per column of b, side by side; None if any is None."""
    cols = [la.solve(a, la.column(b.column(j)), p) for j in range(b.cols)]
    if any(c is None for c in cols):
        return None
    return la.hstack(cols, a.cols)


@pytest.mark.parametrize("kind", ["small", "large", "mxn"])
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES + [P31]), product=st.booleans(), data=st.data())
def test_solve_with_k_columns_is_k_solves_side_by_side(kind, p, product, data):
    """The batching sites rely on this: k right-hand sides give the k
    one-column solutions side by side, and None exactly when one of them is
    None."""
    a = data.draw(SHAPES[kind].flatmap(lambda s: (low_rank if product else entries)(p, s)))
    k = data.draw(st.integers(2, 5))
    # each column is in the column space (a @ x) or, mostly, outside it
    inside = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    x = data.draw(entries(p, (a.cols, k)))
    b = data.draw(entries(p, (a.rows, k)))
    ax = la.matmul(a, x, p)
    b = la.columns([(ax if inside[j] else b).column(j) for j in range(k)], a.rows)
    assert la.solve(a, b, p) == _solve_each_column(a, b, p)
    assert la.solve(a, ax, p) == _solve_each_column(a, ax, p)


def test_small_operands_stay_on_lists():
    """Every kernel row-reduces lists of Python ints with `_rref_ints`, the
    one elimination, whatever the size of its operand, and hands back
    blocks of Python ints."""
    p = 101
    rng = random.Random(3)
    seen = []
    real = la._rref_ints

    def spy(rows, q):
        assert isinstance(rows, list) and all(type(x) is int for row in rows for x in row)
        seen.append((len(rows), len(rows[0]) if rows else 0))
        return real(rows, q)

    for m, n in ((2, 3), (6, 6), (12, 12)):
        a = matmul_reference(Block(m, 2, tuple(rng.randrange(p) for _ in range(2 * m))),
                             Block(2, n, tuple(rng.randrange(p) for _ in range(2 * n))), p)
        b = Block(m, 2, tuple(rng.randrange(p) for _ in range(2 * m)))
        seen.clear()
        la._rref_ints = spy
        try:
            got = (la.nullspace(a, p), la.quotient_map(a, m, p), la.solve(a, b, p), la.rank(a, p))
        finally:
            la._rref_ints = real
        assert seen == [(m, n), (n, m), (m, n + 2), (m, n)]
        want = (nullspace_reference(a, p), quotient_map_reference(a, m, p),
                solve_reference(a, b, p), len(rref_reference(a, p)[1]))
        assert got == want and all(python_ints(x) for x in got[:3])


def test_a_batched_solve_may_cross_small_where_its_columns_do_not():
    """A rank-2 4x6 operand with one right-hand column is 28 entries; with
    three it is 36.  The batch equals the column solves, solvable or not."""
    p = 101
    rng = random.Random(5)

    def rand(m, n):
        return Block(m, n, tuple(rng.randrange(p) for _ in range(m * n)))

    a = la.matmul(rand(4, 2), rand(2, 6), p)
    inside = la.matmul(a, rand(6, 3), p)
    outside = la.columns([inside.column(0), rand(4, 1).data, inside.column(2)], 4)
    for b in (inside, outside):
        each = [la.solve(a, la.column(b.column(j)), p) for j in range(3)]
        batched = la.solve(a, b, p)
        if b is inside:
            assert batched == la.hstack(each, 6)
        else:
            assert each[1] is None and batched is None


# ---------------------------------------------------------------------------
# Empty operands: the early exits against the general paths, written out
# on `rref_reference`.


EMPTY_SHAPES = {
    "0xn": st.tuples(st.just(0), st.integers(1, 6)),
    "mx0": st.tuples(st.integers(1, 6), st.just(0)),
    "0x0": st.just((0, 0)),
}


@pytest.mark.parametrize("kind", sorted(EMPTY_SHAPES))
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_empty_operands_equal_the_general_paths(kind, p, data):
    a = data.draw(EMPTY_SHAPES[kind].flatmap(lambda s: entries(p, s)))
    rows, cols = a.shape
    k = data.draw(st.integers(0, 3))
    right = data.draw(entries(p, (cols, k)))
    left = data.draw(entries(p, (k, rows)))
    assert la.matmul(a, right, p) == matmul_reference(a, right, p)
    assert la.matmul(left, a, p) == matmul_reference(left, a, p)
    assert la.rank(a, p) == len(rref_reference(a, p)[1]) == 0
    assert la.nullspace(a, p) == nullspace_reference(a, p)
    assert la.quotient_map(a, rows, p) == quotient_map_reference(a, rows, p)
    for b in (data.draw(entries(p, (rows, k))), data.draw(entries(p, (rows, 1)))):
        assert la.solve(a, b, p) == solve_reference(a, b, p)


# ---------------------------------------------------------------------------
# Python ints: sums of products are exact for every prime.


def test_matmul_does_not_wrap_at_p31():
    a = Block(1, 4, (P31 - 1,) * 4)
    b = Block(4, 1, (P31 - 1,) * 4)
    assert la.matmul(a, b, P31).tolist() == [[4]]


@pytest.mark.parametrize("p", [P31, 3037000493])
def test_long_products_match_python_ints(p):
    rng = random.Random(7)
    a = Block(3, 9, tuple(rng.randrange(p) for _ in range(27)))
    b = Block(9, 2, tuple(rng.randrange(p) for _ in range(18)))
    exact = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()]
             for row in a.tolist()]
    assert la.matmul(a, b, p).tolist() == exact


def test_matmul_is_exact_past_the_int64_bound():
    # (p - 1)^2 >= 2^63: no int64 sum could hold one product.
    p = 2**61 - 1
    a = Block(2, 3, (p - 1, p - 2, 5, 1, p - 1, p - 1))
    b = Block(3, 1, (p - 1, p - 1, p - 3))
    assert la.matmul(a, b, p) == matmul_reference(a, b, p) == Block(2, 1, (p - 12, 3))


# ---------------------------------------------------------------------------
# Assembling blocks from parts.


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_grid_places_each_cell(p, data):
    heights = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    cells = [[data.draw(st.none() | entries(p, (h, w))) for w in widths] for h in heights]
    got = la.grid(cells, heights, widths)
    assert got.shape == (sum(heights), sum(widths))
    r0 = 0
    for row, h in zip(cells, heights):
        c0 = 0
        for cell, w in zip(row, widths):
            part = la.submatrix(got, range(r0, r0 + h), range(c0, c0 + w))
            assert part == (la.zeros(h, w) if cell is None else cell)
            c0 += w
        r0 += h
    rows = [la.hstack([la.zeros(h, w) if c is None else c for c, w in zip(row, widths)], h)
            for row, h in zip(cells, heights)]
    assert got == la.vstack(rows, sum(widths))
    with pytest.raises(ValueError):
        la.grid([[la.zeros(1, 1)]], [2], [1])


@pytest.mark.parametrize(
    "cells, heights, widths",
    [
        ([[la.zeros(1, 2)], [la.eye(2)]], [0, 2], [2]),  # entries in a zero-height row
        ([[la.zeros(0, 3)], [la.eye(2)]], [0, 2], [2]),  # too wide, in a zero-height row
        ([[la.eye(2), la.zeros(2, 1)]], [2], [2, 0]),  # entries in a zero-width column
        ([[la.eye(2), la.zeros(3, 0)]], [2], [2, 0]),  # too high, in a zero-width column
    ],
)
def test_grid_checks_cells_in_empty_rows_and_columns(cells, heights, widths):
    """A place without entries still checks its cell's shape."""
    with pytest.raises(ValueError):
        la.grid(cells, heights, widths)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_block_diag_is_the_diagonal_grid(p, data):
    """Rows written as zeros | block row | zeros make the grid with the
    blocks on its diagonal, empty blocks included."""
    mats = data.draw(st.lists(mat_strategy(p, 3), max_size=4))
    cells = [[m if j == k else None for k in range(len(mats))] for j, m in enumerate(mats)]
    want = la.grid(cells, [m.rows for m in mats], [m.cols for m in mats])
    got = la.block_diag(mats)
    assert got == want and type(got) is Block


# ---------------------------------------------------------------------------
# Shared blocks: one object per empty shape up to SHARED_SIDE, and per 1x1
# block 0 and 1.  The operands below are built with `Block`, so none of them
# is a shared object.  A result that is an operand as given (`hstack` of one
# block, `solve` by 1, `rref` of a zero) is that operand.


def fresh(rows, cols, *data):
    return Block(rows, cols, tuple(data))


SHARED_RESULTS = {
    "zeros": lambda: la.zeros(0, 3),
    "zeros 1x1": lambda: la.zeros(1, 1),
    "eye 0": lambda: la.eye(0),
    "eye 1": lambda: la.eye(1),
    "T": lambda: fresh(3, 0).T,
    "T 1x1": lambda: fresh(1, 1, 1).T,
    "submatrix": lambda: la.submatrix(fresh(2, 2, 1, 0, 0, 1), range(1, 2), range(1, 2)),
    "submatrix empty": lambda: la.submatrix(fresh(2, 2, 1, 0, 0, 1), range(0), range(2)),
    "column": lambda: la.column([1]),
    "column empty": lambda: la.column(()),
    "columns": lambda: la.columns([(0,)], 1),
    "columns empty": lambda: la.columns([], 4),
    "grid": lambda: la.grid([[None]], [1], [1]),
    "grid empty": lambda: la.grid([[fresh(2, 0)]], [2], [0]),
    "block_diag": lambda: la.block_diag([fresh(1, 0), fresh(0, 1)]),
    "block_diag empty": lambda: la.block_diag([]),
    "hstack": lambda: la.hstack([fresh(0, 1), fresh(0, 2)], 0),
    "hstack empty": lambda: la.hstack([], 2),
    "vstack": lambda: la.vstack([fresh(0, 1), fresh(1, 1, 0)], 1),
    "modmat": lambda: la.modmat([[102]], 101),
    "modmat block": lambda: la.modmat(fresh(1, 1, -101), 101),
    "matmul 1x1": lambda: la.matmul(fresh(1, 1, 3), fresh(1, 1, 34), 101),
    "matmul dot": lambda: la.matmul(fresh(1, 2, 1, 1), fresh(2, 1, 1, 100), 101),
    "matmul empty": lambda: la.matmul(fresh(0, 2), fresh(2, 3, 0, 0, 0, 0, 0, 0), 7),
    "matmul outer": lambda: la.matmul(fresh(2, 1, 1, 1), fresh(1, 0), 7),
    "solve 1x1": lambda: la.solve(fresh(1, 1, 2), fresh(1, 1, 2), 7),
    "solve": lambda: la.solve(fresh(2, 1, 1, 1), fresh(2, 1, 0, 0), 7),
    "solve empty": lambda: la.solve(fresh(0, 2), fresh(0, 0), 7),
    "nullspace 1x1": lambda: la.nullspace(fresh(1, 1, 0), 7),
    "nullspace 1x1 unit": lambda: la.nullspace(fresh(1, 1, 3), 7),
    "nullspace empty": lambda: la.nullspace(fresh(0, 1), 7),
    "rref": lambda: la.rref(fresh(1, 1, 5), 7)[0],
    "add": lambda: la.add(fresh(1, 1, 3), fresh(1, 1, 5), 7),
    "sub": lambda: la.sub(fresh(1, 1, 1), fresh(1, 1, 1), 7),
    "scale": lambda: la.scale(5, fresh(0, 3), 7),
}


@pytest.mark.parametrize("make", SHARED_RESULTS.values(), ids=SHARED_RESULTS)
def test_an_empty_or_unit_result_is_the_shared_block(make):
    got = make()
    assert type(got) is Block and got.size <= 1
    assert got is la._SHARED[got]


def test_the_shared_table_is_bounded():
    """Empty shapes up to SHARED_SIDE and the 1x1 blocks 0 and 1, whatever
    p: a larger empty block and a 1x1 block of another value are new
    objects, equal by content as before."""
    side = la.SHARED_SIDE
    assert len(la._SHARED) == 2 * side + 1 + 2
    assert all(b.size == 0 and max(b.shape) <= side or b.shape == (1, 1) and b.data[0] in (0, 1)
               for b in la._SHARED)
    for make in (lambda: la.zeros(0, side + 1), lambda: la.modmat([[-1]], 101)):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and a is not b
        assert a not in la._SHARED
