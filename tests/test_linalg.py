from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhearts import linalg as la

PRIMES = [2, 3, 101]
P31 = 2**31 - 1


def mat_strategy(p, max_dim=5):
    return st.integers(0, max_dim).flatmap(
        lambda m: st.integers(0, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(m, n))
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_rref_idempotent_and_rank(p, data):
    a = data.draw(mat_strategy(p))
    r, pivots = la.rref(a, p)
    assert la.rank(a, p) == len(pivots)
    r2, piv2 = la.rref(r, p)
    assert np.array_equal(r, r2)
    assert piv2 == pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_nullspace_is_kernel(p, data):
    a = data.draw(mat_strategy(p))
    ns = la.nullspace(a, p)
    assert not la.matmul(a, ns, p).any()
    assert ns.shape[1] == a.shape[1] - la.rank(a, p)
    assert la.rank(ns, p) == ns.shape[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_solve_roundtrip(p, data):
    a = data.draw(mat_strategy(p))
    x = data.draw(mat_strategy(p))
    if x.shape[0] != a.shape[1]:
        x = np.zeros((a.shape[1], 2), dtype=np.int64)
    b = la.matmul(a, x, p)
    sol = la.solve(a, b, p)
    assert sol is not None
    assert np.array_equal(la.matmul(a, sol, p), b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_quotient_map_kernel(p, data):
    w = data.draw(mat_strategy(p))
    q = la.quotient_map(w, w.shape[0], p)
    # q surjective with kernel exactly the column space of w
    assert q.shape[1] == w.shape[0]
    assert la.rank(q, p) == q.shape[0]
    assert not la.matmul(q, w, p).any()
    assert q.shape[0] == w.shape[0] - la.rank(w, p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_inverse(p, data):
    a = data.draw(mat_strategy(p))
    if a.shape[0] != a.shape[1]:
        a = la.eye(3)
    if la.is_invertible(a, p):
        inv = la.inv(a, p)
        assert np.array_equal(la.matmul(a, inv, p), la.eye(a.shape[0]))
        assert np.array_equal(la.matmul(inv, a, p), la.eye(a.shape[0]))
    else:
        assert la.inv(a, p) is None


def left_inverse(a, p):
    """r with r @ a = id, when a is injective."""
    s = la.solve(a.T, la.eye(a.shape[1]), p)
    return None if s is None else np.mod(s.T, p)


def test_right_left_inverse():
    p = 101
    q = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    r = la.right_inverse(q, p)
    assert np.array_equal(la.matmul(q, r, p), la.eye(2))
    m = q.T.copy()
    l = left_inverse(m, p)
    assert np.array_equal(la.matmul(l, m, p), la.eye(2))


def test_zero_dims():
    p = 5
    a = la.zeros(0, 3)
    assert la.rank(a, p) == 0
    assert la.nullspace(a, p).shape == (3, 3)
    b = la.zeros(3, 0)
    assert la.nullspace(b, p).shape == (0, 0)
    q = la.quotient_map(la.zeros(3, 0), 3, p)
    assert q.shape == (3, 3)


def test_solve_takes_a_1d_right_hand_side():
    p = 5
    x = la.solve(la.zeros(0, 3), np.zeros(0, dtype=np.int64), p)
    assert x.dtype == np.int64 and x.shape == (3, 1) and not x.any()
    assert la.solve(la.eye(2), np.array([7, 3]), p).tolist() == [[2], [3]]


# ---------------------------------------------------------------------------
# Every kernel, on both sides of the small-matrix threshold, against plain
# row loops written out here: `rref_reference` and the references below.


def rref_reference(a, p):
    """Row-by-row Gauss-Jordan elimination mod p."""
    r = np.mod(np.array(a, dtype=np.int64), p)
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = None
        for i in range(lead, rows):
            if r[i, col] % p:
                piv = i
                break
        if piv is None:
            continue
        r[[lead, piv]] = r[[piv, lead]]
        r[lead] = np.mod(r[lead] * la.inv_scalar(r[lead, col], p), p)
        for i in range(rows):
            if i != lead and r[i, col]:
                r[i] = np.mod(r[i] - r[i, col] * r[lead], p)
        pivots.append(col)
        lead += 1
    return r, pivots


SHAPES = {
    "0xn": st.tuples(st.just(0), st.integers(0, 6)),
    "nx0": st.tuples(st.integers(0, 6), st.just(0)),
    "1x1": st.just((1, 1)),
    "1xn": st.tuples(st.just(1), st.integers(1, 8)),
    "nx1": st.tuples(st.integers(1, 8), st.just(1)),
    "mxn": st.tuples(st.integers(0, 8), st.integers(0, 8)),
    "small": st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
        lambda s: 1 < s[0] * s[1] <= la.SMALL
    ),
    "large": st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
        lambda s: s[0] * s[1] > la.SMALL
    ),
}


def entries(p, shape):
    # Unreduced entries too: every kernel reduces its input first.
    m, n = shape
    return st.lists(st.integers(-p, 2 * p), min_size=m * n, max_size=m * n).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(m, n)
    )


def low_rank(p, shape):
    """A product through a space of dimension at most 2: wide kernels."""
    m, n = shape
    return st.integers(0, 2).flatmap(
        lambda k: st.tuples(entries(p, (m, k)), entries(p, (k, n)))
    ).map(lambda uv: la.matmul(np.mod(uv[0], p), np.mod(uv[1], p), p))


def same(x, y):
    if isinstance(x, tuple):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize("kind", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES + [P31]), product=st.booleans(), data=st.data())
def test_kernels_equal_reference_rref(kind, p, product, data):
    a = data.draw(SHAPES[kind].flatmap(lambda s: (low_rank if product else entries)(p, s)))
    b = data.draw(entries(p, (a.shape[0], data.draw(st.integers(0, 3)))))
    r, pivots = rref_reference(a, p)
    assert same(la.rref(a, p), (r, pivots))
    assert la.rank(a, p) == len(pivots)
    assert same(la.nullspace(a, p), nullspace_reference(a, p))
    assert same(la.quotient_map(a, a.shape[0], p), quotient_map_reference(a, a.shape[0], p))
    # b is mostly outside the column space; a @ x is inside it
    x = data.draw(entries(p, (a.shape[1], b.shape[1])))
    for rhs in (b, la.matmul(np.mod(a, p), np.mod(x, p), p)):
        assert same(la.solve(a, rhs, p), solve_reference(a, rhs, p))


def _no_array_elimination(*args):
    raise AssertionError("a small operand reached the array elimination")


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES + [P31]), product=st.booleans(), data=st.data())
def test_small_operands_stay_on_lists(p, product, data):
    a = data.draw(SHAPES["small"].flatmap(lambda s: (low_rank if product else entries)(p, s)))
    rows, cols = a.shape
    b = data.draw(entries(p, (rows, data.draw(st.integers(0, la.SMALL // rows - cols)))))
    want = (nullspace_reference(a, p), quotient_map_reference(a, rows, p),
            solve_reference(a, b, p))
    with mock.patch.object(la, "rref", _no_array_elimination), \
            mock.patch.object(la, "_rref_array", _no_array_elimination):
        got = (la.nullspace(a, p), la.quotient_map(a, rows, p), la.solve(a, b, p))
    assert all(same(x, y) for x, y in zip(got, want))


def _solve_each_column(a, b, p):
    """One `solve` per column of b, side by side; None if any is None."""
    cols = [la.solve(a, b[:, [j]], p) for j in range(b.shape[1])]
    if any(c is None for c in cols):
        return None
    return np.concatenate(cols, axis=1) if cols else la.zeros(a.shape[1], 0)


@pytest.mark.parametrize("kind", ["small", "large", "mxn"])
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES + [P31]), product=st.booleans(), data=st.data())
def test_solve_with_k_columns_is_k_solves_side_by_side(kind, p, product, data):
    """The batching sites rely on this: k right-hand sides give the k
    one-column solutions side by side, and None exactly when one of them is
    None, on the list path and on the array path alike."""
    a = data.draw(SHAPES[kind].flatmap(lambda s: (low_rank if product else entries)(p, s)))
    k = data.draw(st.integers(2, 5))
    # each column is in the column space (a @ x) or, mostly, outside it
    inside = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    x = data.draw(entries(p, (a.shape[1], k)))
    b = np.mod(data.draw(entries(p, (a.shape[0], k))), p)
    ax = la.matmul(np.mod(a, p), np.mod(x, p), p)
    b[:, inside] = ax[:, inside]
    assert same(la.solve(a, b, p), _solve_each_column(a, b, p))
    assert same(la.solve(a, ax, p), _solve_each_column(a, ax, p))


def test_a_batched_solve_may_cross_small_where_its_columns_do_not():
    """4x6 with one column is 28 entries (lists); with three it is 36, so
    the batch takes the array path and still equals the column solves,
    solvable or not."""
    p = 101
    rng = np.random.default_rng(5)
    a = la.matmul(rng.integers(0, p, size=(4, 2)), rng.integers(0, p, size=(2, 6)), p)
    inside = la.matmul(a, rng.integers(0, p, size=(6, 3)), p)
    outside = inside.copy()
    outside[:, 1] = rng.integers(0, p, size=4)
    assert 4 * (6 + 1) <= la.SMALL < 4 * (6 + 3)
    for b in (inside, outside):
        with mock.patch.object(la, "_rref_array", _no_array_elimination):
            each = [la.solve(a, b[:, [j]], p) for j in range(3)]
        arrays = []
        real = la._rref_array
        with mock.patch.object(la, "_rref_array", lambda r, q: arrays.append(r.shape) or real(r, q)):
            batched = la.solve(a, b, p)
        assert arrays == [(4, 9)]
        if b is inside:
            assert same(batched, np.concatenate(each, axis=1))
        else:
            assert each[1] is None and batched is None


# ---------------------------------------------------------------------------
# Empty operands: the early exits against the general paths, written out
# on `rref_reference`.


def solve_reference(a, b, p):
    rows, cols = a.shape
    b = b.reshape(rows, 1) if b.ndim == 1 else b
    r, pivots = rref_reference(np.concatenate([a, np.mod(b, p)], axis=1), p)
    if any(pc >= cols for pc in pivots):
        return None
    x = la.zeros(cols, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def nullspace_reference(a, p):
    r, pivots = rref_reference(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = la.zeros(a.shape[1], len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def quotient_map_reference(w, n, p):
    r, pivots = rref_reference(w.T, p)
    free = [c for c in range(n) if c not in pivots]
    q = la.zeros(len(free), n)
    for j in range(n):
        red = la.eye(n)[j]
        for i, pc in enumerate(pivots):
            red = np.mod(red - red[pc] * r[i], p)
        q[:, j] = red[free]
    return q


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
    assert same(la.matmul(a, right, p), np.mod(a @ right, p))
    assert same(la.matmul(left, a, p), np.mod(left @ a, p))
    assert la.rank(a, p) == len(rref_reference(a, p)[1]) == 0
    assert same(la.nullspace(a, p), nullspace_reference(a, p))
    assert same(la.quotient_map(a, rows, p), quotient_map_reference(a, rows, p))
    for b in (data.draw(entries(p, (rows, k))), data.draw(entries(p, (1, rows)))[0]):
        assert same(la.solve(a, b, p), solve_reference(a, b, p))


# ---------------------------------------------------------------------------
# int64 bound: sums of products are exact for every accepted prime.


def test_matmul_does_not_wrap_at_p31():
    a = np.full((1, 4), P31 - 1, dtype=np.int64)
    b = np.full((4, 1), P31 - 1, dtype=np.int64)
    assert la.matmul(a, b, P31).tolist() == [[4]]


@pytest.mark.parametrize("p", [P31, 3037000493])
def test_long_products_match_python_ints(p):
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(3, 9), dtype=np.int64)
    b = rng.integers(0, p, size=(9, 2), dtype=np.int64)
    exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert la.matmul(a, b, p).tolist() == exact


@pytest.mark.parametrize("p", [P31, 3037000493])
def test_stacked_products_match_each_slice(p):
    # Broadcast stacks, as `composite_columns` multiplies them; the inner
    # dimension 7 needs chunks at both primes.
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(1, 3, 2, 7), dtype=np.int64)
    b = rng.integers(0, p, size=(4, 1, 7, 5), dtype=np.int64)
    a[0, 0] = b[0, 0] = p - 1
    got = la.matmul(a, b, p)
    assert got.shape == (4, 3, 2, 5)
    for k in range(4):
        for j in range(3):
            x, y = a[0, j], b[k, 0]
            assert np.array_equal(got[k, j], la.matmul(x, y, p))
            exact = [[sum(int(s) * int(t) for s, t in zip(row, col)) % p for col in y.T]
                     for row in x]
            assert got[k, j].tolist() == exact


def test_matmul_refuses_a_prime_past_the_bound():
    p = 2**61 - 1
    with pytest.raises(ValueError, match="too large"):
        la.matmul(la.eye(2), la.eye(2), p)
