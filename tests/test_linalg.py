from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhearts import linalg as la

PRIMES = [2, 3, 101]


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


def test_right_left_inverse():
    p = 101
    q = np.array([[1, 2, 3], [0, 1, 4]], dtype=np.int64)
    r = la.right_inverse(q, p)
    assert np.array_equal(la.matmul(q, r, p), la.eye(2))
    m = q.T.copy()
    l = la.left_inverse(m, p)
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


# ---------------------------------------------------------------------------
# The vectorised rref against the plain row loop it replaced.


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
}


def entries(p, shape):
    # Unreduced entries too: every kernel reduces its input first.
    m, n = shape
    return st.lists(st.integers(-p, 2 * p), min_size=m * n, max_size=m * n).map(
        lambda xs: np.array(xs, dtype=np.int64).reshape(m, n)
    )


def same(x, y):
    if isinstance(x, tuple):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize("kind", sorted(SHAPES))
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_kernels_equal_reference_rref(kind, p, data):
    a = data.draw(SHAPES[kind].flatmap(lambda s: entries(p, s)))
    b = data.draw(entries(p, (a.shape[0], data.draw(st.integers(0, 3)))))
    kernels = {
        "rref": lambda: la.rref(a, p),
        "rank": lambda: la.rank(a, p),
        "nullspace": lambda: la.nullspace(a, p),
        "solve": lambda: la.solve(a, b, p),
        "quotient_map": lambda: la.quotient_map(a, a.shape[0], p),
    }
    for name, kernel in kernels.items():
        got = kernel()
        with mock.patch.object(la, "rref", rref_reference):
            want = kernel()
        assert same(got, want), name


# ---------------------------------------------------------------------------
# int64 bound: sums of products are exact for every accepted prime.

P31 = 2**31 - 1


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


def test_matmul_refuses_a_prime_past_the_bound():
    p = 2**61 - 1
    with pytest.raises(ValueError, match="too large"):
        la.matmul(la.eye(2), la.eye(2), p)
