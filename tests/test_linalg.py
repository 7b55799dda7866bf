"""Positive-definite kernels, and the vectorization and exchange helpers of
the test oracle."""

import numpy as np
import pytest

from covstruct.linalg import (
    NotPositiveDefiniteError,
    cholesky_pd,
    cholesky_stack,
    hermitian_part,
)

from conftest import random_pd_matrix
from oracle import complex_normal, exchange, logdet_from_cholesky, unvec, vec


def test_vec_is_column_stacking():
    a = np.arange(6.0).reshape(2, 3)
    expected = np.empty(6)
    pos = 0
    for col in range(3):
        for row in range(2):
            expected[pos] = a[row, col]
            pos += 1
    np.testing.assert_array_equal(vec(a), expected)


def test_unvec_round_trip(rng):
    a = complex_normal(rng, (4, 5))
    np.testing.assert_array_equal(unvec(vec(a), 4, 5), a)


def test_kron_vec_trace_identity(rng):
    # Tr{A V B W} style identity in vec form: (A (x) B) vec(V) = vec(B V A^T).
    for _ in range(50):
        a = complex_normal(rng, (4, 4))
        b = complex_normal(rng, (4, 4))
        v = complex_normal(rng, (4, 4))
        lhs = np.kron(a, b) @ vec(v)
        rhs = vec(b @ v @ a.T)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() / scale <= 1e-9


def test_exchange_matrix():
    j = exchange(4)
    np.testing.assert_array_equal(j, np.eye(4)[::-1])
    np.testing.assert_array_equal(j @ j, np.eye(4))
    v = np.arange(4.0)
    np.testing.assert_array_equal(j @ v, v[::-1])


def test_hermitian_part(rng):
    a = complex_normal(rng, (5, 5))
    h = hermitian_part(a)
    np.testing.assert_array_equal(h, h.conj().T)
    np.testing.assert_allclose(h, 0.5 * (a + a.conj().T))


def test_logdet_matches_eigenvalue_oracle(rng):
    for _ in range(10):
        m = random_pd_matrix(rng, 6)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(m))))
        got = float(logdet_from_cholesky(cholesky_stack(m[None])[0])[0])
        assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))
        assert logdet_from_cholesky(cholesky_pd(m)) == got


def test_cholesky_stack_matches_single_calls(rng):
    # Each matrix of a stack is factored on its own: factors and
    # log-determinants equal stacks of one bit for bit, and a failing matrix
    # carries cholesky_pd's own error while the others are untouched, on the
    # breakdown and the pivot path.
    stack = np.stack([random_pd_matrix(rng, 5) for _ in range(4)])
    low, errors, fell_back = cholesky_stack(stack)
    assert errors == {} and not fell_back
    logdet = logdet_from_cholesky(low)
    for t, m in enumerate(stack):
        low_one = cholesky_stack(m[None])[0]
        np.testing.assert_array_equal(low[t], low_one[0])
        np.testing.assert_array_equal(low[t], cholesky_pd(m))
        assert logdet[t] == logdet_from_cholesky(low_one)[0]
    indefinite = np.diag([1.0, -1.0, 2.0, 1.0, 1.0]).astype(complex)
    tiny_pivot = np.diag([1.0, 1e-14, 2.0, 1.0, 1.0]).astype(complex)
    # Only a breakdown makes numpy refuse the stack; a small pivot does not.
    for bad, falls_back in (({1: indefinite, 2: tiny_pivot}, True), ({2: tiny_pivot}, False)):
        broken = stack.copy()
        for t, m in bad.items():
            broken[t] = m
        low_b, errors_b, fell_back_b = cholesky_stack(broken)
        assert list(errors_b) == sorted(bad)
        assert fell_back_b is falls_back
        for t, m in bad.items():
            with pytest.raises(NotPositiveDefiniteError) as info:
                cholesky_pd(m)
            assert str(errors_b[t]) == str(info.value)
            np.testing.assert_array_equal(low_b[t], np.eye(5))
        for t in set(range(4)) - set(bad):
            np.testing.assert_array_equal(low_b[t], low[t])


def test_cholesky_reconstruction(rng):
    m = random_pd_matrix(rng, 6)
    low = cholesky_pd(m)
    np.testing.assert_allclose(low @ low.conj().T, m, atol=1e-10 * float(np.abs(m).max()))


def test_cholesky_rejects_indefinite():
    m = np.diag([1.0, -1.0, 2.0]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_pd(m)


def test_cholesky_rejects_tiny_pivot():
    # Relative pivot floor: a 1e-14 eigenvalue next to an O(1) diagonal fails.
    m = np.diag([1.0, 1e-14, 2.0]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_pd(m)


def test_cholesky_rejects_nan_entries():
    # Some LAPACK builds pass a NaN pivot through without breaking down; the
    # pivot floor must fail it all the same (NaN is not above the floor).
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex)
    low, errors, _ = cholesky_stack(np.stack([np.eye(2, dtype=complex), bad]))
    assert list(errors) == [1] and isinstance(errors[1], NotPositiveDefiniteError)
    np.testing.assert_array_equal(low, np.stack([np.eye(2)] * 2))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_pd(bad)


def test_logdet_rejects_non_pd():
    m = np.diag([1.0, 0.0]).astype(complex)
    _, errors, _ = cholesky_stack(m[None])
    assert isinstance(errors[0], NotPositiveDefiniteError)
