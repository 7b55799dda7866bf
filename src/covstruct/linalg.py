"""Dense linear-algebra primitives shared by the structured-covariance code.

Conventions used throughout the package:

* ``vec`` stacks matrix columns (Fortran order), so ``vec(A)[j*rows + i] == A[i, j]``.
* The exchange matrix ``J`` has ones on the anti-diagonal: ``J[l, k] = 1``
  iff ``l + k == N - 1`` (0-based).
* Positive-definite factorizations go through Cholesky; failures raise
  :class:`NotPositiveDefiniteError` instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "NotPositiveDefiniteError",
    "vec",
    "unvec",
    "exchange",
    "hermitian_part",
    "cholesky_pd",
    "logdet_pd",
    "invert_pd",
    "inverse_from_cholesky",
    "inverse_and_logdet",
]

# Relative pivot floor: a Cholesky pivot at or below this fraction of the
# largest diagonal entry is treated as a positive-definiteness failure even
# when the factorization itself does not break down.
_PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix required to be Hermitian PD fails its Cholesky."""


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector (Fortran order)."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector back into a rows-by-cols matrix."""
    return np.asarray(x).reshape((rows, cols), order="F")


def exchange(n: int) -> np.ndarray:
    """Exchange (flip) matrix of size n: ones on the anti-diagonal."""
    return np.eye(n)[::-1].copy()


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H)/2. Bit-exact Hermitian: transposed sums commute entrywise."""
    return 0.5 * (a + a.conj().T)


def cholesky_pd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian positive-definite matrix.

    Parameters
    ----------
    m : ndarray
        Hermitian matrix (only its lower triangle is referenced).

    Returns
    -------
    ndarray
        Lower-triangular L with ``L @ L^H == m``.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization breaks down, or any pivot falls at or below
        ``1e-12`` times the largest diagonal entry of ``m``.
    """
    m = np.asarray(m)
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky breakdown on {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from None
    diag_max = float(np.max(m.diagonal().real)) if m.shape[0] else 0.0
    pivots = low.diagonal().real ** 2
    if m.shape[0] and np.min(pivots) <= _PIVOT_RTOL * diag_max:
        raise NotPositiveDefiniteError(
            f"Cholesky pivot {np.min(pivots):.3e} at or below "
            f"{_PIVOT_RTOL:.0e} * max diagonal ({diag_max:.3e})"
        )
    return low


def logdet_pd(m: np.ndarray) -> float:
    """log-determinant of a Hermitian positive-definite matrix via Cholesky."""
    low = cholesky_pd(m)
    return 2.0 * float(np.sum(np.log(low.diagonal().real)))


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Invert a Hermitian positive-definite matrix via Cholesky.

    The inverse is re-hermitized so downstream structure checks see an
    exactly Hermitian X. Callers that also need the log-determinant or the
    factor itself should use :func:`cholesky_pd` once and derive both.
    """
    m = np.asarray(m)
    return inverse_from_cholesky(cholesky_pd(m), m.dtype)


def inverse_from_cholesky(low: np.ndarray, dtype=None) -> np.ndarray:
    """Hermitian inverse of ``low @ low^H`` from an existing lower factor."""
    eye = np.eye(low.shape[0], dtype=dtype if dtype is not None else low.dtype)
    inv = scipy.linalg.cho_solve((low, True), eye)
    return hermitian_part(inv)


def inverse_and_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Hermitian inverse and log-determinant of a Hermitian PD matrix, from
    one Cholesky factorization (which raises NotPositiveDefiniteError)."""
    low = cholesky_pd(m)
    return inverse_from_cholesky(low), 2.0 * float(np.sum(np.log(low.diagonal().real)))
