"""Dense linear-algebra primitives shared by the structured-covariance code.

Positive-definite factorizations go through Cholesky over (T, N, N) stacks;
a failure is reported as a :class:`NotPositiveDefiniteError` instead of
returning garbage. The exchange matrix ``J`` (ones on the anti-diagonal) is
never formed: ``J A J`` is ``A[..., ::-1, ::-1]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "hermitian_part",
    "cholesky_pd",
    "cholesky_stack",
    "logdet_from_cholesky",
]

# Relative pivot floor: a Cholesky pivot not above this fraction of the
# largest diagonal entry (NaN included) is treated as a positive-definiteness
# failure even when the factorization itself does not break down.
_PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix required to be Hermitian PD fails its Cholesky."""


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H)/2 over the last two axes. Bit-exact Hermitian: transposed
    sums commute entrywise."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def cholesky_pd(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one Hermitian positive-definite matrix; raises
    the :class:`NotPositiveDefiniteError` that :func:`cholesky_stack` reports
    for it. One matrix of :func:`cholesky_stack`."""
    low, errors, _ = cholesky_stack(np.asarray(m)[None])
    if errors:
        raise errors[0]
    return low[0]


def cholesky_stack(
    m: np.ndarray,
) -> tuple[np.ndarray, dict[int, NotPositiveDefiniteError], bool]:
    """Lower Cholesky factors of a (T, N, N) stack of Hermitian matrices.

    Only the lower triangles are referenced. Returns ``(low, errors,
    fell_back)``. ``errors`` maps the index of each matrix that is not
    positive definite to its error: the factorization breaks down, or a
    pivot is not above ``1e-12`` times the largest diagonal entry of that
    matrix (a NaN pivot is not). A failing matrix's factor is the identity.
    numpy refuses the whole stack when any one factor breaks down, and then
    the stack is factored matrix by matrix; ``fell_back`` says so. Either way each matrix
    is factored on its own, so every factor and error is bit-identical to a
    stack of one.
    """
    m = np.asarray(m)
    errors: dict[int, NotPositiveDefiniteError] = {}
    fell_back = False
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        fell_back = True
        low = np.zeros_like(m)
        for t, matrix in enumerate(m):
            try:
                low[t] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                errors[t] = NotPositiveDefiniteError(
                    f"Cholesky breakdown on {m.shape[-2]}x{m.shape[-1]} matrix: {exc}"
                )
    diag_max = m.diagonal(0, -2, -1).real.max(-1)
    pivot = (low.diagonal(0, -2, -1).real ** 2).min(-1)
    passed = pivot > _PIVOT_RTOL * diag_max  # NaN fails too
    if passed.all():  # a breakdown's zero factor never passes
        return low, errors, fell_back
    for t in np.flatnonzero(~passed):
        errors.setdefault(int(t), _pivot_error(pivot[t], diag_max[t]))
    low[list(errors)] = np.eye(m.shape[-1], dtype=m.dtype)
    return low, dict(sorted(errors.items())), fell_back


def _pivot_error(pivot: float, diag_max: float) -> NotPositiveDefiniteError:
    if not (np.isfinite(pivot) and np.isfinite(diag_max)):
        return NotPositiveDefiniteError(
            f"Cholesky pivot {pivot:.3e} or max diagonal ({diag_max:.3e}) is not finite"
        )
    return NotPositiveDefiniteError(
        f"Cholesky pivot {pivot:.3e} at or below "
        f"{_PIVOT_RTOL:.0e} * max diagonal ({diag_max:.3e})"
    )


def logdet_from_cholesky(low: np.ndarray) -> np.ndarray:
    """log det of each matrix of a stack from its lower Cholesky factor."""
    return 2.0 * np.sum(np.log(low.diagonal(axis1=-2, axis2=-1).real), axis=-1)
