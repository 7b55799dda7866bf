"""Dense linear-algebra primitives shared by the structured-covariance code.

Positive-definite factorizations go through Cholesky over (T, N, N) stacks;
a failure is reported as a :class:`NotPositiveDefiniteError` instead of
returning garbage. The exchange matrix ``J`` (ones on the anti-diagonal) is
never formed: ``J A J`` is ``A[..., ::-1, ::-1]``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "hermitian_part",
    "cholesky_pd",
    "cholesky_stack",
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
    m: np.ndarray, border: np.ndarray | None = None
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

    ``border``, rows ``B^H`` broadcasting to (T, w, N), factors ``[[M, B],
    [B^H, diag(+inf)]]`` instead (Golub and Van Loan, Matrix Computations,
    4.2); its last w rows hold ``(L^-1 B)^H``, below M's factor L. The border
    cannot stop the factorization (``inf - x = inf``, ``x / inf = 0``) and
    only M's pivots are checked; where it alone breaks down, as a non-finite
    border may, M is factored on its own and the border rows are NaN.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    diag_max = m.diagonal(0, -2, -1).real.max(-1)
    if border is not None:
        width = border.shape[-2]
        full = np.empty((len(m), n + width, n + width), m.dtype)
        full[..., n:] = _border_columns(n, width, m.dtype)
        full[..., :n, :n], full[..., n:, :n] = m, border
        m = full
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
                continue
            except np.linalg.LinAlgError:
                low[t, n:] = np.nan  # the border may be what broke down
            try:
                low[t, :n, :n] = np.linalg.cholesky(matrix[:n, :n])
            except np.linalg.LinAlgError as exc:
                errors[t] = NotPositiveDefiniteError(
                    f"Cholesky breakdown on {n}x{n} matrix: {exc}"
                )
    pivot = (low.diagonal(0, -2, -1)[..., :n].real ** 2).min(-1)
    passed = pivot > _PIVOT_RTOL * diag_max  # NaN fails too
    if passed.all():  # a breakdown's zero factor never passes
        return low, errors, fell_back
    for t in np.flatnonzero(~passed):
        errors.setdefault(int(t), _pivot_error(pivot[t], diag_max[t]))
    low[list(errors)] = np.eye(m.shape[-1], dtype=m.dtype)
    return low, dict(sorted(errors.items())), fell_back


@functools.lru_cache(maxsize=32)
def _border_columns(n: int, width: int, dtype: np.dtype) -> np.ndarray:
    """A bordered matrix's last columns, zeros over ``diag(+inf)``; read-only."""
    columns = np.vstack([np.zeros((n, width), dtype), np.diag(np.full(width, np.inf))])
    columns.flags.writeable = False
    return columns


def _pivot_error(pivot: float, diag_max: float) -> NotPositiveDefiniteError:
    if not (np.isfinite(pivot) and np.isfinite(diag_max)):
        return NotPositiveDefiniteError(
            f"Cholesky pivot {pivot:.3e} or max diagonal ({diag_max:.3e}) is not finite"
        )
    return NotPositiveDefiniteError(
        f"Cholesky pivot {pivot:.3e} at or below "
        f"{_PIVOT_RTOL:.0e} * max diagonal ({diag_max:.3e})"
    )
