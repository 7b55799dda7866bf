"""Hypothesis set of the covariance structures, their parameter counts and
projections.

Four nested hypotheses on an N x N interference covariance matrix M:

* H1 — Hermitian, no further structure.
* H2 — real symmetric.
* H3 — centrohermitian: Hermitian with ``M == J conj(M) J``.
* H4 — centrosymmetric: real symmetric with ``M == J M J``.

Each hypothesis admits an exact linear parameterization ``vec(M) = C @ theta``
with ``theta`` real, ``vec`` stacking columns, and the entries of ``C``
drawn from ``{0, +1, -1, +1j, -1j}``. The package scores a class through
:func:`project`, :func:`param_count` and :func:`basis_log_norm`, which are
closed forms of that basis. The free parameter counts are::

    m1 = N^2          m2 = m3 = N (N + 1) / 2
    m4 = (N/2)(N/2 + 1)        (N even)
    m4 = ((N + 1)/2)^2         (N odd)

:func:`structure_model` builds C by orbit enumeration: each hypothesis is the
fixed-point set of a small group acting on matrix positions (transposition,
anti-diagonal flip, complex conjugation). Positions are walked over the lower
triangle in column-major order; the first unseen position opens a new
equality class, and the class contributes one real slot (plus one imaginary
slot when the class value may be complex). No production path reads C; the
test oracle builds the theta-basis likelihood on it.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

__all__ = [
    "Hypothesis",
    "param_count",
    "basis_log_norm",
    "structure_model",
    "project",
]


class Hypothesis(enum.IntEnum):
    """The four covariance structures, ordered by nesting (H2, H3, H4 in H1)."""

    H1 = 1
    H2 = 2
    H3 = 3
    H4 = 4

    @property
    def is_real(self) -> bool:
        """True when M is real-valued under this hypothesis (H2, H4)."""
        return self in (Hypothesis.H2, Hypothesis.H4)

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    Hypothesis.H1: "hermitian",
    Hypothesis.H2: "symmetric",
    Hypothesis.H3: "centrohermitian",
    Hypothesis.H4: "centrosymmetric",
}


def param_count(hypothesis: Hypothesis, n: int) -> int:
    """Number of free real parameters of the structure at size n."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    h = Hypothesis(hypothesis)
    if h is Hypothesis.H1:
        return n * n
    if h in (Hypothesis.H2, Hypothesis.H3):
        return n * (n + 1) // 2
    if n % 2 == 0:
        half = n // 2
        return half * (half + 1)
    return ((n + 1) // 2) ** 2


def basis_log_norm(hypothesis: Hypothesis, n: int) -> float:
    """``sum_q log ||C_q||^2`` over the basis columns of a hypothesis at size n.

    A column's squared norm is the size of its position orbit (1, 2 or 4).
    Summed over the columns, log2 of the orbit sizes is N(N-1) for the
    complex classes (H1, H3) and N(N-1)/2 for the real ones (H2, H4), plus
    N // 2 under H3 and H4 for the diagonal pairs (i, i), (N-1-i, N-1-i).
    """
    h = Hypothesis(hypothesis)
    doublings = n * (n - 1) // (2 if h.is_real else 1)
    if h in (Hypothesis.H3, Hypothesis.H4):
        doublings += n // 2
    return math.log(2.0) * doublings


# Group elements are (position_map, conjugates) pairs acting on 0-based (i, j).
# A matrix has the structure iff M[g(i, j)] == M[i, j] (conjugated when the
# element carries conjugation) for every element g of its group.


def _group(hypothesis: Hypothesis, n: int):
    idn = lambda i, j: (i, j)
    swap = lambda i, j: (j, i)
    flip = lambda i, j: (n - 1 - i, n - 1 - j)
    anti = lambda i, j: (n - 1 - j, n - 1 - i)
    h = Hypothesis(hypothesis)
    if h is Hypothesis.H1:
        return [(idn, False), (swap, True)]
    if h is Hypothesis.H2:
        return [(idn, False), (swap, False)]
    if h is Hypothesis.H3:
        return [(idn, False), (swap, True), (flip, True), (anti, False)]
    return [(idn, False), (swap, False), (flip, False), (anti, False)]


def _orbit(group, pos):
    """Equality class of a position: maps position -> conjugation parity.

    Returns (orbit, forced_real). forced_real is set when some group element
    sends a position to itself with conjugation, pinning the class value to
    the real axis.
    """
    orbit = {pos: False}
    frontier = [pos]
    forced_real = False
    while frontier:
        p = frontier.pop()
        parity = orbit[p]
        for mapper, conj in group:
            q = mapper(*p)
            q_parity = parity ^ conj
            if q not in orbit:
                orbit[q] = q_parity
                frontier.append(q)
            elif orbit[q] != q_parity:
                forced_real = True
    return orbit, forced_real


@functools.lru_cache(maxsize=32)
def structure_model(hypothesis: Hypothesis, n: int) -> np.ndarray:
    """The basis matrix C of a hypothesis at size n: complex, (n*n, m),
    entries 0, +-1 or +-1j, formed once per (hypothesis, n) and read-only.

    Slot order: walk the lower triangle column by column, top to bottom
    within a column. Each new equality class contributes its real slot, then
    its imaginary slot when the class is not pinned real. Under H1 this
    reproduces the ordering [M(0,0), Re M(1,0), Im M(1,0), ..., M(1,1), ...].
    """
    h = Hypothesis(hypothesis)
    group = _group(h, n)
    complex_classes = not h.is_real
    seen: set[tuple[int, int]] = set()
    columns: list[np.ndarray] = []

    for j in range(n):
        for i in range(j, n):
            if (i, j) in seen:
                continue
            orbit, forced_real = _orbit(group, (i, j))
            seen.update(orbit)
            re_col = np.zeros(n * n, dtype=complex)
            for (p, q), _parity in orbit.items():
                re_col[q * n + p] = 1.0
            columns.append(re_col)
            if complex_classes and not forced_real:
                im_col = np.zeros(n * n, dtype=complex)
                for (p, q), parity in orbit.items():
                    im_col[q * n + p] = -1j if parity else 1j
                columns.append(im_col)

    constraint = np.column_stack(columns)
    expected = param_count(h, n)
    if constraint.shape[1] != expected:
        raise AssertionError(
            f"orbit enumeration built {constraint.shape[1]} slots for "
            f"{h.name} at n={n}, expected {expected}"
        )
    constraint.flags.writeable = False
    return constraint


def project(hypothesis: Hypothesis, matrix: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the structure of a hypothesis.

    H1 returns the input unchanged; H2 takes the real part; H3 averages with
    the flipped conjugate ``J conj(M) J``; H4 is the real part of the H3
    projection (the two operations commute entrywise, so chaining them is
    exact). Positive definiteness is preserved under every branch. A stack
    of shape (..., N, N) is projected matrix by matrix over the last two axes.
    """
    h = Hypothesis(hypothesis)
    matrix = np.asarray(matrix)
    if h is Hypothesis.H1:
        return matrix
    if h is Hypothesis.H2:
        return matrix.real.copy()
    flipped = matrix[..., ::-1, ::-1].conj()
    centro = 0.5 * (matrix + flipped)
    if h is Hypothesis.H3:
        return centro
    return centro.real.copy()
