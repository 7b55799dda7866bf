"""Closed-form plug-in estimators for each hypothesis.

The interference covariance is estimated from secondary snapshots only. With
``S = Z Z^H`` (``Dataset.scatter``, formed once per dataset) the unstructured
estimate is ``S / K``; the structured variants are its exact projections onto
each hypothesis, so the nesting relations hold bit-for-bit (e.g. the
centrosymmetric estimate equals the real part of the centrohermitian one).

The signal amplitude ``alpha`` is estimated from the cell under test with the
ICM estimate plugged in. Under the flip-symmetric hypotheses the cell under
test splits into conjugate-even and conjugate-odd parts
``z_e = (z + J conj(z))/2`` and ``z_o = (z - J conj(z))/2`` which carry the
real and imaginary amplitude components separately.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_part
from .structures import Hypothesis, project

__all__ = [
    "Approach",
    "Dataset",
    "EstimateSet",
    "DegenerateSteeringError",
    "estimate_covariance",
    "estimate_alpha",
]

# Steering-energy denominators at or below this are refused outright.
_STEERING_FLOOR = 1e-14


class Approach(enum.Enum):
    """Which data enter the selection rule.

    A: cell under test and secondary snapshots jointly (amplitude estimated).
    B: secondary snapshots only.
    """

    A = "A"
    B = "B"

    @classmethod
    def parse(cls, value) -> "Approach":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().upper())
        except ValueError:
            raise ValueError(f"approach must be 'A' or 'B', got {value!r}") from None


class DegenerateSteeringError(ValueError):
    """Steering energy through the estimated ICM is numerically zero."""


@dataclass(frozen=True)
class Dataset:
    """One classification problem: secondary snapshots plus optional CUT.

    Attributes
    ----------
    secondary : ndarray, shape (N, K)
        Zero-mean snapshots, one per column. K > N is required so the
        sample covariance is almost surely invertible.
    cut : ndarray, shape (N,), optional
        Cell under test. Required by approach A.
    steering : ndarray, shape (N,), optional
        Unit-norm steering vector. Required by approach A.
    """

    secondary: np.ndarray
    cut: np.ndarray | None = None
    steering: np.ndarray | None = None

    def __post_init__(self):
        sec = np.asarray(self.secondary, dtype=complex)
        if sec.ndim != 2:
            raise ValueError(f"secondary must be an N x K matrix, got shape {sec.shape}")
        n, k = sec.shape
        if k <= n:
            raise ValueError(f"need K > N secondary snapshots, got K={k}, N={n}")
        object.__setattr__(self, "secondary", sec)
        if self.cut is not None:
            cut = np.asarray(self.cut, dtype=complex)
            if cut.shape != (n,):
                raise ValueError(f"cut must have shape ({n},), got {cut.shape}")
            object.__setattr__(self, "cut", cut)
        if self.steering is not None:
            v = np.asarray(self.steering, dtype=complex)
            if v.shape != (n,):
                raise ValueError(f"steering must have shape ({n},), got {v.shape}")
            norm = float(np.linalg.norm(v))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"steering must be unit norm, got |v| = {norm!r}")
            object.__setattr__(self, "steering", v)

    @property
    def n(self) -> int:
        return self.secondary.shape[0]

    @property
    def k(self) -> int:
        return self.secondary.shape[1]

    @functools.cached_property
    def scatter(self) -> np.ndarray:
        """Hermitian part of ``S = Z Z^H``, formed on first use and kept."""
        return hermitian_part(self.secondary @ self.secondary.conj().T)

    def require_cut(self) -> tuple[np.ndarray, np.ndarray]:
        """CUT and steering, or a clear error naming what approach A misses."""
        if self.cut is None:
            raise ValueError("approach A needs a cell under test ('cut')")
        if self.steering is None:
            raise ValueError("approach A needs a steering vector ('steering')")
        return self.cut, self.steering


@dataclass(frozen=True)
class EstimateSet:
    """Plug-in estimates for one hypothesis.

    ``x_hat`` is the inverse of ``m_hat`` and ``logdet`` its log-determinant,
    both from the same Cholesky factorization. ``alpha_hat`` is None under
    approach B, and also when amplitude estimation degenerated; in the latter
    case ``alpha_failure`` carries the reason while the covariance estimates
    stay usable for the rules that never touch the cell under test.
    """

    hypothesis: Hypothesis
    m_hat: np.ndarray
    x_hat: np.ndarray
    logdet: float
    alpha_hat: complex | None = None
    alpha_failure: str | None = None


def estimate_covariance(hypothesis: Hypothesis, dataset: Dataset) -> np.ndarray:
    """Structured ML estimate of the ICM from the secondary snapshots.

    H1: S/K. H2: Re(S)/K. H3: (S/K + J conj(S/K) J)/2. H4: real part of H3.
    All are exact projections of S/K, hence positive definite whenever S is.
    The caller's Cholesky of the result is the positive-definiteness check.
    """
    return project(hypothesis, dataset.scatter / dataset.k)


def estimate_alpha(
    hypothesis: Hypothesis,
    x_hat: np.ndarray,
    cut: np.ndarray,
    steering: np.ndarray,
) -> complex:
    """Plug-in amplitude estimate of the CUT signal under one hypothesis.

    ``x_hat`` is the inverse of the hypothesis's ICM estimate. H1 and H2 give
    ``v^H X z / v^H X v``; a real X makes this the H2 estimate over the
    stacked real and imaginary parts. H3 and H4 split the CUT into its
    conjugate-even and conjugate-odd parts, which carry the real and the
    imaginary amplitude components. Raises DegenerateSteeringError when the
    steering energy through ``x_hat`` falls at or below 1e-14.
    """
    h = Hypothesis(hypothesis)
    z = np.asarray(cut, dtype=complex)
    v = np.asarray(steering, dtype=complex)
    vx = v.conj() @ x_hat
    denom = float((vx @ v).real)
    _check_steering(denom)

    if h in (Hypothesis.H1, Hypothesis.H2):
        return complex((vx @ z) / denom)

    z_flip = z[::-1].conj()
    a_re = (vx @ (0.5 * (z + z_flip))).real / denom
    a_im = (-1j * (vx @ (0.5 * (z - z_flip)))).real / denom
    return complex(a_re, a_im)


def _check_steering(denom: float) -> None:
    if not denom > _STEERING_FLOOR:
        raise DegenerateSteeringError(
            f"steering energy through the ICM inverse is {denom!r} "
            f"(at or below {_STEERING_FLOOR:g})"
        )
