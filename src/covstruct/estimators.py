"""Closed-form plug-in estimators for each hypothesis.

The interference covariance is estimated from secondary snapshots only. With
``S = Z Z^H`` the unstructured estimate is ``S / K``; the structured variants
are its exact projections onto each hypothesis, so the nesting relations hold
bit-for-bit (e.g. the centrosymmetric estimate equals the real part of the
centrohermitian one).

The signal amplitude ``alpha`` is estimated from the cell under test with the
ICM estimate plugged in. Under the flip-symmetric hypotheses the cell under
test splits into conjugate-even and conjugate-odd parts
``z_e = (z + J conj(z))/2`` and ``z_o = (z - J conj(z))/2`` which carry the
real and imaginary amplitude components separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_pd, inverse_from_cholesky
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


def estimate_covariance(hypothesis: Hypothesis, secondary: np.ndarray) -> np.ndarray:
    """Structured ML estimate of the ICM from secondary snapshots.

    H1: S/K. H2: Re(S)/K. H3: (S/K + J conj(S/K) J)/2. H4: real part of H3.
    All are exact projections of S/K, hence positive definite whenever S is;
    a rank-deficient S raises NotPositiveDefiniteError.
    """
    z = np.asarray(secondary, dtype=complex)
    if z.ndim != 2:
        raise ValueError(f"secondary must be an N x K matrix, got shape {z.shape}")
    k = z.shape[1]
    s = z @ z.conj().T
    s = 0.5 * (s + s.conj().T)
    m1 = s / k
    m_hat = project(hypothesis, m1)
    cholesky_pd(m_hat)  # PD gate; K > N makes failure pathological, not routine
    return m_hat


def estimate_alpha(
    hypothesis: Hypothesis,
    m_hat: np.ndarray,
    cut: np.ndarray,
    steering: np.ndarray,
    x_hat: np.ndarray | None = None,
) -> complex:
    """Plug-in amplitude estimate of the CUT signal under one hypothesis.

    Pass ``x_hat`` when the inverse of ``m_hat`` is already available; it is
    recomputed otherwise. Raises DegenerateSteeringError when the steering
    energy through the inverse falls at or below 1e-14.
    """
    h = Hypothesis(hypothesis)
    z = np.asarray(cut, dtype=complex)
    v = np.asarray(steering, dtype=complex)
    x = inverse_from_cholesky(cholesky_pd(m_hat)) if x_hat is None else x_hat

    if h is Hypothesis.H1:
        denom = (v.conj() @ x @ v).real
        _check_steering(denom)
        return complex((v.conj() @ x @ z) / denom)

    if h is Hypothesis.H2:
        xr = x.real if np.iscomplexobj(x) else x
        vr, vi = v.real, v.imag
        zr, zi = z.real, z.imag
        denom = float(vr @ xr @ vr + vi @ xr @ vi)
        _check_steering(denom)
        a_re = float(vr @ xr @ zr + vi @ xr @ zi) / denom
        a_im = float(vr @ xr @ zi - vi @ xr @ zr) / denom
        return complex(a_re, a_im)

    # Flip-symmetric branches: split the CUT into conjugate-even/odd parts.
    z_flip = z[::-1].conj()
    z_even = 0.5 * (z + z_flip)
    z_odd = 0.5 * (z - z_flip)

    if h is Hypothesis.H3:
        denom = (v.conj() @ x @ v).real
        _check_steering(denom)
        a_re = (v.conj() @ x @ z_even).real / denom
        a_im = (-1j * (v.conj() @ x @ z_odd)).real / denom
        return complex(a_re, a_im)

    # H4: real trace form over the stacked real/imaginary columns.
    xr = x.real if np.iscomplexobj(x) else x
    vmat = np.column_stack([v.real, v.imag])
    e_mat = np.column_stack([z_even.real, z_even.imag])
    # -1j * z_odd folds the odd part onto the real axis before stacking.
    o_rot = -1j * z_odd
    o_mat = np.column_stack([o_rot.real, o_rot.imag])
    denom = float(np.trace(vmat.T @ xr @ vmat))
    _check_steering(denom)
    a_re = float(np.trace(vmat.T @ xr @ e_mat)) / denom
    a_im = float(np.trace(vmat.T @ xr @ o_mat)) / denom
    return complex(a_re, a_im)


def _check_steering(denom: float) -> None:
    if not denom > _STEERING_FLOOR:
        raise DegenerateSteeringError(
            f"steering energy through the ICM inverse is {denom!r} "
            f"(at or below {_STEERING_FLOOR:g})"
        )
