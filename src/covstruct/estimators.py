"""Closed-form plug-in estimators for each hypothesis.

The interference covariance is estimated from secondary snapshots only. With
``S = Z Z^H`` (``DatasetStack.scatter``, formed once per stack) the
unstructured estimate is ``S / K``; the structured variants are its exact projections onto
each hypothesis, so the nesting relations hold bit-for-bit (e.g. the
centrosymmetric estimate equals the real part of the centrohermitian one).

The estimators work on a :class:`DatasetStack` of T datasets of one shape,
whose arrays carry a leading trial axis; one dataset is a stack of one.
Every stacked operation treats each trial on its own, so a trial's
estimates are bit-identical whatever stack it sits in.

The signal amplitude ``alpha`` is estimated from the cell under test with the
ICM estimate X plugged in: the ML amplitude ``v^H X z / v^H X v`` minimises
``(z - alpha v)^H X (z - alpha v)`` over complex alpha for every class and
every steering vector.
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
    "DatasetStack",
    "EstimateStack",
    "DegenerateSteeringError",
    "estimate_covariance",
    "estimate_alpha_stack",
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


class DatasetStack:
    """T datasets of one N x K shape, stacked along a leading trial axis.

    ``secondary`` is the (T, N, K) stack and ``scatter`` the (T, N, N) stack
    of the Hermitian parts of ``S = Z Z^H``, formed by one stacked matmul on
    first use and kept.
    ``datasets`` keeps the per-trial :class:`Dataset` objects.
    """

    def __init__(self, datasets):
        self.datasets = tuple(datasets)
        if not self.datasets:
            raise ValueError("a dataset stack needs at least one dataset")
        shape = self.datasets[0].secondary.shape
        for dataset in self.datasets:
            if dataset.secondary.shape != shape:
                raise ValueError(
                    f"stacked datasets must share one N x K shape, got "
                    f"{dataset.secondary.shape} and {shape}"
                )
        self.secondary = np.stack([d.secondary for d in self.datasets])

    def __len__(self) -> int:
        return len(self.datasets)

    @property
    def n(self) -> int:
        return self.secondary.shape[1]

    @property
    def k(self) -> int:
        return self.secondary.shape[2]

    @functools.cached_property
    def scatter(self) -> np.ndarray:
        return hermitian_part(self.secondary @ self.secondary.conj().swapaxes(-1, -2))

    def require_cut(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, N) stacks of the CUTs and steering vectors, or a clear error
        naming what approach A misses in the first dataset missing one."""
        return self._cut_pair

    @functools.cached_property
    def _cut_pair(self) -> tuple[np.ndarray, np.ndarray]:
        for d in self.datasets:
            if d.cut is None:
                raise ValueError("approach A needs a cell under test ('cut')")
            if d.steering is None:
                raise ValueError("approach A needs a steering vector ('steering')")
        return (
            np.stack([d.cut for d in self.datasets]),
            np.stack([d.steering for d in self.datasets]),
        )


@dataclass(frozen=True)
class EstimateStack:
    """Plug-in estimates for one hypothesis over a :class:`DatasetStack`.

    The arrays carry the trial axis first. ``failures`` maps each trial whose
    estimate failed its Cholesky check to its error; that trial's rows are
    placeholders, with the identity in ``m_hat`` and ``x_hat``.
    ``alpha_failures`` maps each trial whose steering energy is degenerate
    under approach A, where ``alpha_hat`` is set, to its error; under
    approach B ``alpha_hat`` is None. ``fallbacks`` counts the stacked
    factorizations that fell back to matrix by matrix.
    """

    hypothesis: Hypothesis
    m_hat: np.ndarray
    x_hat: np.ndarray
    logdet: np.ndarray
    alpha_hat: np.ndarray | None
    failures: dict[int, Exception]
    alpha_failures: dict[int, Exception]
    fallbacks: int = 0


def estimate_covariance(hypothesis: Hypothesis, stack: DatasetStack) -> np.ndarray:
    """Structured ML estimates of the ICM from the secondary snapshots, as a
    (T, N, N) stack.

    H1: S/K. H2: Re(S)/K. H3: (S/K + J conj(S/K) J)/2. H4: real part of H3.
    All are exact projections of S/K, hence positive definite whenever S is.
    The caller's Cholesky of the result is the positive-definiteness check.
    """
    return project(hypothesis, stack.scatter / stack.k)


def estimate_alpha_stack(
    x_hat: np.ndarray, cut: np.ndarray, steering: np.ndarray
) -> tuple[np.ndarray, dict[int, DegenerateSteeringError]]:
    """ML amplitude estimates of the CUT signal with the ICM estimate plugged in.

    Takes (T, N, N) ``x_hat``, the inverses of one class's ICM estimates,
    and (T, N) CUTs and steering vectors. ``v^H X z / v^H X v`` minimises
    ``(z - a v)^H X (z - a v)`` over complex a for any Hermitian positive
    definite X, so it is the estimate under every class and for every
    steering vector. Returns the (T,) estimates and, per trial whose
    steering energy through ``x_hat`` is at or below 1e-14, a
    DegenerateSteeringError; those trials' estimates are placeholders.
    """
    vx = _rowdot(steering.conj(), x_hat)
    denom = _rowdot(vx, steering).real
    errors = {
        int(t): _steering_error(float(denom[t]))
        for t in np.flatnonzero(~(denom > _STEERING_FLOOR))
    }
    denom = np.where(denom > _STEERING_FLOOR, denom, 1.0)
    return _rowdot(vx, cut) / denom, errors


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-trial ``a_t @ b_t`` of a (T, N) stack with a (T, N) or (T, N, N) one."""
    if b.ndim == 2:
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    return (a[:, None, :] @ b)[:, 0, :]


def _steering_error(denom: float) -> DegenerateSteeringError:
    return DegenerateSteeringError(
        f"steering energy through the ICM inverse is {denom:.3e} "
        f"(at or below {_STEERING_FLOOR:g})"
    )
