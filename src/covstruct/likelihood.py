"""Log-likelihoods, their derivatives, and the two Fisher-information proxies.

Data model: the cell under test is ``z ~ CN(alpha v, M)`` and the K secondary
snapshots are ``z_k ~ CN(0, M)``, all independent. With ``X = M^{-1}``,
``S = Z Z^H`` and ``S_a = (z - alpha v)(z - alpha v)^H`` the joint
log-likelihood over both data sets is::

    s(p) = -(K+1) [N log pi + log det M] - Tr{X S} - Tr{X S_a}

and the secondary-only version drops the CUT term with K in place of K+1.

The covariance enters through the real parameter vector theta of the
hypothesis (``vec(M) = C theta``); under approach A the parameters also
include the real and imaginary parts of alpha. Derivatives follow two
branches: the Hermitian one (H1, H3), where the basis columns pair with the
adjoint of C, and the real-symmetric one (H2, H4), where the plain transpose
appears and X is real. Mixed entries vanish only at special points, so both
first and second derivatives are assembled exactly and cross-checked by
finite differences in the test suite.

Two information-matrix estimates are built at the plug-in estimates:

* observed:  minus the analytic Hessian of the full log-likelihood;
* sample:    the sum of per-snapshot score outer products (the CUT score
  carries the amplitude block under approach A; secondary scores have a
  zero amplitude block).

Under a correctly specified model the two agree asymptotically, which the
acceptance suite verifies at large K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import Approach, Dataset, EstimateSet
from .linalg import inverse_and_logdet, vec
from .structures import StructureModel

__all__ = [
    "FimPair",
    "loglik_cut",
    "loglik_secondary",
    "loglik_full",
    "snapshot_scores",
    "grad_alpha",
    "hessian_theta_theta",
    "hessian_alpha_theta",
    "hessian_alpha_alpha",
    "observed_fim",
    "sample_fim",
    "fim_pair",
]

_LOG_PI = float(np.log(np.pi))

# Derivative assembly must land on the real axis; a larger leftover imaginary
# part means the conjugation branch does not match the hypothesis.
_IMAG_RTOL = 1e-9


def _real_checked(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return np.asarray(a, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a.real)))) if a.size else 1.0
    worst = float(np.max(np.abs(a.imag))) if a.size else 0.0
    if worst > _IMAG_RTOL * scale:
        raise ValueError(
            f"{what}: imaginary residue {worst:.3e} exceeds "
            f"{_IMAG_RTOL:.0e} * {scale:.3e}; conjugation branch mismatch"
        )
    return a.real.copy()


def _quad_form(x: np.ndarray, r: np.ndarray) -> float:
    """r^H X r as a float (X Hermitian)."""
    return float(np.real(r.conj() @ x @ r))


def _trace_product(x: np.ndarray, s: np.ndarray) -> float:
    """Tr{X S} as a float (both Hermitian)."""
    return float(np.real(np.einsum("ij,ji->", x, s)))


def loglik_cut(
    model: StructureModel,
    theta: np.ndarray,
    alpha: complex,
    cut: np.ndarray,
    steering: np.ndarray,
) -> float:
    """Log-likelihood of the CUT alone at (theta, alpha)."""
    x, logdet = inverse_and_logdet(model.decode(theta))
    alpha = complex(alpha)
    r = np.asarray(cut, dtype=complex) - alpha * np.asarray(steering, dtype=complex)
    return -model.n * _LOG_PI - logdet - _quad_form(x, r)


def loglik_secondary(model: StructureModel, theta: np.ndarray, secondary: np.ndarray) -> float:
    """Log-likelihood of the secondary snapshots at theta."""
    z = np.asarray(secondary, dtype=complex)
    k = z.shape[1]
    x, logdet = inverse_and_logdet(model.decode(theta))
    s = z @ z.conj().T
    return -k * (model.n * _LOG_PI + logdet) - _trace_product(x, s)


def loglik_full(
    model: StructureModel,
    theta: np.ndarray,
    alpha: complex,
    cut: np.ndarray,
    secondary: np.ndarray,
    steering: np.ndarray,
) -> float:
    """Joint log-likelihood of CUT plus secondary data at (theta, alpha)."""
    return loglik_cut(model, theta, alpha, cut, steering) + loglik_secondary(
        model, theta, secondary
    )


def snapshot_scores(
    model: StructureModel, x: np.ndarray, snapshots: np.ndarray
) -> np.ndarray:
    """Per-snapshot theta scores, evaluated through X = M^{-1}; shape (m, cols).

    Column k is d/d theta of ``-log det M - z_k^H X z_k`` at M = M(theta):

    Hermitian branch:  C^H vec(X z_k z_k^H X) - conj(C^H vec X)
    Symmetric branch:  C^T [vec(X z_k z_k^H X) - vec X], X real.
    """
    c = model.constraint
    w = x @ snapshots  # N x cols
    n, k = w.shape
    # Column k of `outer` is vec((X z_k)(X z_k)^H) in column-stacked order.
    outer = (w.conj()[:, None, :] * w[None, :, :]).reshape(n * n, k)
    if model.hypothesis.is_real:
        term = c.T @ (outer - vec(x)[:, None])
    else:
        term = c.conj().T @ outer - np.conj(c.conj().T @ vec(x))[:, None]
    return _real_checked(term, f"snapshot scores ({model.hypothesis.name})")


def grad_alpha(
    x: np.ndarray, alpha: complex, cut: np.ndarray, steering: np.ndarray
) -> np.ndarray:
    """Score of the CUT w.r.t. [Re alpha, Im alpha]. Shape (2,)."""
    alpha = complex(alpha)
    v = np.asarray(steering, dtype=complex)
    z = np.asarray(cut, dtype=complex)
    energy = _quad_form(x, v)
    zxv = complex(z.conj() @ x @ v)
    return np.array(
        [
            2.0 * (-alpha.real * energy + zxv.real),
            2.0 * (-alpha.imag * energy - zxv.imag),
        ]
    )


def hessian_theta_theta(
    model: StructureModel, x: np.ndarray, g: np.ndarray, count: float
) -> np.ndarray:
    """theta-theta block of the log-likelihood Hessian.

    ``g`` is the accumulated outer-product matrix of every snapshot entering
    the likelihood (S + S_a jointly, S alone for secondary-only) and ``count``
    the matching number of snapshots (K + 1 or K).
    """
    c = model.constraint
    xgx = x @ g @ x
    inner = count * x - xgx
    if model.hypothesis.is_real:
        block = np.kron(x, inner) - np.kron(x @ g.conj() @ x, x)
        out = c.T @ block @ c
    else:
        block = np.kron(x.conj(), inner) - np.kron(xgx.conj(), x)
        out = c.conj().T @ block @ c
    return _real_checked(out, f"theta-theta Hessian ({model.hypothesis.name})")


def hessian_alpha_theta(
    model: StructureModel,
    x: np.ndarray,
    alpha: complex,
    cut: np.ndarray,
    steering: np.ndarray,
) -> np.ndarray:
    """alpha-theta block of the joint Hessian, shape (2, m).

    Row 0 differentiates the Re-alpha score, row 1 the Im-alpha score; both
    reduce to adjoint products against rank-one matrices built from X v and
    X z.
    """
    c = model.constraint
    alpha = complex(alpha)
    v = np.asarray(steering, dtype=complex)
    z = np.asarray(cut, dtype=complex)
    u = x @ v
    w = x @ z
    uu = np.outer(u, u.conj())
    uw = np.outer(u, w.conj())
    if model.hypothesis.is_real:
        t_vv = c.T @ vec(uu)
        t_vz = c.T @ vec(uw)
    else:
        t_vv = c.conj().T @ vec(uu)
        t_vz = c.conj().T @ vec(uw)
    row_re = 2.0 * alpha.real * t_vv - 2.0 * t_vz.real
    row_im = 2.0 * alpha.imag * t_vv + 2.0 * t_vz.imag
    out = np.vstack([row_re, row_im])
    return _real_checked(out, f"alpha-theta Hessian ({model.hypothesis.name})")


def hessian_alpha_alpha(x: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """alpha-alpha block: -2 (v^H X v) I_2."""
    v = np.asarray(steering, dtype=complex)
    return -2.0 * _quad_form(x, v) * np.eye(2)


@dataclass(frozen=True)
class FimPair:
    """Observed and sample information matrices at the plug-in estimates."""

    observed: np.ndarray
    sample: np.ndarray

    @property
    def n_params(self) -> int:
        return self.observed.shape[0]


def observed_fim(
    model: StructureModel,
    estimate: EstimateSet,
    dataset: Dataset,
    approach: Approach,
) -> np.ndarray:
    """Minus the analytic Hessian of the governing log-likelihood.

    Approach A stacks theta with [Re alpha, Im alpha] and uses K+1 snapshot
    terms; approach B keeps theta only with K terms.
    """
    approach = Approach.parse(approach)
    x = estimate.x_hat
    s = dataset.scatter

    if approach is Approach.B:
        h_tt = hessian_theta_theta(model, x, s, float(dataset.k))
        return -h_tt

    cut, steering = dataset.require_cut()
    alpha = estimate.alpha_hat
    if alpha is None:
        raise ValueError("approach A needs alpha_hat on the estimate set")
    resid = cut - alpha * steering
    s_a = np.outer(resid, resid.conj())
    h_tt = hessian_theta_theta(model, x, s + s_a, float(dataset.k + 1))
    h_at = hessian_alpha_theta(model, x, alpha, cut, steering)
    h_aa = hessian_alpha_alpha(x, steering)
    m = model.m
    full = np.empty((m + 2, m + 2))
    full[:m, :m] = h_tt
    full[m:, :m] = h_at
    full[:m, m:] = h_at.T
    full[m:, m:] = h_aa
    return -full


def sample_fim(
    model: StructureModel,
    estimate: EstimateSet,
    dataset: Dataset,
    approach: Approach,
) -> np.ndarray:
    """Sum of per-snapshot score outer products at the plug-in estimates.

    This is ``G G^T`` with one score column per snapshot. Secondary snapshots
    contribute theta scores only; under approach A the CUT adds the column of
    ``z - alpha v`` whose amplitude rows hold the alpha gradient, so G is
    (m+2) x (K+1).
    """
    approach = Approach.parse(approach)
    x = estimate.x_hat
    if approach is Approach.B:
        g = snapshot_scores(model, x, dataset.secondary)
        return g @ g.T

    cut, steering = dataset.require_cut()
    alpha = estimate.alpha_hat
    if alpha is None:
        raise ValueError("approach A needs alpha_hat on the estimate set")
    resid = cut - alpha * steering
    m, k = model.m, dataset.k
    g = np.zeros((m + 2, k + 1))
    g[:m] = snapshot_scores(model, x, np.column_stack([dataset.secondary, resid]))
    g[m:, k] = grad_alpha(x, alpha, cut, steering)
    return g @ g.T


def fim_pair(
    model: StructureModel,
    estimate: EstimateSet,
    dataset: Dataset,
    approach: Approach,
) -> FimPair:
    """Observed and sample information matrices for one hypothesis."""
    return FimPair(
        observed=observed_fim(model, estimate, dataset, approach),
        sample=sample_fim(model, estimate, dataset, approach),
    )
