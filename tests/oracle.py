"""Test oracles for the likelihood terms: direct forms of one trial that the
package computes another way.

Theta-basis path. The log-likelihoods of ``covstruct.likelihood``'s data
model at a parameter vector theta (``vec(M) = C theta``), their analytic
derivatives, and the two information-matrix estimates at the plug-in
estimates:

* observed:  minus the analytic Hessian of the full log-likelihood;
* sample:    the sum of per-snapshot score outer products (the CUT score
  carries the amplitude block under approach A; secondary scores have a
  zero amplitude block).

Derivatives follow two branches: the Hermitian one (H1, H3), where the
basis columns pair with the adjoint of C, and the real-symmetric one (H2,
H4), where the plain transpose appears and X is real. The tests check these
against finite differences, and the engine's fit terms and TIC/BIC
penalties against them. The information matrices take one trial of an
:class:`~covstruct.estimators.EstimateStack`: the stack and a trial index.

Matrix-space path. :func:`information_terms` is the form that the package's
``information_terms`` reduces to group means of vector inner products. It
builds every score, border and capacitance matrix as an N x N matrix,
projects the (K+3+2N, N, N) stack onto the class, and applies the
capacitance inverse through ``scipy.linalg.cho_solve``. It takes an
:class:`~covstruct.estimators.EstimateStack`, a trial index and that
trial's :class:`~covstruct.estimators.Dataset`, and returns float terms and
2 x 2 Schur pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from covstruct.estimators import Approach, Dataset, DatasetStack, EstimateStack
from covstruct.linalg import cholesky_pd, logdet_from_cholesky, vec
from covstruct.structures import (
    Hypothesis,
    StructureModel,
    basis_log_norm,
    param_count,
    project,
)

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
    m = model.decode(theta)
    logdet = float(logdet_from_cholesky(cholesky_pd(m)))
    x = np.linalg.inv(m)
    alpha = complex(alpha)
    r = np.asarray(cut, dtype=complex) - alpha * np.asarray(steering, dtype=complex)
    return -model.n * _LOG_PI - logdet - _quad_form(x, r)


def loglik_secondary(model: StructureModel, theta: np.ndarray, secondary: np.ndarray) -> float:
    """Log-likelihood of the secondary snapshots at theta."""
    z = np.asarray(secondary, dtype=complex)
    k = z.shape[1]
    m = model.decode(theta)
    logdet = float(logdet_from_cholesky(cholesky_pd(m)))
    x = np.linalg.inv(m)
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


def grad_alpha(
    x: np.ndarray, alpha, cut: np.ndarray, steering: np.ndarray
) -> np.ndarray:
    """Score of the CUT w.r.t. [Re alpha, Im alpha], shape (..., 2).

    Takes one trial or a stack: (..., N, N) ``x``, (...) ``alpha`` and
    (..., N) ``cut`` and ``steering``. The package's amplitude is the ML
    estimate, where this score is zero, so only the oracle computes it.
    """
    alpha = np.asarray(alpha, dtype=complex)
    v = np.asarray(steering, dtype=complex)
    u = (np.asarray(x) @ v[..., None])[..., 0]
    energy = np.einsum("...i,...i->...", v.conj(), u).real
    zxv = np.einsum("...i,...i->...", np.asarray(cut, dtype=complex).conj(), u)
    return 2.0 * np.stack(
        [-alpha.real * energy + zxv.real, -alpha.imag * energy - zxv.imag], axis=-1
    )


def _cut_pair(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """CUT and steering of one dataset, through a stack of one."""
    cut, steering = DatasetStack([dataset]).require_cut()
    return cut[0], steering[0]


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
    estimate: EstimateStack,
    trial: int,
    dataset: Dataset,
    approach: Approach,
) -> np.ndarray:
    """Minus the analytic Hessian of the governing log-likelihood.

    Approach A stacks theta with [Re alpha, Im alpha] and uses K+1 snapshot
    terms; approach B keeps theta only with K terms.
    """
    approach = Approach.parse(approach)
    x = estimate.x_hat[trial]
    s = DatasetStack([dataset]).scatter[0]

    if approach is Approach.B:
        h_tt = hessian_theta_theta(model, x, s, float(dataset.k))
        return -h_tt

    cut, steering = _cut_pair(dataset)
    if estimate.alpha_hat is None:
        raise ValueError("approach A needs alpha_hat on the estimate stack")
    alpha = complex(estimate.alpha_hat[trial])
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
    estimate: EstimateStack,
    trial: int,
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
    x = estimate.x_hat[trial]
    if approach is Approach.B:
        g = snapshot_scores(model, x, dataset.secondary)
        return g @ g.T

    cut, steering = _cut_pair(dataset)
    if estimate.alpha_hat is None:
        raise ValueError("approach A needs alpha_hat on the estimate stack")
    alpha = complex(estimate.alpha_hat[trial])
    resid = cut - alpha * steering
    m, k = model.m, dataset.k
    g = np.zeros((m + 2, k + 1))
    g[:m] = snapshot_scores(model, x, np.column_stack([dataset.secondary, resid]))
    g[m:, k] = grad_alpha(x, alpha, cut, steering)
    return g @ g.T


def fim_pair(
    model: StructureModel,
    estimate: EstimateStack,
    trial: int,
    dataset: Dataset,
    approach: Approach,
) -> FimPair:
    """Observed and sample information matrices for one hypothesis."""
    return FimPair(
        observed=observed_fim(model, estimate, trial, dataset, approach),
        sample=sample_fim(model, estimate, trial, dataset, approach),
    )



# ---------------------------------------------------------------------------
# Matrix-space information terms



def information_terms(estimate, trial, dataset, approach):
    """``(theta_trace, theta_logdet, schur)`` of one trial; ``schur`` is the
    pair ``(S, Y Y^T)`` under approach A and None under B."""
    approach = Approach.parse(approach)
    h, n, k = estimate.hypothesis, dataset.n, dataset.k
    m, m_hat, x = param_count(h, n), estimate.m_hat[trial], estimate.x_hat[trial]
    logdet = float(estimate.logdet[trial])
    logdet_f = basis_log_norm(h, n) - _sandwich_logdet(h, m_hat, logdet)
    w = x @ dataset.secondary
    if approach is Approach.B:
        p = project(h, np.einsum("ik,jk->kij", w, w.conj()) - x)
        quad = _inner(p, m_hat @ p @ m_hat)
        return float(np.sum(quad)) / k, m * math.log(k) + logdet_f, None

    cut, steering = _cut_pair(dataset)
    alpha = complex(estimate.alpha_hat[trial])
    w_cut = x @ (cut - alpha * steering)
    u = x @ steering
    # Rows 0..K are the score matrices, K+1 and K+2 the alpha border, then
    # the 2N matrices (b w^H + w b^H)/2 for b = e_j and b = i e_j, whose
    # images under A ((K-1) F)^{-1} A^T are the capacitance columns.
    stack = np.empty((k + 3 + 2 * n, n, n), dtype=complex)
    stack[:k] = np.einsum("ik,jk->kij", w, w.conj()) - x
    stack[k] = np.outer(w_cut, w_cut.conj()) - x
    uw = np.outer(u, w_cut.conj())
    stack[k + 1] = uw + uw.conj().T
    stack[k + 2] = 1j * (uw - uw.conj().T)
    ew = np.eye(n)[:, :, None] * w_cut.conj()
    we = ew.conj().transpose(0, 2, 1)
    stack[k + 3 : k + 3 + n] = 0.5 * (ew + we)
    stack[k + 3 + n :] = 0.5j * (ew - we)

    scores, border, first = slice(0, k + 1), slice(k + 1, k + 3), k + 3

    # With D_i = stack[i] and g_i its theta gradient, t_i = M P(D_i) M / (K-1)
    # is ((K-1) F)^{-1} g_i in matrix form and a_i = A t_i in real form.
    p = project(h, stack)
    t = m_hat @ p @ m_hat / (k - 1)
    tw = t @ w_cut
    a = np.concatenate([tw.real, tw.imag], axis=1)
    cap = 0.5 * _real_form(m_hat) + a[first:].T
    low = cholesky_pd(0.5 * (cap + cap.T))
    logdet_cap = 2.0 * float(np.sum(np.log(low.diagonal())))
    solved = scipy.linalg.cho_solve((low, True), a[:first].T)

    # Woodbury: g_i^T Q^{-1} g_j = <P(D_i), t_j> - a_i^T cap^{-1} a_j.
    quad = _inner(p[scores], t[scores]) - np.einsum(
        "ci,ic->c", a[scores], solved[:, scores]
    )
    cross = np.einsum("bij,cji->bc", p[border], t[:first]).real - a[border] @ solved
    schur = 2.0 * float(np.real(steering.conj() @ u)) * np.eye(2) - cross[:, border]
    y = cross[:, scores].copy()
    y[:, k] -= grad_alpha(x, alpha, cut, steering)
    theta_logdet = (
        m * math.log(k - 1)
        + logdet_f
        + 2 * n * math.log(2.0)
        - 2.0 * logdet
        + logdet_cap
    )
    return float(np.sum(quad)), theta_logdet, (0.5 * (schur + schur.T), y @ y.T)


def _inner(a, b):
    """Re Tr(A B) over the last two axes."""
    return np.einsum("...ij,...ji->...", a, b).real


def _real_form(a):
    """2N x 2N real matrix acting on [Re y; Im y] as A acts on y."""
    n = a.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = a.real
    out[n:, :n] = np.imag(a)
    out[:n, n:] = -out[n:, :n]
    return out


def _sandwich_logdet(hypothesis, m_hat, logdet):
    """log det of ``U -> M U M`` on the class, in an orthonormal basis."""
    n = m_hat.shape[0]
    if hypothesis is Hypothesis.H1:
        return 2 * n * logdet
    if hypothesis is not Hypothesis.H4:
        return (n + 1) * logdet
    half = n // 2
    eye = np.eye(n)
    pairs = eye[:, :half], eye[:, ::-1][:, :half]
    even = math.sqrt(0.5) * (pairs[0] + pairs[1])
    odd = math.sqrt(0.5) * (pairs[0] - pairs[1])
    if n % 2:
        even = np.column_stack([even, eye[:, half]])
    return sum(
        (basis.shape[1] + 1) * np.linalg.slogdet(basis.T @ m_hat @ basis)[1]
        for basis in (even, odd)
    )
