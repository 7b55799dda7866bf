"""Test oracles: direct forms of one trial that the package computes another
way, for the likelihood terms and for the draw.

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

40-digit path. :func:`exact_information_terms` recomputes the approach-A
terms of one dataset in mpmath from their definitions in the theta basis:
the plug-in estimates, minus the Hessian of the joint log-likelihood, and
the scores, with no rounding to double on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from covstruct.estimators import Approach, Dataset, DatasetStack, EstimateStack
from covstruct.linalg import cholesky_pd, logdet_from_cholesky, vec
from covstruct.scenario import clutter_covariance, steering_vector
from covstruct.structures import (
    Hypothesis,
    StructureModel,
    basis_log_norm,
    param_count,
    project,
    structure_model,
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
    cut, steering = DatasetStack.of([dataset]).require_cut()
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
    s = DatasetStack.of([dataset]).scatter[0]

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


# ---------------------------------------------------------------------------
# Approach-A information terms at 40 digits
#
# The definitions, in the theta basis of ``structure_model`` and in mpmath:
# the plug-in estimates, the observed information of the joint
# log-likelihood (minus its Hessian) and the scores, formed from the float
# data without rounding to double anywhere.


def _mp_matmul(a, b):
    return [[mpmath.fsum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _mp_trace(a, b):
    """Tr(A B)."""
    return mpmath.fsum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b)))


def _mp_project(hypothesis, a):
    n = len(a)
    if hypothesis in (Hypothesis.H3, Hypothesis.H4):
        a = [[(a[i][j] + mpmath.conj(a[n - 1 - i][n - 1 - j])) / 2 for j in range(n)]
             for i in range(n)]
    if hypothesis in (Hypothesis.H2, Hypothesis.H4):
        a = [[mpmath.mpc(mpmath.re(a[i][j])) for j in range(n)] for i in range(n)]
    return a


def exact_information_terms(hypothesis, dataset, dps=40):
    """``(theta_trace, theta_logdet, S)`` of one dataset under approach A, as
    mpmath numbers computed at ``dps`` digits from their definitions."""
    with mpmath.workdps(dps):
        n, k = dataset.n, dataset.k
        z_all = [[mpmath.mpc(complex(e)) for e in row] for row in dataset.secondary]
        cut = [mpmath.mpc(complex(e)) for e in dataset.cut]
        v = [mpmath.mpc(complex(e)) for e in dataset.steering]
        scatter = [[mpmath.fsum(z_all[i][c] * mpmath.conj(z_all[j][c]) for c in range(k))
                    for j in range(n)] for i in range(n)]
        m_hat = _mp_project(hypothesis, [[e / k for e in row] for row in scatter])
        inverse = mpmath.inverse(mpmath.matrix(m_hat))
        x = [[inverse[i, j] for j in range(n)] for i in range(n)]

        def quad(a, mat, b):  # a^H mat b
            return mpmath.fsum(mpmath.conj(a[i]) * mat[i][j] * b[j]
                               for i in range(n) for j in range(n))

        alpha = quad(v, x, cut) / quad(v, x, v)
        r = [cut[i] - alpha * v[i] for i in range(n)]
        outer = lambda a, b: [[a[i] * mpmath.conj(b[j]) for j in range(n)] for i in range(n)]
        total = [[scatter[i][j] + r[i] * mpmath.conj(r[j]) for j in range(n)] for i in range(n)]
        x_total = _mp_matmul(x, total)
        basis = structure_model(hypothesis, n).constraint
        y = [_mp_matmul(x, [[mpmath.mpc(complex(basis[i + n * j, q])) for j in range(n)]
                            for i in range(n)]) for q in range(basis.shape[1])]
        y_total = [_mp_matmul(yq, x_total) for yq in y]
        m = len(y)
        # Q = -d2s/dtheta2 of s = -(K+1) log det M - Tr(X (S + r r^H)).
        q_mat = mpmath.matrix(m, m)
        for p in range(m):
            for c in range(p, m):
                entry = mpmath.re(-(k + 1) * _mp_trace(y[c], y[p])
                                  + _mp_trace(y[c], y_total[p]) + _mp_trace(y[p], y_total[c]))
                q_mat[p, c] = q_mat[c, p] = entry
        # The theta-alpha block: -Tr(X C_p X dS_a/dalpha_a), with
        # dS_a/dRe(alpha) = -(v r^H + r v^H) and dS_a/dIm(alpha) = -i (v r^H - r v^H).
        vr, rv = outer(v, r), outer(r, v)
        d_alpha = [[[-(vr[i][j] + rv[i][j]) for j in range(n)] for i in range(n)],
                   [[-1j * (vr[i][j] - rv[i][j]) for j in range(n)] for i in range(n)]]
        x_d = [_mp_matmul(x, d) for d in d_alpha]
        border = mpmath.matrix(m, 2)
        for p in range(m):
            for a in range(2):
                border[p, a] = -mpmath.re(_mp_trace(y[p], x_d[a]))
        # Scores: Re Tr(C_p (X a a^H X - X)) for a = z_k and r; the amplitude
        # scores are zero at the ML amplitude.
        columns = [[z_all[i][c] for i in range(n)] for c in range(k)] + [r]
        scores = mpmath.matrix(m, len(columns))
        for p in range(m):
            xcx, trace = _mp_matmul(y[p], x), mpmath.fsum(y[p][i][i] for i in range(n))
            for c, col in enumerate(columns):
                scores[p, c] = mpmath.re(quad(col, xcx, col) - trace)
        q_inv = mpmath.inverse(q_mat)
        solved = q_inv * scores
        theta_trace = mpmath.fsum(scores[p, c] * solved[p, c]
                                  for p in range(m) for c in range(len(columns)))
        theta_logdet = mpmath.log(mpmath.det(q_mat))
        schur = 2 * mpmath.re(quad(v, x, v)) * mpmath.eye(2) - border.T * q_inv * border
        return theta_trace, theta_logdet, schur


# ---------------------------------------------------------------------------
# Per-trial draw
#
# The campaign draw as it was before it was stacked: one truth, one Cholesky
# factor and one dataset per trial, each drawn from the trial's generator in
# the fixed order channel errors (H1/H2), CUT phase, CUT noise, secondary
# noise. ``covstruct.scenario`` forms the same numbers for a whole chunk.


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def truth_instance(hypothesis, config, rng=None):
    """One ground truth ``(m_true, a_factor)``, drawn matrix by matrix."""
    h = Hypothesis(hypothesis)
    n = config.n
    r = clutter_covariance(config.sources, n, h in (Hypothesis.H2, Hypothesis.H4))
    if h in (Hypothesis.H3, Hypothesis.H4):
        a = np.eye(n)
    elif h is Hypothesis.H1:
        a = np.eye(n) + config.sigma_d * _complex_normal(rng, (n, n))
    else:
        a = np.eye(n) + config.sigma_d * rng.standard_normal((n, n))
    m_raw = a @ r @ a.conj().T + config.sigma_n2 * np.eye(n)
    return project(h, 0.5 * (m_raw + m_raw.conj().T)), a


def sample_dataset(m_true, config, k, rng):
    """One dataset under the truth ``m_true``."""
    n = config.n
    low = cholesky_pd(m_true)
    amplitude = np.sqrt(10.0 ** (config.snr_db / 10.0))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    alpha = amplitude * np.exp(1j * phase)
    v = steering_vector(n, config.f_v)
    cut = alpha * v + low @ _complex_normal(rng, n)
    secondary = low @ _complex_normal(rng, (n, k))
    return Dataset(secondary=secondary, cut=cut, steering=v)
