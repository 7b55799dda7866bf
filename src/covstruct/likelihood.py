"""The information terms of the TIC and BIC penalties, batched over trials.

Data model: the cell under test is ``z ~ CN(alpha v, M)`` and the K secondary
snapshots are ``z_k ~ CN(0, M)``, all independent. With ``X = M^{-1}``,
``S = Z Z^H`` and ``S_a = (z - alpha v)(z - alpha v)^H`` the joint
log-likelihood over both data sets is::

    s(p) = -(K+1) [N log pi + log det M] - Tr{X S} - Tr{X S_a}

and the secondary-only version drops the CUT term with K in place of K+1.
The covariance enters through the real parameter vector theta of the
hypothesis (``M = sum_q theta_q C_q``); under approach A the parameters
also include the real and imaginary parts of alpha.

:func:`information_terms` gives the TIC trace and the BIC log-determinant of
one class for a whole stack of trials. Every class is a quadratic subspace
whose plug-in estimate is the projection ``P_h`` of S/K (Szatrowski 1980,
Ann. Statist. 8(4); Jensen 1988, Ann. Statist. 16(1)). So at the plug-in the
theta-theta observed information is ``K F`` under approach B and
``(K-1) F`` plus a rank-2N term under A, where ``F_pq = Re Tr(X C_p X C_q)``
and ``F^{-1}`` acts on the class as ``U -> M U M``. The score of snapshot k is
the class component of ``D_k = X z_k z_k^H X - X``. Under A the rank-2N term
is handled by Woodbury and the determinant lemma and the amplitude block by a
2 x 2 Schur complement, so neither information matrix is formed. The
amplitude is the ML estimate, so the CUT's amplitude score, the real and
imaginary parts of ``2 v^H X (z - alpha v)``, is zero and drops out of
every term.

Every step runs on all T trials. A trial whose estimate failed carries the
identity as its M and X, and its rows of the result, like those of a trial
whose amplitude or terms failed, are placeholders.

``P_h`` is the mean over a group acting on vectors: ``{id}`` (H1),
``{id, conj}`` (H2), ``{id, J conj}`` (H3) and ``{id, conj, J, J conj}``
(H4), with ``P_h(a b^H) = mean_g g(a) g(b)^H``. Every matrix the terms pair
has rank at most two, so each pairing is a group mean of products of
N-vector inner products, and no N x N matrix per score is built.

The test suite's oracle (``tests/oracle.py``) keeps the direct forms: the
same terms from the projected N x N matrices of one trial, and the
theta-basis log-likelihoods, their analytic derivatives (the amplitude score
among them) and the observed and sample information matrices, checked
against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Approach, DatasetStack, EstimateStack
from .linalg import cholesky_stack, logdet_from_cholesky
from .structures import Hypothesis, basis_log_norm, param_count

__all__ = ["InfoTerms", "information_terms"]


@dataclass(frozen=True)
class InfoTerms:
    """Information terms of the TIC and BIC penalties for one hypothesis over
    a stack of T trials.

    Q is the theta-theta block of the observed information I and G the
    score matrix (one column per secondary snapshot, plus the CUT's under
    approach A), so ``J = G G^T``. ``theta_trace`` holds ``sum_cols g_theta^T Q^{-1} g_theta``
    and ``theta_logdet`` holds ``log det Q``, both (T,). Under approach A,
    ``schur`` is the pair of (T, 2, 2) stacks ``(S, Y Y^T)``: S is the Schur
    complement ``2 (v^H X v) I_2 - B^T Q^{-1} B`` of Q, with B the
    theta-alpha block of I, and ``Y = B^T Q^{-1} G_theta - G_alpha``, where
    the amplitude scores ``G_alpha`` are zero at the ML amplitude. Then
    ``Tr(J I^{-1}) = theta_trace + Tr(S^{-1} Y Y^T)`` and
    ``log det I = theta_logdet + log det S``. Under approach B, I = Q and
    ``schur`` is None.

    ``failures`` maps each trial whose terms could not be formed to its
    error. Those trials, and the trials whose estimate (or, under A,
    amplitude) had already failed, hold placeholder rows: zero terms and
    the pair ``(I_2, 0)``. ``fallbacks`` counts the stacked factorizations
    that fell back to matrix by matrix.
    """

    theta_trace: np.ndarray
    theta_logdet: np.ndarray
    schur: tuple[np.ndarray, np.ndarray] | None = None
    failures: dict[int, Exception] = field(default_factory=dict)
    fallbacks: int = 0


# Each class's projection is the average over a group acting on vectors,
# P_h(a b^H) = mean_g g(a) g(b)^H. An element (flip, conjugate) maps a to
# J a and/or conj(a).
_VECTOR_GROUPS = {
    Hypothesis.H1: ((False, False),),
    Hypothesis.H2: ((False, False), (False, True)),
    Hypothesis.H3: ((False, False), (True, True)),
    Hypothesis.H4: ((False, False), (False, True), (True, False), (True, True)),
}


def _image(element, a: np.ndarray, a_conj: np.ndarray) -> np.ndarray:
    """``g(a)`` for one element g of a vector group, as a view of ``a`` or of
    its conjugate ``a_conj``; the same call with the two swapped gives
    ``conj(g(a))``."""
    flip, conj = element
    image = a_conj if conj else a
    return image[..., ::-1] if flip else image


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a_i b_i`` along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _matvec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a b`` of a (..., J, N) stack of matrices and a (..., N) one of vectors."""
    return (a @ b[..., None])[..., 0]


def information_terms(
    estimate: EstimateStack, stack: DatasetStack, approach: Approach
) -> InfoTerms:
    """TIC and BIC information terms at the plug-in estimates, for a stack.

    Every class is a quadratic subspace whose plug-in estimate is the
    projection ``P`` of S/K, and ``P`` is the mean over a group acting on
    vectors (:data:`_VECTOR_GROUPS`). ``X`` and ``M`` lie in the class, so
    ``M P(a b^H) M = mean_g g(M a) g(M b)^H``, and each inner product
    ``<A, B> = Re Tr(AB)`` of such terms is a group mean of products of
    N-vector inner products. With ``w_k = X z_k`` and ``D_k = w_k w_k^H - X``:

    Approach B: ``Q = K F`` with ``F_pq = Re Tr(X C_p X C_q)``, so
    ``theta_trace = (1/K) sum_k <P(D_k), M P(D_k) M>
    = (1/K) sum_k [mean_g |z_k^H g(w_k)|^2 - 2 z_k^H w_k + N]`` and
    ``theta_logdet = m log K + log det F``.

    Approach A: ``Q = (K-1) F + A^T (2 X~) A`` where A maps theta to the real
    form of ``M(theta) w``, ``w = X r`` with ``r = z - alpha v``, and X~ is the
    2N x 2N real form of X. ``Q^{-1}`` is applied by Woodbury through the
    2N x 2N capacitance ``M~ / 2 + A ((K-1) F)^{-1} A^T`` and ``log det Q``
    follows from the matrix determinant lemma. The score columns are the K
    snapshots' ``D_k`` and the CUT's ``w w^H - X``; the alpha border has the
    columns ``u w^H + w u^H`` and ``i (u w^H - w u^H)``, ``u = X v``, and the
    capacitance those of ``(b w^H + w b^H) / 2`` for ``b = e_j, i e_j``. Each
    is rank one or two, so ``t w`` with ``t = M P(.) M / (K-1)`` and every
    pairing are group means over ``z_k``, ``r``, ``v``, ``u``, ``w`` and the
    columns of M. One stacked Cholesky of the capacitances gives their log
    determinants and the positive-definiteness check, and one stacked solve
    applies their inverses.

    The group means are summed one element at a time over the (at most
    four) elements, so the temporaries hold one image of each row, never the
    images under every element at once.

    Every trial is computed. The rows of the trials whose estimate failed
    (its rows of ``m_hat`` and ``x_hat`` are the identity) and, under A,
    whose amplitude did are then overwritten with placeholders, and their
    failures dropped; see :class:`InfoTerms`.
    """
    approach = Approach.parse(approach)
    h, n, k = estimate.hypothesis, stack.n, stack.k
    dead = set(estimate.failures)
    if approach is Approach.A:
        if estimate.alpha_hat is None:
            raise ValueError("approach A needs alpha_hat on the estimate stack")
        cut, v = stack.require_cut()
        dead |= set(estimate.alpha_failures)

    m, group = param_count(h, n), _VECTOR_GROUPS[h]
    m_hat, x = estimate.m_hat, estimate.x_hat
    sandwich, failures, fallbacks = _sandwich_logdet(h, m_hat, estimate.logdet)
    logdet_f = basis_log_norm(h, n) - sandwich
    # Score rows: snapshot k in row k (z_k, w_k = X z_k), and under approach
    # A the CUT's r = z - alpha v and X r in row K. For each group element g,
    # q_g = g(row)^H (X row), and mean_g |q_g|^2 - 2 Re q_id + N is
    # <P(D), M P(D) M> for the row's D = (X row)(X row)^H - X.
    z = stack.secondary.swapaxes(-1, -2)
    if approach is Approach.B:
        rows, x_rows = z, z @ x.swapaxes(-1, -2)
    else:
        r = cut - estimate.alpha_hat[:, None] * v
        rows = np.concatenate([z, r[:, None]], axis=1)
        x_rows = rows @ x.swapaxes(-1, -2)
    rows_conj, size = rows.conj(), len(group)
    q = _dot(rows_conj, x_rows)  # the identity comes first in every group
    quad = n - 2.0 * q.real + np.abs(q) ** 2 / size
    for element in group[1:]:
        quad += np.abs(_dot(_image(element, rows_conj, rows), x_rows)) ** 2 / size
    if approach is Approach.B:
        trace, logdet = np.sum(quad, axis=-1) / k, m * math.log(k) + logdet_f
        return _with_placeholders(trace, logdet, None, failures, fallbacks, dead)

    # The alpha border and the capacitance columns are b' (X r)^H + X r b'^H
    # (halved for the capacitance) with M b' = b for the rows b of `basis`:
    # v, i v, the columns of M and i times them. M P(.) M X r is then
    # mean_g g(b) c_g + g(r) g(b)^H X r, with c_g = g(r)^H X r.
    xr, u = x_rows[:, k], _matvec(x, v)
    xr_u = np.stack([xr, u], axis=-1)
    columns = m_hat.swapaxes(-1, -2)
    basis = np.concatenate([v[:, None], 1j * v[:, None], columns, 1j * columns], axis=1)
    basis_conj = basis.conj()
    # Rows 0..K-1 the snapshots, K the CUT, K+1 and K+2 the alpha border:
    # tw sums g(row) g(row)^H X r over g, towards t_i X r with
    # t_i = M P(D_i) M / (K-1), and wtu sums (X r)^H g(row) g(row)^H u,
    # towards (X r)^H t_i u; b_tw and b_wtu sum the same for the basis rows.
    # The -X part of D_i would add -(X r)^H v / (K-1) to (X r)^H t_i u; that
    # is zero at the ML amplitude.
    tw = wtu = b_tw = b_wtu = 0.0
    for element in group:
        image, image_conj = _image(element, rows, rows_conj), _image(element, rows_conj, rows)
        b_image = _image(element, basis, basis_conj)
        # g(row)^H X r and g(row)^H u per row, then c = g(r)^H X r.
        proj = image_conj @ xr_u
        b_proj = _image(element, basis_conj, basis) @ xr_u
        c, ru = proj[:, k, 0], proj[:, k, 1]
        tw += proj[..., :1] * image
        wtu += proj[..., 0].conj() * proj[..., 1]
        b_tw += c[:, None, None] * b_image + b_proj[..., :1] * image[:, None, k]
        b_wtu += b_proj[:, :2, 0].conj() * ru[:, None] + c.conj()[:, None] * b_proj[:, :2, 1]
    km1 = k - 1
    b_tw /= size * km1
    tw = np.concatenate([(tw / size - r[:, None]) / km1, b_tw[:, :2]], axis=1)
    wtu = np.concatenate([wtu, b_wtu], axis=1) / (size * km1)
    a = np.concatenate([tw.real, tw.imag], axis=-1)

    cols = 0.5 * b_tw[:, 2:]
    cap = 0.5 * _real_form(m_hat) + np.concatenate([cols.real, cols.imag], axis=-1).swapaxes(
        -1, -2
    )
    cap = 0.5 * (cap + cap.swapaxes(-1, -2))
    low, errors, fell_back = cholesky_stack(cap)
    if errors:
        cap[list(errors)] = np.eye(2 * n)
    solved = np.linalg.solve(cap, a.swapaxes(-1, -2))

    # Woodbury: g_i^T Q^{-1} g_j = <P(D_i), t_j> - a_i^T cap^{-1} a_j.
    scores = slice(0, k + 1)
    theta_trace = np.sum(quad, axis=-1) / km1 - np.sum(
        a[:, scores] * solved[..., scores].swapaxes(-1, -2), axis=(-2, -1)
    )
    cross = np.stack([2.0 * wtu.real, -2.0 * wtu.imag], axis=1) - a[:, k + 1 :] @ solved
    schur = 2.0 * _dot(v.conj(), u).real[:, None, None] * np.eye(2) - cross[..., k + 1 :]
    # The CUT's amplitude score is zero at the ML amplitude, so Y is
    # B^T Q^{-1} G_theta alone.
    y = cross[..., scores]
    theta_logdet = (
        m * math.log(km1)
        + logdet_f
        + 2 * n * math.log(2.0)
        - 2.0 * estimate.logdet
        + logdet_from_cholesky(low)
    )
    schur = (0.5 * (schur + schur.swapaxes(-1, -2)), y @ y.swapaxes(-1, -2))
    return _with_placeholders(
        theta_trace, theta_logdet, schur, {**errors, **failures}, fallbacks + fell_back, dead
    )


def _with_placeholders(trace, logdet, schur, failures, fallbacks, dead) -> InfoTerms:
    """InfoTerms whose rows of the ``dead`` trials (estimate or amplitude
    failed) and of the trials in ``failures`` hold placeholders; failures of
    dead trials are dropped."""
    failures = {t: exc for t, exc in failures.items() if t not in dead}
    placeholders = [*dead, *failures]
    if placeholders:
        trace[placeholders] = logdet[placeholders] = 0.0
        if schur is not None:
            schur[0][placeholders], schur[1][placeholders] = np.eye(2), 0.0
    return InfoTerms(trace, logdet, schur, failures, int(fallbacks))


def _real_form(a: np.ndarray) -> np.ndarray:
    """2N x 2N real matrices acting on [Re y; Im y] as each A acts on y."""
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = a.real
    out[..., n:, :n] = np.imag(a)
    out[..., :n, n:] = -out[..., n:, :n]
    return out


def _sandwich_logdet(
    hypothesis: Hypothesis, m_hat: np.ndarray, logdet: np.ndarray
) -> tuple[np.ndarray, dict[int, Exception], bool]:
    """log det of ``U -> M U M`` on the class, in an orthonormal basis, over a
    (T, N, N) stack.

    ``logdet`` is ``log det M``. The result is ``2N log det M`` on the
    Hermitian matrices, ``(N+1) log det M`` on the real symmetric ones and on
    the centrohermitian ones (unitarily equivalent to real symmetric), and
    for H4 the sum over the blocks of M on the J-even and J-odd vectors,
    ``(n_e + 1) log det M_e + (n_o + 1) log det M_o``. So ``log det F`` is
    ``sum_q log ||C_q||^2`` minus this. Also returns the per-trial errors and
    the fallback flag of the blocks' stacked Cholesky (:func:`cholesky_stack`).
    """
    n = m_hat.shape[-1]
    if hypothesis is Hypothesis.H1:
        return 2 * n * logdet, {}, False
    if hypothesis is not Hypothesis.H4:
        return (n + 1) * logdet, {}, False
    half = n // 2
    eye = np.eye(n)
    pairs = eye[:, :half], eye[:, ::-1][:, :half]
    even = math.sqrt(0.5) * (pairs[0] + pairs[1])
    odd = math.sqrt(0.5) * (pairs[0] - pairs[1])
    if n % 2:
        even = np.column_stack([even, eye[:, half]])
    total, errors, fell_back = 0.0, {}, False
    for basis in (even, odd):
        low, block_errors, block_fell_back = cholesky_stack(basis.T @ m_hat @ basis)
        total = total + (basis.shape[1] + 1) * logdet_from_cholesky(low)
        errors = {**block_errors, **errors}
        fell_back = fell_back or block_fell_back
    return total, errors, fell_back
