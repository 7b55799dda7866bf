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
is handled by Woodbury, with its capacitance in closed form, and the
amplitude block by a 2 x 2 Schur complement, so no information matrix is
formed. The amplitude is the ML estimate, so the CUT's amplitude score is
zero and drops out of every term.

The test oracle (``tests/oracle.py``) keeps the direct forms: the same terms
from projected N x N matrices, the theta-basis log-likelihoods, derivatives
and information matrices, and the approach-A terms at 40 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Approach, DatasetStack, EstimateStack
from .linalg import _PIVOT_RTOL, NotPositiveDefiniteError, cholesky_stack, logdet_from_cholesky
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
    (of the H4 blocks of M) that fell back to matrix by matrix.
    """

    theta_trace: np.ndarray
    theta_logdet: np.ndarray
    schur: tuple[np.ndarray, np.ndarray] | None = None
    failures: dict[int, Exception] = field(default_factory=dict)
    fallbacks: int = 0


# The group of each class's projection; an element (flip, conjugate) maps a
# vector a to J a and/or conj(a).
_VECTOR_GROUPS = {
    Hypothesis.H1: ((False, False),),
    Hypothesis.H2: ((False, False), (False, True)),
    Hypothesis.H3: ((False, False), (True, True)),
    Hypothesis.H4: ((False, False), (False, True), (True, False), (True, True)),
}

# Row g: the weight of s_g in L's (a+, a-, b+, b-), and of L^{-1}'s in lam_g.
_PARITY = {
    h: np.array([[0, 0] * c + [1, -1 if f else 1] + [0, 0] * (not c) for f, c in g], float)
    for h, g in _VECTOR_GROUPS.items()
}
# E on the columns g(r), then i g(r), and its sorted diagonal (the inertia).
_CORE_SIGNS = {h: np.diag([1.0] * len(g) + [1.0 if c else -1.0 for _, c in g])
               for h, g in _VECTOR_GROUPS.items()}
_INERTIA = {h: np.sort(np.diagonal(e)) for h, e in _CORE_SIGNS.items()}


def _image(element, a: np.ndarray, a_conj: np.ndarray) -> np.ndarray:
    """``g(a)`` for one element g of a vector group, as a view of ``a`` or of
    its conjugate ``a_conj``; the same call with the two swapped gives
    ``conj(g(a))``."""
    flip, conj = element
    image = a_conj if conj else a
    return image[..., ::-1] if flip else image


def information_terms(
    estimate: EstimateStack, stack: DatasetStack, approach: Approach
) -> InfoTerms:
    """TIC and BIC information terms at the plug-in estimates, for a stack.

    ``P`` is the mean over a group acting on vectors: ``{id}`` (H1),
    ``{id, conj}`` (H2), ``{id, J conj}`` (H3), ``{id, conj, J, J conj}``
    (H4), with ``P(a b^H) = mean_g g(a) g(b)^H``. ``X`` and ``M`` lie in the
    class, so ``M P(a b^H) M = mean_g g(M a) g(M b)^H``, and each inner
    product ``<A, B> = Re Tr(AB)`` of such rank-one or rank-two terms is a
    group mean of products of N-vector inner products. With ``w_k = X z_k``
    and ``D_k = w_k w_k^H - X``:

    Approach B: ``Q = K F``, so ``theta_logdet = m log K + log det F`` and
    ``theta_trace = (1/K) sum_k <P(D_k), M P(D_k) M>
    = (1/K) sum_k [mean_g |z_k^H g(w_k)|^2 - 2 z_k^H w_k + N]``.

    Approach A: ``Q = (K-1) F + A^T (2 X~) A``, A mapping theta to the real
    form of ``M(theta) w``, ``w = X r``, ``r = z - alpha v``. Woodbury through
    the capacitance ``C = M~ / 2 + A ((K-1) F)^{-1} A^T`` applies ``Q^{-1}``
    and gives ``log det Q``. The scores add the CUT's ``w w^H - X`` and the
    alpha border is ``u w^H + w u^H``, ``i (u w^H - w u^H)``, ``u = X v``;
    ``t w`` with ``t = M P(.) M / (K-1)`` and every pairing are group means.
    C is never built: with ``c = 1 / (2 |G| (K-1))`` and ``s_g = g(r)^H w``,
    ``C e = M L(e) + U(e)``: ``L(e) = e / 2 + c sum_g s_g g(e)`` commutes
    with M and is ``e -> a e + b conj(e)`` on the J-even and J-odd vectors,
    ``a+- = 1/2 + c (s_id +- s_J)``, ``b+- = c (s_conj +- s_Jconj)``, so
    ``L^{-1} = sum_g lam_g g`` and ``A^{-1} = L^{-1} X``; and
    ``U(e) = c sum_g g(r) g(e)^H r = V (c E) V^T e`` for the 2|G| <= 8
    columns ``g(r), i g(r)`` and signs E. Woodbury through the core
    ``E + c V^T A^{-1} V`` gives C^{-1}, and ``log det C = 2 log det M +
    n_e log(a+^2 - |b+|^2) + n_o log(a-^2 - |b-|^2) + log |det core|``. C is
    positive definite iff ``a+- > |b+-|`` and the core has the inertia of E
    (Haynsworth). A trial whose margins ``a - |b|`` or core eigenvalues next
    to zero are not above 1e-12 of their scale, or not finite, fails with a
    NotPositiveDefiniteError naming the capacitance.

    Every trial is computed; the rows of the trials whose estimate failed
    (its M and X are the identity) or, under A, whose amplitude did are then
    placeholders, and their failures are dropped; see :class:`InfoTerms`.
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
        rows = np.concatenate([z, r[:, None], v[:, None], 1j * v[:, None]], axis=1)
        x_rows = rows @ x.swapaxes(-1, -2)
    rows_conj, size = rows.conj(), len(group)
    q = np.einsum("...i,...i->...", rows_conj, x_rows)  # the identity comes first
    quad = n - 2.0 * q.real + np.abs(q) ** 2 / size
    for element in group[1:]:
        image_conj = _image(element, rows_conj, rows)
        quad += np.abs(np.einsum("...i,...i->...", image_conj, x_rows)) ** 2 / size
    if approach is Approach.B:
        trace, logdet = np.sum(quad, axis=-1) / k, m * math.log(k) + logdet_f
        return _with_placeholders(trace, logdet, None, failures, fallbacks, dead)

    # Rows K+1, K+2: the alpha border b = v, i v, b' (X r)^H + X r b'^H with
    # M b' = b. (K-1) |G| t_i X r is sum_g g(row) g(row)^H X r - |G| r for a
    # score row, sum_g s_g g(b) + g(r) g(b)^H X r for a border row (the -X
    # part is zero in (X r)^H t_i u, u = X v, at the ML amplitude).
    # proj: g(row)^H (X r, u); ends: g(r), g(v), g(i v).
    scores, border, km1 = slice(0, k + 1), slice(k + 1, k + 3), k - 1
    xr_u = x_rows[:, k : k + 2].swapaxes(-1, -2)
    tw, proj, ends = 0.0, np.empty((len(r), size, k + 3, 2), complex), []
    for i, element in enumerate(group):
        image = _image(element, rows, rows_conj)
        np.matmul(_image(element, rows_conj, rows), xr_u, out=proj[:, i])
        tw += proj[:, i, scores, :1] * image[:, scores]
        ends.append(image[:, k:])
    ends = np.stack(ends, axis=1)
    s, r_images = proj[:, :, k, 0], ends[:, :, 0]
    b_tw = (s[:, None, None] @ ends[:, :, 1:].swapaxes(1, 2))[:, :, 0]
    b_tw += proj[:, :, border, 0].swapaxes(1, 2) @ r_images
    # pairs[i, j] = sum_g (X r)^H g(row_i) g(row_j)^H u, and wtu holds
    # 2 (K-1) |G| conj((X r)^H t_i u), which pairs the border with row i.
    pairs = proj[..., 0].conj().swapaxes(1, 2) @ proj[..., 1]
    diagonal = pairs.diagonal(axis1=1, axis2=2)[:, scores]
    wtu = 2.0 * np.concatenate([diagonal, pairs[:, border, k] + pairs[:, k, border]], 1).conj()

    # L^{-1}, with a^2 - |b|^2 kept as a -+ |b| (margin), which overflow only
    # where a does. A^{-1} sends a row y of tw or V^T to y B + conj(y) B', B
    # summing lam_g g(X^T) over the elements without conjugation, B' the rest.
    scale, cap_c = 1.0 / (size * km1), 0.5 / (size * km1)
    parity = cap_c * (s[:, None] @ _PARITY[h])[:, 0]
    a_pm, b_pm = 0.5 + parity[:, :2].real, parity[:, 2:]
    margin = np.concatenate([a_pm - np.abs(b_pm), a_pm + np.abs(b_pm)], axis=1)
    inverse_pm = np.stack([a_pm, -b_pm], axis=1) / margin[:, None, :2] / margin[:, None, 2:]
    lam = (inverse_pm.reshape(len(s), 1, 4) @ (0.5 * _PARITY[h].T))[:, 0]
    tw = np.concatenate([tw - size * r[:, None], b_tw, r_images, 1j * r_images], axis=1)
    xt, mats = x.swapaxes(-1, -2), [0.0, 0.0]
    for (flip, conj), weight in zip(group, lam.T):  # X is Hermitian: conj(X^T) = X
        mats[conj] += weight[:, None, None] * _image((flip, conj), xt, x)
    y = tw @ mats[0]
    if size > 1:  # every larger group has elements with conjugation
        y += tw.conj() @ mats[1]
    # <g(r), y> = Re g(r)^H y, <i g(r), y> = Im g(r)^H y. eigh reads the
    # lower triangle and sorts ascending; NaN or inf fails the certificate.
    gy = r_images.conj() @ y.swapaxes(-1, -2)
    vy = np.concatenate([gy.real, gy.imag], axis=1)
    core = _CORE_SIGNS[h] + cap_c * vy[..., k + 3 :]
    try:
        eig, vec = np.linalg.eigh(core)
    except np.linalg.LinAlgError:  # a NaN core; a zero one fails the certificate
        core[~np.isfinite(core).all(axis=(-2, -1))] = 0.0
        eig, vec = np.linalg.eigh(core)
    floor = _PIVOT_RTOL * np.maximum(-eig[:, :1], eig[:, -1:])
    certified = np.all(margin[:, :2] > _PIVOT_RTOL * margin[:, 2:], axis=-1)
    certified &= np.all(eig * _INERTIA[h] > floor, axis=-1)
    errors = {}
    if not certified.all():
        for t in np.flatnonzero(~certified):
            finite = np.isfinite(vy[t]).all() and np.isfinite(margin[t]).all()
            state = "positive definite" if finite else "finite"
            numbers = ", ".join(f"{value:.3e}" for value in (*margin[t], *eig[t]))
            text = f"capacitance is not {state}: J-parity a - |b|, a + |b|, core eigenvalues "
            errors[int(t)] = NotPositiveDefiniteError(text + numbers)
        eig[~certified] = 1.0
    ry = vec.swapaxes(-1, -2) @ vy[..., : k + 3]
    ry_scaled = ry * (cap_c / eig)[..., None]

    # Woodbury: g_i^T Q^{-1} g_j = <P(D_i), t_j> - <a_i, C^{-1} a_j>, with
    # <a_i, C^{-1} a_j> = scale^2 (Re tw_i^H y_j - ry_i^T (cap_c / eig) ry_j).
    theta_trace = np.sum(quad[:, scores], axis=-1) / km1 - scale**2 * (
        np.einsum("tij,tij->t", tw[:, scores].conj(), y[:, scores]).real
        - np.einsum("tij,tij->t", ry[..., scores], ry_scaled[..., scores])
    )
    cross = scale * (
        wtu.view(float).reshape(len(wtu), -1, 2).swapaxes(1, 2)  # real, imaginary rows
        - scale * (tw[:, border].conj() @ y[:, : k + 3].swapaxes(-1, -2)).real
        + scale * (ry_scaled[..., border].swapaxes(-1, -2) @ ry)
    )
    # q[:, K+1] is v^H X v; the CUT's amplitude score is zero, so Y is
    # B^T Q^{-1} G_theta. The 2 log det M of C and of A cancel.
    schur = 2.0 * q[:, k + 1, None, None].real * np.eye(2) - cross[..., border]
    logs = np.log(np.abs(np.concatenate([margin, eig], axis=1)))
    logs[:, :4] *= ((n + 1) // 2, n // 2) * 2
    theta_logdet = (m * math.log(km1) + 2 * n * math.log(2.0) + logdet_f) + np.sum(logs, axis=-1)
    y_theta = cross[..., scores]
    schur = (0.5 * (schur + schur.swapaxes(-1, -2)), y_theta @ y_theta.swapaxes(-1, -2))
    failures = {**errors, **failures}
    return _with_placeholders(theta_trace, theta_logdet, schur, failures, fallbacks, dead)


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
    half, eye = n // 2, np.eye(n)
    pairs = eye[:, :half], eye[:, ::-1][:, :half]
    even, odd = math.sqrt(0.5) * (pairs[0] + pairs[1]), math.sqrt(0.5) * (pairs[0] - pairs[1])
    if n % 2:
        even = np.column_stack([even, eye[:, half]])
    total, errors, fell_back = 0.0, {}, False
    for basis in (even, odd):
        low, block_errors, block_fell_back = cholesky_stack(basis.T @ m_hat @ basis)
        total = total + (basis.shape[1] + 1) * logdet_from_cholesky(low)
        errors = {**block_errors, **errors}
        fell_back = fell_back or block_fell_back
    return total, errors, fell_back
