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
one class, under each approach, in one pass over a whole stack of trials.
Every class is a quadratic subspace whose plug-in estimate is the projection
``P_h`` of S/K (Szatrowski 1980, Ann. Statist. 8(4); Jensen 1988, Ann.
Statist. 16(1)). So at the plug-in the theta-theta observed information is
``K F`` under approach B and ``(K-1) F`` plus a rank-2N term under A, where
``F_pq = Re Tr(X C_p X C_q)`` and ``F^{-1}`` acts on the class as
``U -> M U M``, whose log det comes from the block log-dets of the
estimate's one Cholesky; no Cholesky runs here. The score of snapshot k is
the class component of ``D_k = X z_k z_k^H X - X``. Under A the rank-2N term is handled by
Woodbury, with its capacitance in closed form, and the amplitude block by a
2 x 2 Schur complement, so no information matrix is formed. The amplitude is
the ML estimate, so the CUT's amplitude score is zero and drops out of every
term.

The test oracle (``tests/oracle.py``) keeps the direct forms: the same terms
from projected N x N matrices, the theta-basis log-likelihoods, derivatives
and information matrices, and the approach-A terms at 40 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import Approach, DatasetStack, EstimateStack
from .linalg import _PIVOT_RTOL, NotPositiveDefiniteError
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

    ``failures`` maps each trial whose approach-A terms could not be formed
    (the capacitance is not certified) to its error. Those trials, and the
    trials whose estimate (or, under A, amplitude) had already failed, hold
    placeholder rows: zero terms and the pair ``(I_2, 0)``. ``log det F``
    comes from the estimate's ``block_logdets``, so no Cholesky runs here.
    """

    theta_trace: np.ndarray
    theta_logdet: np.ndarray
    schur: tuple[np.ndarray, np.ndarray] | None = None
    failures: dict[int, Exception] = field(default_factory=dict)


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
# Row g: the weight of lam_g g(X^T) in B + B' and in i (B - B'): A^{-1} in real form.
_REAL_ROWS = {h: np.array([[1, 1j - 2j * c] for _, c in g]) for h, g in _VECTOR_GROUPS.items()}
# E on the columns g(r), then i g(r), and the sorted diagonal (the inertia) of
# a block. H4's J maps column c to c + 2 in its half and commutes with A^{-1}
# and E: in the columns (c +- J c) / sqrt 2 of _H4_BASIS the core is two
# blocks, and E is the J-even columns' signs in each.
_EVEN, _ODD = np.eye(8)[:, [0, 1, 4, 5]], np.eye(8)[:, [2, 3, 6, 7]]
_H4_BASIS = math.sqrt(0.5) * np.hstack([_EVEN + _ODD, _EVEN - _ODD])
_CORE_SIGNS = {h: np.diag(np.array([1.0] * len(g) + [1.0 if c else -1.0 for _, c in g])
                          [[0, 1, 4, 5] * 2 if h is Hypothesis.H4 else slice(None)])
               for h, g in _VECTOR_GROUPS.items()}
_INERTIA = {h: np.sort(np.diag(e)[:4]) for h, e in _CORE_SIGNS.items()}


def _image(element, a: np.ndarray, a_conj: np.ndarray) -> np.ndarray:
    """``g(a)`` for one element g of a vector group, as a view of ``a`` or of
    its conjugate ``a_conj``; the same call with the two swapped gives
    ``conj(g(a))``."""
    flip, conj = element
    image = a_conj if conj else a
    return image[..., ::-1] if flip else image


def information_terms(estimate: EstimateStack, stack: DatasetStack, approaches) -> dict:
    """TIC and BIC information terms at the plug-in estimates, for a stack:
    one pass over a class gives each approach's :class:`InfoTerms`.

    ``P`` is the mean over a group acting on vectors: ``{id}`` (H1),
    ``{id, conj}`` (H2), ``{id, J conj}`` (H3), ``{id, conj, J, J conj}``
    (H4), with ``P(a b^H) = mean_g g(a) g(b)^H``. ``X`` and ``M`` lie in the
    class, so ``M P(a b^H) M = mean_g g(M a) g(M b)^H``, and each inner
    product ``<A, B> = Re Tr(AB)`` of such rank-one or rank-two terms is a
    group mean of products of N-vector inner products. With ``w_k = X z_k``
    and ``D_k = w_k w_k^H - X``, ``quad_k = <P(D_k), M P(D_k) M> =
    mean_g |q_g|^2 - 2 Re q_id + N``, ``q_g = g(z_k)^H w_k``.

    Approach B: ``Q = K F``, so ``theta_logdet = m log K + log det F`` and
    ``theta_trace = (1/K) sum_k quad_k``.

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
    (Haynsworth), for H4 block by block. A trial whose margins ``a - |b|`` or
    core eigenvalues next to zero are not above 1e-12 of their scale, or not
    finite, fails with a NotPositiveDefiniteError naming the capacitance.

    Data flow: ``log det F``, ``X z_k`` and ``q_g`` are formed once, by the
    same calls for any ``approaches`` (B's terms are bit-identical alone and
    beside A). A adds rows r, v, i v: ``proj = g(row)^H (w, u)`` gives ``t w``,
    ``s_g`` and ``wtu`` as group sums; A^{-1} acts on ``t w`` and V^T, for
    |G| > 1 as one real 2N x 2N product. Rows of trials whose estimate (or,
    under A, amplitude) failed are placeholders, their failures dropped.
    """
    approaches = tuple(Approach.parse(a) for a in approaches)
    h, n, k, x = estimate.hypothesis, stack.n, stack.k, estimate.x_hat
    if Approach.A in approaches and estimate.alpha_hat is None:
        raise ValueError("approach A needs alpha_hat on the estimate stack")
    if x is None:
        raise ValueError("the information terms need x_hat: prepare the estimates for TIC or BIC")
    m, group = param_count(h, n), _VECTOR_GROUPS[h]
    # log det F = sum_q log ||C_q||^2 - log det (U -> M U M) on the class: 2N log
    # det M on the Hermitian matrices, else the sum of (n_b + 1) log det M_b over
    # the blocks in EstimateStack.block_logdets (centrohermitian is unitarily real).
    weights = {Hypothesis.H1: (2 * n,), Hypothesis.H4: ((n + 1) // 2 + 1, n // 2 + 1)}
    sandwich = sum(w * ld for w, ld in zip(weights.get(h, (n + 1,)), estimate.block_logdets))
    logdet_f = basis_log_norm(h, n) - sandwich
    z = stack.secondary.swapaxes(-1, -2)  # the snapshot rows
    x_z, z_conj, size = z @ x.swapaxes(-1, -2), z.conj(), len(group)
    q = [np.einsum("...i,...i->...", _image(e, z_conj, z), x_z) for e in group]
    quad = n - 2.0 * q[0].real + np.abs(q[0]) ** 2 / size  # the identity comes first
    for q_g in q[1:]:
        quad += np.abs(q_g) ** 2 / size
    del x_z, z_conj, q  # only quad goes on
    out, dead = {}, set(estimate.failures)
    if Approach.B in approaches:
        trace, logdet = quad.sum(-1) / k, m * math.log(k) + logdet_f
        out[Approach.B] = _with_placeholders(trace, logdet, None, {}, dead)
    if Approach.A not in approaches:
        return out

    # Rows: the snapshots, the CUT's r (q_g = s_g) and the alpha border b = v,
    # i v, b' (X r)^H + X r b'^H with M b' = b. (K-1) |G| t_i X r is sum_g
    # g(row) g(row)^H X r - |G| r for a score row, sum_g s_g g(b) + g(r) g(b)^H
    # X r for a border row (the -X part is zero in (X r)^H t_i u, u = X v, at
    # the ML amplitude). proj: g(row)^H (X r, u); ends: g(r), g(v), g(i v).
    cut, v = stack.require_cut()
    r = cut - estimate.alpha_hat[:, None] * v
    rows = np.concatenate([z, r[:, None], v[:, None], 1j * v[:, None]], axis=1)
    rows_conj, trials = rows.conj(), len(rows)
    scores, border, km1 = slice(0, k + 1), slice(k + 1, k + 3), k - 1
    xr_u = x @ rows[:, k : k + 2].swapaxes(-1, -2)
    tw, proj, ends = 0.0, np.empty((trials, size, k + 3, 2), complex), []
    for i, element in enumerate(group):
        image = _image(element, rows, rows_conj)
        np.matmul(_image(element, rows_conj, rows), xr_u, out=proj[:, i])
        tw += proj[:, i, scores, :1] * image[:, scores]
        ends.append(image[:, None, k:])
    ends = np.concatenate(ends, axis=1)
    del rows, rows_conj, image  # the group loop was their last reader
    s, r_images = proj[:, :, k, 0], ends[:, :, 0]
    quad_r = n - 2.0 * s[:, 0].real + (np.abs(s) ** 2).sum(-1) / size
    b_tw = (s[:, None, None] @ ends[:, :, 1:].swapaxes(1, 2))[:, :, 0]
    b_tw += proj[:, :, border, 0].swapaxes(1, 2) @ r_images
    # wtu_i: 2 sum_g g(a)^H w conj(g(b)^H u) over (row_i, row_i), border (row_i, r) + (r, row_i)
    p_w, p_u = proj[..., 0], proj[..., 1].conj()
    diagonal = np.einsum("tgi,tgi->ti", p_w[:, :, scores], p_u[:, :, scores], order="C")
    ends_w_u = p_w[:, :, k:].swapaxes(1, 2) @ p_u[:, :, k:]  # rows r, v, i v
    wtu = 2.0 * np.concatenate([diagonal, ends_w_u[:, 1:, 0] + ends_w_u[:, 0, 1:]], 1)

    # L^{-1}, with a^2 - |b|^2 kept as a -+ |b| (margin), which overflow only
    # where a does. A^{-1} sends a row y of tw or V^T to y B + conj(y) B', B
    # summing lam_g g(X^T) over the elements without conjugation, B' the rest.
    scale, cap_c = 1.0 / (size * km1), 0.5 / (size * km1)
    parity = cap_c * (s[:, None] @ _PARITY[h])[:, 0]
    a_pm, b_pm = 0.5 + parity[:, :2].real, parity[:, 2:]
    margin = np.concatenate([a_pm - np.abs(b_pm), a_pm + np.abs(b_pm)], axis=1)
    inverse_pm = np.concatenate([a_pm[:, None], -b_pm[:, None]], 1) / margin[:, None, :2]
    lam = ((inverse_pm / margin[:, None, 2:]).reshape(trials, 1, 4) @ (0.5 * _PARITY[h].T))[:, 0]
    v_x_v = 2.0 * proj[:, 0, k + 1, 1, None, None].real  # 2 v^H X v
    del proj, p_w, p_u, s  # of proj only 2 v^H X v goes on
    tw = np.concatenate([tw - size * r[:, None], b_tw, r_images, 1j * r_images], axis=1)
    xt = x.swapaxes(-1, -2)  # X is Hermitian: conj(X^T) = X
    if size == 1:
        y = tw @ (lam[:, :1, None] * xt)
    else:
        images = np.stack([_image(e, xt, x) for e in group], 1).reshape(trials, size, n * n)
        real = ((lam[..., None] * _REAL_ROWS[h]).swapaxes(1, 2) @ images).reshape(trials, 2, n, n)
        del images
        real = np.ascontiguousarray(real.swapaxes(1, 2)).view(float).reshape(trials, 2 * n, 2 * n)
        y = (tw.view(float) @ real).view(complex)
        del real  # only y goes on
    # <g(r), y> = Re g(r)^H y, <i g(r), y> = Im g(r)^H y; for H4 in the
    # columns of _H4_BASIS. eigh reads each block's lower triangle and sorts
    # ascending; the floor takes its scale from the whole core (both blocks),
    # and NaN or inf fails the certificate.
    gy = r_images.conj() @ y.swapaxes(-1, -2)
    vy = np.concatenate([gy.real, gy.imag], axis=1)
    if h is Hypothesis.H4:
        vy = _H4_BASIS.T @ vy
        core = _CORE_SIGNS[h] + cap_c * (vy[..., k + 3 :] @ _H4_BASIS)
        core = np.concatenate([core[:, None, :4, :4], core[:, None, 4:, 4:]], 1)
    else:
        core = (_CORE_SIGNS[h] + cap_c * vy[..., k + 3 :])[:, None]
    try:
        eig, vec = np.linalg.eigh(core)
    except np.linalg.LinAlgError:  # a NaN core; a zero one fails the certificate
        core[~np.isfinite(core).all(axis=(-2, -1))] = 0.0
        eig, vec = np.linalg.eigh(core)
    floor = _PIVOT_RTOL * np.maximum(-eig[..., :1], eig[..., -1:]).max(-2, keepdims=True)
    certified = (margin[:, :2] > _PIVOT_RTOL * margin[:, 2:]).all(-1)
    certified &= (eig * _INERTIA[h] > floor).all((-2, -1))
    eig, errors = eig.reshape(trials, 2 * size), {}
    if not certified.all():
        for t in np.flatnonzero(~certified):
            finite = np.isfinite(vy[t]).all() and np.isfinite(margin[t]).all()
            state = "positive definite" if finite else "finite"
            numbers = ", ".join(f"{value:.3e}" for value in (*margin[t], *eig[t]))
            text = f"capacitance is not {state}: J-parity a - |b|, a + |b|, core eigenvalues "
            errors[int(t)] = NotPositiveDefiniteError(text + numbers)
        eig[~certified] = 1.0
    ry = vec.swapaxes(-1, -2) @ vy[..., : k + 3].reshape(*core.shape[:3], k + 3)
    ry = ry.reshape(trials, 2 * size, k + 3)
    ry_scaled = ry * (cap_c / eig)[..., None]

    # Woodbury: g_i^T Q^{-1} g_j = <P(D_i), t_j> - <a_i, C^{-1} a_j>, with
    # <a_i, C^{-1} a_j> = scale^2 (Re tw_i^H y_j - ry_i^T (cap_c / eig) ry_j).
    theta_trace = (quad.sum(-1) + quad_r) / km1 - scale**2 * (
        np.einsum("tij,tij->t", tw[:, scores].view(float), y[:, scores].view(float))
        - np.einsum("tij,tij->t", ry[..., scores], ry_scaled[..., scores])
    )
    cross = scale * (
        wtu.view(float).reshape(trials, -1, 2).swapaxes(1, 2)  # real, imaginary rows
        - scale * (tw[:, border].conj() @ y[:, : k + 3].swapaxes(-1, -2)).real
        + scale * (ry_scaled[..., border].swapaxes(-1, -2) @ ry)
    )
    # The CUT's amplitude score is zero, so Y is B^T Q^{-1} G_theta. The
    # 2 log det M of C and of A cancel.
    schur = v_x_v * np.eye(2) - cross[..., border]
    logs = np.log(np.abs(np.concatenate([margin, eig], axis=1)))
    logs[:, :4] *= ((n + 1) // 2, n // 2) * 2
    theta_logdet = (m * math.log(km1) + 2 * n * math.log(2.0) + logdet_f) + logs.sum(-1)
    y_theta = cross[..., scores]
    schur = (0.5 * (schur + schur.swapaxes(-1, -2)), y_theta @ y_theta.swapaxes(-1, -2))
    dead |= set(estimate.alpha_failures)
    out[Approach.A] = _with_placeholders(theta_trace, theta_logdet, schur, errors, dead)
    return out


def _with_placeholders(trace, logdet, schur, failures, dead) -> InfoTerms:
    """InfoTerms whose rows of the ``dead`` trials (estimate or amplitude
    failed) and of the trials in ``failures`` hold placeholders; failures of
    dead trials are dropped."""
    failures = {t: exc for t, exc in failures.items() if t not in dead}
    placeholders = [*dead, *failures]
    if placeholders:
        trace[placeholders] = logdet[placeholders] = 0.0
        if schur is not None:
            schur[0][placeholders], schur[1][placeholders] = np.eye(2), 0.0
    return InfoTerms(trace, logdet, schur, failures)
