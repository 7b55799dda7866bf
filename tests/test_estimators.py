"""Covariance and amplitude estimators: structure, nesting, and ML oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstruct import criteria
from covstruct.criteria import Criterion, CriterionKind, classify_stack, prepare_estimates
from covstruct.estimators import (
    Approach,
    Dataset,
    DatasetStack,
    DegenerateSteeringError,
    estimate_alpha_stack,
    estimate_covariance,
)
from covstruct.linalg import cholesky_stack, hermitian_part
from covstruct.scenario import steering_vector
from covstruct.structures import Hypothesis

from conftest import random_dataset, random_pd_matrix
from oracle import complex_normal, exchange, satisfies_structure

FIM = (Criterion(CriterionKind.TIC),)  # a rule whose estimates carry X


def test_dataset_validation(rng):
    secondary = complex_normal(rng, (4, 10))
    ds = Dataset(secondary=secondary)
    assert ds.n == 4 and ds.k == 10
    with pytest.raises(ValueError):
        Dataset(secondary=complex_normal(rng, (4, 4)))  # K must exceed N
    with pytest.raises(ValueError):
        Dataset(secondary=secondary, cut=complex_normal(rng, (5,)))
    with pytest.raises(ValueError):
        Dataset(
            secondary=secondary,
            cut=complex_normal(rng, (4,)),
            steering=2.0 * steering_vector(4 + 1, 0.01)[:4],
        )


def test_dataset_rejects_nan_steering(rng):
    steering = steering_vector(5, 0.01).copy()
    steering[2] = np.nan
    with pytest.raises(ValueError, match="steering must be unit norm, got .v. = nan"):
        Dataset(secondary=complex_normal(rng, (5, 9)), steering=steering)


def test_stack_validation_is_the_dataset_rule(rng):
    # The stack checks its arrays once with Dataset's rule and messages, with
    # the trial axis in the shapes.
    secondary = complex_normal(rng, (3, 5, 9))
    v = steering_vector(5, 0.01)
    stack = DatasetStack(secondary, complex_normal(rng, (3, 5)), np.tile(v, (3, 1)))
    assert (len(stack), stack.n, stack.k) == (3, 5, 9)
    assert stack.require_cut()[1].shape == (3, 5)
    bad_steering = np.tile(v, (3, 1))
    bad_steering[1, 0] = np.nan
    for args, message in (
        ((secondary[0],), "secondary must be a T x N x K stack, got shape (5, 9)"),
        ((secondary[:, :, :5],), "need K > N secondary snapshots, got K=5, N=5"),
        ((secondary[:0],), "a dataset stack needs at least one dataset"),
        ((secondary, complex_normal(rng, (3, 4))), "cut must have shape (3, 5), got (3, 4)"),
        ((secondary, None, 2.0 * np.tile(v, (3, 1))), "steering must be unit norm, got |v| = 2.0"),
        ((secondary, None, bad_steering), "steering must be unit norm, got |v| = nan"),
    ):
        with pytest.raises(ValueError) as raised:
            DatasetStack(*args)
        assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        Dataset(secondary=secondary[0], cut=complex_normal(rng, (4,)))
    assert str(raised.value) == "cut must have shape (5,), got (4,)"
    for datasets in ([], [Dataset(secondary[0]), Dataset(secondary[0, :, :8])]):
        with pytest.raises(ValueError, match="one or more datasets of one N x K shape"):
            DatasetStack.of(datasets)


def test_require_cut_names_missing_pieces(rng):
    secondary = complex_normal(rng, (4, 9))
    with pytest.raises(ValueError, match="cut"):
        DatasetStack.of([Dataset(secondary=secondary)]).require_cut()
    with_cut = Dataset(secondary=secondary, cut=complex_normal(rng, (4,)))
    with pytest.raises(ValueError, match="steering"):
        DatasetStack.of([with_cut]).require_cut()


def _estimate(h, ds):
    """The class's ICM estimate of one dataset, through a stack of one."""
    return estimate_covariance(h, DatasetStack.of([ds]))[0]


def _whitened(m, z, v):
    """The (T, N) whitened steering vectors ``L^-1 v`` and CUTs ``L^-1 z`` that
    estimate_alpha_stack takes, ``M = L L^H`` a (T, N, N) stack."""
    low = np.linalg.cholesky(m)
    return np.linalg.solve(low, v[..., None])[..., 0], np.linalg.solve(low, z[..., None])[..., 0]


def test_h1_estimate_is_sample_covariance(rng):
    ds = random_dataset(rng, 5, 12)
    m1 = _estimate(Hypothesis.H1, ds)
    s = ds.secondary @ ds.secondary.conj().T
    np.testing.assert_allclose(m1, 0.5 * (s + s.conj().T) / ds.k, rtol=0, atol=1e-14)


def test_trace_identity_at_h1_mle(rng):
    # Tr{X S} = K N at the plug-in estimate of every class: each class is
    # closed under inversion and its estimate is the projection of S/K onto
    # it. The fit term relies on this instead of forming the trace.
    for n, k in ((6, 20), (5, 7)):
        ds = random_dataset(rng, n, k)
        s = ds.secondary @ ds.secondary.conj().T
        for h in Hypothesis:
            x = np.linalg.inv(_estimate(h, ds))
            value = np.trace(x @ s).real
            assert abs(value - k * n) <= 1e-10 * k * n, h


def test_estimates_satisfy_exact_structure(rng):
    for n in (4, 5):
        ds = random_dataset(rng, n, 3 * n)
        for h in Hypothesis:
            m = _estimate(h, ds)
            assert satisfies_structure(h, m)


def test_estimate_nesting_identities(rng):
    # Restricted estimates are exact projections of the unstructured one.
    ds = random_dataset(rng, 5, 15)
    m1, m2, m3, m4 = (_estimate(h, ds) for h in Hypothesis)
    j = exchange(5)
    np.testing.assert_array_equal(m2, m1.real)
    np.testing.assert_array_equal(m3, 0.5 * (m1 + j @ m1.conj() @ j))
    np.testing.assert_array_equal(m4, m3.real)
    # Explicit structure identities hold bit-exactly.
    np.testing.assert_array_equal(m3, j @ m3.conj() @ j)
    np.testing.assert_array_equal(m4, j @ m4 @ j)


def alpha_ls_oracle(z, v):
    """Least-squares amplitude min |z - a v|^2, solved over (Re a, Im a) on
    the stacked real form [Re z; Im z] = [[Re v, -Im v], [Im v, Re v]] a."""
    design = np.block([[v.real[:, None], -v.imag[:, None]], [v.imag[:, None], v.real[:, None]]])
    (a_re, a_im), *_ = np.linalg.lstsq(design, np.concatenate([z.real, z.imag]), rcond=None)
    return complex(a_re, a_im)


def _steerings(rng, n):
    """The symmetric campaign steering, and a random non-symmetric unit
    vector as a dataset file may carry."""
    v_random = complex_normal(rng, (n,))
    return steering_vector(n, 0.01), v_random / np.linalg.norm(v_random)


def test_alpha_estimates_match_ls_oracle_at_identity(rng):
    # With M = I the whitened vectors are v and z themselves.
    n = 7
    for v in _steerings(rng, n):
        for _ in range(5):
            z = complex_normal(rng, (n,))
            a_hat, _, errors = estimate_alpha_stack(v[None], z[None])
            assert not errors
            a_hat = a_hat[0]
            a_orc = alpha_ls_oracle(z, v)
            assert abs(a_hat - a_orc) <= 1e-10 * max(1.0, abs(a_orc))


def test_alpha_minimises_the_cut_fit_under_every_class(rng):
    # The amplitude is the ML estimate: it minimises the CUT's fit term
    # (z - a v)^H X (z - a v) = |L^H (z - a v)|^2, with X = L L^H the class's
    # estimated ICM inverse, under every class and both steerings.
    n, k = 7, 20
    for v in _steerings(rng, n):
        for h in Hypothesis:
            for _ in range(5):
                ds = random_dataset(rng, n, k)
                ds = Dataset(secondary=ds.secondary, cut=ds.cut, steering=v)
                est = prepare_estimates(DatasetStack.of([ds]), Approach.A, FIM, h)
                low_h = np.linalg.cholesky(est.x_hat[0]).conj().T
                a_orc = alpha_ls_oracle(low_h @ ds.cut, low_h @ v)
                a_hat = est.alpha_hat[0]
                assert abs(a_hat - a_orc) <= 1e-10 * max(1.0, abs(a_orc)), h


def test_alpha_recovers_clean_target(rng):
    # z = alpha v with no noise: every hypothesis returns alpha exactly.
    n = 9
    v = steering_vector(n, 0.01)
    alpha = 2.3 - 1.7j
    z = alpha * v
    for m in (np.eye(n), random_pd_matrix(rng, n)):
        a_hat, quad, errors = estimate_alpha_stack(*_whitened(m[None], z[None], v[None]))
        assert not errors
        assert abs(a_hat[0] - alpha) <= 1e-10
        assert abs(quad[0]) <= 1e-20


def test_alpha_h1_formula(rng):
    ds = random_dataset(rng, 5, 16)
    stack = DatasetStack.of([ds])
    m = estimate_covariance(Hypothesis.H1, stack)
    x = np.linalg.inv(m)
    expected = np.vdot(ds.steering, x[0] @ ds.cut) / np.vdot(ds.steering, x[0] @ ds.steering)
    cut, steering = stack.require_cut()
    got = estimate_alpha_stack(*_whitened(m, cut, steering))[0][0]
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_alpha_steering_phase_consistency(rng):
    # Rotating z by a unit phase rotates the H1 estimate by the same phase.
    ds = random_dataset(rng, 5, 16)
    stack = DatasetStack.of([ds])
    m = estimate_covariance(Hypothesis.H1, stack)
    cut, steering = stack.require_cut()
    phase = np.exp(1j * 0.73)
    a0 = estimate_alpha_stack(*_whitened(m, cut, steering))[0][0]
    a1 = estimate_alpha_stack(*_whitened(m, phase * cut, steering))[0][0]
    assert abs(a1 - phase * a0) <= 1e-10 * max(1.0, abs(a0))


def test_alpha_and_cut_fit_match_the_inverse_forms(rng):
    # The solve gives the amplitude v^H X z / v^H X v and the CUT fit
    # r^H X r of the formed inverse X, under every class and for the
    # symmetric and a non-symmetric steering vector.
    n, k, trials = 7, 12, 6
    for v in _steerings(rng, n):
        sets = [random_dataset(rng, n, k) for _ in range(trials)]
        stack = DatasetStack.of(Dataset(d.secondary, d.cut, v) for d in sets)
        for h in Hypothesis:
            est = prepare_estimates(stack, Approach.A, FIM, h)
            x = est.x_hat
            vx = np.einsum("i,tij->tj", v.conj(), x)
            alpha = np.einsum("tj,tj->t", vx, stack.cut) / (vx @ v).real
            r = stack.cut - alpha[:, None] * v
            quad = np.einsum("ti,tij,tj->t", r.conj(), x, r).real
            np.testing.assert_allclose(est.alpha_hat, alpha, rtol=1e-12, err_msg=str(h))
            np.testing.assert_allclose(est.quad, quad, rtol=1e-12, err_msg=str(h))


def test_x_hat_is_the_hermitian_inverse_of_m_hat(rng):
    ds = random_dataset(rng, 7, 20)
    for h in Hypothesis:
        est = prepare_estimates(DatasetStack.of([ds]), Approach.B, FIM, h)
        m, x = est.m_hat[0], est.x_hat[0]
        residual = np.abs(m @ x - np.eye(7)).max()
        assert residual <= 1e-10 * max(1.0, float(np.abs(m).max())), h
        np.testing.assert_array_equal(x, x.conj().T)


def test_x_hat_from_the_solve_is_the_inverse_to_the_bit(rng):
    # With a FIM rule, X comes from the class's one LU, a stacked inv of M.
    # For every class, under A and B, at any stack size, it is bit-identical
    # to the Hermitian part of inv(M), and the amplitudes, CUT fits and
    # log-dets to those of the estimates without X.
    for n, k, trials in ((5, 6, 1), (7, 20, 4), (13, 26, 24)):
        stack = DatasetStack.of([random_dataset(rng, n, k) for _ in range(trials)])
        for approach in Approach:
            alone = {h: prepare_estimates(stack, approach, (), h) for h in Hypothesis}
            formed = {h: prepare_estimates(stack, approach, FIM, h) for h in Hypothesis}
            for h, est in formed.items():
                want = hermitian_part(np.linalg.inv(est.m_hat))
                assert alone[h].x_hat is None
                np.testing.assert_array_equal(est.x_hat, want, err_msg=str((h, approach)))
                for name in ("alpha_hat", "quad", "logdet"):
                    np.testing.assert_array_equal(getattr(est, name), getattr(alone[h], name))


def test_h4_is_factored_once_in_its_j_parity_basis(rng):
    # M under H4 is block diagonal on the J-even and J-odd vectors, so the
    # Cholesky of P^T M P gives each block's log det as a partial sum of its
    # log-pivots, and the two sum to log det M. The other classes have one
    # block, log det M itself. N = 1 has an empty J-odd block.
    for n, k in ((1, 3), (2, 5), (5, 11), (6, 13), (13, 26)):
        colour = complex_normal(rng, (n, n)) + 2.0 * np.eye(n)
        stack = DatasetStack(colour @ complex_normal(rng, (4, n, k)))
        eye, flip = np.eye(n), np.eye(n)[::-1]
        even, odd = (eye + flip)[:, : (n + 1) // 2], (eye - flip)[:, : n // 2]
        even, odd = even / np.linalg.norm(even, axis=0), odd / np.linalg.norm(odd, axis=0)
        for h in Hypothesis:
            est = prepare_estimates(stack, Approach.B, (), h)
            np.testing.assert_array_equal(sum(est.block_logdets), est.logdet)
            if h is not Hypothesis.H4:
                (block,) = est.block_logdets
                np.testing.assert_array_equal(block, est.logdet)
                continue
            assert len(est.block_logdets) == 2
            for basis, got in zip((even, odd), est.block_logdets):
                want = np.linalg.slogdet(basis.T @ est.m_hat @ basis)[1]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=str(n))
            want = np.linalg.slogdet(est.m_hat)[1]
            np.testing.assert_allclose(est.logdet, want, rtol=1e-12, err_msg=str(n))


def _lu_reference(m, cut, steering):
    """The amplitude v^H X z / v^H X v, the CUT fit r^H X r, its scale
    z^H X z and log det M of one trial, by LU solves and slogdet."""
    xv, xz = np.linalg.solve(m, np.stack([steering, cut], -1)).T
    alpha = np.vdot(steering, xz) / np.vdot(steering, xv).real
    resid = cut - alpha * steering
    quad = np.vdot(resid, np.linalg.solve(m, resid)).real
    return alpha, quad, np.vdot(cut, xz).real, np.linalg.slogdet(m)[1]


@pytest.mark.parametrize("n", [1, 2, 5, 13, 41])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_bordered_factor_matches_lu_references(n, data):
    # Each class's bordered Cholesky gives the PD check, the log-dets, the
    # amplitudes and the CUT fits. Over every class, real and complex, they
    # match LU and slogdet references to 1e-12, and each trial's results are
    # bit-identical to a stack of one. A trial whose estimate is not positive
    # definite fails with the text of a plain Cholesky of that estimate; a
    # non-finite CUT fails approach A for its own trial alone.
    trials = data.draw(st.integers(1, 4), label="T")
    k = data.draw(st.integers(2 * n + 1, 4 * n + 2), label="K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # A colouring of bounded condition at every N, and K > 2N snapshots: the
    # rounding of either form then stays far below 1e-12.
    colour = np.eye(n) + 0.3 / np.sqrt(n) * complex_normal(rng, (n, n))
    steering = complex_normal(rng, (trials, n))
    if n % 2 and data.draw(st.booleans(), label="campaign steering"):  # odd N only
        steering[:] = steering_vector(n, 0.01)
    steering /= np.linalg.norm(steering, axis=-1, keepdims=True)
    power = 10.0 ** data.draw(st.integers(-3, 6), label="CUT power (log10)")
    stack = DatasetStack(
        colour @ complex_normal(rng, (trials, n, k)), power * complex_normal(rng, (trials, n)),
        steering,
    )
    bad = data.draw(st.sampled_from((None, "estimate", "border")), label="bad trial")
    broken = data.draw(st.integers(0, trials - 1), label="broken trial") if bad else None
    if bad == "estimate":
        stack.secondary[broken] = 0.0
    elif bad == "border":
        stack.cut[broken, n // 2] = np.nan
    basis = criteria._parity_basis(n)
    for h in Hypothesis:
        est = prepare_estimates(stack, Approach.A, (), h)
        if bad == "estimate":
            plain = estimate_covariance(h, stack)[broken]
            if h is Hypothesis.H4:
                plain = basis.T @ plain @ basis
            (want,) = cholesky_stack(plain[None])[1].values()
            assert {t: str(e) for t, e in est.failures.items()} == {broken: str(want)}, h
        else:
            assert not est.failures, h
        if bad == "border":
            assert list(est.alpha_failures) == [broken], h
            assert isinstance(est.alpha_failures[broken], np.linalg.LinAlgError), h
        else:
            assert not est.alpha_failures, h
        for t in range(trials):
            one = prepare_estimates(DatasetStack(*(
                getattr(stack, name)[t : t + 1] for name in ("secondary", "cut", "steering")
            )), Approach.A, (), h)
            for name in ("alpha_hat", "quad", "logdet"):
                np.testing.assert_array_equal(getattr(one, name)[0], getattr(est, name)[t])
            for got, want in zip(one.block_logdets, est.block_logdets):
                np.testing.assert_array_equal(got[0], want[t])
            for name in ("failures", "alpha_failures"):
                got, want = getattr(one, name), getattr(est, name)
                assert [str(e) for e in got.values()] == ([str(want[t])] if t in want else [])
            if t == broken:
                continue
            alpha, quad, scale, logdet = _lu_reference(
                est.m_hat[t], stack.cut[t], stack.steering[t]
            )
            assert abs(est.alpha_hat[t] - alpha) <= 1e-12 * abs(alpha), h
            # Relative to z^H X z: at N = 1 the fit is zero up to rounding.
            assert abs(est.quad[t] - quad) <= 1e-12 * scale, h
            assert abs(est.logdet[t] - logdet) <= 1e-12 * max(1.0, abs(logdet)), h
            if h is Hypothesis.H4:
                split = (n + 1) // 2
                for part, got in zip((basis[:, :split], basis[:, split:]), est.block_logdets):
                    want = np.linalg.slogdet(part.T @ est.m_hat[t] @ part)[1]  # 0 for N = 1's odd
                    assert abs(got[t] - want) <= 1e-12 * max(1.0, abs(want)), h


def test_closed_form_rules_never_form_x_hat(rng, monkeypatch):
    # Only the TIC and BIC information terms read X: a campaign of the
    # closed-form rules inverts nothing, and a FIM rule forms X. The engine
    # prepares the classes one at a time, each once.
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    seen, real_prepare = [], criteria.prepare_estimates

    def prepare(*args, **kwargs):
        seen.append(real_prepare(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(criteria, "prepare_estimates", prepare)
    closed = [Criterion(kind) for kind in (CriterionKind.AIC, CriterionKind.ASYMPTOTIC_BIC)]
    for rules, formed in ((closed, False), ([Criterion(CriterionKind.TIC)], True)):
        classify_stack(stack, (Approach.A, Approach.B), rules)
        assert [est.hypothesis for est in seen] == list(Hypothesis)
        for est in seen:
            assert (est.x_hat is not None) is formed
        seen.clear()


_BORDER_TEXT = "steering or CUT through the ICM estimate's Cholesky factor is not finite"


def test_a_broken_border_is_its_trials_failure_and_a_fallback(rng, monkeypatch):
    # A LAPACK that checks for NaN pivots refuses a bordered stack whose
    # border is not finite; numpy then refuses the whole stack. The stack is
    # factored trial by trial, the trial whose estimate factors alone loses
    # approach A only, with its own typed failure, and the fallback is
    # counted.
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    real_cholesky = np.linalg.cholesky
    broken = stack.border[1]

    def cholesky(a):  # the bordered matrices are 7 x 7, their border rows last
        if a.shape[-1] == 7 and (a.ndim == 3 or np.array_equal(a[5:, :5], broken)):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real_cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    est = prepare_estimates(stack, Approach.A, (), Hypothesis.H1)
    assert list(est.alpha_failures) == [1] and est.fallbacks == 1 and not est.failures
    assert isinstance(est.alpha_failures[1], np.linalg.LinAlgError)
    assert str(est.alpha_failures[1]) == _BORDER_TEXT
    scores = classify_stack(stack, (Approach.A, Approach.B), [Criterion(CriterionKind.AIC)])
    a_scores = scores[Approach.A][Criterion(CriterionKind.AIC)]
    # H3 borders its 5 x 5 estimate with the same rows [v z]^H as H1.
    assert a_scores.failures == {(h, 1): f"LinAlgError: {_BORDER_TEXT}" for h in (1, 3)}
    assert a_scores.stack_fallbacks == 2
    assert not scores[Approach.B][Criterion(CriterionKind.AIC)].failures


def test_a_nan_cut_fails_approach_a_for_its_trial_alone(rng):
    # A NaN in a CUT makes its trial's border rows NaN under every class
    # (numpy's OpenBLAS factors on through a NaN pivot): approach A loses
    # that trial, and B's scores are bit-identical under (A, B) and (B,).
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    stack.cut[1, 2] = np.nan
    for h in Hypothesis:
        est = prepare_estimates(stack, Approach.A, FIM, h)
        assert list(est.alpha_failures) == [1] and not est.failures, h
        assert str(est.alpha_failures[1]) == _BORDER_TEXT, h
        assert np.isfinite(est.alpha_hat[[0, 2]]).all() and np.isfinite(est.x_hat).all(), h
    rules = (Criterion(CriterionKind.AIC), Criterion(CriterionKind.TIC))
    both = classify_stack(stack, (Approach.A, Approach.B), rules)
    alone = classify_stack(stack, (Approach.B,), rules)[Approach.B]
    for rule in rules:
        assert {key for key in both[Approach.A][rule].failures} == {(h, 1) for h in range(1, 5)}
        for name in ("fit", "penalty", "total", "chosen", "failures"):
            got, want = getattr(both[Approach.B][rule], name), getattr(alone[rule], name)
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_a_singular_m_in_the_one_lu_solve_counts_once(rng, monkeypatch):
    # X's one stacked LU (np.linalg.inv) is refused when one matrix is
    # singular: the matrices are then inverted one by one, the one that
    # breaks is NaN, and the amplitudes, which come from the Cholesky, keep
    # their values. TIC then fails that trial under both approaches, never
    # silently: A as a capacitance that is not finite, B as a score that is
    # not finite, alike under (B,) and (A, B). Each
    # class's fallback is counted once whatever the approaches.
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    real_inv = np.linalg.inv
    broken = stack.scatter[1] / stack.k

    def inv(a):
        if a.ndim == 3 or np.allclose(a, broken):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_inv(a)

    plain = prepare_estimates(stack, Approach.A, (), Hypothesis.H1)
    monkeypatch.setattr(np.linalg, "inv", inv)
    est = prepare_estimates(stack, Approach.A, FIM, Hypothesis.H1)
    assert not est.alpha_failures and est.fallbacks == 1
    np.testing.assert_array_equal(est.alpha_hat, plain.alpha_hat)
    assert np.isnan(est.x_hat[1]).all() and np.isfinite(est.x_hat[[0, 2]]).all()
    tic = Criterion(CriterionKind.TIC)
    scores = classify_stack(stack, (Approach.A, Approach.B), [tic])
    a_scores, b_scores = scores[Approach.A][tic], scores[Approach.B][tic]
    b_alone = classify_stack(stack, (Approach.B,), [tic])[Approach.B][tic]
    assert a_scores.stack_fallbacks == b_scores.stack_fallbacks == len(Hypothesis)
    assert b_alone.stack_fallbacks == len(Hypothesis)
    assert list(a_scores.failures) == list(b_scores.failures) == [(1, 1)]
    assert a_scores.failures[(1, 1)].startswith("NotPositiveDefiniteError: capacitance")
    assert b_scores.failures[(1, 1)].startswith("NonFiniteScoreError")
    assert b_scores.failures == b_alone.failures


def test_an_overflowing_cut_fails_approach_a_and_leaves_x_hat(rng):
    # A finite CUT large enough to overflow X z fails approach A on that
    # trial, as the [v z] solve alone does, and leaves X finite: B's TIC and
    # BIC arrays are bit-identical under (A, B) and (B,).
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    stack.cut[1] = np.finfo(float).max
    rules = (Criterion(CriterionKind.TIC), Criterion(CriterionKind.BIC))
    with np.errstate(all="ignore"):
        for h in Hypothesis:
            est = prepare_estimates(stack, Approach.A, rules, h)
            assert list(est.alpha_failures) == [1], h
            assert isinstance(est.alpha_failures[1], np.linalg.LinAlgError), h
            assert np.isfinite(est.x_hat).all(), h
    both = classify_stack(stack, (Approach.A, Approach.B), rules)
    alone = classify_stack(stack, (Approach.B,), rules)[Approach.B]
    for rule in rules:
        assert all(t != 1 for _, t in both[Approach.B][rule].failures)
        for name in ("fit", "penalty", "total", "chosen", "failures", "stack_fallbacks"):
            got, want = getattr(both[Approach.B][rule], name), getattr(alone[rule], name)
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_degenerate_steering_raises():
    n = 5
    x = np.eye(n, dtype=complex)
    z = np.ones(n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    # An enormous covariance (a tiny inverse) drives v'Xv below the floor.
    _, _, errors = estimate_alpha_stack(*_whitened(1e16 * x[None], z[None], v[None]))
    assert list(errors) == [0]
    assert isinstance(errors[0], DegenerateSteeringError)


def test_degenerate_steering_message_ignores_the_last_bits():
    # The failure text lands in a campaign's JSON mirror, so it must not
    # change when the steering energy moves in its last bit.
    root = float(np.sqrt(3.7e-17))  # the steering energy is |a|^2
    nudged = float(np.nextafter(root, 1.0))
    assert nudged**2 != root**2
    messages = []
    for value in (root, nudged):
        _, _, errors = estimate_alpha_stack(value * np.eye(3)[:1], np.ones((1, 3)))
        messages.append(str(errors[0]))
    assert messages[0] == messages[1]
    assert "3.700e-17" in messages[0]


def test_estimate_all_shapes(rng):
    ds = random_dataset(rng, 5, 14)
    full = {h: prepare_estimates(DatasetStack.of([ds]), Approach.A, (), h) for h in Hypothesis}
    assert set(full) == set(Hypothesis)
    for h, est in full.items():
        assert est.hypothesis is h
        assert est.m_hat.shape == (1, 5, 5)
        assert est.alpha_hat.shape == (1,)
        assert np.isfinite(est.logdet[0])
        assert not est.failures and not est.alpha_failures
    b_only = DatasetStack.of([Dataset(secondary=ds.secondary)])
    for h in Hypothesis:
        est = prepare_estimates(b_only, Approach.B, (), h)
        assert est.alpha_hat is None


def test_approach_parse():
    assert Approach.parse("a") is Approach.A
    assert Approach.parse("B") is Approach.B
    with pytest.raises(ValueError):
        Approach.parse("C")
