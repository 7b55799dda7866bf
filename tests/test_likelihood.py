"""Log-likelihood values, gradients, Hessians, and information matrices.

The theta-basis forms live in the test oracle (``oracle.py``); the
derivative checks use central finite differences of the log-likelihood
itself, with per-coordinate steps h = 1e-5 * max(1, |p|).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstruct.criteria import prepare_estimates
from covstruct.estimators import Approach, Dataset, DatasetStack
from covstruct.likelihood import information_terms
from covstruct.linalg import NotPositiveDefiniteError
from covstruct.scenario import (
    complex_normal,
    sample_dataset,
    steering_vector,
    table_case,
    truth_instance,
)
from covstruct.structures import Hypothesis, structure_model

from conftest import fd_gradient, fd_hessian, random_dataset, random_pd_matrix
from oracle import (
    fim_pair,
    grad_alpha,
    hessian_alpha_alpha,
    hessian_alpha_theta,
    hessian_theta_theta,
    loglik_cut,
    loglik_full,
    loglik_secondary,
    observed_fim,
    sample_fim,
    snapshot_scores,
)
from oracle import exact_information_terms
from oracle import information_terms as matrix_space_terms


def structured_point(rng, h, n):
    model = structure_model(h, n)
    m = random_pd_matrix(rng, n, h)
    return model, model.encode(m)


def gaussian_logpdf_oracle(z, m):
    # Complex circular Gaussian density, evaluated through its real embedding
    # of dimension 2N: log pdf = -N log pi - log det M - z' M^-1 z.
    x = np.linalg.inv(m)
    n = z.size
    quad = float(np.real(z.conj() @ x @ z))
    sign, logdet = np.linalg.slogdet(m)
    assert sign.real > 0
    return -n * np.log(np.pi) - logdet.real - quad


def test_loglik_secondary_matches_density_product(rng):
    n, k = 4, 9
    m = random_pd_matrix(rng, n)
    model = structure_model(Hypothesis.H1, n)
    theta = model.encode(m)
    z_all = complex_normal(rng, (n, k))
    oracle = sum(gaussian_logpdf_oracle(z_all[:, i], m) for i in range(k))
    got = loglik_secondary(model, theta, z_all)
    assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_loglik_full_is_cut_plus_secondary(rng):
    n, k = 4, 9
    model, theta = structured_point(rng, Hypothesis.H3, n)
    z = complex_normal(rng, (n,))
    z_all = complex_normal(rng, (n, k))
    v = steering_vector(n + 1, 0.01)[: n]
    v = v / np.linalg.norm(v)
    alpha = 1.2 - 0.4j
    full = loglik_full(model, theta, alpha, z, z_all, v)
    parts = loglik_cut(model, theta, alpha, z, v) + loglik_secondary(model, theta, z_all)
    assert abs(full - parts) <= 1e-9 * max(1.0, abs(full))


def test_loglik_identity_covariance_reduction(rng):
    # M = I, alpha = 0: the value collapses to a norm expression.
    n, k = 5, 8
    model = structure_model(Hypothesis.H1, n)
    theta = model.encode(np.eye(n, dtype=complex))
    z = complex_normal(rng, (n,))
    z_all = complex_normal(rng, (n, k))
    v = steering_vector(n, 0.01)
    got = loglik_full(model, theta, 0.0, z, z_all, v)
    expected = (
        -(k + 1) * n * np.log(np.pi)
        - float(np.linalg.norm(z) ** 2)
        - float(np.linalg.norm(z_all) ** 2)
    )
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


@pytest.mark.parametrize("hypothesis", list(Hypothesis))
def test_grad_theta_matches_fd(rng, hypothesis):
    # A one-column snapshot_scores is the single-snapshot theta score; the
    # oracle differentiates a one-column secondary likelihood.
    n = 4
    model, theta0 = structured_point(rng, hypothesis, n)
    z = complex_normal(rng, (n,))

    def f(theta):
        return loglik_secondary(model, theta, z[:, None])

    x0 = np.linalg.inv(model.decode(theta0))
    analytic = snapshot_scores(model, x0, z[:, None])[:, 0]
    numeric = fd_gradient(f, theta0)
    scale = max(1.0, float(np.abs(numeric).max()))
    assert np.abs(analytic - numeric).max() / scale <= 1e-5


def test_grad_alpha_matches_fd(rng):
    n = 5
    model, theta0 = structured_point(rng, Hypothesis.H1, n)
    z = complex_normal(rng, (n,))
    v = steering_vector(n, 0.01)
    alpha0 = np.array([0.8, -0.3])
    x0 = np.linalg.inv(model.decode(theta0))

    def f(a):
        return loglik_cut(model, theta0, complex(a[0], a[1]), z, v)

    analytic = grad_alpha(x0, complex(alpha0[0], alpha0[1]), z, v)
    numeric = fd_gradient(f, alpha0)
    scale = max(1.0, float(np.abs(numeric).max()))
    assert np.abs(analytic - numeric).max() / scale <= 1e-5


def test_grad_alpha_zero_at_alpha_hat(rng):
    # The amplitude score vanishes at the plug-in amplitude of every class,
    # under the symmetric campaign steering and a random unit steering;
    # information_terms relies on this and does not compute it.
    ds = random_dataset(rng, 5, 17)
    for steering in (steering_vector(5, 0.01), ds.steering):
        one = Dataset(secondary=ds.secondary, cut=ds.cut, steering=steering)
        estimates = prepare_estimates(DatasetStack.of([one]), Approach.A)
        for h, est in estimates.items():
            g = grad_alpha(est.x_hat[0], est.alpha_hat[0], one.cut, steering)
            assert np.abs(g).max() <= 1e-8, h


@pytest.mark.parametrize("hypothesis", list(Hypothesis))
def test_hessian_blocks_match_fd(rng, hypothesis):
    n, k = 4, 9
    model, theta0 = structured_point(rng, hypothesis, n)
    m_theta = model.m
    z = complex_normal(rng, (n,))
    z_all = complex_normal(rng, (n, k))
    v = steering_vector(n + 1, 0.01)[:n]
    v /= np.linalg.norm(v)
    alpha0 = np.array([0.6, 0.9])
    p0 = np.concatenate([theta0, alpha0])

    def f(p):
        return loglik_full(
            model, p[:m_theta], complex(p[m_theta], p[m_theta + 1]), z, z_all, v
        )

    x0 = np.linalg.inv(model.decode(theta0))
    alpha_c = complex(alpha0[0], alpha0[1])
    s = z_all @ z_all.conj().T
    diff = z - alpha_c * v
    g_total = 0.5 * (s + s.conj().T) + np.outer(diff, diff.conj())

    h_tt = hessian_theta_theta(model, x0, g_total, count=k + 1)
    h_at = hessian_alpha_theta(model, x0, alpha_c, z, v)
    h_aa = hessian_alpha_alpha(x0, v)

    numeric = fd_hessian(f, p0)
    scale = float(np.abs(numeric).max())
    assert np.abs(h_tt - numeric[:m_theta, :m_theta]).max() / scale <= 1e-4
    assert np.abs(h_at - numeric[m_theta:, :m_theta]).max() / scale <= 1e-4
    assert np.abs(h_aa - numeric[m_theta:, m_theta:]).max() / scale <= 1e-4


def test_observed_fim_symmetry_and_size(rng):
    ds = random_dataset(rng, 5, 14)
    estimates = prepare_estimates(DatasetStack.of([ds]), Approach.A)
    for h in Hypothesis:
        model = structure_model(h, ds.n)
        fim = observed_fim(model, estimates[h], 0, ds, Approach.A)
        assert fim.shape == (model.m + 2, model.m + 2)
        assert np.abs(fim - fim.T).max() <= 1e-8 * max(1.0, np.abs(fim).max())
    b_only = DatasetStack.of([Dataset(secondary=ds.secondary)])
    b_estimates = prepare_estimates(b_only, Approach.B)
    for h in Hypothesis:
        model = structure_model(h, ds.n)
        fim = observed_fim(model, b_estimates[h], 0, ds, Approach.B)
        assert fim.shape == (model.m, model.m)


def test_observed_fim_at_b_mle_matches_independent_assembly(rng):
    # Term-by-term assembly of the theta-theta Hessian, written inline from
    # the two-branch formula; at the secondary-only MLE the result also
    # reduces to K C'(X* (x) X)C because X S X = K X there.
    ds = random_dataset(rng, 4, 12, with_cut=False)
    estimates = prepare_estimates(DatasetStack.of([ds]), Approach.B)
    s = ds.secondary @ ds.secondary.conj().T
    s = 0.5 * (s + s.conj().T)
    for h in Hypothesis:
        model = structure_model(h, ds.n)
        est = estimates[h]
        fim = observed_fim(model, est, 0, ds, Approach.B)
        x = est.x_hat[0].astype(complex)
        c = model.constraint
        xsx = x @ s @ x
        if h.is_real:
            block = np.kron(x, ds.k * x - xsx) - np.kron(x @ s.conj() @ x, x)
            manual = -(c.T @ block @ c)
        else:
            block = np.kron(x.conj(), ds.k * x - xsx) - np.kron(xsx.conj(), x)
            manual = -(c.conj().T @ block @ c)
        scale = max(1.0, float(np.abs(fim).max()))
        assert np.abs(manual.imag).max() <= 1e-9 * scale
        np.testing.assert_allclose(fim, manual.real, rtol=0, atol=1e-8 * scale)
        # Closed form at the MLE: the correction terms cancel.
        closed = (c.conj().T @ np.kron(x.conj(), ds.k * x) @ c).real
        np.testing.assert_allclose(fim, closed, rtol=0, atol=1e-6 * scale)


def test_sample_fim_psd_and_rank(rng):
    ds = random_dataset(rng, 4, 11)
    estimates = prepare_estimates(DatasetStack.of([ds]), Approach.A)
    for h in Hypothesis:
        model = structure_model(h, ds.n)
        fim = sample_fim(model, estimates[h], 0, ds, Approach.A)
        eigs = np.linalg.eigvalsh(0.5 * (fim + fim.T))
        assert eigs.min() >= -1e-9 * max(1.0, eigs.max())


def test_sample_fim_single_snapshot_rank_one(rng):
    from types import SimpleNamespace

    secondary = complex_normal(rng, (3, 7))
    ds = Dataset(secondary=secondary)
    model = structure_model(Hypothesis.H1, 3)
    estimates = prepare_estimates(DatasetStack.of([ds]), Approach.B)
    est = estimates[Hypothesis.H1]
    one_col = SimpleNamespace(secondary=secondary[:, :1], cut=None, steering=None)
    fim = sample_fim(model, est, 0, one_col, Approach.B)
    assert np.linalg.matrix_rank(fim, tol=1e-8 * float(np.abs(fim).max())) <= 1


def test_fim_pair_consistency(rng):
    ds = random_dataset(rng, 4, 13)
    estimates = prepare_estimates(DatasetStack.of([ds]), Approach.A)
    model = structure_model(Hypothesis.H2, 4)
    est = estimates[Hypothesis.H2]
    pair = fim_pair(model, est, 0, ds, Approach.A)
    np.testing.assert_array_equal(pair.observed, observed_fim(model, est, 0, ds, Approach.A))
    np.testing.assert_array_equal(pair.sample, sample_fim(model, est, 0, ds, Approach.A))
    assert pair.n_params == model.m + 2


def test_wrong_branch_detection(rng):
    # A non-Hermitian X breaks the cancellation that keeps the real-branch
    # score real; the residue must raise, not get truncated.
    n = 4
    model = structure_model(Hypothesis.H2, n)
    x = complex_normal(rng, (n, n))
    with pytest.raises(ValueError, match="imaginary"):
        snapshot_scores(model, x, complex_normal(rng, (n, 3)))


def test_loglik_rejects_non_pd_theta(rng):
    model = structure_model(Hypothesis.H1, 3)
    theta = model.encode(np.diag([1.0, -2.0, 3.0]).astype(complex))
    z_all = complex_normal(rng, (3, 8))
    from covstruct.linalg import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        loglik_secondary(model, theta, z_all)


# ---------------------------------------------------------------------------
# Stacked information terms against the matrix-space oracle


def _relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _assert_terms_match_oracle(datasets, tolerance):
    """Every class under both approaches: the stacked theta trace, theta
    log-determinant, Schur complement S and Y Y^T of each trial match the
    oracle's to ``tolerance(h, approach, estimate, trial, dataset)``
    relative."""
    stack = DatasetStack.of(datasets)
    for approach in Approach:
        prepared = prepare_estimates(stack, approach)
        for h in Hypothesis:
            info = information_terms(prepared[h], stack, approach)
            assert not info.failures
            for t, ds in enumerate(datasets):
                trace, logdet, schur = matrix_space_terms(prepared[h], t, ds, approach)
                tol = tolerance(h, approach, prepared[h], t, ds)
                errors = [
                    _relative_error(info.theta_trace[t], trace),
                    _relative_error(info.theta_logdet[t], logdet),
                ]
                if approach is Approach.A:
                    errors += [
                        _relative_error(info.schur[0][t], schur[0]),
                        _relative_error(info.schur[1][t], schur[1]),
                    ]
                else:
                    assert info.schur is None and schur is None
                assert max(errors) <= tol, (h, approach, t, errors)


def test_information_terms_match_oracle_on_white_data():
    # Even and odd N, K from N+1 to 3N, random unit steering.
    rng = np.random.default_rng(20261019)
    for n in range(3, 10):
        for k in range(n + 1, 3 * n + 1):
            datasets = [random_dataset(rng, n, k) for _ in range(2)]
            _assert_terms_match_oracle(datasets, lambda *_: 1e-10)


def _case1_datasets(k, trials, seed):
    """Case-1 draws (N = 13) cycling through the four truths."""
    config = table_case(1)
    out = []
    for t in range(trials):
        rng = np.random.default_rng((seed, k, t))
        truth = truth_instance(Hypothesis(1 + t % 4), config, rng)
        out.append(sample_dataset(truth, config, k, rng))
    return out


def test_information_terms_match_oracle_on_case1_draws():
    for k in (20, 26, 45):
        _assert_terms_match_oracle(_case1_datasets(k, 4, 11), lambda *_: 1e-10)


def test_information_terms_match_oracle_at_k_n_plus_one():
    # At K = N+1 the observed information is ill-conditioned (condition
    # numbers up to ~1e12 on case-1 draws), and the two paths round
    # differently; their gap stays below eps times the condition number.
    def scaled(h, approach, est, t, ds):
        observed = observed_fim(structure_model(h, ds.n), est, t, ds, approach)
        return max(1e-10, np.finfo(float).eps * np.linalg.cond(observed))

    _assert_terms_match_oracle(_case1_datasets(14, 4, 11), scaled)


def test_information_terms_match_oracle_across_the_j_split():
    # The closed form splits vectors into J-even and J-odd parts, whose sizes
    # differ for odd N. Even and odd N at K = N+1, with random unit steering
    # vectors that are not conjugate-symmetric (J conj(v) != v), and
    # correlated data drawn from a covariance of each class, so that the
    # J-parity coefficients of H3 and H4 differ between the two parts.
    def scaled(h, approach, est, t, ds):
        observed = observed_fim(structure_model(h, ds.n), est, t, ds, approach)
        return max(1e-10, np.finfo(float).eps * np.linalg.cond(observed))

    rng = np.random.default_rng(20261020)
    for n in (4, 5, 8, 9):
        datasets = []
        for truth in Hypothesis:
            low = np.linalg.cholesky(random_pd_matrix(rng, n, truth))
            steering = complex_normal(rng, (n,))
            steering /= np.linalg.norm(steering)
            assert not np.allclose(steering[::-1].conj(), steering)
            datasets.append(
                Dataset(
                    secondary=low @ complex_normal(rng, (n, n + 1)),
                    cut=low @ complex_normal(rng, (n,)) + 2.0 * steering,
                    steering=steering,
                )
            )
        _assert_terms_match_oracle(datasets, scaled)


def test_information_terms_match_40_digit_definitions_at_k_n_plus_one():
    # theta_trace, theta_logdet and S recomputed from their definitions in
    # the theta basis at 40 digits (mpmath), at N = 5 and K = N+1.
    config = table_case(1, n=5)
    datasets = []
    for t, truth in enumerate((Hypothesis.H1, Hypothesis.H4)):
        rng = np.random.default_rng((41, t))
        datasets.append(sample_dataset(truth_instance(truth, config, rng), config, 6, rng))
    stack = DatasetStack.of(datasets)
    prepared = prepare_estimates(stack, Approach.A)
    for h in Hypothesis:
        info = information_terms(prepared[h], stack, Approach.A)
        for t, ds in enumerate(datasets):
            trace, logdet, schur = exact_information_terms(h, ds)
            schur = np.array(schur.tolist(), dtype=float)
            errors = [
                _relative_error(info.theta_trace[t], float(trace)),
                _relative_error(info.theta_logdet[t], float(logdet)),
                _relative_error(info.schur[0][t], schur),
            ]
            assert max(errors) <= 1e-10, (h, t, errors)


@pytest.mark.parametrize(
    "scale, message",
    [(1e8, "capacitance is not positive definite"), (1e200, "capacitance is not finite")],
)
def test_uncertified_capacitance_fails_its_trial_alone(scale, message):
    # A finite CUT of 1e200 overflows the capacitance of its trial; at 1e8
    # the capacitance is finite but singular to rounding (its Woodbury core
    # has an eigenvalue within 1e-12 of its scale). Either way that trial
    # fails with a NotPositiveDefiniteError naming the capacitance and holds
    # placeholder rows, and the other trials are bit-identical to a stack
    # without it.
    rng = np.random.default_rng(20261021)
    datasets = [random_dataset(rng, 5, 8) for _ in range(3)]
    huge = Dataset(datasets[1].secondary, scale * datasets[1].cut, datasets[1].steering)
    stack = DatasetStack.of([datasets[0], huge, datasets[2]])
    rest = DatasetStack.of([datasets[0], datasets[2]])
    with np.errstate(all="ignore"):  # the overflow itself
        prepared = prepare_estimates(stack, Approach.A)
        infos = {h: information_terms(prepared[h], stack, Approach.A) for h in Hypothesis}
    prepared_rest = prepare_estimates(rest, Approach.A)
    for h, info in infos.items():
        assert not prepared[h].failures and not prepared[h].alpha_failures
        assert list(info.failures) == [1], h
        assert isinstance(info.failures[1], NotPositiveDefiniteError)
        assert str(info.failures[1]).startswith(message), (h, str(info.failures[1]))
        assert info.theta_trace[1] == info.theta_logdet[1] == 0.0
        np.testing.assert_array_equal(info.schur[0][1], np.eye(2))
        np.testing.assert_array_equal(info.schur[1][1], np.zeros((2, 2)))
        alone = information_terms(prepared_rest[h], rest, Approach.A)
        for got, want in ((0, 0), (2, 1)):
            assert info.theta_trace[got] == alone.theta_trace[want]
            assert info.theta_logdet[got] == alone.theta_logdet[want]
            for pair, pair_alone in zip(info.schur, alone.schur):
                np.testing.assert_array_equal(pair[got], pair_alone[want])


def _stack_with_bad_trial(data):
    """Random white datasets, one of which may fail: a zero snapshot row
    leaves every class's estimate singular, and a 1e8 data scale drives the
    steering energy below its floor under approach A."""
    n = data.draw(st.integers(3, 7), label="N")
    k = data.draw(st.integers(n + 1, 3 * n), label="K")
    trials = data.draw(st.integers(1, 4), label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    datasets = [random_dataset(rng, n, k) for _ in range(trials)]
    bad = data.draw(st.sampled_from(["none", "estimate", "alpha"]), label="bad trial")
    if bad != "none":
        ds = random_dataset(rng, n, k)
        secondary = ds.secondary.copy()
        if bad == "estimate":
            secondary[1] = 0.0
        else:
            secondary *= 1e8
        bad_ds = Dataset(secondary=secondary, cut=ds.cut, steering=ds.steering)
        datasets.insert(data.draw(st.integers(0, trials), label="position"), bad_ds)
    return datasets


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_information_terms_of_a_stack_equal_its_one_trial_slices(data):
    datasets = _stack_with_bad_trial(data)
    stack = DatasetStack.of(datasets)
    for approach in Approach:
        prepared = prepare_estimates(stack, approach)
        for h in Hypothesis:
            info = information_terms(prepared[h], stack, approach)
            live_failed = False
            for t, ds in enumerate(datasets):
                one = DatasetStack.of([ds])
                alone = information_terms(prepare_estimates(one, approach)[h], one, approach)
                live_failed = live_failed or bool(alone.failures)
                assert info.theta_trace[t] == alone.theta_trace[0]
                assert info.theta_logdet[t] == alone.theta_logdet[0]
                if approach is Approach.A:
                    for got, want in zip(info.schur, alone.schur):
                        np.testing.assert_array_equal(got[t], want[0])
                assert {u: str(e) for u, e in info.failures.items() if u == t} == {
                    t: str(e) for e in alone.failures.values()
                }
                dead = t in prepared[h].failures or (
                    approach is Approach.A and t in prepared[h].alpha_failures
                )
                if dead:
                    assert info.theta_trace[t] == 0.0 and t not in info.failures
                    if approach is Approach.A:
                        np.testing.assert_array_equal(info.schur[0][t], np.eye(2))
                if t in prepared[h].failures:
                    # A failed estimate's rows are identity placeholders.
                    np.testing.assert_array_equal(prepared[h].m_hat[t], np.eye(ds.n))
                    np.testing.assert_array_equal(prepared[h].x_hat[t], np.eye(ds.n))
            # Computing through the placeholder rows of dead trials adds no
            # fallback and no failure record.
            if not live_failed:
                assert info.fallbacks == 0 and info.failures == {}
