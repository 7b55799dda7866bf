"""Covariance and amplitude estimators: structure, nesting, and ML oracles."""

import numpy as np
import pytest

from covstruct.criteria import prepare_estimates
from covstruct.estimators import (
    Approach,
    Dataset,
    DatasetStack,
    DegenerateSteeringError,
    estimate_alpha_stack,
    estimate_covariance,
)
from covstruct.linalg import exchange, inverse_and_logdet_stack
from covstruct.scenario import complex_normal, steering_vector
from covstruct.structures import Hypothesis, satisfies_structure

from conftest import random_dataset


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
            x = inverse_and_logdet_stack(_estimate(h, ds)[None])[0][0]
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
    n = 7
    x_eye = np.eye(n, dtype=complex)
    for v in _steerings(rng, n):
        for h in Hypothesis:
            x = x_eye.real if h.is_real else x_eye
            for _ in range(5):
                z = complex_normal(rng, (n,))
                a_hat, errors = estimate_alpha_stack(x[None], z[None], v[None])
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
                est = prepare_estimates(DatasetStack.of([ds]), Approach.A)[h]
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
    for h in Hypothesis:
        x = np.eye(n) if h.is_real else np.eye(n, dtype=complex)
        a_hat, errors = estimate_alpha_stack(x[None], z[None], v[None])
        assert not errors
        assert abs(a_hat[0] - alpha) <= 1e-10


def test_alpha_h1_formula(rng):
    ds = random_dataset(rng, 5, 16)
    stack = DatasetStack.of([ds])
    x = inverse_and_logdet_stack(estimate_covariance(Hypothesis.H1, stack))[0]
    expected = np.vdot(ds.steering, x[0] @ ds.cut) / np.vdot(ds.steering, x[0] @ ds.steering)
    got = estimate_alpha_stack(x, *stack.require_cut())[0][0]
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_alpha_steering_phase_consistency(rng):
    # Rotating z by a unit phase rotates the H1 estimate by the same phase.
    ds = random_dataset(rng, 5, 16)
    stack = DatasetStack.of([ds])
    x = inverse_and_logdet_stack(estimate_covariance(Hypothesis.H1, stack))[0]
    cut, steering = stack.require_cut()
    phase = np.exp(1j * 0.73)
    a0 = estimate_alpha_stack(x, cut, steering)[0][0]
    a1 = estimate_alpha_stack(x, phase * cut, steering)[0][0]
    assert abs(a1 - phase * a0) <= 1e-10 * max(1.0, abs(a0))


def test_degenerate_steering_raises():
    n = 5
    x = np.eye(n, dtype=complex)
    z = np.ones(n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    # An enormous covariance (a tiny inverse) drives v'Xv below the floor.
    _, errors = estimate_alpha_stack(1e-16 * x[None], z[None], v[None])
    assert list(errors) == [0]
    assert isinstance(errors[0], DegenerateSteeringError)


def test_degenerate_steering_message_ignores_the_last_bits():
    # The failure text lands in a campaign's JSON mirror, so it must not
    # change when the steering energy moves in its last bit.
    energy = 3.7e-17
    nudged = float(np.nextafter(energy, 1.0))
    assert nudged != energy
    messages = []
    for value in (energy, nudged):
        _, errors = estimate_alpha_stack(value * np.eye(3)[None], np.ones((1, 3)), np.eye(3)[:1])
        messages.append(str(errors[0]))
    assert messages[0] == messages[1]
    assert "3.700e-17" in messages[0]


def test_estimate_all_shapes(rng):
    ds = random_dataset(rng, 5, 14)
    full = prepare_estimates(DatasetStack.of([ds]), Approach.A)
    assert set(full) == set(Hypothesis)
    for h, est in full.items():
        assert est.hypothesis is h
        assert est.m_hat.shape == (1, 5, 5)
        assert est.alpha_hat.shape == (1,)
        assert np.isfinite(est.logdet[0])
        assert not est.failures and not est.alpha_failures
    b_only = prepare_estimates(DatasetStack.of([Dataset(secondary=ds.secondary)]), Approach.B)
    for h, est in b_only.items():
        assert est.alpha_hat is None


def test_approach_parse():
    assert Approach.parse("a") is Approach.A
    assert Approach.parse("B") is Approach.B
    with pytest.raises(ValueError):
        Approach.parse("C")
