"""Ground-truth covariances, steering vectors, and snapshot sampling."""

import numpy as np
import pytest

import oracle

from covstruct import montecarlo
from covstruct.estimators import Dataset, DatasetStack
from covstruct.linalg import NotPositiveDefiniteError, cholesky_pd
from covstruct.montecarlo import CampaignConfig
from covstruct.scenario import (
    OddSizeRequiredError,
    ScenarioConfig,
    SourceParams,
    TruthInstance,
    clutter_covariance,
    db_to_linear,
    draw_stack,
    sample_dataset,
    steering_vector,
    table_case,
    truth_instance,
)
from covstruct.structures import Hypothesis

from oracle import complex_normal, satisfies_structure, structure_residual


def clutter_loop_oracle(sources, n):
    r = np.zeros((n, n), dtype=complex)
    for h in range(n):
        for k in range(n):
            for src in sources:
                power = 10.0 ** (src.cnr_db / 10.0)
                r[h, k] += (
                    power
                    * src.rho ** abs(h - k)
                    * np.exp(2j * np.pi * (h - k) * src.doppler)
                )
    return r


# ---------------------------------------------------------------------------
# Clutter covariance


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-15)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-15)


def test_clutter_matches_loop_oracle_case1():
    sources = table_case(1).sources
    got = clutter_covariance(sources, 13)
    want = clutter_loop_oracle(sources, 13)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # Off-diagonal closed form: power * rho * e^{-j 2 pi f} one lag below.
    assert got[0, 1] == pytest.approx(
        1000.0 * 0.85 * np.exp(-2j * np.pi * 0.285), rel=1e-14
    )


def test_clutter_matches_loop_oracle_case2():
    sources = table_case(2).sources
    got = clutter_covariance(sources, 9)
    assert np.allclose(got, clutter_loop_oracle(sources, 9), rtol=1e-14, atol=0.0)


def test_clutter_unit_power_zero_doppler_is_real_toeplitz():
    src = SourceParams(cnr_db=0.0, rho=0.85, doppler=0.0)
    got = clutter_covariance((src,), 6)
    assert not np.iscomplexobj(got)
    lags = np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
    assert np.allclose(got, 0.85**lags, rtol=1e-15, atol=0.0)


def test_clutter_diagonal_sums_linear_powers():
    got = clutter_covariance(table_case(2).sources, 13)
    assert np.allclose(got.diagonal(), 100.0 + 1000.0, rtol=1e-13)


def test_clutter_zero_doppler_override():
    got = clutter_covariance(table_case(1).sources, 5, zero_doppler=True)
    assert not np.iscomplexobj(got)
    assert got[0, 1] == pytest.approx(1000.0 * 0.85, rel=1e-15)


def test_source_params_validation():
    with pytest.raises(ValueError, match="correlation"):
        SourceParams(cnr_db=0.0, rho=1.0, doppler=0.1)
    with pytest.raises(ValueError, match="correlation"):
        SourceParams(cnr_db=0.0, rho=0.0, doppler=0.1)
    with pytest.raises(ValueError, match="Doppler"):
        SourceParams(cnr_db=0.0, rho=0.5, doppler=0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"cnr_db must be finite, got {bad!r}"):
            SourceParams(cnr_db=bad, rho=0.5, doppler=0.1)


# ---------------------------------------------------------------------------
# Scenario configuration


def test_table_case_parameters():
    case1 = table_case(1)
    assert case1.n == 13 and case1.sigma_d == 0.15 and case1.sigma_n2 == 1.0
    assert case1.snr_db == 10.0 and case1.f_v == 0.01
    assert case1.sources == (SourceParams(30.0, 0.85, 0.285),)
    case2 = table_case(2, n=7)
    assert case2.n == 7
    assert case2.sources == (
        SourceParams(20.0, 0.85, 0.285),
        SourceParams(30.0, 0.93, 0.05),
    )
    with pytest.raises(ValueError, match="case_id"):
        table_case(3)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="channels"):
        ScenarioConfig(n=1)
    with pytest.raises(ValueError, match="source"):
        ScenarioConfig(sources=())
    with pytest.raises(ValueError, match="channel-error"):
        ScenarioConfig(sigma_d=-0.1)
    with pytest.raises(ValueError, match="noise power"):
        ScenarioConfig(sigma_n2=0.0)
    for name in ("sigma_d", "sigma_n2", "snr_db", "f_v"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {bad!r}"):
                ScenarioConfig(**{name: bad})
    # A 3079 dB source leaves R + I finite, and room for hermitian_part's sum
    # only without channel errors.
    loud = (SourceParams(cnr_db=3079.0, rho=0.85, doppler=0.285),)
    assert ScenarioConfig(sources=loud, sigma_d=0.0).sources == loud
    with pytest.raises(ValueError, match="for the channel errors of a drawn truth"):
        ScenarioConfig(sources=loud)


# ---------------------------------------------------------------------------
# Steering vector


def test_steering_vector_flat_at_zero_doppler():
    v = steering_vector(13, 0.0)
    assert np.allclose(v, np.full(13, 1.0 / np.sqrt(13.0)), rtol=0.0, atol=1e-16)


def test_steering_vector_phase_ramp():
    v = steering_vector(13, 0.01)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    taps = np.arange(-6, 7)
    assert np.allclose(v, np.exp(2j * np.pi * 0.01 * taps) / np.sqrt(13.0), rtol=1e-15)
    # Center tap is exactly real for any Doppler; conjugate-flip symmetric.
    assert v[6] == 1.0 / np.sqrt(13.0)
    assert np.allclose(v[::-1].conj(), v, rtol=0.0, atol=1e-16)


def test_steering_vector_rejects_even_sizes():
    with pytest.raises(OddSizeRequiredError, match="odd"):
        steering_vector(12, 0.01)


# ---------------------------------------------------------------------------
# Truth instances


@pytest.mark.parametrize("case_id", [1, 2])
@pytest.mark.parametrize("hypothesis", list(Hypothesis))
def test_truth_structure_and_positive_definiteness(case_id, hypothesis):
    config = table_case(case_id)
    truth = truth_instance(hypothesis, config, np.random.default_rng(7))
    m = truth.m_true
    assert m.shape == (13, 13)
    assert satisfies_structure(hypothesis, m)
    assert structure_residual(hypothesis, m) == 0.0
    if hypothesis.is_real:
        assert not np.iscomplexobj(m)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= config.sigma_n2 * (1.0 - 1e-9)


def test_h3_h4_truths_are_deterministic():
    config = table_case(1)
    for h in (Hypothesis.H3, Hypothesis.H4):
        first = truth_instance(h, config, np.random.default_rng(1))
        second = truth_instance(h, config, np.random.default_rng(2))
        assert np.array_equal(first.m_true, second.m_true)
        assert np.array_equal(first.m_true, oracle.truth_instance(h, config)[0])
        # They draw nothing, so they need no generator.
        assert np.array_equal(truth_instance(h, config).m_true, first.m_true)
    for h in (Hypothesis.H1, Hypothesis.H2):
        with pytest.raises(ValueError, match="needs a generator"):
            truth_instance(h, config)


def test_channel_errors_break_flip_symmetry():
    # Random channel errors push H1 truths off the centrohermitian manifold
    # and H2 truths off the centrosymmetric one; the flip residual is of the
    # order sigma_d * CNR, far above numerical noise.
    config = table_case(1)
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        m1 = truth_instance(Hypothesis.H1, config, rng).m_true
        m2 = truth_instance(Hypothesis.H2, config, rng).m_true
        assert structure_residual(Hypothesis.H3, m1) > 1.0
        assert structure_residual(Hypothesis.H4, m2) > 1.0


def test_h1_truth_consumes_channel_error_draws():
    config = table_case(1)
    same_a = truth_instance(Hypothesis.H1, config, np.random.default_rng(5))
    same_b = truth_instance(Hypothesis.H1, config, np.random.default_rng(5))
    other = truth_instance(Hypothesis.H1, config, np.random.default_rng(6))
    assert np.array_equal(same_a.m_true, same_b.m_true)
    assert not np.array_equal(same_a.m_true, other.m_true)


# ---------------------------------------------------------------------------
# Snapshot sampling


def white_truth(n):
    return TruthInstance(hypothesis=Hypothesis.H1, m_true=np.eye(n))


def test_sample_covariance_converges_to_truth(rng):
    config = ScenarioConfig(n=3)
    k = 100_000
    ds = sample_dataset(white_truth(3), config, k, rng)
    assert isinstance(ds, Dataset)
    assert ds.secondary.shape == (3, k)
    sample_cov = ds.secondary @ ds.secondary.conj().T / k
    assert np.max(np.abs(sample_cov - np.eye(3))) <= 0.02


def test_sampler_splits_variance_between_parts(rng):
    # Circular draws with covariance M put M/2 into each of the real and
    # imaginary parts; 3 sigma bands for the variance of a variance estimate.
    diag = np.array([1.0, 2.0, 3.0])
    truth = TruthInstance(hypothesis=Hypothesis.H1, m_true=np.diag(diag))
    k = 100_000
    ds = sample_dataset(truth, ScenarioConfig(n=3), k, rng)
    band = 3.0 * np.sqrt(2.0 / k)
    for i in range(3):
        for part in (ds.secondary[i].real, ds.secondary[i].imag):
            assert abs(np.var(part) / (diag[i] / 2.0) - 1.0) <= band


def test_cut_amplitude_magnitude(rng):
    # With a vanishing covariance the CUT is alpha v plus O(1e-10) noise, so
    # projecting onto the unit-norm steering vector recovers |alpha|.
    truth = TruthInstance(hypothesis=Hypothesis.H1, m_true=1e-20 * np.eye(13))
    config = ScenarioConfig(n=13, snr_db=10.0)
    phases = []
    for _ in range(8):
        ds = sample_dataset(truth, config, 14, rng)
        alpha = ds.steering.conj() @ ds.cut
        assert abs(alpha) == pytest.approx(np.sqrt(10.0), abs=1e-8)
        phases.append(np.angle(alpha))
    assert np.ptp(phases) > 0.1


def test_sample_dataset_is_deterministic():
    config = table_case(1)
    truth = truth_instance(Hypothesis.H3, config, np.random.default_rng(3))
    first = sample_dataset(truth, config, 26, np.random.default_rng(99))
    second = sample_dataset(truth, config, 26, np.random.default_rng(99))
    assert np.array_equal(first.cut, second.cut)
    assert np.array_equal(first.secondary, second.secondary)
    assert np.array_equal(first.steering, second.steering)


# ---------------------------------------------------------------------------
# The stacked draw against the per-trial oracle


def _assert_same_datasets(stack, datasets):
    assert isinstance(stack, DatasetStack) and len(stack) == len(datasets)
    for name in ("secondary", "cut", "steering"):
        want = np.stack([getattr(d, name) for d in datasets])
        assert getattr(stack, name).dtype == want.dtype, name
        assert np.array_equal(getattr(stack, name), want), name


@pytest.mark.parametrize("case_id", [1, 2])
def test_one_trial_draws_match_the_oracle(case_id):
    config = table_case(case_id, n=5)
    for h in Hypothesis:
        for seed in range(3):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            truth = truth_instance(h, config, mine)
            m_true, _ = oracle.truth_instance(h, config, theirs)
            assert truth.m_true.dtype == m_true.dtype
            assert np.array_equal(truth.m_true, m_true)
            _assert_same_datasets(
                DatasetStack.of([sample_dataset(truth, config, 7, mine)]),
                [oracle.sample_dataset(m_true, config, 7, theirs)],
            )


def _oracle_chunk(config, truth, k, lo, hi):
    """A campaign chunk drawn trial by trial, as the campaign once drew it."""
    scenario = config.scenario
    shared = None
    if scenario.freeze_channel_errors:
        shared = oracle.truth_instance(
            truth, scenario, montecarlo._frozen_truth_rng(config.master_seed, truth)
        )[0]
    out = []
    for trial in range(lo, hi):
        rng = oracle.trial_rng(config.master_seed, truth, k, trial)
        m_true = shared if shared is not None else oracle.truth_instance(truth, scenario, rng)[0]
        out.append(oracle.sample_dataset(m_true, scenario, k, rng))
    return out


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("case_id", [1, 2])
def test_chunk_draw_matches_the_per_trial_oracle(case_id, frozen, trials):
    config = CampaignConfig(
        scenario=table_case(case_id, n=5, freeze_channel_errors=frozen),
        k_grid=(7,), trials=trials, master_seed=3,
    )
    for truth in Hypothesis:
        _assert_same_datasets(
            montecarlo._draw_chunk(config, truth, 7, 2, 2 + trials),
            _oracle_chunk(config, truth, 7, 2, 2 + trials),
        )


@pytest.mark.parametrize("seed", [0, 1, 41_000_000, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
def test_trial_streams_match_numpy_seeding(seed):
    # The chunk-wide hash gives every trial numpy's own PCG64 state, for
    # master seeds of one word and of several, and for chunks not at trial 0.
    for truth in Hypothesis:
        for lo, hi in ((0, 4), (37, 40)):
            streams = montecarlo._trial_streams(seed, truth, 26, lo, hi)
            assert len(streams) == hi - lo
            for trial, (state, inc), rng in zip(range(lo, hi), streams.states, streams):
                want = oracle.trial_rng(seed, truth, 26, trial)
                assert want.bit_generator.state["state"] == {"state": state, "inc": inc}
                assert rng.bit_generator.state == want.bit_generator.state
                assert np.array_equal(rng.standard_normal(6), want.standard_normal(6))


def test_campaign_chunk_at_a_multiword_seed_matches_the_oracle():
    config = CampaignConfig(
        scenario=table_case(1, n=5), k_grid=(7,), trials=5, master_seed=2**32 + 41
    )
    for truth in Hypothesis:
        _assert_same_datasets(
            montecarlo._draw_chunk(config, truth, 7, 1, 5),
            _oracle_chunk(config, truth, 7, 1, 5),
        )


def test_chunk_is_the_concatenation_of_its_halves():
    config = CampaignConfig(scenario=table_case(1, n=5), k_grid=(9,), trials=8, master_seed=4)
    for truth in Hypothesis:
        whole = montecarlo._draw_chunk(config, truth, 9, 0, 8)
        halves = [montecarlo._draw_chunk(config, truth, 9, lo, hi) for lo, hi in ((0, 3), (3, 8))]
        for name in ("secondary", "cut", "steering"):
            joined = np.concatenate([getattr(half, name) for half in halves])
            assert np.array_equal(getattr(whole, name), joined), name


def test_draw_stack_raises_the_first_non_pd_truth():
    # A source of 300 dB with one-lag correlation next to 1 is numerically
    # rank one, so its truths fail the relative pivot floor.
    config = ScenarioConfig(
        n=5, sources=(SourceParams(cnr_db=300.0, rho=1.0 - 1e-15, doppler=0.1),)
    )
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    with pytest.raises(NotPositiveDefiniteError) as raised:
        draw_stack(Hypothesis.H1, config, 7, rngs)
    with pytest.raises(NotPositiveDefiniteError) as alone:
        cholesky_pd(truth_instance(Hypothesis.H1, config, np.random.default_rng(0)).m_true)
    assert str(raised.value) == str(alone.value)


def test_complex_normal_moments(rng):
    draws = complex_normal(rng, (2, 50_000))
    assert np.var(draws.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(draws.imag) == pytest.approx(0.5, abs=0.01)
    assert abs(np.mean(draws)) < 0.01
