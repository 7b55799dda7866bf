"""Selection-rule penalties and the argmin classifier over the hypotheses.

Statistical bounds here were calibrated by measurement first and then given
slack; they are asserted against fixed seeds, so failures mean regressions,
not sampling noise.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import covstruct.criteria as criteria_module
from covstruct.criteria import (
    DEFAULT_CRITERIA,
    AiccDegenerateError,
    Criterion,
    CriterionKind,
    NONE_CHOSEN,
    FimSingularError,
    Scorecard,
    _argmin_batch,
    _information_penalty,
    classify,
    classify_stack,
    parse_criterion,
    penalty,
)
from covstruct.estimators import Approach, Dataset, DatasetStack, EstimateStack
from covstruct.likelihood import InfoTerms
from covstruct.linalg import NotPositiveDefiniteError, cholesky_pd, cholesky_stack
from covstruct.scenario import ScenarioConfig, SourceParams, draw_stack, table_case, truth_instance
from covstruct.structures import Hypothesis, param_count, project

from conftest import gaussian_snapshots, random_dataset, random_pd_matrix, with_singular_schur
from oracle import complex_normal, fim_pair, loglik_full, loglik_secondary, structure_model
from oracle import information_terms as matrix_space_terms

AIC = Criterion(CriterionKind.AIC)
TIC = Criterion(CriterionKind.TIC)
AICC = Criterion(CriterionKind.AICC)
BIC = Criterion(CriterionKind.BIC)
ABIC = Criterion(CriterionKind.ASYMPTOTIC_BIC)


# ---------------------------------------------------------------------------
# Criterion parsing and identity


def test_parse_criterion_round_trips():
    # A GIC key is the shortest repr of rho without a trailing ".0": short for
    # huge weights, distinct for weights that agree in their first six
    # digits, and unchanged for the integral weights below 1e16 (gic:2, gic:4).
    gic_keys = ("gic:3.14159265", "gic:3.14159", "gic:123456789.5", "gic:1000000000000000",
                "gic:1e+16", "gic:1e+300")
    for text in ("aic", "tic", "aicc", "bic", "asymptotic-bic", "gic:2", "gic:4") + gic_keys:
        crit = parse_criterion(text)
        assert crit.key == text
        assert parse_criterion(crit.key) == crit
    assert parse_criterion("gic:1e300").key == "gic:1e+300"
    assert parse_criterion(" GIC:2.5 ").key == "gic:2.5"
    assert parse_criterion("gic:2.5").rho == 2.5
    assert parse_criterion("AIC") == AIC


def test_parse_criterion_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown criterion"):
        parse_criterion("mdl")
    with pytest.raises(ValueError, match="rho"):
        parse_criterion("gic")
    with pytest.raises(ValueError, match="rho"):
        parse_criterion("gic:big")
    with pytest.raises(ValueError, match="rho must be >= 1"):
        Criterion(CriterionKind.GIC, 0.5)
    with pytest.raises(ValueError, match="finite"):
        parse_criterion("gic:inf")
    with pytest.raises(ValueError, match="needs a rho"):
        Criterion(CriterionKind.GIC)
    with pytest.raises(ValueError, match="does not take a rho"):
        Criterion(CriterionKind.AIC, 2.0)


def test_default_criteria_cover_all_kinds():
    keys = tuple(c.key for c in DEFAULT_CRITERIA)
    assert keys == ("aic", "gic:2", "gic:4", "tic", "aicc", "bic", "asymptotic-bic")
    assert {c.kind for c in DEFAULT_CRITERIA} == set(CriterionKind)


def test_needs_fim_property():
    assert TIC.needs_fim and BIC.needs_fim
    for crit in (AIC, Criterion(CriterionKind.GIC, 2.0), AICC, ABIC):
        assert not crit.needs_fim


# ---------------------------------------------------------------------------
# Penalty arithmetic


def test_penalty_arithmetic():
    common = dict(k=26, n=13, approach=Approach.B)
    assert penalty(AIC, n_params=169, m_params=169, **common) == 338.0
    gic2 = Criterion(CriterionKind.GIC, 2.0)
    assert penalty(gic2, n_params=93, m_params=93, **common) == 279.0
    abic = penalty(ABIC, n_params=49, m_params=49, k=25, n=13, approach=Approach.B)
    assert abic == pytest.approx(49.0 * math.log(25.0), rel=1e-15)
    # AICc uses the complex sample count: (K+1)N jointly, KN secondary-only.
    got_a = penalty(AICC, n_params=171, m_params=169, k=26, n=13, approach=Approach.A)
    d_a = 27 * 13
    assert got_a == pytest.approx(2.0 * 171 * d_a / (d_a - 172), rel=1e-15)
    got_b = penalty(AICC, n_params=169, m_params=169, k=26, n=13, approach=Approach.B)
    d_b = 26 * 13
    assert got_b == pytest.approx(2.0 * 169 * d_b / (d_b - 170), rel=1e-15)


def test_gic_rho_one_penalty_equals_aic():
    gic1 = Criterion(CriterionKind.GIC, 1.0)
    for n_params in (6, 49, 93, 169, 171):
        for approach in Approach:
            kw = dict(n_params=n_params, m_params=n_params, k=30, n=13, approach=approach)
            assert penalty(gic1, **kw) == penalty(AIC, **kw)


def test_aicc_inflates_then_approaches_aic():
    # Finite-sample inflation at K = 45 for the largest model, both data counts.
    for approach in Approach:
        got = penalty(AICC, n_params=169, m_params=169, k=45, n=13, approach=approach)
        assert got > 338.0
    # Monotone decay toward 2 n as K grows, within 1% by K = 1e4.
    grid = [45, 100, 300, 1000, 10_000]
    values = [
        penalty(AICC, n_params=171, m_params=169, k=k, n=13, approach=Approach.A)
        for k in grid
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 342.0
    assert values[-1] < 342.0 * 1.01


def test_aicc_degenerate_denominator_raises():
    with pytest.raises(AiccDegenerateError, match="denominator"):
        penalty(AICC, n_params=169, m_params=169, k=12, n=13, approach=Approach.B)
    # Exactly zero denominator: n_params + 1 == K N.
    with pytest.raises(AiccDegenerateError):
        penalty(AICC, n_params=181, m_params=181, k=14, n=13, approach=Approach.B)


def test_asymptotic_bic_ignores_everything_but_m_and_k():
    a = penalty(ABIC, n_params=171, m_params=169, k=26, n=13, approach=Approach.A)
    b = penalty(ABIC, n_params=169, m_params=169, k=26, n=7, approach=Approach.B)
    assert a == b == pytest.approx(169.0 * math.log(26.0), rel=1e-15)


def test_penalty_requires_fim_for_tic_and_bic():
    for crit in (TIC, BIC):
        with pytest.raises(ValueError, match="information-matrix"):
            penalty(crit, n_params=9, m_params=9, k=10, n=3, approach=Approach.B)


def _schur_only(observed, sample):
    """Information terms of a stack of one whose whole content is the Schur pair."""
    return InfoTerms(np.zeros(1), np.zeros(1), schur=(observed[None], sample[None]))


def test_tic_ridge_recovers_singular_observed():
    observed = np.diag([1.0, 0.0])
    got, errors, retries = _information_penalty(TIC, _schur_only(observed, np.eye(2)))
    assert not errors and retries == 1
    assert np.isfinite(got[0]) and got[0] > 0.0
    # The ridge scales with trace(S)/2, so an all-zero block stays singular.
    dead = _schur_only(np.zeros((2, 2)), np.eye(2))
    _, errors, _ = _information_penalty(TIC, dead)
    assert list(errors) == [0]
    assert isinstance(errors[0], FimSingularError)
    assert "ridge" in str(errors[0])


def test_a_zero_schur_block_fails_tic_and_bic_for_its_trial_alone():
    # One zero Schur block in a stack of three: TIC retries that trial once
    # with a ridge (zero on a zero block) and fails it, BIC refuses it, and
    # the other trials keep their closed-form values. The 2 x 2 completion
    # has no stacked call, so nothing falls back.
    observed = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    info = InfoTerms(np.zeros(3), np.zeros(3), schur=(observed, np.stack([np.eye(2)] * 3)))
    tic, tic_errors, tic_retries = _information_penalty(TIC, info)
    bic, bic_errors, bic_retries = _information_penalty(BIC, info)
    assert list(tic_errors) == list(bic_errors) == [1]
    assert (tic_retries, bic_retries) == (1, 0)
    assert str(tic_errors[1]).startswith("observed FIM singular even after ridge")
    assert str(bic_errors[1]).startswith("observed FIM not positive definite")
    np.testing.assert_array_equal(tic[[0, 2]], [4.0, 2.0])
    np.testing.assert_array_equal(bic[[0, 2]], [0.0, 2.0 * math.log(2.0)])


# Second Cholesky pivot of a drawn S as a multiple of the refusal threshold
# 1e-12 max(a, c): negative, zero, and a factor of two or more on either side
# of it. That margin is far above the rounding of either form, so the two
# verdicts must agree.
_PIVOT_MARGINS = (-1e3, -1.0, 0.0, 0.5, 2.0, 1e6, 1e12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_schur_closed_form_matches_lapack(data):
    # Over stacks of random symmetric 2 x 2 pairs (S, Y Y^T): on positive
    # definite, well-conditioned S the closed form agrees with solve and
    # slogdet; on every S, near-singular and indefinite included, BIC's
    # verdict is cholesky_stack's; a NaN or inf entry fails its own trial
    # and no other. Called outside np.errstate: it must not warn.
    trials = data.draw(st.integers(2, 6), label="T")
    size = st.floats(1e-3, 1e3)
    blocks, conditioned = [], []
    for _ in range(trials):
        a, c = data.draw(size), data.draw(size)
        if data.draw(st.booleans()):  # well conditioned: |b| <= sqrt(ac)/2
            b = data.draw(st.floats(-0.5, 0.5)) * math.sqrt(a * c)
        else:
            margin = data.draw(st.sampled_from(_PIVOT_MARGINS))
            second = margin * 1e-12 * max(a, c)
            a *= data.draw(st.sampled_from((1.0, -1.0)))  # a <= 0: indefinite
            b = math.sqrt(abs(a * (c - second)))
        conditioned.append(abs(b) <= 0.5 * math.sqrt(abs(a * c)) and a > 0)
        y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=6, max_size=6)))
        y = y.reshape(2, 3)
        blocks.append((np.array([[a, b], [b, c]]), y @ y.T))
    s = np.stack([block[0] for block in blocks])
    yy = np.stack([block[1] for block in blocks])
    info = InfoTerms(np.zeros(trials), np.zeros(trials), schur=(s, yy))
    tic, tic_errors, _ = _information_penalty(TIC, info)
    bic, bic_errors, _ = _information_penalty(BIC, info)
    _, refused, _ = cholesky_stack(s)
    assert sorted(bic_errors) == sorted(refused)
    for t in np.flatnonzero(conditioned):
        want_tic = 2.0 * np.trace(np.linalg.solve(s[t], yy[t]))
        sign, want_bic = np.linalg.slogdet(s[t])
        assert sign == 1.0 and t not in tic_errors
        assert abs(tic[t] - want_tic) <= 1e-12 * max(1.0, abs(want_tic))
        assert abs(bic[t] - want_bic) <= 1e-12 * max(1.0, abs(want_bic))

    bad = data.draw(st.integers(0, trials - 1), label="bad trial")
    value = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    i, j = data.draw(st.sampled_from(((0, 0), (0, 1), (1, 1))), label="entry")
    in_s = data.draw(st.booleans(), label="entry of S")
    target = (s if in_s else yy).copy()
    target[bad, i, j] = target[bad, j, i] = value
    poisoned = InfoTerms(info.theta_trace, info.theta_logdet,
                         schur=(target, yy) if in_s else (s, target))
    rest = np.arange(trials) != bad
    rules = ((TIC, tic, tic_errors), (BIC, bic, bic_errors)) if in_s else ((TIC, tic, tic_errors),)
    for rule, clean, clean_errors in rules:
        got, errors, _ = _information_penalty(rule, poisoned)
        assert bad in errors
        assert sorted(errors) == sorted({*clean_errors, bad})
        np.testing.assert_array_equal(got[rest], clean[rest])


def test_bic_rejects_non_pd_observed():
    info = _schur_only(np.diag([1.0, -1.0]), np.eye(2))
    _, errors, _ = _information_penalty(BIC, info)
    assert list(errors) == [0]
    assert isinstance(errors[0], FimSingularError)
    assert "positive definite" in str(errors[0])


def test_singular_schur_block_is_retried_once(rng, monkeypatch):
    # One singular Schur block in a stack of four: TIC retries exactly that
    # trial with a ridge and counts it once; every other penalty keeps its
    # bits. BIC refuses the block for that trial alone. The closed-form
    # completion has no stacked call, so nothing falls back.
    stack = DatasetStack.of([random_dataset(rng, 4, 9) for _ in range(4)])
    clean = classify_stack(stack, (Approach.A,), (TIC, BIC))[Approach.A]
    assert clean[TIC].ridge_retries == clean[TIC].stack_fallbacks == 0
    monkeypatch.setattr(
        criteria_module,
        "information_terms",
        with_singular_schur(criteria_module.information_terms, Hypothesis.H2, 2),
    )
    patched = classify_stack(stack, (Approach.A,), (TIC, BIC))[Approach.A]
    tic, bic = patched[TIC], patched[BIC]
    assert (tic.ridge_retries, tic.stack_fallbacks) == (1, 0)
    assert tic.failures == {}
    assert np.isfinite(tic.penalty[1, 2])
    others = np.ones(tic.penalty.shape, dtype=bool)
    others[1, 2] = False
    np.testing.assert_array_equal(tic.penalty[others], clean[TIC].penalty[others])
    assert (bic.ridge_retries, bic.stack_fallbacks) == (0, 0)
    assert list(bic.failures) == [(2, 2)]
    assert bic.failures[(2, 2)].startswith("FimSingularError: observed FIM not positive")
    np.testing.assert_array_equal(bic.penalty[others], clean[BIC].penalty[others])


# ---------------------------------------------------------------------------
# Scorecards


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_scorecard_totals_and_fit_cross_check(data):
    # The fit term uses Tr(X_hat S) = N K; the likelihood reference forms the
    # trace, so the two agree only if the identity holds for every class.
    # The tic and bic penalties come from matrix-space forms; the reference
    # is the theta-basis pair, 2 Tr(I^-1 J) and log det I.
    n = data.draw(st.integers(3, 9), label="N")
    k = data.draw(st.integers(n + 1, 3 * n), label="K")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ds = random_dataset(np.random.default_rng(seed), n, k)
    stack = DatasetStack.of([ds])
    for approach in Approach:
        outcomes = classify_stack(stack, (approach,), (AIC, TIC, BIC))[approach]
        cards = {criterion: outcome.scorecard(0) for criterion, outcome in outcomes.items()}
        card = cards[AIC]
        assert isinstance(card, Scorecard)
        assert card.approach is approach
        assert not card.all_failed
        for h in Hypothesis:
            estimate = criteria_module.prepare_estimates(stack, approach, (TIC,), h)
            score = card.scores[h]
            assert not score.failed
            assert score.total == score.fit + score.penalty
            model = structure_model(h, ds.n)
            theta = model.encode(estimate.m_hat[0])
            if approach is Approach.A:
                want = loglik_full(
                    model, theta, estimate.alpha_hat[0], ds.cut, ds.secondary, ds.steering
                )
            else:
                want = loglik_secondary(model, theta, ds.secondary)
            assert score.fit == pytest.approx(-2.0 * want, rel=1e-9)
            ref = fim_pair(model, estimate, 0, ds, approach)
            ref_tic = 2.0 * np.trace(np.linalg.solve(ref.observed, ref.sample))
            sign, ref_bic = np.linalg.slogdet(ref.observed)
            assert sign == 1.0
            assert abs(cards[TIC].scores[h].penalty - ref_tic) <= 1e-10 * abs(ref_tic)
            assert abs(cards[BIC].scores[h].penalty - ref_bic) <= 1e-10 * max(
                1.0, abs(ref_bic)
            )


def test_classify_records_failures_and_survivors(rng):
    # A covariance level of ~1e16 drives the steering energy through the ICM
    # inverse below the refusal floor for every hypothesis under approach A.
    secondary = 1e8 * complex_normal(rng, (4, 9))
    steering = np.ones(4) / 2.0
    ds = Dataset(secondary=secondary, cut=complex_normal(rng, (4,)), steering=steering)
    card = classify(ds, Approach.A, AIC)
    assert card.all_failed
    assert card.chosen is None
    for score in card.scores.values():
        assert score.failed
        assert "steering" in score.failure
        assert score.total is None
    # The same data classify fine under approach B, which never touches alpha.
    card_b = classify(ds, Approach.B, AIC)
    assert not card_b.all_failed
    # Identical snapshot columns leave every class's estimate singular; the
    # Cholesky in estimate_all_single records it for each hypothesis.
    singular = Dataset(secondary=np.outer(complex_normal(rng, (5,)), np.ones(9)))
    card_s = classify(singular, Approach.B, AIC)
    assert card_s.all_failed
    for score in card_s.scores.values():
        assert score.failure.startswith("NotPositiveDefiniteError: Cholesky")


def huge_entry_dataset(rng, n=5, k=11):
    """A finite dataset with one 1e300 snapshot entry: its scatter overflows."""
    secondary = complex_normal(rng, (n, k))
    secondary[2, 4] = 1e300
    steering = np.ones(n) / np.sqrt(n)
    return Dataset(secondary=secondary, cut=complex_normal(rng, (n,)), steering=steering)


@pytest.mark.parametrize("approach", list(Approach))
def test_non_finite_scatter_fails_every_hypothesis(rng, approach):
    # The scatter holds inf and NaN, so every estimate's Cholesky breaks down
    # or has a NaN pivot: a failed estimate, never a NaN total that the
    # argmin picks.
    card = classify(huge_entry_dataset(rng), approach, AIC)
    assert card.chosen is None
    for score in card.scores.values():
        assert score.failure.startswith("NotPositiveDefiniteError: Cholesky")
        assert score.total is None


def test_non_finite_total_is_a_failure(rng, monkeypatch):
    ds = random_dataset(rng, 5, 11)
    clean = classify(ds, Approach.B, AIC)
    fit_terms = criteria_module._fit_terms

    def poisoned(estimate, stack, approach):
        fit = fit_terms(estimate, stack, approach)
        return np.full_like(fit, np.inf) if estimate.hypothesis is clean.chosen else fit

    monkeypatch.setattr(criteria_module, "_fit_terms", poisoned)
    for approach in Approach:
        card = classify(ds, approach, AIC)
        lost = card.scores[clean.chosen]
        expected = penalty(
            AIC,
            n_params=param_count(clean.chosen, 5) + (2 if approach is Approach.A else 0),
            m_params=param_count(clean.chosen, 5),
            k=11,
            n=5,
            approach=approach,
        )
        assert lost.failure == (
            f"NonFiniteScoreError: total inf is not finite (fit inf, penalty {expected!r})"
        )
        assert lost.total is None and card.chosen not in (None, clean.chosen)
        for h, score in card.scores.items():
            assert score.failed is (h is clean.chosen)


# ---------------------------------------------------------------------------
# Argmin rule


COUNTS_13 = {h: param_count(h, 13) for h in Hypothesis}


def argmin_one(totals, counts):
    """One trial through the batched argmin; absent hypotheses have failed."""
    column = np.array([[totals.get(h, np.nan)] for h in Hypothesis])
    failed = np.array([[h not in totals] for h in Hypothesis])
    row = int(_argmin_batch(column, failed, [counts[h] for h in Hypothesis])[0])
    return None if row == NONE_CHOSEN else Hypothesis(row + 1)


def test_argmin_tie_breaks():
    h1, h2, h3, h4 = Hypothesis
    assert argmin_one({h1: 5.0, h4: 5.0}, COUNTS_13) is h4
    assert argmin_one({h2: 3.0, h3: 3.0}, COUNTS_13) is h2
    assert argmin_one({h: 1.0 for h in Hypothesis}, COUNTS_13) is h4
    assert argmin_one({h1: 0.0, h2: 1.0}, COUNTS_13) is h1
    assert argmin_one({}, COUNTS_13) is None


def test_batched_argmin_resolves_ties_per_trial():
    # The tie cases above as the columns of one batch, plus an all-failed
    # column: each column resolves on its own. A bare np.argmin would give
    # H1 for the H1 = H4 tie and for the all-equal column.
    nan = np.nan
    totals = np.array([
        [5.0, nan, 1.0, 0.0, nan],
        [nan, 3.0, 1.0, 1.0, nan],
        [nan, 3.0, 1.0, nan, nan],
        [5.0, nan, 1.0, nan, nan],
    ])
    counts = [COUNTS_13[h] for h in Hypothesis]
    chosen = _argmin_batch(totals, np.isnan(totals), counts)
    h1, h2, h3, h4 = Hypothesis
    want = [h4, h2, h4, h1, None]
    assert [None if c == NONE_CHOSEN else Hypothesis(c + 1) for c in chosen] == want
    # Stacked over rules, as the engine scores them, each (4, T) slice
    # resolves as it does alone.
    stacked = np.stack([totals, totals[::-1], totals[:, ::-1]])
    for got, one in zip(_argmin_batch(stacked, np.isnan(stacked), counts), stacked):
        np.testing.assert_array_equal(got, _argmin_batch(one, np.isnan(one), counts))


def test_argmin_shift_invariance(rng):
    for _ in range(20):
        totals = {h: float(t) for h, t in zip(Hypothesis, rng.normal(size=4))}
        base = argmin_one(totals, COUNTS_13)
        for shift in (-1e6, 3.7, 1e6):
            shifted = {h: t + shift for h, t in totals.items()}
            assert argmin_one(shifted, COUNTS_13) is base


# ---------------------------------------------------------------------------
# Rule identities and batch semantics


def test_aic_equals_gic_rho_one_bitwise(rng):
    gic1 = Criterion(CriterionKind.GIC, 1.0)
    for trial in range(50):
        with_cut = trial % 5 == 0
        ds = random_dataset(rng, 4, 9, with_cut=with_cut)
        approach = Approach.A if with_cut else Approach.B
        outcomes = classify_stack(DatasetStack.of([ds]), (approach,), (AIC, gic1))[approach]
        aic, gic = outcomes[AIC].scorecard(0), outcomes[gic1].scorecard(0)
        assert aic.chosen is gic.chosen
        for h in Hypothesis:
            assert aic.scores[h].total == gic.scores[h].total


def test_batch_matches_single_calls(rng):
    for _ in range(50):
        ds = random_dataset(rng, 4, 9)
        outcomes = classify_stack(DatasetStack.of([ds]), (Approach.B,), DEFAULT_CRITERIA)
        for crit in DEFAULT_CRITERIA:
            card = outcomes[Approach.B][crit].scorecard(0)
            single = classify(ds, Approach.B, crit)
            assert card.chosen is single.chosen
            for h in Hypothesis:
                got, want = card.scores[h], single.scores[h]
                assert got.total == want.total
                assert got.failure == want.failure


def test_batch_reuses_estimates_and_fims(rng, monkeypatch):
    estimate_calls = []
    info_calls = []
    real_estimate = criteria_module.estimate_covariance
    real_info = criteria_module.information_terms

    def counting_estimate(hypothesis, dataset):
        estimate_calls.append(hypothesis)
        return real_estimate(hypothesis, dataset)

    def counting_info(estimate, dataset, approaches):
        info_calls.append((estimate.hypothesis, tuple(approaches)))
        return real_info(estimate, dataset, approaches)

    monkeypatch.setattr(criteria_module, "estimate_covariance", counting_estimate)
    monkeypatch.setattr(criteria_module, "information_terms", counting_info)
    ds = random_dataset(rng, 4, 9)
    classify_stack(DatasetStack.of([ds]), (Approach.A, Approach.B), DEFAULT_CRITERIA)
    # Seven rules, two approaches, four hypotheses: one estimate per
    # hypothesis shared by both approaches, and one information pass per
    # hypothesis giving both approaches' terms to every rule that needs them.
    assert sorted(estimate_calls, key=int) == list(Hypothesis)
    both = (Approach.A, Approach.B)
    assert sorted(info_calls, key=lambda c: int(c[0])) == [(h, both) for h in Hypothesis]


@pytest.mark.parametrize("n, k", [(7, 8), (7, 24), (13, 14), (13, 45)])
def test_each_approach_scores_alike_alone_and_beside_the_other(n, k):
    # K = N + 1 and K > 3N, where the approach-A information terms pair the
    # most and the fewest rows: a stack of case-1 draws, every rule, gives
    # bit-identical arrays for B under (B,) and (A, B), and for A under (A,)
    # and (A, B). B's terms come from A's pass over the snapshot rows when
    # both run, and every class's X from A's solve.
    rngs = [np.random.default_rng(seed) for seed in range(8)]
    stack = draw_stack(Hypothesis.H4, ScenarioConfig(n=n), k, rngs[:6])
    if n == 13:  # every truth, two draws each
        parts = [draw_stack(h, ScenarioConfig(n=n), k, rngs[2 * i : 2 * i + 2])
                 for i, h in enumerate(Hypothesis)]
        stack = DatasetStack(*(np.concatenate([getattr(p, name) for p in parts])
                               for name in ("secondary", "cut", "steering")))
    both = classify_stack(stack, (Approach.A, Approach.B), DEFAULT_CRITERIA)
    for approach in Approach:
        alone = classify_stack(stack, (approach,), DEFAULT_CRITERIA)[approach]
        for crit in DEFAULT_CRITERIA:
            got, want = alone[crit], both[approach][crit]
            for field in ("fit", "penalty", "total", "chosen"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_fim_rules_invert_each_class_once(rng, monkeypatch):
    # The amplitudes come from each class's bordered Cholesky, so the engine
    # solves nothing; a TIC or BIC rule inverts each class's estimate once,
    # in one stacked LU, whatever the approaches, and the closed-form rules
    # invert nothing.
    calls, real_inv, real_solve = [], np.linalg.inv, np.linalg.solve

    def inv(a):
        calls.append(("inv", a.shape))
        return real_inv(a)

    def solve(a, b):
        calls.append(("solve", a.shape))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(np.linalg, "solve", solve)
    stack = DatasetStack.of([random_dataset(rng, 5, 9) for _ in range(3)])
    for approaches in ((Approach.A,), (Approach.A, Approach.B), (Approach.B,)):
        classify_stack(stack, approaches, (TIC, BIC))
        assert calls == [("inv", (3, 5, 5))] * len(Hypothesis), approaches
        calls.clear()
        classify_stack(stack, approaches, DEFAULT_CRITERIA[:3])
        assert not calls, approaches


def test_prepared_estimates_feed_batch(rng):
    # One AB batch prepares its estimates under A; approach B reuses them and
    # must score exactly as a B-only classify that prepared its own.
    for _ in range(5):
        ds = random_dataset(rng, 4, 9)
        batch = classify_stack(DatasetStack.of([ds]), (Approach.A, Approach.B), DEFAULT_CRITERIA)
        for approach in Approach:
            for crit in DEFAULT_CRITERIA:
                card = batch[approach][crit].scorecard(0)
                single = classify(ds, approach, crit)
                assert card.chosen is single.chosen
                for h in Hypothesis:
                    got, want = card.scores[h], single.scores[h]
                    assert got.total == want.total
                    assert got.failure == want.failure


# ---------------------------------------------------------------------------
# The trial-batched engine against a per-dataset reference


# The exceptions that exclude one hypothesis in the per-dataset reference: a
# failed Cholesky of an estimate or of the oracle's explicit 2N x 2N
# capacitance (the engine certifies its closed-form capacitance instead, with
# the same error type) and a degenerate AICc denominator.
_REFERENCE_FAILURES = (NotPositiveDefiniteError, AiccDegenerateError)


def reference_classify(ds, approach, criteria):
    """Per-dataset reference loop over the hypotheses.

    It writes the likelihood out with the explicit trace Tr(X S), inverts
    through the Cholesky factor, forms the information terms in matrix space
    (the oracle's ``information_terms``), and takes the argmin with the tie rule
    written as a sort key. Returns per rule the chosen hypothesis (or None),
    the totals and the set of failed hypotheses.
    """
    n, k = ds.n, ds.k
    scatter = ds.secondary @ ds.secondary.conj().T
    scatter = 0.5 * (scatter + scatter.conj().T)
    fits, estimates = {}, {}
    for h in Hypothesis:
        m_hat = project(h, scatter / k)
        try:
            low = cholesky_pd(m_hat)
        except _REFERENCE_FAILURES:
            continue
        x = scipy.linalg.cho_solve((low, True), np.eye(n))
        x = 0.5 * (x + x.conj().T)
        logdet = 2.0 * float(np.sum(np.log(low.diagonal().real)))
        fit = k * (n * math.log(math.pi) + logdet) + float(np.trace(x @ scatter).real)
        alpha = quad = None
        if approach is Approach.A:
            v, z = ds.steering, ds.cut
            energy = float((v.conj() @ x @ v).real)
            if not energy > 1e-14:
                continue
            alpha = complex(v.conj() @ x @ z / energy)
            r = z - alpha * v
            quad = float((r.conj() @ x @ r).real)
            fit += n * math.log(math.pi) + logdet + quad
        fits[h] = 2.0 * fit
        estimates[h] = EstimateStack(
            hypothesis=h,
            m_hat=m_hat[None],
            logdet=np.array([logdet]),
            block_logdets=(np.array([logdet]),),  # the oracle's terms do not read it
            alpha_hat=None if alpha is None else np.array([alpha]),
            quad=None if quad is None else np.array([quad]),
            failures={},
            alpha_failures={},
            x_hat=x[None],  # the reference's own inverse
        )
    out = {}
    for criterion in criteria:
        totals = {}
        for h, fit in fits.items():
            m = param_count(h, n)
            try:
                if criterion.needs_fim:
                    trace, logdet, schur = matrix_space_terms(estimates[h], 0, ds, approach)
                    if schur is not None:
                        schur = (schur[0][None], schur[1][None])
                    info = InfoTerms(np.array([trace]), np.array([logdet]), schur)
                    pen, errors, _ = _information_penalty(criterion, info)
                    if errors:
                        continue
                    pen = float(pen[0])
                else:
                    pen = penalty(
                        criterion,
                        n_params=m + (2 if approach is Approach.A else 0),
                        m_params=m,
                        k=k,
                        n=n,
                        approach=approach,
                    )
            except _REFERENCE_FAILURES:
                continue
            totals[h] = fit + pen
        chosen = min(
            totals, key=lambda h: (totals[h], param_count(h, n), int(h)), default=None
        )
        out[criterion] = (chosen, totals, set(Hypothesis) - set(totals))
    return out


def _scenario_datasets(rng, n, k, cnr_db, trials):
    """Datasets under random truths of one scenario, with random unit steering."""
    config = ScenarioConfig(n=n, sources=(SourceParams(cnr_db, 0.85, 0.285),))
    out = []
    for _ in range(trials):
        truth = truth_instance(Hypothesis(int(rng.integers(1, 5))), config, rng)
        steering = complex_normal(rng, n)
        steering /= np.linalg.norm(steering)
        cut = 3.0 * steering + truth.low @ complex_normal(rng, n)
        secondary = truth.low @ complex_normal(rng, (n, k))
        out.append(Dataset(secondary=secondary, cut=cut, steering=steering))
    return out


def _assert_same_outcome(stacked, alone, t):
    """Trial t of a stacked outcome equals the outcome of that trial alone."""
    for field in ("fit", "penalty", "total"):
        np.testing.assert_array_equal(getattr(stacked, field)[:, t], getattr(alone, field)[:, 0])
    assert stacked.chosen[t] == alone.chosen[0]
    assert {h: m for (h, u), m in stacked.failures.items() if u == t} == {
        h: m for (h, _), m in alone.failures.items()
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_per_dataset_reference(data):
    # Choices equal the reference loop's, totals agree to rounding, and each
    # trial's outcome is bit-identical whatever stack it sits in.
    n = data.draw(st.integers(3, 8), label="N")
    k = data.draw(st.integers(n + 1, 3 * n), label="K")
    cnr_db = data.draw(st.floats(0.0, 40.0), label="CNR dB")
    trials = data.draw(st.integers(1, 5), label="T")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    datasets = _scenario_datasets(np.random.default_rng(seed), n, k, cnr_db, trials)
    stacked = classify_stack(DatasetStack.of(datasets), tuple(Approach), DEFAULT_CRITERIA)
    for t, ds in enumerate(datasets):
        alone = classify_stack(DatasetStack.of([ds]), tuple(Approach), DEFAULT_CRITERIA)
        for approach in Approach:
            reference = reference_classify(ds, approach, DEFAULT_CRITERIA)
            for criterion in DEFAULT_CRITERIA:
                outcome = stacked[approach][criterion]
                _assert_same_outcome(outcome, alone[approach][criterion], t)
                card = outcome.scorecard(t)
                chosen, totals, failed = reference[criterion]
                assert card.chosen is chosen, (approach, criterion)
                assert {h for h in Hypothesis if card.scores[h].failed} == failed
                for h, total in totals.items():
                    assert card.scores[h].total == pytest.approx(total, rel=1e-9)


def test_failures_inside_a_block_match_the_dataset_alone(rng):
    # A zero snapshot row makes one trial's scatter singular (the stacked
    # Cholesky breaks down and the block factors matrix by matrix); a near-
    # copy of a row fails only the pivot floor; a 1e8 data scale drives the
    # steering energy under approach A below its floor. Each failing trial
    # reports what a stack of one reports for it alone, and every other
    # trial's outcome is unchanged.
    n, k = 5, 12
    good = [random_dataset(rng, n, k) for _ in range(3)]
    zero_row = good[0].secondary.copy()
    zero_row[2] = 0.0
    near_copy = good[1].secondary.copy()
    near_copy[3] = near_copy[1] + 1e-7 * complex_normal(rng, k)
    base = good[2]
    singular = Dataset(secondary=zero_row, cut=good[0].cut, steering=good[0].steering)
    pivot = Dataset(secondary=near_copy, cut=good[1].cut, steering=good[1].steering)
    huge = Dataset(secondary=1e8 * base.secondary, cut=base.cut, steering=base.steering)
    for bad, text in (
        ({1: singular, 3: huge}, "NotPositiveDefiniteError: Cholesky breakdown"),
        ({0: pivot, 3: huge}, "NotPositiveDefiniteError: Cholesky pivot"),
    ):
        datasets = list(good)
        for t, ds in sorted(bad.items()):
            datasets.insert(t, ds)
        stacked = classify_stack(DatasetStack.of(datasets), tuple(Approach), DEFAULT_CRITERIA)
        clean = classify_stack(DatasetStack.of(good), tuple(Approach), DEFAULT_CRITERIA)
        clean_index = [t for t in range(len(datasets)) if t not in bad]
        messages = {
            message
            for by_rule in stacked.values()
            for outcome in by_rule.values()
            for message in outcome.failures.values()
        }
        assert any(m.startswith(text) for m in messages)
        assert any(m.startswith("DegenerateSteeringError: steering energy") for m in messages)
        alone = [
            classify_stack(DatasetStack.of([ds]), tuple(Approach), DEFAULT_CRITERIA)
            for ds in datasets
        ]
        for approach, by_rule in stacked.items():
            for criterion, outcome in by_rule.items():
                for t, outcomes in enumerate(alone):
                    assert outcome.scorecard(t) == outcomes[approach][criterion].scorecard(0)
                for u, t in enumerate(clean_index):
                    assert outcome.chosen[t] == clean[approach][criterion].chosen[u]
                    np.testing.assert_array_equal(
                        outcome.total[:, t], clean[approach][criterion].total[:, u]
                    )


def test_one_engine_block_stays_inside_its_memory_bound():
    # One production block: case 1 (N 13), K 25, 24 trials of each truth
    # (one chunk of a 24-trial campaign), the seven rules under A and B. The
    # engine holds one class's estimates at a time and drops its information
    # terms' row and image stacks as it goes: its tracemalloc peak was 3.9 MB
    # with numpy 2.4 on x86-64, against 7.5 MB with every class's estimates
    # held at once and those stacks kept to the end of the pass.
    rngs = [np.random.default_rng(seed) for seed in range(96)]
    parts = [draw_stack(h, table_case(1), 25, rngs[24 * i : 24 * i + 24])
             for i, h in enumerate(Hypothesis)]
    stack = DatasetStack(*(np.concatenate([getattr(p, name) for p in parts])
                           for name in ("secondary", "cut", "steering")))
    del parts
    tracemalloc.start()
    try:
        classify_stack(stack, tuple(Approach), DEFAULT_CRITERIA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6, f"engine block peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# Statistical properties (fixed seeds, calibrated bounds)


def test_fit_ordering_respects_nesting(rng):
    # Each plug-in attains its family's likelihood maximum, so the nesting
    # chains H1 < H2 < H4 and H1 < H3 < H4 order the fit terms.
    for _ in range(100):
        ds = random_dataset(rng, 6, 13, with_cut=False)
        card = classify(ds, Approach.B, AIC)
        fit = {h: card.scores[h].fit for h in Hypothesis}
        h1, h2, h3, h4 = Hypothesis
        assert fit[h1] <= fit[h2] + 1e-6
        assert fit[h1] <= fit[h3] + 1e-6
        assert fit[h2] <= fit[h4] + 1e-6
        assert fit[h3] <= fit[h4] + 1e-6


def test_h4_truth_recovered_by_asymptotic_bic(rng):
    n, k, trials = 13, 130, 200
    truth = random_pd_matrix(rng, n, Hypothesis.H4)
    hits = 0
    for _ in range(trials):
        ds = Dataset(secondary=gaussian_snapshots(rng, truth, k))
        card = classify(ds, Approach.B, ABIC)
        hits += card.chosen is Hypothesis.H4
    assert hits >= 0.95 * trials


def test_bic_penalty_minus_m_log_k_stays_bounded(rng):
    # The log-det penalty splits as m log K plus a K-independent remainder;
    # a leftover m log K term would move the remainder by m log 8 ~ 2.08 m
    # across this grid, so the spread must sit well under that.
    n = 5
    truth = random_pd_matrix(rng, n, Hypothesis.H2)
    grid = (50, 100, 200, 400)
    remainders = {h: [] for h in Hypothesis}
    for k in grid:
        ds = Dataset(secondary=gaussian_snapshots(rng, truth, k))
        card = classify(ds, Approach.B, BIC)
        for h in Hypothesis:
            score = card.scores[h]
            assert not score.failed
            remainders[h].append(score.penalty - param_count(h, n) * math.log(k))
    span = math.log(grid[-1] / grid[0])
    for h, values in remainders.items():
        spread = max(values) - min(values)
        assert spread < 0.3 * param_count(h, n) * span


@pytest.mark.parametrize("approach", [Approach.A, Approach.B])
def test_bic_penalty_follows_the_unit_of_the_data(rng, approach):
    # Scaling the data power by p scales theta by p and alpha by sqrt(p), so
    # log det I moves by -2 m log p, plus -2 log p for alpha under approach A.
    # TIC's trace is unit-free. This unit dependence is why the BIC rate gate
    # (acceptance 5) runs on asymptotic-bic.
    n, k = 5, 12
    ds = random_dataset(rng, n, k)
    base = {c: classify(ds, approach, c) for c in (BIC, TIC)}
    alpha_params = 2 if approach is Approach.A else 0
    for p in (1e-3, 10.0, 1e4):
        root = math.sqrt(p)
        scaled = Dataset(
            secondary=root * ds.secondary, cut=root * ds.cut, steering=ds.steering
        )
        moved = {c: classify(scaled, approach, c) for c in (BIC, TIC)}
        for h in Hypothesis:
            shift = moved[BIC].scores[h].penalty - base[BIC].scores[h].penalty
            want = -(2 * param_count(h, n) + alpha_params) * math.log(p)
            assert shift == pytest.approx(want, rel=1e-9)
            assert moved[TIC].scores[h].penalty == pytest.approx(
                base[TIC].scores[h].penalty, rel=1e-9
            )


def test_tic_penalty_near_2n_at_truth(rng):
    # With data drawn from a matrix inside the hypothesis, Tr[J inv(I)] -> n,
    # so the TIC penalty approaches AIC's 2n at large K.
    n, k = 5, 250
    for h in Hypothesis:
        truth = random_pd_matrix(rng, n, h)
        ds = Dataset(secondary=gaussian_snapshots(rng, truth, k))
        card = classify(ds, Approach.B, TIC)
        got = card.scores[h].penalty
        want = 2.0 * param_count(h, n)
        assert abs(got - want) <= 0.25 * want
