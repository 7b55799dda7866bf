"""Campaign tallies: determinism, confusion accounting, and trend checks."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covstruct import montecarlo
from covstruct.criteria import Criterion, CriterionKind, parse_criterion
from covstruct.estimators import Approach
from covstruct.montecarlo import (
    CampaignConfig,
    CellStats,
    MissingCellError,
    PccReport,
    _resolve_workers,
    confusion_histogram,
    run_campaign,
)
from covstruct.reporting import render_results_csv
from covstruct.scenario import ScenarioConfig, table_case
from covstruct.structures import Hypothesis

AIC = Criterion(CriterionKind.AIC)
ABIC = Criterion(CriterionKind.ASYMPTOTIC_BIC)


def small_config(**overrides):
    defaults = dict(
        scenario=ScenarioConfig(n=5),
        k_grid=(11,),
        trials=4,
        criteria=(AIC, ABIC),
        approaches=(Approach.A, Approach.B),
        truths=tuple(Hypothesis),
        master_seed=7,
        workers=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def statistical_content(report):
    """Everything except wall-clock timings."""
    cells = {
        key: (cell.counts, cell.trials, cell.p_cc, cell.std_err)
        for key, cell in report.cells.items()
    }
    return cells, report.failures


# ---------------------------------------------------------------------------
# Pinned campaigns

GOLDEN = Path(__file__).parent / "golden"

# Campaigns whose whole CSV is recorded in ``golden/<name>.csv``: every
# truth, the seven default rules and both approaches at N = 5, K = 6 and 11,
# six trials per cell. The 1e14 thermal noise of ``case1_noisy`` drives the
# steering energy under its refusal floor, so that campaign also pins its
# failure records (``golden/case1_noisy_failures.txt``).
PINNED = {
    "case1": table_case(1, n=5),
    "case2": table_case(2, n=5),
    "case1_frozen": table_case(1, n=5, freeze_channel_errors=True),
    "case1_noisy": table_case(1, n=5, sigma_n2=1e14),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_campaign_reproduces_its_recorded_csv(name):
    config = CampaignConfig(
        scenario=PINNED[name], k_grid=(6, 11), trials=6, master_seed=5, workers=1
    )
    report = run_campaign(config)
    assert render_results_csv(report) == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    records = "".join(
        f"{r.truth},{r.k},{r.trial},{r.approach},{r.hypothesis},{r.message}\n"
        for r in report.failures
    )
    failures = GOLDEN / f"{name}_failures.txt"
    assert records == (failures.read_text(encoding="utf-8") if failures.exists() else "")


# ---------------------------------------------------------------------------
# Configuration validation


def test_campaign_config_validation():
    with pytest.raises(ValueError, match="exceed N"):
        small_config(k_grid=(5,))
    with pytest.raises(ValueError, match="trials"):
        small_config(trials=0)
    with pytest.raises(ValueError, match="duplicate criterion"):
        small_config(criteria=(AIC, Criterion(CriterionKind.AIC)))
    # Two GIC weights that agree in their first six digits are two rules.
    close = (parse_criterion("gic:3.14159265"), parse_criterion("gic:3.14159"))
    assert small_config(criteria=close).criteria == close
    with pytest.raises(ValueError, match="k_grid"):
        small_config(k_grid=())
    with pytest.raises(ValueError, match="criterion"):
        small_config(criteria=())
    with pytest.raises(ValueError, match="approach"):
        small_config(approaches=())
    with pytest.raises(ValueError, match="truth"):
        small_config(truths=())
    with pytest.raises(ValueError, match="duplicate K 11"):
        small_config(k_grid=(11, 12, 11))
    with pytest.raises(ValueError, match="duplicate truth 'H1'"):
        small_config(truths=(Hypothesis.H1, Hypothesis.H2, Hypothesis.H1))
    with pytest.raises(ValueError, match="duplicate approach 'B'"):
        small_config(approaches=(Approach.B, Approach.B))
    for approaches in ((Approach.A,), (Approach.B,)):
        with pytest.raises(ValueError, match="N must be odd.*steering"):
            small_config(scenario=ScenarioConfig(n=6), approaches=approaches)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            small_config(workers=workers)


# ---------------------------------------------------------------------------
# Tally accounting


def test_single_trial_places_single_count():
    report = run_campaign(small_config(trials=1, truths=(Hypothesis.H2,)))
    for approach in (Approach.A, Approach.B):
        cell = report.cell(AIC, approach, Hypothesis.H2, 11)
        assert isinstance(cell, CellStats)
        assert sum(cell.counts) == 1
        assert sorted(cell.counts) == [0, 0, 0, 0, 1]
        assert cell.p_cc in (0.0, 1.0)


def test_counts_sum_to_trials_and_pcc_in_range():
    report = run_campaign(small_config())
    for key in report.iter_keys():
        cell = report.cells[key]
        assert sum(cell.counts) == cell.trials == 4
        assert 0.0 <= cell.p_cc <= 1.0
        assert cell.std_err >= 0.0


def test_same_seed_reproduces_report():
    first = run_campaign(small_config())
    second = run_campaign(small_config())
    assert statistical_content(first) == statistical_content(second)
    third = run_campaign(small_config(master_seed=8))
    assert statistical_content(first) != statistical_content(third)


def test_worker_count_does_not_change_tallies():
    config = small_config(trials=6, truths=(Hypothesis.H3,), k_grid=(11, 12))
    serial_lines, pooled_lines = [], []
    serial = run_campaign(config, progress=serial_lines.append)
    pooled = run_campaign(replace(config, workers=2), progress=pooled_lines.append)
    assert statistical_content(serial) == statistical_content(pooled)
    # One progress line per (truth, K) cell, sent once all its chunks are in:
    # 6 trials of 5 x 11 or 5 x 12 entries fit one engine block, so each cell
    # is one chunk whatever the worker count.
    for lines in (serial_lines, pooled_lines):
        assert len(lines) == 2
        for line, k in zip(lines, (11, 12)):
            assert line.startswith(f"cell H3 K={k} done: 1 chunk(s), ")


def test_chunks_are_engine_blocks_at_any_worker_count(monkeypatch):
    # A budget of 120 entries holds two trials of 5 x 11 (K = 11: chunks of
    # 2, 2 and 1 trials) and less than one of 5 x 25 (K = 25: one trial per
    # chunk). Forked workers inherit the patched budget and the checked engine.
    config = small_config(
        trials=5,
        k_grid=(11, 25),
        truths=(Hypothesis.H1, Hypothesis.H4),
        criteria=(AIC, parse_criterion("tic")),
    )
    whole = run_campaign(config)
    monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 120)
    engine = montecarlo.classify_stack

    def checked(stack, *args):
        assert len(stack) == 1 or len(stack) * stack.n * stack.k <= 120
        return engine(stack, *args)

    monkeypatch.setattr(montecarlo, "classify_stack", checked)
    for workers in (1, 2, 3):
        lines = []
        report = run_campaign(replace(config, workers=workers), progress=lines.append)
        assert statistical_content(report) == statistical_content(whole)
        assert render_results_csv(report) == render_results_csv(whole)
        assert sorted(line.split(" chunk(s)")[0] for line in lines) == [
            f"cell H{truth} K={k} done: {chunks}"
            for truth in (1, 4)
            for k, chunks in ((11, 3), (25, 5))
        ]


def test_pool_is_sized_to_the_chunks(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    run_campaign(small_config(trials=1, truths=(Hypothesis.H1, Hypothesis.H3), workers=8))
    assert sizes == [2]
    run_campaign(small_config(trials=1, truths=(Hypothesis.H3,), workers=8))
    assert sizes == [2]  # one chunk runs in process


def test_worker_resolution_order(monkeypatch):
    # The configured count wins; unset means the CPUs this process may run
    # on, else the CPU count, whatever the environment holds (no variable
    # overrides or clamps it).
    monkeypatch.setenv("COVSTRUCT_WORKERS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert _resolve_workers(small_config(workers=2)) == 2
    assert _resolve_workers(small_config(workers=None)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _resolve_workers(small_config(workers=None)) == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(small_config(workers=None)) == 1


def test_missing_cell_error():
    report = run_campaign(small_config(truths=(Hypothesis.H1,)))
    with pytest.raises(MissingCellError):
        report.cell(AIC, Approach.A, Hypothesis.H1, 999)
    with pytest.raises(MissingCellError):
        report.cell(parse_criterion("tic"), Approach.A, Hypothesis.H1, 11)
    # The histogram needs all four truth rows.
    with pytest.raises(MissingCellError):
        confusion_histogram(report, AIC, Approach.A, 11)


def test_confusion_rows_sum_to_one():
    report = run_campaign(small_config())
    for approach in (Approach.A, Approach.B):
        for criterion in (AIC, ABIC):
            hist = confusion_histogram(report, criterion, approach, 11)
            assert hist.shape == (4, 4)
            assert np.all(np.abs(hist.sum(axis=1) - 1.0) <= 1e-12)


def test_confusion_of_perfect_classifier_is_identity():
    config = small_config(trials=10)
    cells = {}
    for truth in Hypothesis:
        counts = [0, 0, 0, 0, 0]
        counts[int(truth) - 1] = 10
        cells[("aic", "A", int(truth), 11)] = CellStats(
            counts=tuple(counts), trials=10, p_cc=1.0, std_err=0.0, seconds=0.0
        )
    report = PccReport(config=config, cells=cells)
    hist = confusion_histogram(report, AIC, Approach.A, 11)
    assert np.array_equal(hist, np.eye(4))


def test_degenerate_steering_fails_a_but_not_b():
    # A clutter power of 330 dB drives the steering energy through the ICM
    # inverse below the refusal floor, so every approach-A trial fails while
    # the paired approach-B classification still runs on the same estimates.
    scenario = table_case(1)
    source = scenario.sources[0]
    hot = ScenarioConfig(
        n=13,
        sources=(type(source)(cnr_db=330.0, rho=source.rho, doppler=source.doppler),),
    )
    config = CampaignConfig(
        scenario=hot,
        k_grid=(15,),
        trials=3,
        criteria=(AIC,),
        approaches=(Approach.A, Approach.B),
        truths=(Hypothesis.H4,),
        master_seed=3,
        workers=1,
    )
    report = run_campaign(config)
    cell_a = report.cell(AIC, Approach.A, Hypothesis.H4, 15)
    assert cell_a.counts == (0, 0, 0, 0, 3)
    assert cell_a.failed == 3
    assert cell_a.p_cc == 0.0 and cell_a.std_err == 0.0
    cell_b = report.cell(AIC, Approach.B, Hypothesis.H4, 15)
    assert cell_b.failed == 0
    assert sum(cell_b.counts[:4]) == 3
    steering_failures = [f for f in report.failures if f.approach == Approach.A.value]
    assert len(steering_failures) == 12  # 3 trials x 4 hypotheses
    assert all("steering" in f.message for f in steering_failures)
    assert {f.trial for f in steering_failures} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Statistical behavior (fixed seeds, calibrated bounds)


@pytest.fixture(scope="module")
def abic_case1_report():
    config = CampaignConfig(
        scenario=table_case(1),
        k_grid=(26, 32, 39, 45),
        trials=100,
        criteria=(ABIC,),
        approaches=(Approach.B,),
        truths=tuple(Hypothesis),
        master_seed=11,
        workers=1,
    )
    return run_campaign(config)


def test_asymptotic_bic_strong_at_k45(abic_case1_report):
    for truth in Hypothesis:
        assert abic_case1_report.p_cc(ABIC, Approach.B, truth, 45) >= 0.8


def test_median_pcc_trend_non_decreasing(abic_case1_report):
    grid = (26, 32, 39, 45)
    medians, errs = [], []
    for k in grid:
        cells = [abic_case1_report.cell(ABIC, Approach.B, t, k) for t in Hypothesis]
        medians.append(float(np.median([c.p_cc for c in cells])))
        errs.append(float(np.median([c.std_err for c in cells])))
    for i in range(len(grid) - 1):
        slack = 2.0 * max(errs[i], errs[i + 1], 1.0 / abic_case1_report.config.trials)
        assert medians[i + 1] >= medians[i] - slack


def test_std_err_matches_bootstrap(rng):
    config = CampaignConfig(
        scenario=table_case(1),
        k_grid=(26,),
        trials=1000,
        criteria=(parse_criterion("aicc"),),
        approaches=(Approach.A,),
        truths=(Hypothesis.H1,),
        master_seed=5,
        workers=1,
    )
    report = run_campaign(config)
    cell = report.cell("aicc", Approach.A, Hypothesis.H1, 26)
    assert cell.failed == 0
    assert 0.0 < cell.p_cc < 1.0
    resampled = rng.binomial(cell.trials, cell.p_cc, size=4000) / cell.trials
    bootstrap = float(np.std(resampled))
    assert abs(cell.std_err - bootstrap) <= 0.2 * bootstrap
