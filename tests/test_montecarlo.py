"""Campaign tallies: determinism, confusion accounting, and trend checks."""

import ctypes
import functools
import multiprocessing
import os
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor
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


# Case-1 campaigns at the package's default rules and approaches whose CSVs
# were checked by hand: (scenario, K grid, trials per cell, seed). They cover
# N = 5, 13 and 21, and K from N + 1 to above 3N.
HAND_CHECKED = {
    "case1_k14-45_seed11": (table_case(1), (14, 20, 26, 33, 45), 40, 11),
    "case1_n21_seed7": (table_case(1, n=21), (22, 30), 30, 7),
    "case1_n5_seed3": (table_case(1, n=5), (6, 11), 40, 3),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(HAND_CHECKED))
def test_hand_checked_campaign_reproduces_its_recorded_csv(name, workers):
    scenario, k_grid, trials, seed = HAND_CHECKED[name]
    config = CampaignConfig(
        scenario=scenario, k_grid=k_grid, trials=trials, master_seed=seed, workers=workers
    )
    report = run_campaign(config)
    assert render_results_csv(report) == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


def test_chunks_that_straddle_truths_reproduce_the_noisy_campaign(monkeypatch):
    # 275 entries hold 9 trials of 5 x 6 and 5 of 5 x 11: K = 6 runs its 24
    # trials in chunks of 8 (H1 0-5 + H2 0-1, H2 2-5 + H3 0-3, H3 4-5 + H4)
    # and K = 11 in chunks of 4, 5, 5, 5, 5, each after the first straddling
    # two truths. The steering failures keep their truth and trial index.
    monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 275)
    config = CampaignConfig(
        scenario=PINNED["case1_noisy"], k_grid=(6, 11), trials=6, master_seed=5, workers=1
    )
    chunks = {(1, 6): 1, (2, 6): 2, (3, 6): 2, (4, 6): 1, (1, 11): 2, (2, 11): 2, (3, 11): 2,
              (4, 11): 2}
    for workers in (1, 2, 3):
        lines = []
        report = run_campaign(replace(config, workers=workers), progress=lines.append)
        golden = (GOLDEN / "case1_noisy.csv").read_text(encoding="utf-8")
        assert render_results_csv(report) == golden
        records = "".join(
            f"{r.truth},{r.k},{r.trial},{r.approach},{r.hypothesis},{r.message}\n"
            for r in report.failures
        )
        assert records == (GOLDEN / "case1_noisy_failures.txt").read_text(encoding="utf-8")
        assert (report.chunks, report.workers) == (8, min(workers, 8))
        assert sorted(line.split(" chunk(s)")[0] for line in lines) == sorted(
            f"cell H{truth} K={k} done: {count}" for (truth, k), count in chunks.items()
        )


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
    # A budget of 120 entries holds two trials of 5 x 11 (K = 11: the 10
    # trials of both truths in five chunks of 2, the third holding H1's last
    # trial and H4's first) and less than one of 5 x 25 (K = 25: one trial
    # per chunk). Forked workers inherit the patched budget and the checked
    # engine.
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
        assert (report.chunks, report.workers) == (15, workers)
        assert sorted(line.split(" chunk(s)")[0] for line in lines) == [
            f"cell H{truth} K={k} done: {chunks}"
            for truth in (1, 4)
            for k, chunks in ((11, 3), (25, 5))
        ]


def test_pool_is_sized_to_the_chunks(monkeypatch):
    # Each worker runs the heap retention first, whatever the start method.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            assert initializer is montecarlo._retain_heap
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    # A chunk holds every truth of its K: two K values make two chunks.
    two_truths = dict(trials=1, truths=(Hypothesis.H1, Hypothesis.H3), workers=8)
    pooled = run_campaign(small_config(k_grid=(11, 12), **two_truths))
    assert sizes == [2] and (pooled.chunks, pooled.workers) == (2, 2)
    serial = run_campaign(small_config(**two_truths))
    assert sizes == [2] and (serial.chunks, serial.workers) == (1, 1)  # one chunk runs in process


def _marked_retain_heap():
    """The heap retention, leaving a mark named after the process."""
    (_MARKS / f"retain-{os.getpid()}").touch()
    return _RETAIN_HEAP()


def _marked_run_chunk(task):
    """A chunk, leaving a mark named after the process that ran it."""
    (_MARKS / f"chunk-{os.getpid()}").touch()
    return _RUN_CHUNK(task)


_MARKS, _RETAIN_HEAP, _RUN_CHUNK = None, montecarlo._retain_heap, montecarlo._run_chunk


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the marks need forked workers"
)
def test_heap_retention_runs_in_the_loop_and_in_every_worker(monkeypatch, tmp_path):
    # Forked workers inherit the marking functions; every process that ran a
    # chunk ran the retention first, and so did the campaign's own process.
    monkeypatch.setattr(sys.modules[__name__], "_MARKS", tmp_path)
    monkeypatch.setattr(montecarlo, "_retain_heap", _marked_retain_heap)
    monkeypatch.setattr(montecarlo, "_run_chunk", _marked_run_chunk)
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        montecarlo, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork)
    )
    config = small_config(trials=2, truths=(Hypothesis.H1, Hypothesis.H3), k_grid=(11, 12))
    for workers in (1, 2):
        report = run_campaign(replace(config, workers=workers))
        marks = {path.name for path in tmp_path.iterdir()}
        retained = {name.split("-")[1] for name in marks if name.startswith("retain-")}
        ran = {name.split("-")[1] for name in marks if name.startswith("chunk-")}
        assert str(os.getpid()) in retained and ran and ran <= retained
        assert len(retained - {str(os.getpid())}) == (0 if workers == 1 else 2)
        assert report.heap_retained is _RETAIN_HEAP()
        for path in tmp_path.iterdir():
            path.unlink()


_INHERITS_NUMPY_RANDOM = """
import functools, multiprocessing, sys
from concurrent.futures import ProcessPoolExecutor
from covstruct import montecarlo
from covstruct.criteria import Criterion, CriterionKind
from covstruct.scenario import ScenarioConfig
from covstruct.structures import Hypothesis
assert "numpy.random" not in sys.modules, "importing covstruct loaded numpy.random"
def chunk(task):
    assert "numpy.random" in sys.modules, "a worker's chunk found no numpy.random"
    return run_chunk(task)
run_chunk, montecarlo._run_chunk = montecarlo._run_chunk, chunk
fork = multiprocessing.get_context("fork")
montecarlo.ProcessPoolExecutor = functools.partial(ProcessPoolExecutor, mp_context=fork)
montecarlo.run_campaign(montecarlo.CampaignConfig(
    scenario=ScenarioConfig(n=5), k_grid=(11, 12), trials=2,
    criteria=(Criterion(CriterionKind.AIC),), truths=(Hypothesis.H1, Hypothesis.H3), workers=2))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs forked workers"
)
def test_pool_workers_inherit_numpy_random():
    # covstruct run forks its pool before its own process has drawn anything:
    # the workers' first chunks still find numpy.random loaded, and importing
    # the package does not load it.
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _INHERITS_NUMPY_RANDOM], env=env, check=True)


def test_without_mallopt_the_heap_is_left_alone(monkeypatch):
    # A C library without mallopt: the retention reports False and calls
    # nothing, and the campaign's CSV is byte-identical either way.
    config = small_config(truths=(Hypothesis.H2,), criteria=(AIC, parse_criterion("tic")))
    retained = run_campaign(config)
    glibc = hasattr(ctypes.CDLL(None), "mallopt")
    assert retained.heap_retained is glibc
    no_mallopt = types.SimpleNamespace(CDLL=lambda name: object())
    monkeypatch.setattr(montecarlo, "ctypes", no_mallopt)
    assert montecarlo._retain_heap() is False
    plain = run_campaign(config)
    assert plain.heap_retained is False
    assert render_results_csv(plain) == render_results_csv(retained)


def test_retention_sets_both_thresholds(monkeypatch):
    # M_TRIM_THRESHOLD (-1) at 256 MiB and M_MMAP_THRESHOLD (-3) at 32 MiB;
    # the outcome is True only when mallopt accepts both.
    calls, replies = [], {}

    def mallopt(param, value):
        calls.append((param.value, value.value))
        return replies[param.value]

    library = types.SimpleNamespace(mallopt=mallopt)
    stand_in = types.SimpleNamespace(CDLL=lambda name: library, c_int=ctypes.c_int)
    monkeypatch.setattr(montecarlo, "ctypes", stand_in)
    for trim, mmap, retained in ((1, 1, True), (1, 0, False), (0, 1, False)):
        replies.update({-1: trim, -3: mmap})
        calls.clear()
        assert montecarlo._retain_heap() is retained
        # A refused trim threshold leaves the mmap threshold dynamic: no pin.
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)][: 1 + trim]


def test_production_block_plan():
    # 2^15 entries: at most 126 trials of 13 x 20 and 56 of 13 x 45 per
    # chunk, a K's trials split evenly over as few chunks as that allows; at
    # 101 x 400 one trial exceeds the block and each chunk is one trial.
    def plan(n, k, trials, truths=(Hypothesis.H1,)):
        config = CampaignConfig(scenario=ScenarioConfig(n=n), k_grid=(k,), trials=trials,
                                truths=truths)
        return [segments for _, _, segments in montecarlo._chunks(config)]

    def sizes(*args):
        return [sum(hi - lo for _, lo, hi in segments) for segments in plan(*args)]

    assert montecarlo._BLOCK_ENTRIES == 1 << 15
    assert sizes(13, 20, 300) == [100, 100, 100]
    assert sizes(13, 45, 120) == [40, 40, 40]
    assert sizes(101, 400, 3) == [1, 1, 1]
    # Every truth of a K shares its chunks, in (truth, trial) order: 4 x 25
    # trials of 13 x 26 (96 per block) and 4 x 24 of 13 x 30 (84 per block).
    every = tuple(Hypothesis)
    assert plan(13, 26, 25, every) == [((1, 0, 25), (2, 0, 25)), ((3, 0, 25), (4, 0, 25))]
    assert plan(13, 30, 24, every) == [((1, 0, 24), (2, 0, 24)), ((3, 0, 24), (4, 0, 24))]
    assert sizes(13, 20, 24, every) == [96]
    assert plan(13, 45, 30, every) == [
        ((1, 0, 30), (2, 0, 10)), ((2, 10, 30), (3, 0, 20)), ((3, 20, 30), (4, 0, 30))
    ]


def test_csv_is_the_same_at_the_previous_block_size(monkeypatch):
    # A 130-trial cell at 13 x 20 spans two chunks at 2^15 and three at 2^14.
    config = CampaignConfig(
        scenario=table_case(1),
        k_grid=(20,),
        trials=130,
        criteria=tuple(map(parse_criterion, ("aic", "gic:2", "gic:4", "aicc", "asymptotic-bic"))),
        truths=(Hypothesis.H2,),
        master_seed=11,
        workers=1,
    )
    blocked = run_campaign(config)
    monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 1 << 14)
    smaller = run_campaign(config)
    assert (blocked.chunks, smaller.chunks) == (2, 3)
    assert render_results_csv(smaller) == render_results_csv(blocked)


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
