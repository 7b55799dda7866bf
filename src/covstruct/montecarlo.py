"""Seeded classification campaigns over truths x K-grid x criteria x approaches.

Each campaign cell (true hypothesis, K) draws ``trials`` independent
datasets; every dataset is classified by every configured (criterion,
approach) pair, so approach contrasts are paired by construction. Per-trial
RNG streams are keyed by (master seed, truth, K, trial index), which makes
the tallies independent of scheduling and worker count: any partition of the
trials sums to the same counts.

A campaign's unit of work is a chunk: one engine block of one cell, at
most ``_BLOCK_ENTRIES`` snapshot entries (N x K per trial), or one trial
when N K is larger, so memory stays flat whatever N or K. The serial loop
and the process pool run the same chunks. Each trial of a chunk draws from
its own stream, in a fixed order (channel errors, CUT phase, CUT noise,
secondary noise); only those draws run trial by trial, and the chunk's
truths, factors and datasets are formed as arrays
(:func:`covstruct.scenario.draw_stack`) and go to the classification
engine (:func:`covstruct.criteria.classify_stack`) as one validated stack.
Truths that draw nothing (H3, H4, or any truth with frozen channel errors)
are built once per chunk. The engine's outcome for a trial does not
depend on the stack it sits in, so neither the block size nor the worker
count changes a tally.

A trial where every hypothesis fails numerically under some rule lands in
that rule's "failed" bucket and leaves the P_cc denominator; partial
failures just shrink the argmin. Failures carry their trial index so any
single trial can be replayed.
"""

from __future__ import annotations

import operator
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import DEFAULT_CRITERIA, Criterion, classify_stack
from .estimators import Approach
from .scenario import ScenarioConfig, draw_stack, truth_instance
from .structures import Hypothesis

__all__ = [
    "CampaignConfig",
    "CellStats",
    "FailureRecord",
    "PccReport",
    "MissingCellError",
    "DEFAULT_K_GRID",
    "run_campaign",
    "confusion_histogram",
]

DEFAULT_K_GRID: tuple[int, ...] = (20, 25, 30, 35, 40, 45)

# Sub-stream tags keeping per-trial draws and frozen channel-error draws apart.
_TRIAL_STREAM = 1
_FROZEN_STREAM = 2

# Snapshot entries (N x K per trial) drawn and classified per chunk, so
# memory stays flat however large N K or the trial count is.
_BLOCK_ENTRIES = 1 << 14


class MissingCellError(KeyError):
    """The report has no cell for the requested (criterion, approach, truth, K)."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs besides elbow grease."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    trials: int = 1000
    criteria: tuple[Criterion, ...] = DEFAULT_CRITERIA
    approaches: tuple[Approach, ...] = (Approach.A, Approach.B)
    truths: tuple[Hypothesis, ...] = tuple(Hypothesis)
    master_seed: int = 1
    workers: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_grid", tuple(operator.index(k) for k in self.k_grid))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(
            self, "approaches", tuple(Approach.parse(a) for a in self.approaches)
        )
        object.__setattr__(
            self, "truths", tuple(Hypothesis(t) for t in self.truths)
        )
        if self.workers is not None:
            object.__setattr__(self, "workers", operator.index(self.workers))
            if self.workers < 1:
                raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.scenario.n % 2 == 0:
            raise ValueError(
                f"N must be odd, got N={self.scenario.n}: every campaign draws its "
                "cell under test on the symmetric steering vector, which is defined "
                "for odd N only"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")
        if not self.k_grid:
            raise ValueError("k_grid must not be empty")
        for k in self.k_grid:
            if k <= self.scenario.n:
                raise ValueError(
                    f"every K must exceed N={self.scenario.n}, got K={k}"
                )
        if not self.criteria:
            raise ValueError("need at least one criterion")
        if not self.approaches:
            raise ValueError("need at least one approach")
        if not self.truths:
            raise ValueError("need at least one truth hypothesis")
        for what, keys in (
            ("K", self.k_grid),
            ("criterion", [c.key for c in self.criteria]),
            ("approach", [a.value for a in self.approaches]),
            ("truth", [f"H{int(t)}" for t in self.truths]),
        ):
            seen = set()
            for key in keys:
                if key in seen:
                    raise ValueError(f"duplicate {what} {key!r}")
                seen.add(key)


@dataclass(frozen=True)
class CellStats:
    """Tally of one (criterion, approach, truth, K) cell.

    ``counts`` holds chosen-H1..H4 plus the all-failed bucket; the five
    entries sum to the trial count. ``p_cc`` divides correct choices by the
    non-failed trials.
    """

    counts: tuple[int, int, int, int, int]
    trials: int
    p_cc: float
    std_err: float
    seconds: float

    @property
    def failed(self) -> int:
        return self.counts[4]


@dataclass(frozen=True, order=True)
class FailureRecord:
    """One excluded hypothesis (or fully failed trial) with its provenance."""

    truth: int
    k: int
    trial: int
    approach: str
    hypothesis: int
    message: str


@dataclass(frozen=True)
class PccReport:
    """Campaign result: per-cell tallies plus the failure log.

    ``fallbacks`` maps (criterion key, approach) to the summed
    ``(ridge_retries, stack_fallbacks)`` of every block's
    :class:`~covstruct.criteria.TrialScores`. A stack fallback is counted
    once per stacked call, so that count depends on how the trials were
    blocked; the retries do not.
    """

    config: CampaignConfig
    cells: dict[tuple[str, str, int, int], CellStats] = field(repr=False)
    failures: tuple[FailureRecord, ...] = ()
    elapsed_seconds: float = 0.0
    fallbacks: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    def cell(
        self, criterion, approach, truth, k: int
    ) -> CellStats:
        key = _cell_key(criterion, approach, truth, k)
        try:
            return self.cells[key]
        except KeyError:
            raise MissingCellError(f"no campaign cell {key}") from None

    def p_cc(self, criterion, approach, truth, k: int) -> float:
        return self.cell(criterion, approach, truth, k).p_cc

    def iter_keys(self):
        """Cell keys in deterministic (criterion, approach, truth, K) order."""
        for criterion in self.config.criteria:
            for approach in self.config.approaches:
                for truth in self.config.truths:
                    for k in self.config.k_grid:
                        yield (criterion.key, approach.value, int(truth), k)


def _cell_key(criterion, approach, truth, k: int) -> tuple[str, str, int, int]:
    ckey = criterion.key if isinstance(criterion, Criterion) else str(criterion)
    akey = Approach.parse(approach).value
    return (ckey, akey, int(Hypothesis(truth)), int(k))


def _resolve_workers(config: CampaignConfig) -> int:
    """The configured count, else the CPUs this process may run on."""
    if config.workers is not None:
        return config.workers
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _trial_rng(master_seed: int, truth: Hypothesis, k: int, trial: int):
    seq = np.random.SeedSequence((master_seed, _TRIAL_STREAM, int(truth), k, trial))
    return np.random.default_rng(seq)


def _frozen_truth_rng(master_seed: int, truth: Hypothesis):
    seq = np.random.SeedSequence((master_seed, _FROZEN_STREAM, int(truth)))
    return np.random.default_rng(seq)


def _chunks(config: CampaignConfig) -> list[tuple]:
    """Every chunk of the campaign as ``(config, truth, K, lo, hi)``: trials
    [lo, hi) of one cell, one engine block each."""
    tasks = []
    for truth in config.truths:
        for k in config.k_grid:
            block = max(1, _BLOCK_ENTRIES // (config.scenario.n * k))
            tasks += [
                (config, int(truth), k, lo, min(lo + block, config.trials))
                for lo in range(0, config.trials, block)
            ]
    return tasks


def _draw_chunk(config: CampaignConfig, truth: Hypothesis, k: int, lo: int, hi: int):
    """The datasets of trials [lo, hi) of one cell, as one stack; each trial
    draws from its own stream (:func:`covstruct.scenario.draw_stack`)."""
    scenario = config.scenario
    shared = None  # a frozen truth is drawn once and serves every trial
    if scenario.freeze_channel_errors:
        shared = truth_instance(
            truth, scenario, _frozen_truth_rng(config.master_seed, truth)
        )
    rngs = [_trial_rng(config.master_seed, truth, k, trial) for trial in range(lo, hi)]
    return draw_stack(truth, scenario, k, rngs, shared)


def _run_chunk(args) -> tuple[dict, list, float, tuple[int, int], dict]:
    """Worker body: classify trials [lo, hi) of one cell, return raw tallies.

    The trials are drawn as one stack (:func:`_draw_chunk`) and go through
    the classification engine as that stack.
    """
    config, truth_value, k, lo, hi = args
    truth = Hypothesis(truth_value)
    started = time.perf_counter()

    stack = _draw_chunk(config, truth, k, lo, hi)
    scores = classify_stack(stack, config.approaches, config.criteria)

    counts: dict[tuple[str, str], np.ndarray] = {}
    fallbacks: dict[tuple[str, str], np.ndarray] = {}
    failures: list[FailureRecord] = []
    for approach, by_rule in scores.items():
        seen: set[tuple[tuple[int, int], str]] = set()
        for criterion, outcome in by_rule.items():
            key = (criterion.key, approach.value)
            counts[key] = np.bincount(outcome.chosen, minlength=5)
            fallbacks[key] = np.array([outcome.ridge_retries, outcome.stack_fallbacks])
            seen.update(outcome.failures.items())
        failures.extend(
            FailureRecord(
                truth=int(truth),
                k=k,
                trial=lo + t,
                approach=approach.value,
                hypothesis=h,
                message=message,
            )
            for (h, t), message in seen
        )
    return counts, failures, time.perf_counter() - started, (truth_value, k), fallbacks


def run_campaign(config: CampaignConfig, progress=None) -> PccReport:
    """Run every cell of the campaign and tally the outcome.

    ``progress`` (optional) receives a line of text once all chunks of a
    cell are in, naming the cell's chunk count and the summed worker
    seconds. Deterministic for a fixed master seed: results do not depend
    on the worker count or on execution order.
    """
    started = time.perf_counter()
    tasks = _chunks(config)
    workers = min(_resolve_workers(config), len(tasks))
    per_cell = Counter((truth, k) for _, truth, k, _, _ in tasks)

    sums: dict[tuple[str, str, int, int], np.ndarray] = {}
    seconds: dict[tuple[int, int], float] = {}
    absorbed: Counter = Counter()
    failures: list[FailureRecord] = []
    fallbacks: dict[tuple[str, str], np.ndarray] = {}

    def _absorb(result):
        counts, fails, elapsed, cell, chunk_fallbacks = result
        for key, tally in chunk_fallbacks.items():
            fallbacks[key] = fallbacks.get(key, 0) + tally
        for (ckey, akey), tally in counts.items():
            key = (ckey, akey, cell[0], cell[1])
            sums[key] = sums.get(key, 0) + tally
        failures.extend(fails)
        seconds[cell] = seconds.get(cell, 0.0) + elapsed
        absorbed[cell] += 1
        if progress is not None and absorbed[cell] == per_cell[cell]:
            truth, k = cell
            progress(
                f"cell H{truth} K={k} done: {per_cell[cell]} chunk(s), "
                f"{seconds[cell]:.1f}s worker time"
            )

    if workers == 1:
        for task in tasks:
            _absorb(_run_chunk(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_run_chunk, tasks):
                _absorb(result)

    cells: dict[tuple[str, str, int, int], CellStats] = {}
    for truth in config.truths:
        for k in config.k_grid:
            for criterion in config.criteria:
                for approach in config.approaches:
                    key = (criterion.key, approach.value, int(truth), k)
                    tally = sums[key]
                    failed = int(tally[4])
                    effective = config.trials - failed
                    correct = int(tally[int(truth) - 1])
                    p_cc = correct / effective if effective else 0.0
                    std_err = (
                        float(np.sqrt(p_cc * (1.0 - p_cc) / effective))
                        if effective
                        else 0.0
                    )
                    cells[key] = CellStats(
                        counts=tuple(int(x) for x in tally),
                        trials=config.trials,
                        p_cc=p_cc,
                        std_err=std_err,
                        seconds=seconds[(int(truth), k)],
                    )

    return PccReport(
        config=config,
        cells=cells,
        failures=tuple(sorted(failures)),
        elapsed_seconds=time.perf_counter() - started,
        fallbacks={key: (int(tally[0]), int(tally[1])) for key, tally in fallbacks.items()},
    )


def confusion_histogram(
    report: PccReport, criterion, approach, k: int
) -> np.ndarray:
    """4x4 row-normalized confusion matrix at one K.

    Rows follow the truth (H1..H4), columns the chosen hypothesis; each row
    sums to 1 over that cell's non-failed trials. Raises MissingCellError
    when any truth cell is absent.
    """
    out = np.zeros((4, 4))
    for truth in Hypothesis:
        stats = report.cell(criterion, approach, truth, k)
        effective = stats.trials - stats.failed
        if effective <= 0:
            continue
        out[int(truth) - 1] = np.asarray(stats.counts[:4], dtype=float) / effective
    return out
