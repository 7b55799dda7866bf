"""Seeded classification campaigns over truths x K-grid x criteria x approaches.

Each campaign cell (true hypothesis, K) draws ``trials`` independent
datasets; every dataset is classified by every configured (criterion,
approach) pair, so approach contrasts are paired by construction. Per-trial
RNG streams are keyed by (master seed, truth, K, trial index), which makes
the tallies independent of scheduling and worker count: any partition of the
trials sums to the same counts.

A campaign's unit of work is a chunk: one engine block of one K's trials
across every truth. Each K's trials, in (truth, trial) order, are split
evenly into as few chunks of at most ``_BLOCK_ENTRIES`` (2^15) snapshot
entries (N x K per trial) as hold them, or one trial per chunk when N K is
larger, so memory stays flat whatever N or K; a chunk may end mid-cell. The
serial loop and the pool run the same chunks, and each process keeps the
heap that a chunk frees for the next (:func:`_retain_heap`). Each trial
draws from its own stream, in a fixed order (channel errors, CUT phase, CUT
noise, secondary noise); only those draws run trial by trial, and each
cell's truths, factors and datasets are formed as arrays
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

import ctypes
import operator
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import DEFAULT_CRITERIA, Criterion, classify_stack
from .estimators import Approach, DatasetStack
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

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}

# Snapshot entries (N x K per trial) per chunk, from every truth of its K,
# so memory stays flat however large N K or the trial count is: 126 trials
# at N 13, K 20. Against 2^14 (1000-trial cells at K 20 and 45, 1 BLAS
# thread) 2^15 ran closed-form rules 21% faster and all 7 rules 12%, at +2
# and +5 MB per process; 2^16 added 12% and 5% at +3 and +11 MB.
_BLOCK_ENTRIES = 1 << 15


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
    non-failed trials. ``seconds`` is the cell's trial share of the worker
    seconds of each chunk that holds its trials.
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
    :class:`~covstruct.criteria.TrialScores`. A stack fallback (of an
    estimate's Cholesky or of X's LU) is counted once per stacked call, so
    that count depends on how the trials were blocked; the retries do not.
    ``chunks`` and ``workers``: the chunk count and the processes that ran
    them (1 serially). ``heap_retained``: see :func:`_retain_heap`.
    """

    config: CampaignConfig
    cells: dict[tuple[str, str, int, int], CellStats] = field(repr=False)
    failures: tuple[FailureRecord, ...] = ()
    elapsed_seconds: float = 0.0
    fallbacks: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)
    heap_retained: bool = False
    chunks: int = 0
    workers: int = 1

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


def _retain_heap() -> bool:
    """Keep this process's freed heap mapped for the next chunk: glibc's mallopt,
    M_TRIM_THRESHOLD (-1) at 256 MiB, and M_MMAP_THRESHOLD (-3) at its dynamic
    ceiling, 32 MiB, which the first freezes at 128 KiB: a block's larger arrays
    would be mmapped afresh at each use. Whether both took effect; else a no-op."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        return all(mallopt(ctypes.c_int(p), ctypes.c_int(v)) == 1
                   for p, v in ((-1, 256 << 20), (-3, 32 << 20)))
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False


@dataclass(frozen=True)
class _Streams:
    """Trials' streams as one generator, set to each trial's PCG64
    ``(state, inc)`` in ``states`` in turn as it is iterated."""

    states: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for state, inc in self.states:
            bit_generator.state = {**_PCG64_STATE, "state": {"state": state, "inc": inc}}
            yield rng


def _trial_streams(master_seed: int, truth: Hypothesis, k: int, lo: int, hi: int) -> _Streams:
    """The streams of trials [lo, hi) of one cell, trial t's bit-identical to
    ``default_rng(SeedSequence((master_seed, _TRIAL_STREAM, truth, k, t)))``.

    The keys share every uint32 word but the trial, which SeedSequence mixes
    in last, into the pool that numpy's SeedSequence of the shared words
    holds. That mix and ``generate_state(4, uint64)`` run over the chunk at
    once; PCG64's seeding (two steps of its 128-bit LCG) runs in Python ints.
    """
    u32 = np.uint32
    shared = np.random.SeedSequence((master_seed, _TRIAL_STREAM, int(truth), k))
    words = 3 + max(1, -(-int(master_seed).bit_length() // 32))  # the seed's, little-endian
    const = [_INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32]

    def hashmix(value, mult=_MULT_A):
        value = value ^ u32(const[0])
        const[0] = const[0] * mult & _MASK32
        value = value * u32(const[0])
        return value ^ value >> u32(16)

    def mix(x, y):
        out = u32(_MIX_L) * x - u32(_MIX_R) * y
        return out ^ out >> u32(16)

    trials = np.arange(lo, hi, dtype=u32)
    pool = [mix(p, hashmix(trials)) for p in shared.pool.astype(u32)[:, None]]
    const[0] = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=-1)
    states = []
    for s_hi, s_lo, q_hi, q_lo in state.astype("<u4").view("<u8").tolist():
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return _Streams(states)


def _frozen_truth_rng(master_seed: int, truth: Hypothesis):
    seq = np.random.SeedSequence((master_seed, _FROZEN_STREAM, int(truth)))
    return np.random.default_rng(seq)


def _chunks(config: CampaignConfig) -> list[tuple]:
    """Every chunk of the campaign as ``(config, K, segments)``, one engine
    block each: each K's trials over every truth, in (truth, trial) order,
    split evenly into as few chunks as the block allows. A segment
    ``(truth, lo, hi)`` holds trials [lo, hi) of one cell."""
    tasks, trials = [], config.trials
    for k in config.k_grid:
        total = len(config.truths) * trials
        count = -(-total // max(1, _BLOCK_ENTRIES // (config.scenario.n * k)))
        for c in range(count):
            start, stop = c * total // count, (c + 1) * total // count
            segments = tuple(
                (int(truth), max(start - i * trials, 0), min(stop - i * trials, trials))
                for i, truth in enumerate(config.truths)
                if start < (i + 1) * trials and i * trials < stop
            )
            tasks.append((config, k, segments))
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
    streams = _trial_streams(config.master_seed, truth, k, lo, hi)
    return draw_stack(truth, scenario, k, streams, shared)


def _run_chunk(args) -> tuple:
    """Worker body: classify one chunk's segments, each drawn from its own
    trials' streams (:func:`_draw_chunk`), as one stack. Returns K, the
    segments, each (criterion, approach)'s (segments, 5) tallies, the
    seconds per trial, the failure records and the fallback counts."""
    config, k, segments = args
    started = time.perf_counter()
    parts = [_draw_chunk(config, Hypothesis(truth), k, lo, hi) for truth, lo, hi in segments]
    stack = DatasetStack(*(np.concatenate([getattr(p, name) for p in parts])
                           for name in ("secondary", "cut", "steering")))
    del parts  # only the one stack goes on
    scores = classify_stack(stack, config.approaches, config.criteria)

    owners = [(truth, trial) for truth, lo, hi in segments for trial in range(lo, hi)]
    # Trial t counts at 5 s + its choice, s its segment: one bincount per rule.
    rows = 5 * np.repeat(np.arange(len(segments)), [hi - lo for _, lo, hi in segments])
    tallies: dict[tuple[str, str], np.ndarray] = {}
    fallbacks: dict[tuple[str, str], np.ndarray] = {}
    failures: list[FailureRecord] = []
    for approach, by_rule in scores.items():
        seen: set[tuple[tuple[int, int], str]] = set()
        for criterion, outcome in by_rule.items():
            key = (criterion.key, approach.value)
            tally = np.bincount(rows + outcome.chosen, minlength=rows[-1] + 5)
            tallies[key] = tally.reshape(-1, 5)
            fallbacks[key] = np.array([outcome.ridge_retries, outcome.stack_fallbacks])
            seen.update(outcome.failures.items())
        failures.extend(FailureRecord(owners[t][0], k, owners[t][1], approach.value, h, message)
                        for (h, t), message in seen)
    per_trial = (time.perf_counter() - started) / len(owners)
    return k, segments, tallies, per_trial, failures, fallbacks


def run_campaign(config: CampaignConfig, progress=None) -> PccReport:
    """Run every cell of the campaign and tally the outcome.

    ``progress`` (optional) receives a line of text once all chunks that
    hold a cell's trials are in, naming their count and the cell's worker
    seconds (:attr:`CellStats.seconds`). Deterministic for a fixed master
    seed: results do not depend on the worker count or on execution order.
    """
    started, heap_retained = time.perf_counter(), _retain_heap()
    tasks = _chunks(config)
    workers = min(_resolve_workers(config), len(tasks))
    per_cell = Counter((truth, k) for _, k, segments in tasks for truth, _, _ in segments)

    sums: dict[tuple[str, str, int, int], np.ndarray] = {}
    seconds: dict[tuple[int, int], float] = {}
    absorbed: Counter = Counter()
    failures: list[FailureRecord] = []
    fallbacks: dict[tuple[str, str], np.ndarray] = {}

    def _absorb(result):
        k, segments, tallies, per_trial, fails, chunk_fallbacks = result
        for key, tally in chunk_fallbacks.items():
            fallbacks[key] = fallbacks.get(key, 0) + tally
        failures.extend(fails)
        for row, (truth, lo, hi) in enumerate(segments):
            for (ckey, akey), tally in tallies.items():
                sums[ckey, akey, truth, k] = sums.get((ckey, akey, truth, k), 0) + tally[row]
            cell = (truth, k)
            seconds[cell] = seconds.get(cell, 0.0) + per_trial * (hi - lo)
            absorbed[cell] += 1
            if progress is not None and absorbed[cell] == per_cell[cell]:
                progress(
                    f"cell H{truth} K={k} done: {per_cell[cell]} chunk(s), "
                    f"{seconds[cell]:.3g}s worker time"
                )

    if workers == 1:
        for task in tasks:
            _absorb(_run_chunk(task))
    else:
        import numpy.random  # noqa: F401  # loaded once here; the forked workers inherit it
        with ProcessPoolExecutor(max_workers=workers, initializer=_retain_heap) as pool:
            for result in pool.map(_run_chunk, tasks):
                _absorb(result)

    cells: dict[tuple[str, str, int, int], CellStats] = {}
    for truth in config.truths:
        for k in config.k_grid:
            for criterion in config.criteria:
                for approach in config.approaches:
                    key = (criterion.key, approach.value, int(truth), k)
                    tally = sums[key]
                    effective = config.trials - int(tally[4])  # less the failed
                    p_cc = int(tally[int(truth) - 1]) / effective if effective else 0.0
                    std_err = float(np.sqrt(p_cc * (1.0 - p_cc) / effective)) if effective else 0.0
                    cells[key] = CellStats(counts=tuple(int(x) for x in tally), trials=config.trials,
                                           p_cc=p_cc, std_err=std_err, seconds=seconds[int(truth), k])

    return PccReport(
        config=config,
        cells=cells,
        failures=tuple(sorted(failures)),
        elapsed_seconds=time.perf_counter() - started,
        fallbacks={key: (int(tally[0]), int(tally[1])) for key, tally in fallbacks.items()},
        heap_retained=heap_retained,
        chunks=len(tasks),
        workers=workers,
    )


def confusion_histogram(report: PccReport, criterion, approach, k: int) -> np.ndarray:
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
