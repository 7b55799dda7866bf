"""One benchmark workload, run in a fresh interpreter; prints one JSON line.

``run.py`` starts this file once per measured run (and a few more times with
``--setup-only`` to sample set-up time); it is not meant to be run by hand.
Only the standard library is imported at module level, so the set-up clock
starts before ``covstruct`` and numpy are imported. With ``--pause`` the
timed interpreter prints ``PAUSE`` after each round and waits for a line on
stdin, so that ``run.py`` can sample set-up time between rounds; pauses do
not count towards ``--seconds``.

A run is a sequence of rounds. A campaign round is one complete campaign
whose master seed comes from the benchmark seed and the round index; a
classify round is one pass over every (dataset, approach, rule) triple. The
timed loop starts rounds until ``--seconds`` have passed (at least one).
Before it, whatever the seed, one untimed check round runs at the reference
seed and size, so that its output can be compared with ``reference/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Seed of the check round, whose outputs are stored under reference/.
DEFAULT_SEED = 1

RULES = ("aic", "gic:2", "gic:4", "tic", "aicc", "bic", "asymptotic-bic")
CLOSED_FORM_RULES = ("aic", "gic:2", "gic:4", "aicc", "asymptotic-bic")

# classify-one inputs: two datasets per truth at case 1, N = 13, K = 26.
CLASSIFY_K = 26
CLASSIFY_PER_TRUTH = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" (run_campaign), "cli-run" (cli run) or "classify" (cli classify)
    one_blas_thread: bool
    trials: int = 0  # trials per (truth, K) cell in one timed round
    check_trials: int = 0  # trials per cell in the check round (reference/ size)
    criteria: tuple = ()
    approaches: tuple = ()
    k_grid: tuple | None = None  # None keeps the package's default grid


# Timed sizes are set so that the time per trial is within a few percent of
# a campaign at the package's default of 1000 trials per cell (README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tic-bic-k26", "campaign", True, 25, 1, ("tic", "bic"), ("A",), (26,)),
        Workload("closed-form-grid", "campaign", True, 100, 10, CLOSED_FORM_RULES, ("A", "B")),
        Workload("cli-run-pool-1t", "cli-run", True, 24, 2),
        Workload("cli-run-pool", "cli-run", False, 4, 2),
        Workload("classify-one", "classify", True),
    )
}


def round_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def csv_tallies_ok(text: str, trials: int) -> bool:
    """Every CSV row's chosen counts plus failures equal the trials per cell."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return bool(rows) and all(
        sum(int(row[f"chosen_h{i}"]) for i in range(1, 5)) + int(row["failed"])
        == int(row["trials"]) == trials
        for row in rows
    )


def write_datasets(directory: Path, seed: int) -> None:
    """Draw the classify-one datasets from ``seed`` and write them as files."""
    import numpy as np

    from covstruct import sample_dataset, table_case, truth_instance, write_dataset
    from covstruct.structures import Hypothesis

    directory.mkdir(parents=True, exist_ok=True)
    scenario = table_case(1)
    for index in range(CLASSIFY_PER_TRUTH * len(Hypothesis)):
        truth = list(Hypothesis)[index % len(Hypothesis)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        dataset = sample_dataset(
            truth_instance(truth, scenario, rng), scenario, CLASSIFY_K, rng
        )
        write_dataset(dataset, directory / f"d{index}.txt")


@contextlib.contextmanager
def _quiet():
    """Capture what the CLI prints; the harness owns stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        yield sink


class CampaignRunner:
    """Serial ``run_campaign`` on a fixed configuration, one campaign per round."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from covstruct import CampaignConfig, parse_criterion, run_campaign, table_case
        from covstruct.reporting import render_results_csv
        from covstruct.structures import Hypothesis

        self.run_campaign = run_campaign
        self.render_csv = render_results_csv
        self.seed = seed
        self.check_trials = workload.check_trials
        self.pool_workers = 0
        self.workers = 1
        extra = {} if workload.k_grid is None else {"k_grid": workload.k_grid}
        self.config = CampaignConfig(
            scenario=table_case(1),
            trials=workload.trials,
            criteria=tuple(parse_criterion(c) for c in workload.criteria),
            approaches=workload.approaches,
            truths=tuple(Hypothesis),
            master_seed=round_seed(seed, 0),
            workers=1,
            **extra,
        )
        self.n = self.config.scenario.n

    def warm_up(self) -> None:
        self.run_campaign(
            replace(
                self.config,
                trials=1,
                truths=self.config.truths[:1],
                k_grid=self.config.k_grid[:1],
            )
        )

    def round(self, index: int, serial: bool = False, tracer=None, check: bool = False) -> dict:
        if check:
            config = replace(self.config, master_seed=round_seed(DEFAULT_SEED, 0),
                             trials=self.check_trials)
        else:
            config = replace(self.config, master_seed=round_seed(self.seed, index))
        run = self.run_campaign
        if tracer is not None:
            run = tracer.wrap("montecarlo.run_campaign", run)
        cpu = cpu_seconds()
        started = time.perf_counter()
        report = run(config)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu

        first = (config.criteria[0].key, config.approaches[0].value)
        cells = [report.cells[first + (int(t), k)] for t in config.truths for k in config.k_grid]
        text = self.render_csv(report)
        stats = report.cells.values()
        return {
            "trials": config.trials * len(cells),
            "wall_s": wall,
            "cpu_s": cpu,
            "samples_ms": [c.seconds * 1e3 / config.trials for c in cells],
            "classifications": sum(s.trials for s in stats),
            "failed": sum(s.failed for s in stats),
            "hypothesis_failures": len(report.failures),
            "ok": csv_tallies_ok(text, config.trials),
            "output": text,
        }


class CliRunRunner:
    """``covstruct run`` through ``cli.main``: pool, CSV, JSON and SVG output."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from covstruct import cli

        self.main = cli.main
        self.seed = seed
        self.trials = workload.trials
        self.check_trials = workload.check_trials
        self.workers = nproc()
        self.pool_workers = self.workers
        self.out = workdir / "run"
        self.warm_out = workdir / "warm-up"
        self.n = cli.table_case(1).n

    def _argv(self, seed: int, trials: int, workers: int, out: Path, *extra) -> list[str]:
        return [
            "run", "--case", "1", "--approach", "AB", "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers), "--out-dir", str(out), *extra,
        ]

    def warm_up(self) -> None:
        argv = self._argv(
            round_seed(self.seed, 0), 1, 1, self.warm_out,
            "--truths", "H1", "--K", "20", "--no-plots",
        )
        with _quiet():
            rc = self.main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up run exited {rc}")

    def round(self, index: int, serial: bool = False, tracer=None, check: bool = False) -> dict:
        workers = 1 if serial else self.workers
        seed, trials = round_seed(self.seed, index), self.trials
        if check:
            seed, trials = round_seed(DEFAULT_SEED, 0), self.check_trials
        argv = self._argv(seed, trials, workers, self.out)
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        cpu = cpu_seconds()
        started = time.perf_counter()
        with _quiet():
            rc = main(argv)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu

        text = (self.out / "results.csv").read_text(encoding="utf-8")
        mirror = json.loads((self.out / "results.json").read_text(encoding="utf-8"))
        cell_seconds = {}
        for cell in mirror["cells"]:
            cell_seconds.setdefault((cell["truth"], cell["K"]), cell["cell_seconds"])
        rows = list(csv.DictReader(io.StringIO(text)))
        return {
            "trials": trials * len(cell_seconds),
            "wall_s": wall,
            "cpu_s": cpu,
            "samples_ms": [s * 1e3 / trials for s in cell_seconds.values()],
            "classifications": sum(int(r["trials"]) for r in rows),
            "failed": sum(int(r["failed"]) for r in rows),
            "hypothesis_failures": len(mirror["failures"]),
            "ok": rc == 0 and csv_tallies_ok(text, trials),
            "output": text,
        }


class ClassifyRunner:
    """Closed loop, one client: ``covstruct classify`` on each dataset file."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from covstruct import cli

        self.main = cli.main
        self.pool_workers = 0
        self.workers = 1
        self.n = cli.table_case(1).n
        self.calls = self._calls(workdir / "data")
        self.check_calls = self._calls(workdir / "data-check")
        self.seen: dict[tuple, set] = {}

    @staticmethod
    def _calls(directory: Path) -> list[tuple]:
        paths = sorted(directory.glob("d*.txt"), key=lambda p: int(p.stem[1:]))
        if not paths:
            raise RuntimeError(f"no dataset files under {directory}")
        pairs = [(a, r) for a in ("A", "B") for r in RULES]
        return [(p, a, r) for p in paths for a, r in pairs]

    @staticmethod
    def _argv(path, approach, rule) -> list[str]:
        return ["classify", "--data", str(path), "--approach", approach, "--criterion", rule]

    def warm_up(self) -> None:
        path, _, _ = self.calls[0]
        with _quiet():
            rc = self.main(self._argv(path, "A", "tic"))
        if rc != 0:
            raise RuntimeError(f"warm-up classify exited {rc}")

    def round(self, index: int, serial: bool = False, tracer=None, check: bool = False) -> dict:
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        calls = self.check_calls if check else self.calls
        samples, chosen, failed, hyp_failures = [], {}, 0, 0
        ok = True
        cpu = cpu_seconds()
        started = time.perf_counter()
        for path, approach, rule in calls:
            argv = self._argv(path, approach, rule)
            t0 = time.perf_counter()
            with _quiet() as sink:
                rc = main(argv)
            samples.append((time.perf_counter() - t0) * 1e3)
            lines = sink.getvalue().splitlines()
            pick = lines[-1].split()[1] if lines and lines[-1].startswith("chosen:") else "?"
            hyp_failures += sum(1 for line in lines if ": failed (" in line)
            if rc == 2 and pick == "none":
                failed += 1
            elif rc != 0 or pick == "?":
                ok = False
            chosen[f"{path.stem}|{approach}|{rule}"] = pick
            self.seen.setdefault((path, approach, rule), set()).add(pick)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu
        return {
            "trials": len(calls),
            "wall_s": wall,
            "cpu_s": cpu,
            "samples_ms": samples,
            "classifications": len(calls),
            "failed": failed,
            "hypothesis_failures": hyp_failures,
            "ok": ok,
            "output": chosen,
        }

    def library_mismatches(self) -> int:
        """CLI choices that differ from ``classify`` on the same file, or vary."""
        from covstruct import classify, parse_criterion, read_dataset

        bad = 0
        for (path, approach, rule), picks in self.seen.items():
            card = classify(read_dataset(path), approach, parse_criterion(rule))
            expected = "none" if card.chosen is None else f"H{int(card.chosen)}"
            bad += len(picks - {expected}) + (expected not in picks)
        return bad


RUNNERS = {"campaign": CampaignRunner, "cli-run": CliRunRunner, "classify": ClassifyRunner}


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, asked through its C API."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(runner) -> dict:
    import multiprocessing

    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": nproc(),
        "workers": runner.workers,
        "start_method": multiprocessing.get_start_method(),
    }


PAUSE = "PAUSE"


def _pause() -> None:
    print(PAUSE, flush=True)
    sys.stdin.readline()


def measure(runner, seconds: float, trace: bool, workdir: Path, pause: bool = False) -> dict:
    """Run rounds for ``seconds``; with ``trace`` also replay them traced.

    Traced runs alternate an untraced and a traced round on the same data.
    A pooled workload's traced replay runs serially (its workers' spans would
    stay in the workers), after an untraced pooled round that gives CPU time.
    """
    from spans import Tracer, layer_metrics

    check = runner.round(0, check=True)
    deadline = time.perf_counter() + seconds
    primary, plain, traced = [], [], []
    tracer = Tracer() if trace else None
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        primary.append(runner.round(index))
        if trace:
            if runner.pool_workers:
                plain.append(runner.round(index, serial=True))
            else:
                plain.append(primary[-1])
            with tracer.installed():
                traced.append(runner.round(index, serial=True, tracer=tracer))
        index += 1
        if pause:
            paused = time.perf_counter()
            _pause()
            deadline += time.perf_counter() - paused

    out = {
        "rounds": [{k: v for k, v in r.items() if k != "output"} for r in primary],
        "check_output": check["output"],
        "timed_output": primary[0]["output"],
        "ok": all(r["ok"] for r in [check] + primary + plain + traced),
    }
    if trace:
        trials = sum(r["trials"] for r in traced)
        layers = layer_metrics(tracer, trials)
        layers["trace.overhead_share"] = statistics.median(
            t["wall_s"] / p["wall_s"] for t, p in zip(traced, plain)
        ) - 1.0
        layers["montecarlo.cpu_ms_per_trial"] = (
            sum(r["cpu_s"] for r in primary) * 1e3 / sum(r["trials"] for r in primary)
        )
        layers["montecarlo.hypothesis_failures"] = (
            sum(r["hypothesis_failures"] for r in primary)
            * 1e3 / sum(r["trials"] for r in primary)
        )
        out["layers"] = layers
        out["traced_trials"] = trials
        out["trace_missing"] = tracer.missing
        if runner.pool_workers:
            # Serial replays must reproduce the pooled CSV byte for byte.
            out["ok"] = out["ok"] and all(
                p["output"] == s["output"] for p, s in zip(primary, plain)
            )
        tracer.write(workdir / "trace.jsonl")
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Sum of peaks: this process plus every pool worker at the largest
        # worker peak (ru_maxrss is in KiB on Linux). Forked workers count
        # the pages they still share with this process, so those pages are
        # counted once per worker.
        out["peak_rss_mb"] = (own + runner.pool_workers * kids) / 1024.0
    if isinstance(runner, ClassifyRunner):
        out["library_mismatches"] = runner.library_mismatches()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trials", type=int, help="trials per cell in timed rounds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pause", action="store_true", help="pause after each round")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trials:
        workload = replace(workload, trials=args.trials)

    import covstruct

    if Path(covstruct.__file__).resolve().parent != SRC / "covstruct":
        raise RuntimeError(f"imported covstruct from {covstruct.__file__}, not from {SRC}")
    runner = RUNNERS[workload.kind](workload, args.seed, args.workdir)
    result = {}
    if args.trace:
        from covstruct.structures import Hypothesis, structure_model

        started = time.perf_counter()
        for h in Hypothesis:
            structure_model(h, runner.n)
        result["model_build_ms"] = (time.perf_counter() - started) * 1e3
    runner.warm_up()
    result["setup_s"] = time.perf_counter() - _STARTED
    if not args.setup_only:
        result["provenance"] = provenance(runner)
        result.update(measure(runner, args.seconds, args.trace, args.workdir, args.pause))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
