"""covstruct benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload tic-bic-k26 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/`` and
needs nothing installed beyond numpy and scipy. Workloads are defined in
``workload.py``; ``--workload all`` runs every one of them in turn.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` replays the workload with spans around the public
covstruct calls (see ``spans.py``) and prints the per-layer metrics. Both
check the outputs: campaign tallies must sum to the trials of every cell,
and an untimed check round at the reference seed and size must reproduce the
stored outputs under ``reference/`` whatever ``--seed`` is
(``csv_cells_changed`` counts differing CSV fields). The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the metrics that BENCHMARK.json lists for the mode); ``attempted`` counts
classifications (a trial classified by one rule under one approach) and
``failed`` those whose every hypothesis failed.

Each workload runs in fresh interpreters started from here, with one BLAS
thread unless the workload says otherwise. Working files go to
``.perfbench/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import DEFAULT_SEED, PAUSE, WORKLOADS, write_datasets  # noqa: E402

# Fresh interpreters sampled for setup_s: the timed one, SETUP_EDGE set-up-only
# starts before it and as many after it, and SETUP_BETWEEN spread over the
# pauses between its rounds. The host's speed drifts over tens of seconds, so
# the samples cover the whole run.
SETUP_EDGE = 2
SETUP_BETWEEN = 8
# All interpreters of one workload must end within this many seconds.
WORKLOAD_LIMIT_S = 170
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(argv: list[str], env: dict, timeout: float, on_pause=None) -> dict:
    """Run one workload interpreter and parse its JSON line.

    Each PAUSE line the interpreter prints is answered with an empty line on
    its stdin once ``on_pause()`` has returned. The child gets its own
    process group so that a timeout also stops any pool workers it started.
    """
    deadline = time.monotonic() + timeout
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    last = ""
    try:
        with proc, selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise subprocess.TimeoutExpired(argv, timeout)
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == PAUSE:
                    on_pause()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                elif line.strip():
                    last = line
            proc.wait(max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{argv[2]} did not finish within {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[2]} exited {proc.returncode}")
    return json.loads(last)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def _reference_path(name: str) -> Path:
    suffix = ".json" if WORKLOADS[name].kind == "classify" else ".csv"
    return HERE / "reference" / f"{name}{suffix}"


def _as_text(output) -> str:
    return output if isinstance(output, str) else json.dumps(output, indent=1, sort_keys=True) + "\n"


def cells_changed(output: str, reference: str) -> int:
    """Comma-separated fields that differ between two outputs, line by line
    in order; a field only one side has counts as changed."""
    changed = 0
    for ours, theirs in zip_longest(output.splitlines(), reference.splitlines(), fillvalue=""):
        x, y = ours.split(","), theirs.split(",")
        changed += sum(1 for a, b in zip_longest(x, y) if a != b)
    return changed


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} median {q2:.4g} q3 {q3:.4g}, n={len(values)}"


def run_workload(name: str, seed: int, seconds: int, trace: bool, write_reference: bool,
                 trials: int | None = None):
    """Run one workload; returns (lines to print, result object)."""
    spec = WORKLOADS[name]
    workdir = ROOT / ".perfbench" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if spec.one_blas_thread:
        env.update(BLAS_ONE_THREAD)
    if spec.kind == "classify":
        write_datasets(workdir / "data", seed)
        write_datasets(workdir / "data-check", DEFAULT_SEED)

    base = [sys.executable, str(HERE / "workload.py"), name,
            "--seed", str(seed), "--workdir", str(workdir)]
    if trials:
        base += ["--trials", str(trials)]
    limit = time.monotonic() + WORKLOAD_LIMIT_S

    def child(argv, on_pause=None):
        return _child(argv, env, max(1.0, limit - time.monotonic()), on_pause)

    def sample_setup():
        return child(base + ["--setup-only"])["setup_s"]

    timed = base + ["--seconds", str(seconds)]
    if trace:
        setups = []
        result = child(timed + ["--trace"])
    else:
        setups = [sample_setup() for _ in range(SETUP_EDGE)]
        between, started, paused = [], time.monotonic(), 0.0

        def on_pause():
            nonlocal paused
            pause_started = time.monotonic()
            share = min(1.0, (pause_started - started - paused) / seconds)
            while len(between) < math.ceil(SETUP_BETWEEN * share):
                between.append(sample_setup())
            paused += time.monotonic() - pause_started

        result = child(timed + ["--pause"], on_pause)
        between += [sample_setup() for _ in range(SETUP_BETWEEN - len(between))]
        setups += between + [result["setup_s"]] + [sample_setup() for _ in range(SETUP_EDGE)]

    rounds = result["rounds"]
    attempted = sum(r["classifications"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = bool(result["ok"])
    provenance = dict(result["provenance"], git_commit=_git_commit(), workload=name,
                      seed=seed, seconds=seconds, trace=int(trace))
    lines = [f"provenance {json.dumps(provenance, sort_keys=True)}"]

    label = "chosen_changed" if spec.kind == "classify" else "csv_cells_changed"
    output = _as_text(result["check_output"])
    reference = _reference_path(name)
    if write_reference:
        reference.parent.mkdir(exist_ok=True)
        reference.write_text(output, encoding="utf-8")
        lines.append(f"wrote {reference.relative_to(ROOT)}")
    changed = cells_changed(output, reference.read_text(encoding="utf-8"))
    correct = correct and changed == 0
    size = "" if spec.kind == "classify" else f", {spec.check_trials} trials per cell"
    lines.append(f"{label:<28} {changed} count (untimed check round: seed {DEFAULT_SEED}{size}, "
                 f"against {reference.relative_to(ROOT)})")
    digest = hashlib.sha256(_as_text(result["timed_output"]).encode()).hexdigest()
    lines.append(f"{label + ' (timed)':<28} n/a (no stored reference at the timed size); "
                 f"timed round-0 output sha256 {digest}")
    if "library_mismatches" in result:
        correct = correct and result["library_mismatches"] == 0
        lines.append(f"{'library_mismatches':<28} {result['library_mismatches']} count "
                     "(CLI choices that differ from covstruct.classify on the same file)")
    lines.append(f"{'failed_share':<28} {failed / attempted:.6g} share "
                 f"({failed} of {attempted} classifications in the all-failed bucket)")

    if trace:
        values = result["layers"]
        values["structures.model_build_ms"] = result["model_build_ms"]
        notes = {}
        if result["trace_missing"]:
            lines.append("untraced (not in this version): " + ", ".join(result["trace_missing"]))
        lines.append(f"traced trials {result['traced_trials']}; rounds {len(rounds)}")
        section = "per_layer"
    else:
        rates = [r["trials"] / r["wall_s"] for r in rounds]
        samples = [s for r in rounds for s in r["samples_ms"]]
        if spec.kind == "classify":
            # Every call is a request: percentiles over all of the run's calls.
            cuts = statistics.quantiles(samples, n=100)
            p50, p99 = cuts[49], cuts[98]
            beyond = sum(1 for s in samples if s > p99)
            unit, p99_note = "call", f"{beyond} samples beyond p99"
        else:
            # A round is one campaign: percentiles over its cells, then the
            # median over rounds, so that one round the host slowed does not
            # set the figure.
            per_round = [statistics.quantiles(r["samples_ms"], n=100) for r in rounds]
            p50 = statistics.median(c[49] for c in per_round)
            p99 = statistics.median(c[98] for c in per_round)
            unit = "(truth, K) cell, ms per trial; median over rounds of the round's percentile"
            p99_note = f"{len(rounds)} rounds of {len(rounds[0]['samples_ms'])} cells"
        values = {
            "trials_per_s": sum(r["trials"] for r in rounds) / sum(r["wall_s"] for r in rounds),
            "latency_ms_p50": p50,
            "latency_ms_p99": p99,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "trials_per_s": f"{sum(r['trials'] for r in rounds)} trials in {len(rounds)} rounds; "
                            f"per-round rate {_quartiles(rates)}",
            "latency_ms_p50": f"per {unit}; {len(samples)} samples",
            "latency_ms_p99": p99_note,
            "setup_s": f"median of {len(setups)} fresh interpreters ({_quartiles(setups)})",
            "peak_rss_mb": "this process" + (
                f" + {result['provenance']['workers']} pool workers at the largest "
                "worker peak, pages shared with this process counted per worker"
                if spec.kind == "cli-run" else ""),
        }
        section = "end_to_end"

    meaning = json.loads((HERE / "metrics.json").read_text())
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    for metric, value in values.items():
        note = notes.get(metric, "")
        if meaning[metric].get("by_difference"):
            note = ("by difference; " + note).rstrip("; ")
        if metric not in declared:
            note = ("not in BENCHMARK.json; " + note).rstrip("; ")
        line = f"{metric:<28} {value:.6g} {meaning[metric]['unit']}"
        lines.append(line + (f"  ({note})" if note else ""))
    metrics = {m: {"value": float(values[m]), "unit": unit} for m, unit in declared.items()}
    lines.append(f"correct {str(correct).lower()}")
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covstruct benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="trials per cell in timed campaign rounds (smoke tests)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the check round's outputs under reference/")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    if not (ROOT / "src" / "covstruct" / "__init__.py").is_file():
        print(f"error: no covstruct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            print(f"== {name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
            lines, results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.write_reference, args.trials
            )
            print("\n".join(lines), flush=True)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
