"""Smoke test of the benchmark command: every workload, briefly, both modes.

    python3 -m pytest perfbench/tests -q

Each workload runs for one second at two trials per cell, with tracing off
and on. The test checks the result line's shape, that every metric
BENCHMARK.json names is emitted with its unit, that the check round is
compared with reference/ whatever the seed, and that the traced layers never
add up to more than the traced end-to-end time. It takes about two minutes on
two cores.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workload import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
MEANING = json.loads((BENCH / "metrics.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    done = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--trials", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def _check_metrics(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _check_reference(workload: str, text: str) -> None:
    changed = "chosen_changed" if WORKLOADS[workload].kind == "classify" else "csv_cells_changed"
    assert re.search(rf"^{changed} +0 count ", text, re.MULTILINE)
    assert re.search(rf"^{changed} \(timed\) +n/a .* sha256 [0-9a-f]{{64}}$", text, re.MULTILINE)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, text = _result(workload, 1, 0)
    _check_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_share" in text and " share " in text
    _check_reference(workload, text)
    assert '"blas_threads"' in text
    assert re.search(r"^latency_ms_p50 +[0-9.e+-]+ ms ", text, re.MULTILINE)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_layers_fit_inside_traced_end_to_end(workload):
    result, text = _result(workload, 5, 1)
    _check_metrics(result, "per_layer")
    _check_reference(workload, text)
    v = {name: m["value"] for name, m in result["metrics"].items()}
    # Spans that run one after another under the root span of a trial; on
    # classify-one prepare_estimates runs inside classify and is not added.
    parts = ["scenario.draw_us", "criteria.classify_us", "datafmt.loads_us"]
    if WORKLOADS[workload].kind != "classify":
        parts.append("estimators.estimate_us")
    assert sum(v[p] for p in parts) <= v["trace.trial_us"] * (1 + 1e-9)
    for by_difference in ("criteria.self_us", "montecarlo.self_us", "cli.self_us"):
        assert v[by_difference] >= 0.0
    assert v["trace.trial_us"] > 0 and v["structures.model_build_ms"] > 0


def test_declared_units_match_the_metric_map():
    for section in ("end_to_end", "per_layer"):
        for metric in DECLARED[section]:
            assert MEANING[metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "tic-bic-k26", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
