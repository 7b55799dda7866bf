"""Result serialization: deterministic CSV, JSON mirror, config round trip."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import covstruct
import covstruct.criteria as criteria_module

from covstruct.criteria import parse_criterion
from covstruct.estimators import Approach
from covstruct.montecarlo import CampaignConfig, run_campaign
from covstruct.reporting import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    ConfigError,
    config_sha256,
    dump_experiment,
    parse_experiment,
    read_results_csv,
    render_results_csv,
    results_rows,
    write_results_csv,
    write_results_json,
)
from covstruct.scenario import ScenarioConfig, table_case
from covstruct.structures import Hypothesis

from conftest import with_singular_schur

GOLDEN_HEADER = (
    "schema,criterion,approach,truth,K,trials,failed,"
    "chosen_h1,chosen_h2,chosen_h3,chosen_h4,p_cc,std_err"
)
GOLDEN_FIRST_ROW = "1,aic,A,H2,11,4,0,1,3,0,0,0.75,0.21650635094610965"


def golden_config():
    return CampaignConfig(
        scenario=ScenarioConfig(n=5),
        k_grid=(11,),
        trials=4,
        criteria=(parse_criterion("aic"), parse_criterion("asymptotic-bic")),
        approaches=(Approach.A, Approach.B),
        truths=(Hypothesis.H2,),
        master_seed=7,
        workers=1,
    )


@pytest.fixture(scope="module")
def golden_report():
    return run_campaign(golden_config())


def test_csv_header_and_seeded_row_are_pinned(golden_report):
    lines = render_results_csv(golden_report).splitlines()
    assert lines[0] == GOLDEN_HEADER == ",".join(CSV_COLUMNS)
    assert lines[1] == GOLDEN_FIRST_ROW
    assert len(lines) == 1 + 2 * 2 * 1 * 1  # criteria x approaches x truths x K


def test_csv_file_matches_render_and_reruns_identically(tmp_path, golden_report):
    path = tmp_path / "results.csv"
    write_results_csv(golden_report, path)
    assert path.read_text(encoding="utf-8") == render_results_csv(golden_report)
    rerun = run_campaign(golden_config())
    again = tmp_path / "again.csv"
    write_results_csv(rerun, again)
    assert again.read_bytes() == path.read_bytes()


def test_csv_round_trip_recovers_cells(tmp_path, golden_report):
    path = tmp_path / "results.csv"
    write_results_csv(golden_report, path)
    rows = read_results_csv(path)
    assert len(rows) == len(golden_report.cells)
    for row in rows:
        cell = golden_report.cell(
            row["criterion"], row["approach"], int(row["truth"][1]), row["K"]
        )
        assert row["schema"] == CSV_SCHEMA_VERSION
        assert row["chosen"] == cell.counts[:4]
        assert row["failed"] == cell.failed
        assert row["p_cc"] == cell.p_cc
        assert row["std_err"] == cell.std_err
    # The report's own rows are what the CSV reads back as: `run` plots them.
    assert results_rows(golden_report) == rows


def test_csv_reader_rejects_malformed_input(tmp_path, golden_report):
    path = tmp_path / "results.csv"
    write_results_csv(golden_report, path)
    text = path.read_text(encoding="utf-8")

    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty results"):
        read_results_csv(empty)

    bad_header = tmp_path / "header.csv"
    bad_header.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_results_csv(bad_header)

    lines = text.splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join([lines[0], "1,aic,A"]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="short.csv:2.*columns"):
        read_results_csv(short)

    truth = tmp_path / "truth.csv"
    truth.write_text(
        "\n".join([lines[0], lines[1].replace("H2", "H9")]) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="bad truth"):
        read_results_csv(truth)

    # The approach lands in plot file names, so only A and B pass; the
    # criterion must parse.
    for name, column, value, match in (
        ("approach", 2, "A/x", "approach.csv:2: bad approach 'A/x'"),
        ("dots", 2, "..", r"dots.csv:2: bad approach '\.\.'"),
        ("criterion", 1, "nope", "criterion.csv:2: unknown criterion 'nope'"),
    ):
        parts = lines[1].split(",")
        parts[column] = value
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([lines[0], ",".join(parts)]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            read_results_csv(path)

    schema = tmp_path / "schema.csv"
    schema.write_text(
        "\n".join([lines[0], "9" + lines[1][1:]]) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="unsupported schema"):
        read_results_csv(schema)


def test_config_round_trip():
    config = CampaignConfig(
        scenario=table_case(2, n=9, snr_db=7.5, f_v=0.02),
        k_grid=(12, 20),
        trials=250,
        criteria=tuple(parse_criterion(c) for c in ("gic:2", "tic", "bic")),
        approaches=(Approach.B,),
        truths=(Hypothesis.H1, Hypothesis.H3),
        master_seed=99,
        workers=3,
    )
    data = dump_experiment(config, {"dir": "out"})
    for tree in (data, json.loads(json.dumps(data))):  # JSON-serializable as-is
        assert parse_experiment(tree) == (config, {"dir": "out"})
    assert parse_experiment(dump_experiment(config)) == (config, {})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_experiment({"bogus": 1})


def test_config_sha_is_stable_and_sensitive():
    base = golden_config()
    sha = config_sha256(base)
    assert len(sha) == 64 and int(sha, 16) >= 0
    assert config_sha256(golden_config()) == sha
    reparsed, _ = parse_experiment(json.loads(json.dumps(dump_experiment(base))))
    assert config_sha256(reparsed) == sha
    bumped = CampaignConfig(
        scenario=base.scenario,
        k_grid=base.k_grid,
        trials=base.trials,
        criteria=base.criteria,
        approaches=base.approaches,
        truths=base.truths,
        master_seed=base.master_seed + 1,
        workers=base.workers,
    )
    assert config_sha256(bumped) != sha
    assert config_sha256(parse_experiment(dump_experiment(bumped))[0]) != sha


def test_json_mirror_carries_provenance(tmp_path, golden_report):
    path = tmp_path / "results.json"
    write_results_json(golden_report, path, package_version="0.1.0")
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1  # compact, from json's C encoder
    payload = json.loads(text)
    assert payload["schema"] == CSV_SCHEMA_VERSION
    assert payload["package_version"] == "0.1.0"
    assert payload["master_seed"] == 7
    assert payload["config_sha256"] == config_sha256(golden_report.config)
    assert parse_experiment(payload["config"]) == (golden_report.config, {})
    assert len(payload["cells"]) == len(golden_report.cells)
    first = payload["cells"][0]
    assert first["criterion"] == "aic" and first["approach"] == "A"
    assert first["chosen_counts"] == [1, 3, 0, 0]
    assert "cell_seconds" in first and "elapsed_seconds" in payload
    assert payload["heap_retained"] is golden_report.heap_retained
    # One 4-trial cell is one chunk, and one chunk runs in process.
    assert payload["chunks"] == golden_report.chunks == 1
    assert payload["workers"] == golden_report.workers == 1
    assert payload["failures"] == []


def test_json_mirror_sums_ridge_retries_and_fallbacks(tmp_path, monkeypatch):
    # One singular Schur block per (truth, K) block under H2, whose
    # estimates also report one fallback: each of the two cells adds one TIC
    # ridge retry under approach A and one stack fallback to every (rule,
    # approach).
    singular = with_singular_schur(criteria_module.information_terms, Hypothesis.H2, 0)
    prepare = criteria_module.prepare_estimates

    def patched(stack, approach, criteria, hypothesis):
        estimate = prepare(stack, approach, criteria, hypothesis)
        if hypothesis is not Hypothesis.H2:
            return estimate
        return dataclasses.replace(estimate, fallbacks=1)

    monkeypatch.setattr(criteria_module, "information_terms", singular)
    monkeypatch.setattr(criteria_module, "prepare_estimates", patched)
    config = CampaignConfig(
        scenario=ScenarioConfig(n=5),
        k_grid=(11, 12),
        trials=3,
        criteria=(parse_criterion("tic"), parse_criterion("bic")),
        approaches=(Approach.A, Approach.B),
        truths=(Hypothesis.H2,),
        master_seed=7,
        workers=1,
    )
    path = tmp_path / "results.json"
    write_results_json(run_campaign(config), path, package_version="0.1.0")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["fallbacks"] == [
        {"criterion": "tic", "approach": "A", "ridge_retries": 2, "stack_fallbacks": 2},
        {"criterion": "tic", "approach": "B", "ridge_retries": 0, "stack_fallbacks": 2},
        {"criterion": "bic", "approach": "A", "ridge_retries": 0, "stack_fallbacks": 2},
        {"criterion": "bic", "approach": "B", "ridge_retries": 0, "stack_fallbacks": 2},
    ]


def test_package_imports_without_scipy():
    src = str(Path(covstruct.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import covstruct, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_public_names_resolve():
    """Every name in ``__all__`` of the package and each of its modules exists."""
    names = ["covstruct"] + [
        f"covstruct.{info.name}" for info in pkgutil.iter_modules(covstruct.__path__)
    ]
    assert "covstruct.reporting" in names
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
        assert len(set(exported)) == len(exported), name
