"""Campaign configuration and result serialization.

An experiment file is the one serialized form of a campaign config:
``parse_experiment`` reads it, ``dump_experiment`` writes it, the JSON
mirror echoes it and ``config_sha256`` hashes it.

The CSV is the stable machine-readable artifact: fixed versioned column set,
one row per (criterion, approach, truth, K) cell, floats via ``repr``, no
timestamps — identical configs and seeds produce byte-identical files. The
JSON mirror adds provenance that legitimately varies run to run (timings)
next to the config echo and its hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .criteria import DEFAULT_CRITERIA, parse_criterion
from .estimators import Approach
from .montecarlo import DEFAULT_K_GRID, CampaignConfig, PccReport
from .scenario import SourceParams, table_case
from .structures import Hypothesis

__all__ = [
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
    "ConfigError",
    "parse_experiment",
    "dump_experiment",
    "write_results_csv",
    "render_results_csv",
    "results_rows",
    "read_results_csv",
    "write_results_json",
    "config_sha256",
]

CSV_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema",
    "criterion",
    "approach",
    "truth",
    "K",
    "trials",
    "failed",
    "chosen_h1",
    "chosen_h2",
    "chosen_h3",
    "chosen_h4",
    "p_cc",
    "std_err",
)


class ConfigError(ValueError):
    """Bad experiment file or flag combination."""


# ---------------------------------------------------------------- experiment files

# The value type of each key (a bool is no number); absent keys keep defaults.
_NUMBER = (int, float)
_OPTIONAL_INT = (int, type(None))
_TOP_TYPES = {"schema_version": int, "case": int, "scenario": dict, "output": dict,
              "k_grid": list, "criteria": list, "approaches": list, "truths": list,
              "trials": int, "seed": int, "workers": _OPTIONAL_INT}
_SCENARIO_TYPES = {"n": int, "sources": list, "sigma_d": _NUMBER, "sigma_n2": _NUMBER,
                   "snr_db": _NUMBER, "f_v": _NUMBER, "freeze_channel_errors": bool,
                   "case_id": _OPTIONAL_INT}
_SOURCE_TYPES = dict.fromkeys(("cnr_db", "rho", "doppler"), _NUMBER)
_OUTPUT_TYPES = {"dir": str, "csv": str, "json": str, "plots": bool}
_TYPE_NAMES = {dict: "an object", list: "an array", int: "an integer", _NUMBER: "a number",
               bool: "true or false", _OPTIONAL_INT: "an integer or null", str: "a string"}


def _check_keys(data: dict, types: dict, where: str | None = None) -> None:
    """Reject unknown keys by name and values of the wrong type.

    ``where`` names the nested tree; None is the top level of the file.
    """
    inside = f" in {where}" if where else ""
    for key, value in data.items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r}{inside or ' in experiment file'}")
        kind = types[key]
        if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
            raise ConfigError(f"{key!r}{inside} must be {_TYPE_NAMES[kind]}, got {value!r}")


def parse_experiment(data: dict) -> tuple[CampaignConfig, dict]:
    """Build a campaign config plus output options from an experiment tree.

    Unknown keys are rejected by name. ``case`` selects the Table-defaults
    scenario (1 or 2); an explicit ``scenario`` tree overrides field by field.
    """
    if not isinstance(data, dict):
        raise ConfigError("experiment file must hold a JSON object")
    _check_keys(data, _TOP_TYPES)
    schema = data.get("schema_version", 1)
    if schema != 1:
        raise ConfigError(f"unsupported schema_version {schema!r}")

    case = data.get("case", 1)
    if case not in (1, 2):
        raise ConfigError(f"case must be 1 or 2, got {case!r}")
    scenario = table_case(case)

    sc_kwargs = dict(data.get("scenario", {}))
    _check_keys(sc_kwargs, _SCENARIO_TYPES, "'scenario'")
    if "sources" in sc_kwargs:
        sources = []
        for idx, entry in enumerate(sc_kwargs["sources"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"source #{idx} must be an object")
            _check_keys(entry, _SOURCE_TYPES, f"source #{idx}")
            try:
                sources.append(SourceParams(**entry))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"source #{idx}: {exc}") from None
        sc_kwargs["sources"] = tuple(sources)
        sc_kwargs.setdefault("case_id", None)
    if sc_kwargs:
        try:
            scenario = dataclasses.replace(scenario, **sc_kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario: {exc}") from None

    try:
        criteria = tuple(
            parse_criterion(c) for c in data.get("criteria", [c.key for c in DEFAULT_CRITERIA])
        )
        approaches = tuple(Approach.parse(a) for a in data.get("approaches", ["A", "B"]))
        truths = tuple(_parse_truth(t) for t in data.get("truths", ["H1", "H2", "H3", "H4"]))
        config = CampaignConfig(
            scenario=scenario,
            k_grid=tuple(data.get("k_grid", DEFAULT_K_GRID)),
            trials=data.get("trials", 1000),
            criteria=criteria,
            approaches=approaches,
            truths=truths,
            master_seed=data.get("seed", 1),
            workers=data.get("workers"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    output = dict(data.get("output", {}))
    _check_keys(output, _OUTPUT_TYPES, "'output'")
    return config, output


def dump_experiment(config: CampaignConfig, output: dict | None = None) -> dict:
    """Experiment tree that re-parses to an identical config."""
    sc = config.scenario
    tree = {
        "schema_version": 1,
        "scenario": {
            "n": sc.n,
            "sources": [dataclasses.asdict(s) for s in sc.sources],
            "sigma_d": sc.sigma_d,
            "sigma_n2": sc.sigma_n2,
            "snr_db": sc.snr_db,
            "f_v": sc.f_v,
            "freeze_channel_errors": sc.freeze_channel_errors,
            "case_id": sc.case_id,
        },
        "k_grid": list(config.k_grid),
        "trials": config.trials,
        "criteria": [c.key for c in config.criteria],
        "approaches": [a.value for a in config.approaches],
        "truths": [f"H{int(t)}" for t in config.truths],
        "seed": config.master_seed,
        "workers": config.workers,
    }
    if output:
        tree["output"] = dict(output)
    return tree


def _parse_truth(text) -> Hypothesis:
    if isinstance(text, Hypothesis):
        return text
    raw = str(text).strip().upper()
    if raw.startswith("H"):
        raw = raw[1:]
    try:
        return Hypothesis(int(raw))
    except ValueError:
        raise ValueError(f"bad hypothesis {text!r}; expected H1..H4") from None


# ---------------------------------------------------------------- results

def results_rows(report: PccReport) -> list[dict]:
    """The campaign CSV's rows, in deterministic cell order, as the typed
    dicts :func:`read_results_csv` reads back from it."""
    cells = ((key, report.cells[key]) for key in report.iter_keys())
    return [{
        "schema": CSV_SCHEMA_VERSION, "criterion": ckey, "approach": akey, "truth": f"H{truth}",
        "K": k, "trials": cell.trials, "failed": cell.failed, "chosen": tuple(cell.counts[:4]),
        "p_cc": cell.p_cc, "std_err": cell.std_err,
    } for (ckey, akey, truth, k), cell in cells]


def render_results_csv(report: PccReport) -> str:
    """The campaign CSV as a string, rows in deterministic cell order."""
    lines = [",".join(CSV_COLUMNS)]
    for row in results_rows(report):  # the columns to "failed", then chosen_h1..4
        fields = [*(row[name] for name in CSV_COLUMNS[:7]), *row["chosen"], row["p_cc"],
                  row["std_err"]]
        lines.append(",".join(map(str, fields)))  # str of a float is its repr
    return "\n".join(lines) + "\n"


def write_results_csv(report: PccReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_results_csv(report))


def read_results_csv(path) -> list[dict]:
    """Parse a campaign CSV back into typed row dicts.

    Raises ValueError on a header mismatch or malformed row; the message
    names the file and line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty results file")
    header = tuple(lines[0].split(","))
    if header != CSV_COLUMNS:
        raise ValueError(
            f"{path}: unexpected CSV header {header!r}; expected {CSV_COLUMNS!r}"
        )
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(
                f"{path}:{lineno}: expected {len(CSV_COLUMNS)} columns, got {len(parts)}"
            )
        try:
            row = {
                "schema": int(parts[0]),
                "criterion": parts[1],
                "approach": parts[2],
                "truth": parts[3],
                "K": int(parts[4]),
                "trials": int(parts[5]),
                "failed": int(parts[6]),
                "chosen": tuple(int(p) for p in parts[7:11]),
                "p_cc": float(parts[11]),
                "std_err": float(parts[12]),
            }
            parse_criterion(row["criterion"])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if row["schema"] != CSV_SCHEMA_VERSION:
            raise ValueError(
                f"{path}:{lineno}: unsupported schema {row['schema']}"
            )
        if row["truth"] not in ("H1", "H2", "H3", "H4"):
            raise ValueError(f"{path}:{lineno}: bad truth {row['truth']!r}")
        if row["approach"] not in ("A", "B"):  # it lands in plot file names
            raise ValueError(f"{path}:{lineno}: bad approach {row['approach']!r}")
        rows.append(row)
    return rows


def config_sha256(config: CampaignConfig) -> str:
    """Hash of the canonical experiment tree; stable across runs and machines."""
    canonical = json.dumps(dump_experiment(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_results_json(report: PccReport, path, package_version: str) -> None:
    """JSON mirror with provenance: config echo + hash, timings, failures, and
    the TIC ridge retries and stack fallbacks per (criterion, approach)."""
    cells = []
    for key in report.iter_keys():
        ckey, akey, truth, k = key
        stats = report.cells[key]
        cells.append(
            {
                "criterion": ckey,
                "approach": akey,
                "truth": f"H{truth}",
                "K": k,
                "trials": stats.trials,
                "failed": stats.failed,
                "chosen_counts": list(stats.counts[:4]),
                "p_cc": stats.p_cc,
                "std_err": stats.std_err,
                "cell_seconds": stats.seconds,
            }
        )
    fallbacks = []
    for criterion in report.config.criteria:
        for approach in report.config.approaches:
            retries, stack = report.fallbacks.get((criterion.key, approach.value), (0, 0))
            fallbacks.append(
                {
                    "criterion": criterion.key,
                    "approach": approach.value,
                    "ridge_retries": retries,
                    "stack_fallbacks": stack,
                }
            )
    payload = {
        "schema": CSV_SCHEMA_VERSION,
        "package_version": package_version,
        "config": dump_experiment(report.config),
        "config_sha256": config_sha256(report.config),
        "master_seed": report.config.master_seed,
        "elapsed_seconds": report.elapsed_seconds,
        "heap_retained": report.heap_retained,
        "chunks": report.chunks,
        "workers": report.workers,
        "cells": cells,
        "failures": [dataclasses.asdict(f) for f in report.failures],
        "fallbacks": fallbacks,
    }
    # One write: json.dump would write once per token.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload) + "\n")
