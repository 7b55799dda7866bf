"""Command-line front end: run campaigns, classify snapshot files, plot curves.

Subcommands::

    covstruct run       configure and run a Monte Carlo campaign
    covstruct classify  classify one dataset file with one rule
    covstruct plot      re-render P_cc-vs-K SVGs from a results CSV

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
``run`` builds its campaign from one experiment tree: the --config file (or
an empty tree) with each given flag written over its key. So every setting
is the flag, else the file's key, else the default (the case preset for the
scenario, the CPUs the process may run on for ``workers``, ``results`` for
--out-dir).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .criteria import classify, parse_criterion
from .datafmt import read_dataset
from .estimators import Approach
from .montecarlo import CampaignConfig, PccReport, run_campaign
from .reporting import (
    ConfigError,
    config_sha256,
    parse_experiment,
    read_results_csv,
    results_rows,
    write_results_csv,
    write_results_json,
)
from .scenario import table_case  # noqa: F401  (perfbench reads cli.table_case)
from .structures import Hypothesis
from .svgplot import render_pcc_svg

__all__ = ["main"]


# ---------------------------------------------------------------- run

def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run a Monte Carlo classification campaign")
    p.add_argument("--config", type=Path, help="experiment file (JSON)")
    p.add_argument("--case", type=int, choices=(1, 2), help="study case preset")
    p.add_argument("--n", type=int, help="number of channels N")
    p.add_argument("--K", dest="k_grid", help="comma-separated K grid, e.g. 26,39")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per cell")
    p.add_argument("--criteria", help="comma-separated rules, e.g. aic,gic:2,tic")
    p.add_argument("--approach", choices=("A", "B", "AB"), help="approach(es) to evaluate")
    p.add_argument("--truths", help="comma-separated truths, e.g. H1,H3")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--snr-db", type=float, help="CUT signal-to-noise ratio in dB")
    p.add_argument("--f-v", type=float, help="steering Doppler")
    p.add_argument("--sigma-d", type=float, help="channel-error std")
    p.add_argument("--workers", type=int, help="worker process count")
    p.add_argument("--freeze-channel-errors", action="store_true",
                   help="draw the channel-error matrix once per truth instead of per trial")
    p.add_argument("--out-dir", help="output directory (default results)")
    p.add_argument("--no-plots", action="store_true", help="skip SVG output")
    p.set_defaults(func=cmd_run)


def _build_run_config(args) -> tuple[CampaignConfig, dict]:
    """Parse the experiment file's tree (or ``{}``) with each given flag written in."""
    tree = {}
    if args.config is not None:
        try:
            tree = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
    if isinstance(tree, dict):  # anything else gets parse_experiment's message
        _write_flags(tree, args)
    return parse_experiment(tree)


def _write_flags(tree: dict, args) -> None:
    """Set the experiment key of every ``run`` flag that was given."""
    tree.update(_given(
        case=args.case, trials=args.trials, seed=args.seed, workers=args.workers,
        k_grid=_split_flag(args.k_grid, "--K", int),
        criteria=_split_flag(args.criteria, "--criteria"),
        truths=_split_flag(args.truths, "--truths"),
        approaches={"A": ["A"], "B": ["B"], "AB": ["A", "B"]}.get(args.approach),
    ))
    for where, values in (
        ("scenario", _given(n=args.n, snr_db=args.snr_db, f_v=args.f_v, sigma_d=args.sigma_d,
                            freeze_channel_errors=args.freeze_channel_errors or None)),
        ("output", _given(dir=args.out_dir, plots=False if args.no_plots else None)),
    ):
        if values and isinstance(tree.setdefault(where, {}), dict):
            tree[where].update(values)


def _given(**values) -> dict:
    return {key: value for key, value in values.items() if value is not None}


def _split_flag(text: str | None, flag: str, item=str) -> list | None:
    if text is None:
        return None
    try:
        items = [item(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if not items:
        raise ConfigError(f"empty {flag} list")
    return items


def _directory(path: Path, what: str) -> Path:
    """``path``, unless it or a parent exists as something other than a directory."""
    for part in (path, *path.parents):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"{what}: {str(part)!r} is not a directory")
    return path


def _output_paths(output: dict) -> tuple[Path, Path, Path, Path | None]:
    """Output directory, CSV and JSON paths, and the plot directory (None
    without plots), checked before a campaign runs."""
    out_dir = _directory(Path(output.get("dir", "results")), "--out-dir / output.dir")
    plot_dir = _directory(out_dir / "plots", "output.plots") if output.get("plots", True) else None
    paths = []
    for key, default in (("csv", "results.csv"), ("json", "results.json")):
        name = output.get(key, default)
        path = out_dir / name
        if Path(name).name in ("", "..") or path.is_dir():
            raise ConfigError(f"output.{key}: {name!r} does not name a file")
        if path.parent != out_dir and not path.parent.is_dir():
            raise ConfigError(f"output.{key}: directory {str(path.parent)!r} does not exist")
        paths.append(path)
    return out_dir, paths[0], paths[1], plot_dir


def cmd_run(args) -> int:
    config, output = _build_run_config(args)
    out_dir, csv_path, json_path, plot_dir = _output_paths(output)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(
        f"campaign: {len(config.truths)} truths x {len(config.k_grid)} K values x "
        f"{config.trials} trials, criteria [{', '.join(c.key for c in config.criteria)}], "
        f"approaches [{', '.join(a.value for a in config.approaches)}], "
        f"seed {config.master_seed}",
        file=sys.stderr,
    )
    try:
        report = run_campaign(config, progress=lambda msg: print(msg, file=sys.stderr))
    except Exception as exc:  # campaign errors are runtime failures
        print(f"error: campaign failed: {exc}", file=sys.stderr)
        return 2

    write_results_csv(report, csv_path)
    write_results_json(report, json_path, __version__)
    written = [str(csv_path), str(json_path)]
    if plot_dir is not None:
        written += _write_plots(results_rows(report), plot_dir)

    print(f"config sha256 {config_sha256(config)} seed {config.master_seed}")
    _print_summary(report)
    print("wrote " + " ".join(written))
    return 0


def _print_summary(report: PccReport) -> None:
    config = report.config
    k_show = config.k_grid[-1]
    print(f"P_cc at K={k_show}:")
    header = "criterion/approach".ljust(22) + "".join(
        f"H{int(t)}".rjust(8) for t in config.truths
    )
    print(header)
    for criterion in config.criteria:
        for approach in config.approaches:
            cells = [
                report.p_cc(criterion, approach, truth, k_show)
                for truth in config.truths
            ]
            name = f"{criterion.key}/{approach.value}"
            print(name.ljust(22) + "".join(f"{p:8.3f}" for p in cells))
    if report.failures:
        print(f"{len(report.failures)} hypothesis failures logged (see JSON mirror)")


def _write_plots(rows: list[dict], out_dir: Path) -> list[str]:
    """One SVG per (truth, approach) from results rows (:func:`results_rows`
    of a report, or :func:`read_results_csv` of its CSV); returns the paths.

    Criteria, truths and approaches keep their order of first appearance in
    the rows, so colors follow the campaign's criterion order; each polyline
    runs K-ascending.
    """
    def first_seen(column: str) -> list[str]:
        return list(dict.fromkeys(row[column] for row in rows))

    points_by_key: dict[tuple[str, str, str], list] = {}
    for row in rows:
        key = (row["criterion"], row["truth"], row["approach"])
        points_by_key.setdefault(key, []).append((row["K"], row["p_cc"]))
    criterion_keys = first_seen("criterion")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for truth in first_seen("truth"):
        for approach in first_seen("approach"):
            series = []
            for ckey in criterion_keys:
                points = sorted(points_by_key.get((ckey, truth, approach), ()))
                if points:
                    series.append((ckey, points))
                else:
                    print(
                        f"warning: no cells for criterion {ckey}, truth {truth}, "
                        f"approach {approach}; polyline omitted",
                        file=sys.stderr,
                    )
            if not series:
                continue
            svg = render_pcc_svg(series, f"P_cc vs K, truth {truth}, approach {approach}")
            path = out_dir / f"pcc_{truth.lower()}_{approach.lower()}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(str(path))
    return written


# ---------------------------------------------------------------- classify

def _add_classify_parser(sub) -> None:
    p = sub.add_parser("classify", help="classify one dataset file")
    p.add_argument("--data", type=Path, required=True, help="dataset file (covstruct-data v1)")
    p.add_argument("--approach", required=True, choices=("A", "B"))
    p.add_argument("--criterion", required=True, help="e.g. tic or gic:2")
    p.add_argument("--json", type=Path, help="write the scorecard as JSON here")
    p.set_defaults(func=cmd_classify)


def cmd_classify(args) -> int:
    if args.json is not None and (args.json.is_dir() or not args.json.parent.is_dir()):
        raise ConfigError(f"--json: {str(args.json)!r} is not a file in an existing directory")
    criterion = parse_criterion(args.criterion)
    try:
        dataset = read_dataset(args.data)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from None
    approach = Approach.parse(args.approach)
    card = classify(dataset, approach, criterion)
    print(f"criterion {criterion.key}, approach {approach.value}, N={dataset.n}, K={dataset.k}")
    payload = {
        "criterion": criterion.key,
        "approach": approach.value,
        "N": dataset.n,
        "K": dataset.k,
        "scores": {},
        "chosen": None,
    }
    for h in Hypothesis:
        score = card.scores[h]
        if score.failed:
            print(f"  H{int(h)}: failed ({score.failure})")
            payload["scores"][f"H{int(h)}"] = {"failure": score.failure}
        else:
            print(
                f"  H{int(h)}: fit {score.fit:.6f}  penalty {score.penalty:.6f}  "
                f"total {score.total:.6f}"
            )
            payload["scores"][f"H{int(h)}"] = {
                "fit": score.fit,
                "penalty": score.penalty,
                "total": score.total,
            }
    if card.chosen is None:
        print("chosen: none (every hypothesis failed)")
    else:
        payload["chosen"] = f"H{int(card.chosen)}"
        print(f"chosen: H{int(card.chosen)}")
    if args.json:
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 2 if card.chosen is None else 0


# ---------------------------------------------------------------- plot

def _add_plot_parser(sub) -> None:
    p = sub.add_parser("plot", help="render SVG curves from a results CSV")
    p.add_argument("--results", type=Path, required=True, help="results.csv from 'run'")
    p.add_argument("--out-dir", type=Path, default=Path("plots"))
    p.set_defaults(func=cmd_plot)


def cmd_plot(args) -> int:
    _directory(args.out_dir, "--out-dir")
    try:
        rows = read_results_csv(args.results)
    except OSError as exc:
        raise ConfigError(f"cannot read results: {exc}") from None
    written = _write_plots(rows, args.out_dir)
    print("wrote " + " ".join(written))
    return 0


# ---------------------------------------------------------------- entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="covstruct",
        description="Classify interference covariance structure and run P_cc campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_classify_parser(sub)
    _add_plot_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0; usage errors 1, not 2
        if exc.code == 0:
            raise
        return 1
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, DataFormatError and every other usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
