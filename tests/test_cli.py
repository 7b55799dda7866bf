"""Command-line interface: run, classify, and plot subcommands."""

import json
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from covstruct import cli
from covstruct.cli import build_parser, main
from covstruct.datafmt import write_dataset
from covstruct.estimators import Dataset
from covstruct.reporting import CSV_COLUMNS, config_sha256, parse_experiment
from covstruct.scenario import sample_dataset, table_case, truth_instance
from covstruct.structures import Hypothesis


def run_cli(args):
    return main([str(a) for a in args])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------- run


def test_run_writes_expected_csv_shape(tmp_path, capsys, monkeypatch):
    out = tmp_path / "results"
    # `run` plots from its report; only `plot` reads a results CSV.
    monkeypatch.setattr(cli, "read_results_csv", None)
    code = run_cli(
        [
            "run",
            "--case", "1",
            "--approach", "B",
            "--criteria", "asymptotic-bic,aic",
            "--K", "26,39",
            "--trials", "50",
            "--seed", "7",
            "--workers", "1",
            "--out-dir", out,
        ]
    )
    assert code == 0
    lines = read_lines(out / "results.csv")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2 * 4  # two criteria x two K values x four truths
    captured = capsys.readouterr()
    assert "config sha256" in captured.out
    assert "seed 7" in captured.out
    assert "P_cc at K=39" in captured.out
    assert (out / "results.json").exists()
    # `plot` on run's CSV renders the same figures, colors in criterion order.
    monkeypatch.undo()
    replot = tmp_path / "replot"
    assert run_cli(["plot", "--results", out / "results.csv", "--out-dir", replot]) == 0
    for truth in (1, 2, 3, 4):
        name = f"pcc_h{truth}_b.svg"
        assert (out / "plots" / name).read_bytes() == (replot / name).read_bytes()
    assert sorted(p.name for p in replot.iterdir()) == sorted(
        p.name for p in (out / "plots").iterdir()
    )


def test_run_reruns_byte_identical(tmp_path):
    flags = [
        "run",
        "--case", "1",
        "--approach", "B",
        "--criteria", "aic",
        "--K", "15",
        "--n", "9",
        "--trials", "10",
        "--seed", "3",
        "--workers", "1",
        "--no-plots",
    ]
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_cli(flags + ["--out-dir", first]) == 0
    assert run_cli(flags + ["--out-dir", second]) == 0
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
    assert not (first / "plots").exists()


def test_run_case2_uses_second_parameter_column(tmp_path):
    out = tmp_path / "case2"
    code = run_cli(
        [
            "run",
            "--case", "2",
            "--approach", "B",
            "--criteria", "aic",
            "--K", "14",
            "--trials", "1",
            "--truths", "H4",
            "--seed", "1",
            "--workers", "1",
            "--no-plots",
            "--out-dir", out,
        ]
    )
    assert code == 0
    payload = json.loads((out / "results.json").read_text(encoding="utf-8"))
    scenario = payload["config"]["scenario"]
    assert scenario["case_id"] == 2
    assert scenario["sources"] == [
        {"cnr_db": 20.0, "rho": 0.85, "doppler": 0.285},
        {"cnr_db": 30.0, "rho": 0.93, "doppler": 0.05},
    ]
    assert payload["master_seed"] == 1
    assert payload["config_sha256"]


def test_run_config_file_with_unknown_key_fails(tmp_path, capsys):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"schema_version": 1, "trails": 5}), encoding="utf-8")
    assert run_cli(["run", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "trails" in err


def test_run_rejects_bad_flag_values(tmp_path, capsys):
    out = tmp_path / "never"
    base = ["run", "--trials", "1", "--workers", "1", "--no-plots", "--out-dir", out]
    for flags, message in (
        (["--K", "5"], "exceed N"),
        (["--criteria", "mdl"], "unknown criterion"),
        (["--criteria", "gic:inf"], "gic rho must be >= 1 and finite, got inf"),
        (["--truths", "H9"], "bad hypothesis"),
        (["--n", "12", "--approach", "B"], "N must be odd"),
        (["--K", "26,26"], "duplicate K 26"),
        (["--truths", "H1,H1"], "duplicate truth 'H1'"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--K", "12,x"], "--K: invalid literal for int()"),
        (["--K", ","], "empty --K list"),
        (["--trials", "x"], "argument --trials: invalid int value"),
        (["--snr-db", "nan"], "snr_db must be finite, got nan"),
        (["--snr-db", "inf"], "snr_db must be finite, got inf"),
        (["--snr-db", "4000"], "snr_db 4000.0 dB overflows as a linear power"),
        (["--f-v", "nan"], "f_v must be finite, got nan"),
        (["--sigma-d", "nan"], "sigma_d must be finite, got nan"),
    ):
        assert run_cli(base + flags) == 1, flags
        assert message in capsys.readouterr().err, flags
        assert not out.exists(), flags
    config = tmp_path / "exp.json"
    for tree, message in (
        ({"trials": "5"}, "'trials' must be an integer, got '5'"),
        ({"k_grid": 26}, "'k_grid' must be an array, got 26"),
        ({"criteria": ["gic:inf"]}, "gic rho must be >= 1 and finite, got inf"),
        ({"scenario": {"seed": 0}}, "unknown key 'seed' in 'scenario'"),
        ({"scenario": {"sources": 5}}, "'sources' in 'scenario' must be an array"),
        ({"scenario": {"snr_db": "x"}}, "'snr_db' in 'scenario' must be a number, got 'x'"),
        ({"scenario": {"n": 13.0}}, "'n' in 'scenario' must be an integer, got 13.0"),
        ({"scenario": {"sigma_d": True}}, "'sigma_d' in 'scenario' must be a number"),
        ({"scenario": {"freeze_channel_errors": 1}},
         "'freeze_channel_errors' in 'scenario' must be true or false, got 1"),
        ({"scenario": {"sources": [{"cnr_db": "30", "rho": 0.9, "doppler": 0.1}]}},
         "'cnr_db' in source #0 must be a number, got '30'"),
        ({"workers": 2.5}, "'workers' must be an integer or null, got 2.5"),
        ({"workers": True}, "'workers' must be an integer or null, got True"),
        ({"k_grid": [26.5]}, "cannot be interpreted as an integer"),
        ({"case": True}, "'case' must be an integer, got True"),
        ({"scenario": {"case_id": "x"}}, "'case_id' in 'scenario' must be an integer or null"),
        ({"output": {"plots": "no"}}, "'plots' in 'output' must be true or false, got 'no'"),
        ({"scenario": {"sigma_n2": float("inf")}}, "sigma_n2 must be finite, got inf"),
        ({"scenario": {"sources": [{"cnr_db": float("nan"), "rho": 0.9, "doppler": 0.1}]}},
         "source #0: cnr_db must be finite, got nan"),
        ({"scenario": {"sources": [{"cnr_db": 4000, "rho": 0.9, "doppler": 0.1}]}},
         "source #0: cnr_db 4000 dB overflows as a linear power"),
        ({"scenario": {"sources": [{"cnr_db": 3080, "rho": 0.9, "doppler": 0.1}] * 2}},
         "clutter covariance plus noise is not finite"),
        # R + I is finite, but a drawn H1 or H2 truth A R A^H would overflow.
        ({"scenario": {"sources": [{"cnr_db": 3079, "rho": 0.85, "doppler": 0.285}]},
          "k_grid": [20], "trials": 5, "workers": 1},
         "too close to the float maximum for the channel errors of a drawn truth"),
    ):
        config.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli(["run", "--config", config, "--out-dir", out]) == 1, tree
        assert message in capsys.readouterr().err, tree
        assert not out.exists(), tree
    # Flags merge only into trees that are objects; others keep their message.
    for tree, message in (
        ([1], "experiment file must hold a JSON object"),
        ({"scenario": 5}, "'scenario' must be an object, got 5"),
        ({"output": "x"}, "'output' must be an object, got 'x'"),
    ):
        config.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli(["run", "--config", config, "--n", "9", "--out-dir", out]) == 1, tree
        assert message in capsys.readouterr().err, tree
        assert not out.exists(), tree


def test_run_rejects_bad_output_paths(tmp_path, capsys):
    # Output paths are checked before the campaign runs: exit 1, a message
    # naming the flag or key, and no result file written.
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    base = ["run", "--trials", "1", "--workers", "1", "--K", "20", "--truths", "H1", "--no-plots"]
    assert run_cli(base + ["--out-dir", taken]) == 1
    assert "--out-dir / output.dir" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "keep"
    out = tmp_path / "never"
    config = tmp_path / "exp.json"
    for output, message in (
        ({"csv": ""}, "output.csv: '' does not name a file"),
        ({"json": "sub/x.json"}, "output.json: directory"),
    ):
        config.write_text(json.dumps({"output": output}), encoding="utf-8")
        assert run_cli(base + ["--config", config, "--out-dir", out]) == 1, output
        assert message in capsys.readouterr().err, output
        assert not out.exists(), output


def test_run_rejects_a_file_where_the_plot_directory_goes(tmp_path, capsys):
    # With plots on, <out-dir>/plots is checked with the other outputs,
    # before the campaign runs; --no-plots never looks at it.
    out = tmp_path / "res"
    out.mkdir()
    (out / "plots").write_text("keep", encoding="utf-8")
    base = ["run", "--trials", "1", "--workers", "1", "--K", "20", "--truths", "H1",
            "--criteria", "aic", "--approach", "B", "--out-dir", out]
    assert run_cli(base) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: output.plots: {str(out / 'plots')!r} is not a directory"]
    assert sorted(p.name for p in out.iterdir()) == ["plots"]
    assert run_cli(base + ["--no-plots"]) == 0
    assert (out / "results.csv").is_file()


def test_run_scenario_tree_overrides(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "case": 1,
                "scenario": {"n": 9, "snr_db": 13.0},
                "k_grid": [12],
                "trials": 1,
                "criteria": ["aic"],
                "approaches": ["B"],
                "truths": ["H3"],
                "seed": 5,
                "workers": 1,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "res"
    assert run_cli(["run", "--config", config, "--no-plots", "--out-dir", out]) == 0
    payload = json.loads((out / "results.json").read_text(encoding="utf-8"))
    assert payload["config"]["scenario"]["n"] == 9
    assert payload["config"]["scenario"]["snr_db"] == 13.0
    assert payload["config"]["scenario"]["sigma_d"] == 0.15
    # --out-dir overrides the file's output.dir like every other flag; without
    # the flag the file's directory is used.
    from_file = tmp_path / "from_file"
    tree = json.loads(config.read_text(encoding="utf-8"))
    tree["output"] = {"dir": str(from_file)}
    config.write_text(json.dumps(tree), encoding="utf-8")
    from_flag = tmp_path / "from_flag"
    assert run_cli(["run", "--config", config, "--no-plots", "--out-dir", from_flag]) == 0
    assert (from_flag / "results.csv").exists()
    assert not from_file.exists()
    assert run_cli(["run", "--config", config, "--no-plots"]) == 0
    assert (from_file / "results.csv").read_bytes() == (from_flag / "results.csv").read_bytes()


def test_experiment_round_trip(tmp_path, capsys):
    first = tmp_path / "first"
    flags = ["run", "--case", "2", "--n", "9", "--approach", "AB", "--criteria", "gic:2,aic",
             "--K", "12,20", "--trials", "3", "--truths", "H2,H4", "--seed", "21",
             "--workers", "1", "--no-plots"]
    assert run_cli(flags + ["--out-dir", first]) == 0
    payload = json.loads((first / "results.json").read_text(encoding="utf-8"))
    config, output = parse_experiment(payload["config"])
    assert output == {}
    assert payload["config_sha256"] == config_sha256(config)
    assert f"config sha256 {config_sha256(config)} seed 21" in capsys.readouterr().out
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(payload["config"]), encoding="utf-8")
    again = tmp_path / "again"
    assert run_cli(["run", "--config", echo, "--no-plots", "--out-dir", again]) == 0
    assert (again / "results.csv").read_bytes() == (first / "results.csv").read_bytes()


# ---------------------------------------------------------------- classify


@pytest.fixture(scope="module")
def h4_dataset():
    config = table_case(1)
    rng = np.random.default_rng(3)
    truth = truth_instance(Hypothesis.H4, config, rng)
    return sample_dataset(truth, config, 130, rng)


def test_classify_recovers_h4_fixture(tmp_path, capsys, h4_dataset):
    data = tmp_path / "h4.txt"
    write_dataset(h4_dataset, data)
    out_json = tmp_path / "card.json"
    code = run_cli(
        [
            "classify",
            "--data", data,
            "--approach", "B",
            "--criterion", "asymptotic-bic",
            "--json", out_json,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "chosen: H4" in out
    assert "N=13, K=130" in out
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload["chosen"] == "H4"
    for name, score in payload["scores"].items():
        assert score["total"] == score["fit"] + score["penalty"], name


def test_classify_scores_a_single_channel(tmp_path, capsys, rng):
    # At N = 1 H4's J-odd block is empty; every rule under both approaches
    # still scores every hypothesis.
    secondary = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    data, card = tmp_path / "n1.txt", tmp_path / "card.json"
    write_dataset(Dataset(secondary, np.array([0.3 + 0.1j]), np.array([1.0 + 0j])), data)
    for approach in ("A", "B"):
        for rule in ("aic", "gic:2", "gic:4", "tic", "aicc", "bic", "asymptotic-bic"):
            code = run_cli(["classify", "--data", data, "--approach", approach,
                            "--criterion", rule, "--json", card])
            assert code == 0, (approach, rule, capsys.readouterr().err)
            scores = json.loads(card.read_text(encoding="utf-8"))["scores"]
            assert all(math.isfinite(s["total"]) for s in scores.values()), (approach, rule)
    capsys.readouterr()


def test_classify_approach_a_needs_steering(tmp_path, capsys, h4_dataset):
    stripped = Dataset(secondary=h4_dataset.secondary, cut=h4_dataset.cut)
    data = tmp_path / "nosteer.txt"
    write_dataset(stripped, data)
    assert run_cli(["classify", "--data", data, "--approach", "A", "--criterion", "aic"]) == 1
    assert "steering" in capsys.readouterr().err
    # Approach B never needs it.
    assert run_cli(["classify", "--data", data, "--approach", "B", "--criterion", "aic"]) == 0


def test_classify_chooses_nothing_from_non_finite_scores(tmp_path, capsys, h4_dataset):
    # Every entry is finite, so the file is accepted, but the scatter
    # overflows: every hypothesis fails and none is chosen, under every rule,
    # and numpy's overflow warnings do not reach stderr.
    secondary = h4_dataset.secondary.copy()
    secondary[2, 4] = 1e300
    data = tmp_path / "huge.txt"
    write_dataset(Dataset(secondary, h4_dataset.cut, h4_dataset.steering), data)
    for approach in ("A", "B"):
        for rule in ("aic", "gic:2", "gic:4", "tic", "aicc", "bic", "asymptotic-bic"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(["classify", "--data", data, "--approach", approach,
                                "--criterion", rule])
            captured = capsys.readouterr()
            assert code == 2 and not caught and captured.err == "", (approach, rule)
            assert "chosen: none" in captured.out and "total" not in captured.out
            assert captured.out.count("failed (NotPositiveDefiniteError") == 4, (approach, rule)


def test_classify_json_path_is_checked_before_classifying(tmp_path, capsys, h4_dataset):
    # A --json path in a missing directory, or naming a directory, is a
    # one-line usage error before any report is printed, not a traceback
    # after it.
    data = tmp_path / "h4.txt"
    write_dataset(h4_dataset, data)
    for target in (tmp_path / "missing" / "card.json", tmp_path):
        code = run_cli(["classify", "--data", data, "--approach", "B",
                        "--criterion", "aic", "--json", target])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: --json: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()
    # The payload is written whether or not a hypothesis was chosen.
    secondary = h4_dataset.secondary.copy()
    secondary[2, 4] = 1e300
    huge = tmp_path / "huge.txt"
    write_dataset(Dataset(secondary, h4_dataset.cut, h4_dataset.steering), huge)
    card = tmp_path / "card.json"
    for path, code, chosen in ((huge, 2, None), (data, 0, "H4")):
        assert run_cli(["classify", "--data", path, "--approach", "B",
                        "--criterion", "asymptotic-bic", "--json", card]) == code
        assert json.loads(card.read_text(encoding="utf-8"))["chosen"] == chosen
    capsys.readouterr()


def test_classify_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("covstruct-data v1\nN 2\nK 3\nwarp 1\n", encoding="utf-8")
    assert run_cli(["classify", "--data", bad, "--approach", "B", "--criterion", "aic"]) == 1
    err = capsys.readouterr().err
    assert ":4:" in err and "warp" in err
    missing = tmp_path / "missing.txt"
    assert run_cli(["classify", "--data", missing, "--approach", "B", "--criterion", "aic"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_classify_unknown_criterion(tmp_path, capsys, h4_dataset):
    data = tmp_path / "h4.txt"
    write_dataset(h4_dataset, data)
    assert run_cli(["classify", "--data", data, "--approach", "B", "--criterion", "mdl"]) == 1
    assert "unknown criterion" in capsys.readouterr().err
    assert run_cli(["classify", "--data", data, "--approach", "C", "--criterion", "aic"]) == 1
    assert "invalid choice: 'C'" in capsys.readouterr().err


# ---------------------------------------------------------------- plot


def csv_text(rows):
    lines = [",".join(CSV_COLUMNS)]
    for criterion, approach, truth, k, p in rows:
        lines.append(
            f"1,{criterion},{approach},{truth},{k},50,0,0,0,0,0,{p!r},0.05"
        )
    return "\n".join(lines) + "\n"


def test_plot_renders_one_svg_per_truth_and_approach(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        csv_text(
            [
                ("aic", "A", "H1", 20, 0.5),
                ("aic", "A", "H1", 30, 0.8),
                ("tic", "A", "H1", 20, 0.6),
                ("tic", "A", "H1", 30, 0.9),
                ("aic", "A", "H2", 20, 0.4),
                ("aic", "A", "H2", 30, 0.7),
                ("tic", "A", "H2", 20, 0.5),
                ("tic", "A", "H2", 30, 0.8),
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "plots"
    assert run_cli(["plot", "--results", results, "--out-dir", out]) == 0
    for truth in ("h1", "h2"):
        svg = (out / f"pcc_{truth}_a.svg").read_text(encoding="utf-8")
        root = ET.fromstring(svg)
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
    assert "wrote" in capsys.readouterr().out


def test_plot_omits_empty_series_with_warning(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        csv_text(
            [
                ("aic", "A", "H1", 20, 0.5),
                ("aic", "A", "H2", 20, 0.4),
                ("tic", "A", "H1", 20, 0.6),
            ]
        ),
        encoding="utf-8",
    )
    out = tmp_path / "plots"
    assert run_cli(["plot", "--results", results, "--out-dir", out]) == 0
    err = capsys.readouterr().err
    assert "polyline omitted" in err and "tic" in err
    h2 = ET.fromstring((out / "pcc_h2_a.svg").read_text(encoding="utf-8"))
    assert len([el for el in h2.iter() if el.tag.endswith("polyline")]) == 1


def test_plot_rejects_an_out_dir_that_is_a_file(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(csv_text([("aic", "A", "H1", 20, 0.5)]), encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    for out_dir in (taken, taken / "sub"):
        assert run_cli(["plot", "--results", results, "--out-dir", out_dir]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --out-dir: {str(taken)!r} is not a directory"]
        assert captured.out == ""
    assert taken.read_text(encoding="utf-8") == "keep"


def test_plot_rejects_malformed_csv(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("not,a,results,file\n", encoding="utf-8")
    assert run_cli(["plot", "--results", results, "--out-dir", tmp_path / "p"]) == 1
    assert "unexpected CSV header" in capsys.readouterr().err
    # An approach that is not A or B would land in a plot file name.
    bad = tmp_path / "bad.csv"
    bad.write_text(
        ",".join(CSV_COLUMNS) + "\n1,aic,A/x,H1,6,6,0,3,0,3,0,0.5,0.2\n", encoding="utf-8"
    )
    assert run_cli(["plot", "--results", bad, "--out-dir", tmp_path / "d"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {bad}:2: bad approach 'A/x'"]
    assert captured.out == ""
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------- entry point


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["--version"])
    assert info.value.code == 0
    assert "covstruct" in capsys.readouterr().out


def test_parser_is_built_once_and_main_is_reentrant(tmp_path, capsys, h4_dataset):
    assert build_parser() is build_parser()
    data = tmp_path / "h4.txt"
    write_dataset(h4_dataset, data)
    argv = ["classify", "--data", data, "--approach", "B", "--criterion", "aic"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    # A usage error, --help and other subcommands in between leave the shared
    # parser as it was.
    assert run_cli(["classify", "--data", data]) == 1
    with pytest.raises(SystemExit) as info:
        run_cli(["run", "--help"])
    assert info.value.code == 0
    assert "--workers" in capsys.readouterr().out
    assert run_cli(["plot", "--results", tmp_path / "missing.csv"]) == 1
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first
