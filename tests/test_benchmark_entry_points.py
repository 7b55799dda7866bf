"""The benchmark under ``perfbench/`` imports and traces package names by
string; a rename or deletion in the package would only show when the
benchmark runs. These checks read its sources with ``ast`` and resolve every
name it takes from the package."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The span targets that the tracer resolves; the others in ``spans.TARGETS``
# name functions the package no longer has, and their layers read 0.
# ``montecarlo`` draws a chunk through ``scenario.draw_stack``, which no
# target names, and calls ``truth_instance`` only for a frozen truth.
LIVE_TARGETS = {
    ("covstruct.cli", "run_campaign"),
    ("covstruct.cli", "read_dataset"),
    ("covstruct.cli", "classify"),
    ("covstruct.cli", "write_results_csv"),
    ("covstruct.cli", "write_results_json"),
    ("covstruct.cli", "render_pcc_svg"),
    ("covstruct.montecarlo", "truth_instance"),
    ("covstruct.criteria", "prepare_estimates"),
    ("covstruct.criteria", "penalty"),
}


def _resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _package_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module.split(".")[0] == "covstruct":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _span_targets():
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_benchmark_imports_resolve():
    imports = list(_package_imports())
    assert imports, "perfbench imports nothing from covstruct"
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, missing


def test_benchmark_span_targets_resolve():
    targets = {(module, name) for module, name, _ in _span_targets()}
    assert LIVE_TARGETS <= targets
    missing = [t for t in sorted(LIVE_TARGETS) if not _resolves(*t)]
    assert not missing, missing
