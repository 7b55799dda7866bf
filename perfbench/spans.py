"""In-memory span tracer that times public covstruct calls from the outside.

The benchmark never edits the package. To trace a run it swaps selected
module attributes for timing wrappers (``Tracer.installed``) and restores
them afterwards. A span records its name, start, end, parent span and root
span (the request it belongs to); spans stay in memory and are written out
once, when the run ends.

Only attribute lookups made at call time see a wrapper, so each target names
the module whose code makes the call (``covstruct.cli`` calls
``run_campaign`` through its own global, for example). A target that a later
version of the package no longer has is skipped and listed in
``Tracer.missing``; the layers it fed then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module making the call, attribute, span name). Span names are
# "<layer>.<function>", with the layer named after its covstruct module.
TARGETS = (
    ("covstruct.cli", "run_campaign", "montecarlo.run_campaign"),
    ("covstruct.cli", "read_dataset", "datafmt.read_dataset"),
    ("covstruct.cli", "classify", "criteria.classify"),
    ("covstruct.cli", "write_results_csv", "reporting.write_results_csv"),
    ("covstruct.cli", "write_results_json", "reporting.write_results_json"),
    ("covstruct.cli", "render_pcc_svg", "svgplot.render_pcc_svg"),
    ("covstruct.montecarlo", "truth_instance", "scenario.truth_instance"),
    ("covstruct.montecarlo", "sample_dataset", "scenario.sample_dataset"),
    ("covstruct.montecarlo", "prepare_estimates", "estimators.prepare_estimates"),
    ("covstruct.montecarlo", "classify_batch", "criteria.classify_batch"),
    ("covstruct.criteria", "prepare_estimates", "estimators.prepare_estimates"),
    ("covstruct.criteria", "penalty", "criteria.penalty_fim"),
    ("covstruct.likelihood", "observed_fim", "likelihood.observed_fim"),
    ("covstruct.likelihood", "sample_fim", "likelihood.sample_fim"),
)


def _needs_fim(criterion, *args, **kwargs) -> bool:
    return bool(getattr(criterion, "needs_fim", False))


# Spans whose wrapper only opens for some calls: the penalty layer measured
# is the information-matrix penalty (tic, bic), not the closed-form ones.
_PREDICATES = {"criteria.penalty_fim": _needs_fim}


class Tracer:
    """Collects spans as (name, start_ns, end_ns, parent, root) tuples."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, int]] = []  # open spans: (index, root)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, when=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            parent, root = stack[-1] if stack else (-1, len(spans))
            idx = len(spans)
            spans.append(None)
            stack.append((idx, root))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, root)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every reachable target for its wrapper until the block ends."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, _PREDICATES.get(name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict, dict, dict, float]:
        """Per span name: summed duration, call count and summed direct-child
        duration (all in ns), plus the summed duration of root spans."""
        duration = defaultdict(int)
        count = defaultdict(int)
        children = defaultdict(int)
        roots = 0
        for name, start, end, parent, _root in self.spans:
            span = end - start
            duration[name] += span
            count[name] += 1
            if parent >= 0:
                children[self.spans[parent][0]] += span
            else:
                roots += span
        return duration, count, children, roots

    def write(self, path) -> None:
        """One JSON array per line: [name, start_ns, end_ns, parent, root]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``units`` traced trials (or calls).

    Times are µs per trial unless the metric says otherwise. ``*.self_us``
    values are by difference: a span's duration minus its direct children.
    """
    duration, count, children, roots = tracer.totals()
    per_unit = 1e-3 / units

    def total(*names):
        return sum(duration[n] for n in names)

    def self_time(*names):
        return sum(duration[n] - children[n] for n in names)

    def per_call(name, scale):
        return duration[name] * scale / count[name] if count[name] else 0.0

    campaigns = count["reporting.write_results_csv"]
    classify = ("criteria.classify_batch", "criteria.classify")
    return {
        "scenario.draw_us": total("scenario.truth_instance", "scenario.sample_dataset") * per_unit,
        "estimators.estimate_us": total("estimators.prepare_estimates") * per_unit,
        "likelihood.observed_fim_us": total("likelihood.observed_fim") * per_unit,
        "likelihood.sample_fim_us": total("likelihood.sample_fim") * per_unit,
        "criteria.penalty_us": total("criteria.penalty_fim") * per_unit,
        "criteria.classify_us": total(*classify) * per_unit,
        "criteria.self_us": self_time(*classify) * per_unit,
        "montecarlo.self_us": self_time("montecarlo.run_campaign") * per_unit,
        "cli.self_us": self_time("cli.main") * per_unit,
        "datafmt.loads_us": per_call("datafmt.read_dataset", 1e-3),
        "reporting.csv_us": per_call("reporting.write_results_csv", 1e-3),
        "reporting.json_us": per_call("reporting.write_results_json", 1e-3),
        "svgplot.render_ms": (
            duration["svgplot.render_pcc_svg"] * 1e-6 / campaigns if campaigns else 0.0
        ),
        "trace.trial_us": roots * per_unit,
    }
