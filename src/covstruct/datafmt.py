"""Text container for snapshot datasets.

A dataset file is line-oriented UTF-8. Grammar (one directive per line,
``#`` starts a comment, blank lines ignored)::

    covstruct-data v1
    N <int>
    K <int>
    cut <2N floats>            # optional: Re Im pairs of the cell under test
    steering <2N floats>       # optional: Re Im pairs of the steering vector
    secondary-row <2K floats>  # exactly N lines, matrix rows top to bottom

Complex entries are written as (Re, Im) pairs in row-major order: vectors on
one line each, the N x K secondary matrix as N ``secondary-row`` lines of K
pairs. Floats are serialized with ``repr``, so write/read round trips are
bit-exact. The header line must come first; N and K must appear once each,
before any data line. A repeated N, K, cut or steering line and unknown
directives are rejected by name with their line number.
"""

from __future__ import annotations

import io

import numpy as np

from .estimators import Dataset

__all__ = ["DataFormatError", "write_dataset", "read_dataset", "dumps_dataset", "loads_dataset"]

_MAGIC = "covstruct-data"
_VERSION = "v1"


class DataFormatError(ValueError):
    """Malformed dataset file; the message carries line and field context."""


def _format_complex_line(keyword: str, values: np.ndarray) -> str:
    parts = []
    for entry in np.asarray(values, dtype=complex):
        parts.append(repr(float(entry.real)))
        parts.append(repr(float(entry.imag)))
    return f"{keyword} {' '.join(parts)}"


def dumps_dataset(dataset: Dataset) -> str:
    """Serialize a dataset to the v1 text container."""
    lines = [f"{_MAGIC} {_VERSION}", f"N {dataset.n}", f"K {dataset.k}"]
    if dataset.cut is not None:
        lines.append(_format_complex_line("cut", dataset.cut))
    if dataset.steering is not None:
        lines.append(_format_complex_line("steering", dataset.steering))
    for row in dataset.secondary:
        lines.append(_format_complex_line("secondary-row", row))
    return "\n".join(lines) + "\n"


def write_dataset(dataset: Dataset, path) -> None:
    """Write a dataset file (see module docstring for the grammar)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_dataset(dataset))


def read_dataset(path) -> Dataset:
    """Read a dataset file, validating shape and counts."""
    with open(path, "r", encoding="utf-8") as handle:
        return _parse(handle, str(path))


def loads_dataset(text: str) -> Dataset:
    """Parse the v1 text container from a string."""
    return _parse(io.StringIO(text), "<string>")


def _parse(handle, origin: str) -> Dataset:
    n = k = None
    cut = steering = None
    rows: list[np.ndarray] = []
    header_seen = False

    def fail(lineno: int, message: str):
        raise DataFormatError(f"{origin}:{lineno}: {message}")

    for lineno, raw in enumerate(handle, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]

        if not header_seen:
            if keyword != _MAGIC or args != [_VERSION]:
                fail(lineno, f"expected header '{_MAGIC} {_VERSION}', got {line!r}")
            header_seen = True
            continue

        if keyword in ("N", "K"):
            if len(args) != 1:
                fail(lineno, f"{keyword} takes exactly one integer")
            try:
                value = int(args[0])
            except ValueError:
                fail(lineno, f"bad integer for {keyword}: {args[0]!r}")
            if value < 1:
                fail(lineno, f"{keyword} must be positive, got {value}")
            if (n if keyword == "N" else k) is not None:
                fail(lineno, f"duplicate {keyword} line")
            if keyword == "N":
                n = value
            else:
                k = value
            continue

        if keyword in ("cut", "steering", "secondary-row"):
            if n is None or k is None:
                fail(lineno, f"{keyword} before N and K are declared")
            width = k if keyword == "secondary-row" else n
            values = _parse_pairs(args, width, keyword, lineno, fail)
            if keyword == "cut":
                if cut is not None:
                    fail(lineno, "duplicate cut line")
                cut = values
            elif keyword == "steering":
                if steering is not None:
                    fail(lineno, "duplicate steering line")
                steering = values
            else:
                if len(rows) == n:
                    fail(lineno, f"more than N={n} secondary-row lines")
                rows.append(values)
            continue

        fail(lineno, f"unknown directive {keyword!r}")

    if not header_seen:
        raise DataFormatError(f"{origin}: empty file (missing '{_MAGIC} {_VERSION}' header)")
    if n is None or k is None:
        raise DataFormatError(f"{origin}: missing N or K declaration")
    if len(rows) != n:
        raise DataFormatError(
            f"{origin}: expected N={n} secondary-row lines, found {len(rows)}"
        )
    secondary = np.vstack(rows)
    try:
        return Dataset(secondary=secondary, cut=cut, steering=steering)
    except ValueError as exc:
        raise DataFormatError(f"{origin}: {exc}") from None


def _parse_pairs(args, width: int, keyword: str, lineno: int, fail) -> np.ndarray:
    if len(args) != 2 * width:
        fail(
            lineno,
            f"{keyword} needs {2 * width} floats ({width} Re/Im pairs), got {len(args)}",
        )
    try:
        floats = [float(tok) for tok in args]
    except ValueError as exc:
        fail(lineno, f"bad float in {keyword}: {exc}")
    values = np.asarray(floats)
    if not np.all(np.isfinite(values)):
        fail(lineno, f"non-finite value in {keyword}")
    return values.view(complex)  # the (Re, Im) pairs' own bits, signed zeros included
