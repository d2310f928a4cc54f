"""Plain-text serialization: matrices, per-step CSV reports, and JSON
summaries.

All numbers are written with 17 significant digits (``%.17g``), which
round-trips IEEE-754 doubles exactly, so every artifact can be parsed back
into the numbers that produced it.  Files are written atomically (temp file
plus rename) so a crashed run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .lds_core import _as_matrix

__all__ = [
    "format_float",
    "save_matrix",
    "load_matrix",
    "write_csv",
    "read_csv",
    "write_json_summary",
    "read_json_summary",
]

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    """Render one float at 17 significant digits (exact double round-trip)."""
    return FLOAT_FMT % float(x)


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_matrix(M: object, path: str) -> None:
    """Write a finite matrix (a vector as one row) as text: a ``rows cols``
    header line, then one space-separated row per line at full precision."""
    M = _as_matrix(np.atleast_2d(np.asarray(M, dtype=float)), "M")
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    for row in M:
        lines.append(" ".join(format_float(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    try:
        with open(path) as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigurationError(f"cannot read matrix file {path!r}: {exc}") from exc
    if not lines:
        raise ConfigurationError(f"matrix file {path!r} is empty")
    try:
        rows, cols = (int(tok) for tok in lines[0].split())
        data = [[float(tok) for tok in line.split()] for line in lines[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"malformed matrix file {path!r}: {exc}") from exc
    M = np.array(data, dtype=float)
    if M.shape != (rows, cols):
        raise ConfigurationError(
            f"matrix file {path!r} declares shape ({rows}, {cols}) but has {M.shape}"
        )
    return M


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV with a header row and newline-terminated data rows.

    Floats are rendered at 17 significant digits; everything else via
    ``str``.  No quoting is performed (column names and values must be
    comma-free).  Each row is rendered by one %-format, made once for each
    sequence of value types met.
    """
    lines = [",".join(header)]
    width = len(header)
    formats: dict = {}
    for row in rows:
        types = tuple(map(type, row))
        if len(types) != width:
            raise ConfigurationError(
                f"CSV row has {len(types)} fields, header has {width}"
            )
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                FLOAT_FMT if issubclass(t, (float, np.floating)) else "%s" for t in types
            )
        lines.append(fmt % tuple(row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by :func:`write_csv`.

    Returns the header and a float array of shape (rows, columns).
    """
    try:
        with open(path) as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigurationError(f"cannot read CSV file {path!r}: {exc}") from exc
    if not lines:
        raise ConfigurationError(f"CSV file {path!r} is empty")
    header = lines[0].split(",")
    try:
        data = np.array(
            [[float(tok) for tok in line.split(",")] for line in lines[1:]], dtype=float
        )
    except ValueError as exc:
        raise ConfigurationError(f"malformed CSV file {path!r}: {exc}") from exc
    if data.size and data.shape[1] != len(header):
        raise ConfigurationError(
            f"CSV file {path!r} rows have {data.shape[1]} fields, header has {len(header)}"
        )
    return header, data


def write_json_summary(path: str, summary: dict) -> None:
    """Write a flat JSON object with sorted keys (stable ordering)."""
    for key, value in summary.items():
        if isinstance(value, (dict, list, tuple)):
            raise ConfigurationError(
                f"summary field {key!r} is not flat (got {type(value).__name__})"
            )
    clean = {
        key: (float(value) if isinstance(value, (np.floating, np.integer)) else value)
        for key, value in summary.items()
    }
    _atomic_write_text(path, json.dumps(clean, sort_keys=True, indent=2) + "\n")


def read_json_summary(path: str) -> dict:
    """Read a JSON summary written by :func:`write_json_summary`."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read JSON summary {path!r}: {exc}") from exc
