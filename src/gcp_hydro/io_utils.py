"""Atomic file emission and config hashing for reproducible runs."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

CSV_CHUNK_ROWS = 256  # rows formatted together: bounds the cells held as strings


def _atomic_write(path, text):
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _formatter(kind):
    """Cell formatter for one type: floats shortest round-trip, bools as 0/1."""
    if kind is float:
        return repr
    if issubclass(kind, (bool, np.bool_)):
        return lambda v: str(int(v))
    if issubclass(kind, np.floating):
        return lambda v: repr(float(v))
    if issubclass(kind, np.integer):
        return lambda v: str(int(v))
    return str


def _format_column(cells):
    kinds = set(map(type, cells))
    if len(kinds) == 1:
        return list(map(_formatter(kinds.pop()), cells))
    return [_formatter(type(v))(v) for v in cells]


def write_csv(path, header, rows):
    """Write a CSV atomically, formatting a column of a chunk of rows at a
    time; float cells use shortest round-trip formatting."""
    rows = iter(rows)
    parts = [",".join(header)]
    while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
        if set(map(len, chunk)) != {len(header)}:
            raise ValueError(f"{path}: every row must have the header's {len(header)} cells")
        columns = [_format_column(cells) for cells in zip(*chunk)]
        parts.append("\n".join(map(",".join, zip(*columns))))
    _atomic_write(path, "\n".join(parts) + "\n")


def _json_scalar(obj):
    """NumPy scalars as their Python values; anything else JSON cannot hold is an error."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    """Write JSON atomically; a NumPy bool is written as true/false, never as a string."""
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=_json_scalar) + "\n")


def config_hash(cfg) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
