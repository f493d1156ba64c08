"""Atomic file emission and config hashing for reproducible runs."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np


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


def _format_cell(v):
    if type(v) is float:  # the common cell, from tolist(); checked first for speed
        return repr(v)
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    """Write a CSV atomically; float cells use shortest round-trip formatting."""
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(c) for c in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


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
