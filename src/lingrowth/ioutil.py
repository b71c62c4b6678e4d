"""Deterministic serialization helpers shared by reports and the CLI, and
the one check of a config's keys.

All floats are quantized to 12 significant digits before writing, JSON
keys are sorted, and wall-clock values never enter a file unless the
caller opts in through SOURCE_DATE_EPOCH -- identical inputs therefore
produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Optional


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit rendering of a float."""
    return f"{x:.12g}"


def quantize(obj):
    """Recursively round floats to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(fmt12(obj))
        return obj
    if isinstance(obj, dict):
        return {k: quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [quantize(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Serialize with sorted keys and quantized floats."""
    with open(path, "w") as fh:
        json.dump(quantize(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv_records(path, records) -> None:
    """Write a list of homogeneous dicts as a CSV table, floats at 12
    significant digits.  An empty record list writes an empty file."""
    with open(path, "w", newline="") as fh:
        if not records:
            return
        fields = list(records[0].keys())
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_cell(rec.get(k)) for k in fields])


def _cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return fmt12(v) if math.isfinite(v) else str(v)
    return v


def check_keys(cfg, allowed, what: str) -> None:
    """Reject every key of the config ``cfg`` outside ``allowed``, so a
    misspelled or misplaced key is an error, not a silent default."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")


def deterministic_timestamp() -> Optional[int]:
    """Reproducible-build convention: reports carry a timestamp only when
    SOURCE_DATE_EPOCH is set, so identical runs stay byte-identical."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    return int(raw) if raw else None


def thread_budget() -> int:
    """LINGROWTH_THREADS as an integer >= 1 (default 1).  Nothing in the
    package reads it; only the benchmark's environment record does."""
    raw = os.environ.get("LINGROWTH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"LINGROWTH_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)
