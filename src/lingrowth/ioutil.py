"""Deterministic serialization helpers shared by reports and the CLI, the
one check of a config's keys, and the strict casts of its integer and
real values, which the library's entry points also apply to their count
and real arguments.  :func:`checked` holds the one wording of a bad
value's error: the key's or argument's name, then what its cast rejected.

All floats are quantized to 12 significant digits before writing, JSON
keys are sorted, and wall-clock values never enter a file unless the
caller opts in through SOURCE_DATE_EPOCH -- identical inputs therefore
produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from typing import Optional

import numpy as np


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


def checked(cast, value, what: str, *args):
    """``cast(value, *args)``; a ValueError or TypeError it raises becomes
    one ValueError that starts with ``what``, the name of the key."""
    try:
        return cast(value, *args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def integer(value, low: Optional[int] = None) -> int:
    """The value of an integer config key or count argument as an int, from
    an int or a numpy integer; a bool, a fraction, a string or, when
    ``low`` is given, an integer below it is an error."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"must be an integer{bound}, got {value!r}")
    return int(value)


def real(value) -> float:
    """The value of a real config key or argument as a float, from an int,
    a float or a numpy integer or float of any width; a bool, a string,
    NaN, +-inf or an int beyond the floats is an error."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:   # an int beyond the largest float
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"must be a finite real number, got {value!r}")


def reals(value, length: Optional[int] = None) -> tuple:
    """The value of a list-of-reals config key as a tuple of floats, from a
    list, a tuple or a 1-D numpy array (of ``length`` entries when given),
    each entry :func:`real`."""
    is_list = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1
    if not is_list or length is not None and len(value) != length:
        count = "" if length is None else f"{length} "
        raise ValueError(f"must be a list of {count}real numbers, "
                         f"got {value!r}")
    return tuple(real(v) for v in value)


def real_array(value) -> np.ndarray:
    """The value of a list-of-reals argument as a new 1-D float array: a
    1-D numpy array of ints or floats is taken whole, its range left to
    the caller's test; any other value is cast entry by entry by
    :func:`reals`."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"
            and value.ndim == 1):
        value = reals(value)
    return np.array(value, dtype=float)


def deterministic_timestamp() -> Optional[int]:
    """Reproducible-build convention: reports carry a timestamp only when
    SOURCE_DATE_EPOCH is set, so identical runs stay byte-identical."""
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    return int(raw) if raw else None


def thread_budget() -> int:
    """LINGROWTH_THREADS as an integer >= 1 (default 1).  Nothing in the
    package reads it; only the benchmark's environment record does."""
    raw = os.environ.get("LINGROWTH_THREADS", "1")
    return max(1, checked(int, raw, "LINGROWTH_THREADS"))
