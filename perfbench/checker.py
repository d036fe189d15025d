"""Checks on the files the CLI writes.

Each function returns a list of problems (empty when the output is
correct).  The checks read the files with plain ``json``/``csv`` and
numpy, independently of the ``compfeat`` code that wrote them.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

ROW_SUM_TOL = 1e-10


def read_vocabularies(schema_path: str) -> dict[str, list[str]]:
    """Column name -> vocabulary, from a ``name = kind role v1|v2|...`` schema file."""
    vocab = {}
    with open(schema_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, rest = line.split("=", 1)
            parts = rest.split(None, 2)
            vocab[name.strip()] = parts[2].split("|") if len(parts) == 3 else []
    return vocab


def read_observed(prepared_csv: str, vocab: dict[str, list[str]]) -> dict[str, np.ndarray]:
    """CF name -> 1-based observed codes, from a ``compfeat prepare`` CSV."""
    with open(prepared_csv, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = {}
    for pos, col in enumerate(header):
        if col.endswith("__observed"):
            name = col[: -len("__observed")]
            lookup = {v: i + 1 for i, v in enumerate(vocab[name])}
            out[name] = np.array([lookup[row[pos]] for row in rows], dtype=np.int64)
    return out


def check_estimate(path: str, observed: dict[str, np.ndarray], method: str) -> list[str]:
    """Stochastic rows, zero confidence at the observed value, consistent hard estimates."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = doc["cf_names"]
        hard = np.asarray(doc["hard_estimates"], dtype=np.int64)
        conf = doc["confidences"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable estimate file ({exc!r})"]
    problems = []
    n = next(iter(observed.values())).shape[0]
    if sorted(names) != sorted(observed) or hard.shape != (n, len(names)):
        return [f"{path}: CF names or hard-estimate shape do not match the data"]
    for j, name in enumerate(names):
        try:
            vals = np.asarray(conf[name], dtype=np.float64)
        except (KeyError, ValueError, TypeError):
            problems.append(f"{path}: {name}: missing or ragged confidences")
            continue
        obs = observed[name]
        if vals.ndim != 2 or vals.shape[0] != n:
            problems.append(f"{path}: {name}: confidence shape {vals.shape}")
            continue
        rows = np.arange(n)
        h = hard[:, j]
        if not np.isfinite(vals).all() or vals.min() < 0.0:
            problems.append(f"{path}: {name}: negative or non-finite confidence")
        elif np.abs(vals.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            problems.append(f"{path}: {name}: rows not stochastic within {ROW_SUM_TOL}")
        if (vals[rows, obs - 1] != 0.0).any():
            problems.append(f"{path}: {name}: non-zero confidence at the observed value")
        if h.min() < 1 or h.max() > vals.shape[1]:
            problems.append(f"{path}: {name}: hard estimate out of range")
        elif method == "comp":
            # The comp baseline draws seeded random complements, not the argmax.
            if (h == obs).any():
                problems.append(f"{path}: {name}: hard estimate equals the observed value")
        elif (h != vals.argmax(axis=1) + 1).any():
            problems.append(f"{path}: {name}: hard estimate is not the lowest-code argmax")
    return problems


def _non_finite(node) -> bool:
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_non_finite(v) for v in node.values())
    if isinstance(node, list):
        return any(_non_finite(v) for v in node)
    return False


def check_report(path: str) -> tuple[list[str], str | None]:
    """All numbers finite; returns the problems and the report's content_hash."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        digest = doc["content_hash"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable report ({exc!r})"], None
    if _non_finite(doc):
        return [f"{path}: non-finite number in report"], digest
    return [], digest
