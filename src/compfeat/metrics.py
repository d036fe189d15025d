"""Evaluation of estimation quality and downstream label prediction.

Per CF: accuracy of the hard estimates, unweighted macro-F1 over the
category set (classes absent from both truth and prediction score 0),
mean cross entropy of the confidences at the truth, and mean Shannon
entropy of the confidence rows.  Entropies are in nats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingTruthError
from .propagation import EstimationResult

CE_CLIP = 1e-12


@dataclass(frozen=True)
class CfScore:
    cf_index: int
    name: str
    acc: float
    macro_f1: float
    ce: float
    se: float
    ce_clipped: int = 0  # rows whose confidence at the truth hit the clip


def score_cf(result: EstimationResult, truth: np.ndarray) -> list[CfScore]:
    """Score every CF of an estimation result against hidden truth codes."""
    if truth is None:
        raise MissingTruthError("score_cf needs ground-truth CF values")
    truth = np.asarray(truth, dtype=np.int64)
    scores = []
    for j, name in enumerate(result.cf_names):
        block = result.block(j)
        t = truth[:, j]
        hard = result.hard_estimates[:, j]
        acc = float(np.mean(hard == t))
        f1 = macro_f1(hard, t, n_classes=block.shape[1])
        at_truth = block[np.arange(result.n), t - 1]
        clipped = int(np.sum(at_truth < CE_CLIP))
        ce = float(np.mean(-np.log(np.maximum(at_truth, CE_CLIP))))
        se = float(np.mean(_row_entropy(block)))
        scores.append(CfScore(cf_index=j, name=name, acc=acc,
                              macro_f1=f1, ce=ce, se=se, ce_clipped=clipped))
    return scores


def macro_f1(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class F1 over codes 1..n_classes."""
    total = 0.0
    for c in range(1, n_classes + 1):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        denom = 2 * tp + fp + fn
        total += 0.0 if denom == 0 else 2 * tp / denom
    return float(total / n_classes)


def score_labels(pred, truth: np.ndarray) -> float:
    """Binary macro-F1; probabilities are thresholded at 0.5."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred)
    if np.issubdtype(pred.dtype, np.floating):
        pred = np.where(pred >= 0.5, 2, 1)
    return macro_f1(pred.astype(np.int64), truth, n_classes=2)


def _row_entropy(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(values > 0, values * np.log(values), 0.0)
    return -terms.sum(axis=1)


# ---------------------------------------------------------------------------
# Aggregation over seeds and report emitters


def aggregate_cf_scores(per_seed: list[list[CfScore]]) -> list[dict]:
    """Mean and standard deviation of each metric across seeds."""
    rows = []
    for j in range(len(per_seed[0])):
        entries = [seed_scores[j] for seed_scores in per_seed]
        row = {"cf_index": j, "name": entries[0].name}
        for metric in ("acc", "macro_f1", "ce", "se"):
            vals = np.array([getattr(e, metric) for e in entries])
            row[metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
        rows.append(row)
    return rows


def format_cf_table(aggregated: dict[str, list[dict]]) -> str:
    """Aligned text table: one row per (CF, method), mean +/- std."""
    header = f"{'feature':<16}{'method':<10}{'Acc':<18}{'F1':<18}{'CE':<18}{'SE':<18}"
    lines = [header, "-" * len(header)]
    names = [row["name"] for row in next(iter(aggregated.values()))]
    for name in names:
        for method, rows in aggregated.items():
            row = next(r for r in rows if r["name"] == name)
            cells = [
                f"{row[m]['mean']:.4f} ±{row[m]['std']:.4f}"
                for m in ("acc", "macro_f1", "ce", "se")
            ]
            lines.append(f"{name:<16}{method:<10}" + "".join(f"{c:<18}" for c in cells))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_json(doc: dict, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
