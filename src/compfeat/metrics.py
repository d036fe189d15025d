"""Evaluation of estimation quality and downstream label prediction.

Per CF: accuracy of the hard estimates, unweighted macro-F1 over the
category set (classes absent from both truth and prediction score 0),
mean cross entropy of the confidences at the truth, and mean Shannon
entropy of the confidence rows.  Entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _as_array, _check_codes, _integer_array, _scalar
from .errors import DataError, MissingTruthError, ShapeMismatchError
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
    """Score every CF of an estimation result against hidden truth codes.

    ``truth`` must be (n, F), one integer code in 1..u_j per row and CF:
    a wrong or ragged shape is a :class:`ShapeMismatchError`; a code of
    another dtype, or outside 1..u_j, is a :class:`DataError`.
    """
    if truth is None:
        raise MissingTruthError("score_cf needs ground-truth CF values")
    truth = _integer_array(truth, "truth codes")
    if truth.shape != (result.n, len(result.cf_names)):
        raise ShapeMismatchError(f"truth of shape {truth.shape} does not fit "
                                 f"{result.n} rows and {len(result.cf_names)} CFs")
    scores = []
    for j, name in enumerate(result.cf_names):
        block = result.block(j)
        t = truth[:, j]
        hard = result.hard_estimates[:, j]
        acc = float(np.mean(hard == t))
        f1 = macro_f1(hard, t, n_classes=block.shape[1])  # checks t's codes
        at_truth = block[np.arange(result.n), t - 1]
        clipped = int(np.sum(at_truth < CE_CLIP))
        ce = float(np.mean(-np.log(np.maximum(at_truth, CE_CLIP))))
        se = float(np.mean(_row_entropy(block)))
        scores.append(CfScore(cf_index=j, name=name, acc=acc,
                              macro_f1=f1, ce=ce, se=se, ce_clipped=clipped))
    return scores


def macro_f1(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class F1 of two code arrays of one shape over codes 1..n_classes."""
    n_classes = _scalar(n_classes, "n_classes", 1, integer=True)
    pred = _integer_array(pred, "predicted codes")
    truth = _integer_array(truth, "truth codes")
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"predicted codes {pred.shape} do not match truth {truth.shape}")
    _check_codes(pred, n_classes, "predicted codes")
    _check_codes(truth, n_classes, "truth codes")
    total = 0.0
    for c in range(1, n_classes + 1):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        denom = 2 * tp + fp + fn
        total += 0.0 if denom == 0 else 2 * tp / denom
    return float(total / n_classes)


def score_labels(pred, truth: np.ndarray) -> float:
    """Binary macro-F1 of label codes in {1, 2}; ``pred`` holds codes, or
    probabilities of code 2 in [0, 1], thresholded at 0.5.  A probability
    that is NaN or outside [0, 1] is a :class:`DataError`."""
    pred = _as_array(pred, "predictions")
    if np.issubdtype(pred.dtype, np.floating):
        if not (pred.min(initial=0.0) >= 0.0 and pred.max(initial=1.0) <= 1.0):
            raise DataError("predicted probabilities must lie in [0, 1]")
        pred = np.where(pred >= 0.5, 2, 1)
    return macro_f1(pred, truth, n_classes=2)


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
