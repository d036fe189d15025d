"""Evaluation of estimation quality and downstream label prediction.

Per CF: accuracy of the hard estimates, unweighted macro-F1 over the
category set (classes absent from both truth and prediction score 0),
mean cross entropy of the confidences at the truth, and mean Shannon
entropy of the confidence rows.  Entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .data import _Value, _as_array, _check_codes, _integer_array, _scalar
from .errors import DataError, MissingTruthError, ShapeMismatchError
from .result import EstimationResult

CE_CLIP = 1e-12


class CfScore(_Value):
    """One CF's scores; ``ce_clipped`` counts the rows whose confidence at
    the truth hit the clip."""

    _fields = ("cf_index", "name", "acc", "macro_f1", "ce", "se", "ce_clipped")

    def __init__(self, cf_index: int, name: str, acc: float, macro_f1: float, ce: float,
                 se: float, ce_clipped: int = 0):
        vars(self).update(cf_index=cf_index, name=name, acc=acc, macro_f1=macro_f1, ce=ce, se=se,
                          ce_clipped=ce_clipped)


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
    # Per class c, tp counts the rows where both codes are c, and
    # 2 tp + fp + fn = (rows predicted c) + (rows truly c).
    pred, truth = pred.astype(np.intp).ravel(), truth.astype(np.intp).ravel()
    tp = np.bincount(pred[pred == truth], minlength=n_classes + 1)
    denom = np.bincount(pred, minlength=n_classes + 1) + np.bincount(truth, minlength=n_classes + 1)
    return float(sum(0.0 if d == 0 else 2 * t / d for t, d in zip(tp[1:], denom[1:])) / n_classes)


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
    """Sum of -v log(v) over each row, with 0 log(0) = 0, in one
    buffer of the shape of ``values``."""
    terms = np.log(values, out=np.zeros(values.shape), where=values > 0)
    terms *= values
    return -terms.sum(axis=1)


# ---------------------------------------------------------------------------
# Aggregation over seeds and report emitters


def aggregate_cf_scores(per_seed: list[list[CfScore]]) -> list[dict]:
    """Mean and standard deviation of each metric across seeds, which
    must score the same CFs (see :func:`_common_cfs`)."""
    _common_cfs([[e.name for e in seed_scores] for seed_scores in per_seed], "seeds")
    rows = []
    for j, entries in enumerate(zip(*per_seed)):
        row = {"cf_index": j, "name": entries[0].name}
        for metric in ("acc", "macro_f1", "ce", "se"):
            vals = np.array([getattr(e, metric) for e in entries])
            row[metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
        rows.append(row)
    return rows


def format_cf_table(aggregated: dict[str, list[dict]]) -> str:
    """Aligned text table: one row per (CF, method), mean +/- std.  The
    methods must score the same CFs (see :func:`_common_cfs`)."""
    names = _common_cfs([[r["name"] for r in rows] for rows in aggregated.values()], "methods")
    header = f"{'feature':<16}{'method':<10}{'Acc':<18}{'F1':<18}{'CE':<18}{'SE':<18}"
    lines = [header, "-" * len(header)]
    for j, name in enumerate(names):
        for method, rows in aggregated.items():
            cells = [f"{rows[j][m]['mean']:.4f} ±{rows[j][m]['std']:.4f}"
                     for m in ("acc", "macro_f1", "ce", "se")]
            lines.append(f"{name:<16}{method:<10}" + "".join(f"{c:<18}" for c in cells))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _common_cfs(names: list[list[str]], what: str) -> list[str]:
    """The CF names that each of ``what`` scores, in order: ``names[i]``
    are those of the i-th.  No ``what`` is a :class:`DataError`, and ones
    that score other CFs, or in another order, a :class:`ShapeMismatchError`."""
    if not names:
        raise DataError(f"no {what} to aggregate")
    if any(other != names[0] for other in names):
        raise ShapeMismatchError(f"the {what} score other CFs than {names[0]}")
    return names[0]
