"""Evaluation metrics for the regression and classification heads.

Regression reports MAE, MAPE (percent), and the fraction of estimates within
a clinical threshold (inclusive comparison). Classification reports the
confusion counts, accuracy, sensitivity, specificity, and Cohen's kappa with
chance agreement computed from the marginals. Degenerate cases (a class
absent from both labels and predictions) resolve to 1.0 by convention and
are flagged in the report so downstream consumers can tell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .errors import EmptyInput, LengthMismatch, ValueOutOfRange, ZeroTargetForMAPE


@dataclass
class MetricsReport:
    n: int
    mae: Optional[float] = None
    mape_percent: Optional[float] = None
    mape_complement: Optional[float] = None
    threshold: Optional[float] = None
    frac_within_threshold: Optional[float] = None
    accuracy: Optional[float] = None
    sensitivity: Optional[float] = None
    specificity: Optional[float] = None
    kappa: Optional[float] = None
    tp: Optional[int] = None
    fp: Optional[int] = None
    tn: Optional[int] = None
    fn: Optional[int] = None
    conventions: Tuple[str, ...] = ()

    NUMERIC_FIELDS = ("mae", "mape_percent", "mape_complement",
                      "frac_within_threshold", "accuracy", "sensitivity",
                      "specificity", "kappa")

    def to_json_dict(self) -> dict:
        """Every field that is set, in field order: not None, and not an
        empty ``conventions``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["conventions"] = list(self.conventions) or None
        return {name: value for name, value in doc.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def regression_metrics(y_true, y_pred, threshold: float) -> MetricsReport:
    """MAE, MAPE (percent of |error/target|), and inclusive within-threshold
    fraction."""
    y = np.asarray(y_true, dtype=np.float64)
    yh = np.asarray(y_pred, dtype=np.float64)
    if y.shape != yh.shape or y.ndim != 1:
        raise LengthMismatch(f"shapes {y.shape} and {yh.shape} differ")
    if y.size < 1:
        raise EmptyInput("no samples")
    if np.any(y == 0.0):
        raise ZeroTargetForMAPE("MAPE undefined for zero targets")
    err = np.abs(y - yh)
    mae = float(err.mean())
    mape = float(100.0 * np.mean(err / np.abs(y)))
    frac = float(np.mean(err <= threshold))
    return MetricsReport(n=y.size, mae=mae, mape_percent=mape,
                         mape_complement=100.0 - mape, threshold=threshold,
                         frac_within_threshold=frac)


def classification_metrics(probs, labels, decision_threshold: float = 0.5) -> MetricsReport:
    """Confusion-derived metrics; predictions are prob >= decision_threshold."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise LengthMismatch(f"shapes {p.shape} and {y.shape} differ")
    if p.size < 1:
        raise EmptyInput("no samples")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueOutOfRange("classification labels must be binary 0/1")
    pred = p >= decision_threshold
    pos = y == 1.0
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    n = tp + fp + fn + tn

    conventions = []
    accuracy = (tp + tn) / n
    if tp + fn == 0:
        sensitivity = 1.0
        conventions.append("sensitivity_no_positives")
    else:
        sensitivity = tp / (tp + fn)
    if tn + fp == 0:
        specificity = 1.0
        conventions.append("specificity_no_negatives")
    else:
        specificity = tn / (tn + fp)

    p_o = accuracy
    p_e = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    if p_e >= 1.0:
        kappa = 1.0 if p_o >= 1.0 else 0.0
        conventions.append("kappa_degenerate_marginals")
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)

    return MetricsReport(n=n, accuracy=float(accuracy),
                         sensitivity=float(sensitivity),
                         specificity=float(specificity), kappa=float(kappa),
                         tp=tp, fp=fp, tn=tn, fn=fn,
                         conventions=tuple(conventions))
