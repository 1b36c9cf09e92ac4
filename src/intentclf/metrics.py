"""Multi-label evaluation metrics.

Conventions: precision, recall, F1, MCC and AUC are micro-averaged, i.e.
computed over the flattened (sample, label) cells. Jaccard is averaged per
row, with a both-empty row scoring 1. AUC is the Mann-Whitney rank statistic
with ties counted 0.5, so it is invariant under any strictly increasing
transform of the scores. Ratio metrics return 0 when their denominator is 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .dataset import read_json
from .errors import DegenerateAucError, ValidationError


@dataclass(frozen=True)
class MicroCounts:
    """Confusion counts pooled over all (sample, label) cells."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvalReport:
    subset_accuracy: float
    hamming_loss: float
    jaccard: float
    f1: float
    precision: float
    recall: float
    mcc: float
    auc: float | None  # None when the truth cells hold one class only
    sample_count: int
    label_count: int

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "EvalReport":
        return cls(**{k: obj[k] for k in cls.__dataclass_fields__})


def _as_binary(m) -> np.ndarray:
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr.astype(bool)


def _check_shapes(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = _as_binary(pred)
    t = _as_binary(truth)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    return p, t


def subset_accuracy(pred, truth) -> float:
    """Fraction of rows predicted exactly right."""
    p, t = _check_shapes(pred, truth)
    return float(np.mean(np.all(p == t, axis=1)))


def hamming_loss(pred, truth) -> float:
    """Fraction of disagreeing cells."""
    p, t = _check_shapes(pred, truth)
    return float(np.mean(p != t))


def jaccard(pred, truth) -> float:
    """Row-mean of |intersection| / |union|; a both-empty row counts 1."""
    p, t = _check_shapes(pred, truth)
    inter = np.sum(p & t, axis=1).astype(np.float64)
    union = np.sum(p | t, axis=1).astype(np.float64)
    per_row = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(np.mean(per_row))


def micro_counts(pred, truth) -> MicroCounts:
    p, t = _check_shapes(pred, truth)
    tp = int(np.sum(p & t))
    fp = int(np.sum(p & ~t))
    fn = int(np.sum(~p & t))
    tn = int(np.sum(~p & ~t))
    return MicroCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def prf_from_counts(counts: MicroCounts) -> tuple[float, float, float]:
    """(precision, recall, f1) from pooled counts, 0 on empty denominators."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def micro_prf(pred, truth) -> tuple[float, float, float, MicroCounts]:
    """Micro-averaged precision, recall and F1 with the underlying counts."""
    counts = micro_counts(pred, truth)
    precision, recall, f1 = prf_from_counts(counts)
    return precision, recall, f1, counts


def mcc(pred, truth) -> float:
    """Matthews correlation over flattened cells; 0 when any factor is 0."""
    c = micro_counts(pred, truth)
    denom = (
        float(c.tp + c.fp) * float(c.tp + c.fn) * float(c.tn + c.fp) * float(c.tn + c.fn)
    )
    if denom == 0.0:
        return 0.0
    return (float(c.tp) * c.tn - float(c.fp) * c.fn) / math.sqrt(denom)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties getting the mean rank of their block."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # a block of c ties ending at rank e spans e-c+1..e: a half-integer mean, exact
    return ((2 * ends - counts + 1) / 2.0)[block]


def auc(scores, truth) -> float:
    """Micro AUC: the Mann-Whitney statistic over flattened cells.

    Equals the fraction of (positive, negative) cell pairs ranked correctly,
    ties counted 0.5. Raises :class:`DegenerateAucError` when either class is
    absent.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = _as_binary(truth)
    if s.shape != t.shape:
        raise ValidationError(f"shape mismatch: scores {s.shape} vs truth {t.shape}")
    flat_s = s.ravel()
    flat_t = t.ravel()
    n_pos = int(flat_t.sum())
    n_neg = flat_t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateAucError("AUC needs both positive and negative cells")
    ranks = _average_ranks(flat_s)
    rank_sum = float(ranks[flat_t].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def threshold_scores(scores, threshold: float) -> np.ndarray:
    """Binarize scores row-wise; an all-below row falls back to its argmax."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValidationError(f"expected a 2-D score matrix, got shape {s.shape}")
    pred = s > threshold
    empty_rows = ~pred.any(axis=1)
    if empty_rows.any():
        argmax = np.argmax(s, axis=1)
        pred[empty_rows, argmax[empty_rows]] = True
    return pred


def evaluate(scores, threshold: float, truth) -> EvalReport:
    """Threshold scores (argmax fallback) and compute the full metric suite.

    ``auc`` is ``None`` when the truth cells are all positive or all
    negative, where AUC is undefined; the other metrics are still reported.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = _as_binary(truth)
    if s.shape != t.shape:
        raise ValidationError(f"shape mismatch: scores {s.shape} vs truth {t.shape}")
    pred = threshold_scores(s, threshold)
    precision, recall, f1, _ = micro_prf(pred, t)
    try:
        auc_value = auc(s, t)
    except DegenerateAucError:
        auc_value = None
    return EvalReport(
        subset_accuracy=subset_accuracy(pred, t),
        hamming_loss=hamming_loss(pred, t),
        jaccard=jaccard(pred, t),
        f1=f1,
        precision=precision,
        recall=recall,
        mcc=mcc(pred, t),
        auc=auc_value,
        sample_count=int(t.shape[0]),
        label_count=int(t.shape[1]),
    )


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")


def load_report(path: str | Path) -> EvalReport:
    return EvalReport.from_json(read_json(path, "report"))
