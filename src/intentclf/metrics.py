"""Multi-label evaluation metrics.

Conventions: precision, recall, F1, MCC and Hamming loss are properties of
one :class:`MicroCounts` table, the confusion counts pooled over the
flattened (sample, label) cells; AUC is micro-averaged too. Subset accuracy
and Jaccard are averaged per row, a both-empty row scoring 1 in Jaccard.
AUC is the Mann-Whitney rank statistic with ties counted 0.5, so it is
invariant under any strictly increasing transform of the scores. Ratio
metrics return 0 when their denominator is 0. Inputs must be 2-D matrices
of one shape with at least one row and one column; anything else raises
:class:`ValidationError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ValidationError


def _checked(x, truth, dtype=bool) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a ``dtype`` matrix and ``truth`` as a bool one: 2-D, one shape, no empty axis."""
    x, t = np.asarray(x, dtype=dtype), np.asarray(truth, dtype=bool)
    if x.ndim != 2 or x.shape != t.shape or 0 in x.shape:
        raise ValidationError(f"expected non-empty 2-D matrices of one shape, got {x.shape} and truth {t.shape}")
    return x, t


@dataclass(frozen=True)
class MicroCounts:
    """Confusion counts pooled over all (sample, label) cells, and the micro
    metrics read from them."""

    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def of(cls, pred, truth) -> "MicroCounts":
        """The counts of a prediction matrix against the truth matrix."""
        return cls._count(*_checked(pred, truth))

    @classmethod
    def _count(cls, p: np.ndarray, t: np.ndarray) -> "MicroCounts":
        tp = int(np.count_nonzero(p & t))
        predicted, actual = int(np.count_nonzero(p)), int(np.count_nonzero(t))
        return cls(tp=tp, fp=predicted - tp, fn=actual - tp, tn=t.size - predicted - actual + tp)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0

    @property
    def mcc(self) -> float:
        """Matthews correlation; 0 when any factor is 0."""
        tp, fp, fn, tn = self.tp, self.fp, self.fn, self.tn
        denom = float(tp + fp) * float(tp + fn) * float(tn + fp) * float(tn + fn)
        if denom == 0.0:
            return 0.0
        return (float(tp) * tn - float(fp) * fn) / math.sqrt(denom)

    @property
    def hamming_loss(self) -> float:
        """Fraction of disagreeing cells."""
        cells = self.tp + self.fp + self.fn + self.tn
        return (self.fp + self.fn) / cells if cells else 0.0


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


def _subset_accuracy(p: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean(np.all(p == t, axis=1)))


def subset_accuracy(pred, truth) -> float:
    """Fraction of rows predicted exactly right."""
    return _subset_accuracy(*_checked(pred, truth))


def _jaccard(p: np.ndarray, t: np.ndarray) -> float:
    inter = np.sum(p & t, axis=1).astype(np.float64)
    union = np.sum(p | t, axis=1).astype(np.float64)
    per_row = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(np.mean(per_row))


def jaccard(pred, truth) -> float:
    """Row-mean of |intersection| / |union|; a both-empty row counts 1."""
    return _jaccard(*_checked(pred, truth))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties getting the mean rank of their block."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # a block of c ties ending at rank e spans e-c+1..e: a half-integer mean, exact
    return ((2 * ends - counts + 1) / 2.0)[block]


def _auc(s: np.ndarray, t: np.ndarray) -> float | None:
    flat_t = t.ravel()
    n_pos = int(flat_t.sum())
    n_neg = flat_t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    rank_sum = float(_average_ranks(s.ravel())[flat_t].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores, truth) -> float:
    """Micro AUC: the Mann-Whitney statistic over flattened cells.

    Equals the fraction of (positive, negative) cell pairs ranked correctly,
    ties counted 0.5. Raises :class:`ValidationError` when either class is
    absent.
    """
    value = _auc(*_checked(scores, truth, np.float64))
    if value is None:
        raise ValidationError("AUC needs both positive and negative cells")
    return value


def _decide(s: np.ndarray, threshold: float) -> np.ndarray:
    pred = s > threshold
    empty_rows = ~pred.any(axis=1)
    if empty_rows.any():
        pred[empty_rows, np.argmax(s[empty_rows], axis=1)] = True
    return pred


def threshold_scores(scores, threshold: float) -> np.ndarray:
    """Binarize scores row-wise; an all-below row falls back to its argmax."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] == 0:
        raise ValidationError(f"expected a 2-D score matrix with columns, got shape {s.shape}")
    return _decide(s, threshold)


def evaluate(scores, threshold: float, truth) -> EvalReport:
    """Threshold scores (argmax fallback) and compute the full metric suite.

    ``auc`` is ``None`` when the truth cells are all positive or all
    negative, where AUC is undefined; the other metrics are still reported.
    """
    s, t = _checked(scores, truth, np.float64)
    pred = _decide(s, threshold)
    counts = MicroCounts._count(pred, t)
    return EvalReport(
        subset_accuracy=_subset_accuracy(pred, t),
        hamming_loss=counts.hamming_loss,
        jaccard=_jaccard(pred, t),
        f1=counts.f1,
        precision=counts.precision,
        recall=counts.recall,
        mcc=counts.mcc,
        auc=_auc(s, t),
        sample_count=int(t.shape[0]),
        label_count=int(t.shape[1]),
    )


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
