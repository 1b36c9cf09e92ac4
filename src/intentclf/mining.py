"""Within-batch pair construction and hard-pair mining, as per-batch arrays.

A batch of n samples has P = C(n,2) unordered pairs. A :class:`PairSet`
holds their endpoints in ``np.triu_indices(n, 1)`` order, so a pair's index
is its row in that order: (0,1), (0,2), ..., (1,2), ... Every later table
(similarities, mined sets, loss gradients) names pairs by that index, as
parallel index and value arrays.

Mining runs in five steps over the positive/negative similarity tables of a
batch:

1. hard extraction: pairs whose similarity falls on the wrong side of the
   opposite polarity's extremum;
2. refinement: the relative complement of the hard set within its table;
3. sorting: refined positives descending, refined negatives ascending, ties
   broken by ascending pair index;
4. top-p selection: the first ``ceil(p/100 * k)`` sorted refined pairs;
5. concatenation: selected prefix plus the hard set, per polarity.

Two threshold conventions are supported. ``literal`` keeps positives whose
similarity exceeds min(negatives) and negatives below max(positives).
``standard`` is the usual online-contrastive convention: positives below
max(negatives) and negatives above min(positives) count as hard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import JsonConfig
from .errors import ValidationError

_MODES = ("literal", "standard")
_POSITIVE_RULES = ("exact", "overlap")


@dataclass(frozen=True)
class PairSet:
    """All unordered pairs of a batch, in ``np.triu_indices(n, 1)`` order.

    ``pairs`` is the P x 2 array of endpoints (a < b, lexicographic) and
    ``positive`` the length-P polarity mask; a pair's index is its row.
    """

    pairs: np.ndarray
    positive: np.ndarray
    batch_size: int


@dataclass(frozen=True)
class PairSims:
    """Similarities of some pairs of one batch, as parallel arrays.

    ``sim[k]`` is the similarity of the pair whose index into the
    originating :class:`PairSet` is ``index[k]``. ``len()`` is the number of
    entries.
    """

    index: np.ndarray
    sim: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.intp)
        sim = np.asarray(self.sim, dtype=np.float64)
        if index.ndim != 1 or index.shape != sim.shape:
            raise ValidationError(
                f"pair indices and similarities must be equal-length 1-D arrays, "
                f"got shapes {index.shape} and {sim.shape}"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "sim", sim)

    def __len__(self) -> int:
        return self.index.size

    def take(self, rows: np.ndarray) -> "PairSims":
        """The entries at ``rows`` (positions or a boolean mask), in that order."""
        return PairSims(self.index[rows], self.sim[rows])


@dataclass(frozen=True)
class SimilarityTable:
    """Pairwise similarities split by polarity, each in pair-index order."""

    d_pos: PairSims
    d_neg: PairSims


@dataclass(frozen=True)
class MiningConfig(JsonConfig):
    p: float = 10.0
    mode: str = "literal"
    positive_rule: str = "exact"

    def __post_init__(self):
        if not 0.0 <= self.p <= 100.0:
            raise ValidationError(f"p must be in [0,100], got {self.p}")
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.positive_rule not in _POSITIVE_RULES:
            raise ValidationError(
                f"positive_rule must be one of {_POSITIVE_RULES}, got {self.positive_rule!r}"
            )


@dataclass(frozen=True)
class MinedCounts:
    h_pos: int
    h_neg: int
    o_pos: int
    o_neg: int
    selected_pos: int
    selected_neg: int


@dataclass(frozen=True)
class MinedPairs:
    """Retained pair similarities after mining, with provenance indices.

    ``pos_final`` is the selected refined prefix followed by the hard
    positives (in table order); ``neg_final`` likewise. ``t_neg`` is the
    threshold derived from the negative table that gated hard positives,
    ``t_pos`` the converse; either is None when its source table was empty.
    """

    pos_final: PairSims
    neg_final: PairSims
    t_neg: float | None
    t_pos: float | None
    counts: MinedCounts


def build_pairs(labels: np.ndarray, rule: str = "exact") -> PairSet:
    """Enumerate all C(n,2) unordered pairs and assign polarities.

    ``labels`` holds the batch's multi-hot label rows (n x m). ``exact``:
    positive iff the two rows are equal (they set the same columns).
    ``overlap``: positive iff they share a set column.
    """
    if rule not in _POSITIVE_RULES:
        raise ValidationError(f"positive_rule must be one of {_POSITIVE_RULES}, got {rule!r}")
    hot = np.asarray(labels) != 0
    if hot.ndim != 2:
        raise ValidationError(f"expected multi-hot label rows, got shape {hot.shape}")
    n = len(hot)
    if n < 2:
        raise ValidationError(f"need a batch of >= 2 samples, got {n}")
    a, b = np.triu_indices(n, 1)
    # shared[i, j] counts the columns rows i and j both set; exact in float64
    h = hot.astype(np.float64)
    shared = h @ h.T
    if rule == "exact":
        size = np.diag(shared)
        positive = ((shared == size) & (shared == size[:, None]))[a, b]
    else:
        positive = (shared > 0)[a, b]
    return PairSet(pairs=np.stack((a, b), axis=1), positive=positive, batch_size=n)


def batch_similarity_table(z: np.ndarray, pair_set: PairSet) -> SimilarityTable:
    """Similarities of every pair from row-normalized projections ``z``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != pair_set.batch_size:
        raise ValidationError(
            f"expected {pair_set.batch_size} projection rows, got shape {z.shape}"
        )
    gram = np.clip(z @ z.T, -1.0, 1.0)
    sims = gram[pair_set.pairs[:, 0], pair_set.pairs[:, 1]]
    pos = np.flatnonzero(pair_set.positive)
    neg = np.flatnonzero(~pair_set.positive)
    return SimilarityTable(d_pos=PairSims(pos, sims[pos]), d_neg=PairSims(neg, sims[neg]))


def _top_count(p: float, size: int) -> int:
    # ceil(p/100 * size) with exact rational arithmetic, so integer-valued
    # percentages never pick up a float-rounding extra element.
    if size == 0:
        return 0
    return int(math.ceil(Fraction(p) * size / 100))


def _hard_mask(side: PairSims, threshold: float | None, above: bool) -> np.ndarray:
    if threshold is None:
        return np.zeros(len(side), dtype=bool)
    return side.sim > threshold if above else side.sim < threshold


def _refined_order(side: PairSims, hard: np.ndarray, descending: bool) -> np.ndarray:
    """Positions of the non-hard entries, sorted by similarity then pair index."""
    rest = np.flatnonzero(~hard)
    sims = side.sim[rest]
    return rest[np.lexsort((side.index[rest], -sims if descending else sims))]


def mine(table: SimilarityTable, config: MiningConfig) -> MinedPairs:
    """Run hard extraction, refinement, sorting, top-p selection and concat.

    Degenerate rule: an empty negative table leaves ``t_neg`` unset and the
    hard-positive set empty (and symmetrically for positives).
    """
    d_pos, d_neg = table.d_pos, table.d_neg
    literal = config.mode == "literal"
    t_neg = float((np.min if literal else np.max)(d_neg.sim)) if len(d_neg) else None
    t_pos = float((np.max if literal else np.min)(d_pos.sim)) if len(d_pos) else None
    hard_pos = _hard_mask(d_pos, t_neg, above=literal)
    hard_neg = _hard_mask(d_neg, t_pos, above=not literal)

    refined_pos = _refined_order(d_pos, hard_pos, descending=True)
    refined_neg = _refined_order(d_neg, hard_neg, descending=False)
    selected_pos = refined_pos[: _top_count(config.p, len(refined_pos))]
    selected_neg = refined_neg[: _top_count(config.p, len(refined_neg))]

    return MinedPairs(
        pos_final=d_pos.take(np.concatenate((selected_pos, np.flatnonzero(hard_pos)))),
        neg_final=d_neg.take(np.concatenate((selected_neg, np.flatnonzero(hard_neg)))),
        t_neg=t_neg,
        t_pos=t_pos,
        counts=MinedCounts(
            h_pos=int(np.count_nonzero(hard_pos)),
            h_neg=int(np.count_nonzero(hard_neg)),
            o_pos=len(refined_pos),
            o_neg=len(refined_neg),
            selected_pos=len(selected_pos),
            selected_neg=len(selected_neg),
        ),
    )
