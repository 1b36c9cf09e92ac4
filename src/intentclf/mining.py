"""Within-batch pair construction and hard-pair mining, as per-batch arrays.

A batch of n samples has P = C(n,2) unordered pairs. A :class:`PairSet`
holds their endpoints in ``np.triu_indices(n, 1)`` order, so a pair's index
is its row in that order: (0,1), (0,2), ..., (1,2), ... The batch's
similarities are one length-P vector in that order, and mining names the
pairs it keeps by their index into it.

Mining runs in five steps over the positive and the negative pairs of a
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
    """The pairs mining kept, as indices into the batch's pair order.

    ``pos_final`` is the selected refined prefix followed by the hard
    positives (in pair-index order); ``neg_final`` likewise.
    """

    pos_final: np.ndarray
    neg_final: np.ndarray
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


def batch_similarity_table(z: np.ndarray, pair_set: PairSet) -> np.ndarray:
    """Similarity of every pair, in pair order, from row-normalized projections ``z``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != pair_set.batch_size:
        raise ValidationError(
            f"expected {pair_set.batch_size} projection rows, got shape {z.shape}"
        )
    gram = np.clip(z @ z.T, -1.0, 1.0)
    return gram[pair_set.pairs[:, 0], pair_set.pairs[:, 1]]


def _top_count(p: float, size: int) -> int:
    # ceil(p/100 * size) with exact rational arithmetic, so integer-valued
    # percentages never pick up a float-rounding extra element.
    if size == 0:
        return 0
    return int(math.ceil(Fraction(p) * size / 100))


def _hard_mask(sims: np.ndarray, threshold: float | None, above: bool) -> np.ndarray:
    if threshold is None:
        return np.zeros(sims.size, dtype=bool)
    return sims > threshold if above else sims < threshold


def _refined_order(index: np.ndarray, sims: np.ndarray, descending: bool) -> np.ndarray:
    """Pair indices ``index`` sorted by their similarities ``sims``, then by index."""
    return index[np.lexsort((index, -sims if descending else sims))]


def mine(sims: np.ndarray, positive: np.ndarray, config: MiningConfig) -> MinedPairs:
    """Run hard extraction, refinement, sorting, top-p selection and concat.

    ``sims`` holds the similarity of every pair of the batch, in pair order,
    and ``positive`` their polarities. Degenerate rule: a batch with no
    negative pair has no hard positive (and symmetrically).
    """
    pos = np.flatnonzero(positive)
    neg = np.flatnonzero(~positive)
    s_pos, s_neg = sims[pos], sims[neg]
    literal = config.mode == "literal"
    t_neg = (np.min if literal else np.max)(s_neg) if neg.size else None
    t_pos = (np.max if literal else np.min)(s_pos) if pos.size else None
    hard_pos = _hard_mask(s_pos, t_neg, above=literal)
    hard_neg = _hard_mask(s_neg, t_pos, above=not literal)

    refined_pos = _refined_order(pos[~hard_pos], s_pos[~hard_pos], descending=True)
    refined_neg = _refined_order(neg[~hard_neg], s_neg[~hard_neg], descending=False)
    selected_pos = refined_pos[: _top_count(config.p, refined_pos.size)]
    selected_neg = refined_neg[: _top_count(config.p, refined_neg.size)]

    return MinedPairs(
        pos_final=np.concatenate((selected_pos, pos[hard_pos])),
        neg_final=np.concatenate((selected_neg, neg[hard_neg])),
        counts=MinedCounts(
            h_pos=int(np.count_nonzero(hard_pos)),
            h_neg=int(np.count_nonzero(hard_neg)),
            o_pos=refined_pos.size,
            o_neg=refined_neg.size,
            selected_pos=selected_pos.size,
            selected_neg=selected_neg.size,
        ),
    )
