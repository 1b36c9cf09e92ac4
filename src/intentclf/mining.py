"""Within-batch pair construction and hard-pair mining, as per-batch arrays.

A batch of n samples has P = C(n,2) unordered pairs. A :class:`PairSet`
holds their endpoints in ``np.triu_indices(n, 1)`` order, so a pair's index
is its row in that order: (0,1), (0,2), ..., (1,2), ... The batch's
similarities are one length-P vector in that order, and mining names the
pairs it keeps by their index into it.

Mining keeps pairs by one rule, applied once per polarity. Each pair gets
a score ``u``; a pair is *hard* when its ``u`` exceeds the least ``u`` of
the opposite polarity (with no opposite pair, nothing is hard). The other,
*refined* pairs are sorted best first (positives by descending similarity,
negatives ascending, ties by ascending pair index), and the first
``ceil(p/100 * k)`` of those k are kept, followed by the hard pairs in
pair-index order.

The ``mode`` picks ``v``: ``literal`` scores by ``v = s``, ``standard`` by
``v = -s``; positives use ``u = v`` and negatives ``u = -v``. So ``literal``
keeps positives above min(negatives) and negatives below max(positives),
and ``standard``, the usual online-contrastive convention, is ``literal``
on -s: positives below max(negatives) and negatives above min(positives).
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


def _keep(u: np.ndarray, u_other: np.ndarray, own: np.ndarray, key: np.ndarray, p: float):
    """The kept pairs of one polarity, and its (hard, refined, selected) counts.

    ``own`` indexes the polarity's pairs, ``u`` and ``key`` hold their scores
    and sort keys, ``u_other`` the opposite polarity's scores. Hard: ``u``
    above the least ``u_other``. The rest are sorted by ``key``, then by pair
    index, and their top-p prefix leads.
    """
    hard = u > u_other.min(initial=np.inf)
    refined = own[~hard]
    selected = refined[np.lexsort((refined, key[~hard]))[: _top_count(p, refined.size)]]
    counts = (int(np.count_nonzero(hard)), refined.size, selected.size)
    return np.concatenate((selected, own[hard])), counts


def mine(sims: np.ndarray, positive: np.ndarray, config: MiningConfig) -> MinedPairs:
    """Keep the hard pairs and the top-p refined pairs of each polarity.

    ``sims`` holds the similarity of every pair of the batch, in pair order,
    and ``positive`` their polarities. Degenerate rule: a batch with no
    negative pair has no hard positive (and symmetrically).
    """
    pos = np.flatnonzero(positive)
    neg = np.flatnonzero(~positive)
    s = sims[pos], sims[neg]
    flipped = -s[0], -s[1]
    # v and -v, each as (positives, negatives); positives score u = v, negatives u = -v
    v, minus_v = (s, flipped) if config.mode == "literal" else (flipped, s)
    pos_final, (h_pos, o_pos, selected_pos) = _keep(v[0], v[1], pos, flipped[0], config.p)
    neg_final, (h_neg, o_neg, selected_neg) = _keep(minus_v[1], minus_v[0], neg, s[1], config.p)
    return MinedPairs(pos_final, neg_final, MinedCounts(h_pos, h_neg, o_pos, o_neg, selected_pos, selected_neg))
