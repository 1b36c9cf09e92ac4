"""Within-batch pair construction and hard-pair mining.

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
from typing import Sequence

import numpy as np

from .config import JsonConfig
from .dataset import LabelSet
from .errors import ValidationError

_MODES = ("literal", "standard")
_POSITIVE_RULES = ("exact", "overlap")


@dataclass(frozen=True)
class Pair:
    """An unordered sample pair (a < b) with its polarity."""

    a: int
    b: int
    positive: bool


@dataclass(frozen=True)
class PairSet:
    """All unordered pairs of a batch, in (a, b) lexicographic order."""

    pairs: tuple[Pair, ...]
    batch_size: int


@dataclass(frozen=True)
class SimilarityTable:
    """Pairwise similarities split by polarity.

    Entries are ``(pair_index, similarity)`` where ``pair_index`` addresses
    the originating :class:`PairSet`.
    """

    d_pos: tuple[tuple[int, float], ...]
    d_neg: tuple[tuple[int, float], ...]


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

    pos_final: tuple[tuple[int, float], ...]
    neg_final: tuple[tuple[int, float], ...]
    t_neg: float | None
    t_pos: float | None
    counts: MinedCounts


def build_pairs(labels: Sequence[LabelSet], rule: str = "exact") -> PairSet:
    """Enumerate all C(n,2) unordered pairs and assign polarities.

    ``exact``: positive iff the two label sets are equal. ``overlap``:
    positive iff they share at least one label.
    """
    if rule not in _POSITIVE_RULES:
        raise ValidationError(f"positive_rule must be one of {_POSITIVE_RULES}, got {rule!r}")
    n = len(labels)
    if n < 2:
        raise ValidationError(f"need a batch of >= 2 samples, got {n}")
    pairs: list[Pair] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rule == "exact":
                positive = labels[i] == labels[j]
            else:
                positive = bool(labels[i] & labels[j])
            pairs.append(Pair(a=i, b=j, positive=positive))
    return PairSet(pairs=tuple(pairs), batch_size=n)


def batch_similarity_table(z: np.ndarray, pair_set: PairSet) -> SimilarityTable:
    """Similarities of every pair from row-normalized projections ``z``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != pair_set.batch_size:
        raise ValidationError(
            f"expected {pair_set.batch_size} projection rows, got shape {z.shape}"
        )
    gram = np.clip(z @ z.T, -1.0, 1.0)
    d_pos: list[tuple[int, float]] = []
    d_neg: list[tuple[int, float]] = []
    for index, pair in enumerate(pair_set.pairs):
        entry = (index, float(gram[pair.a, pair.b]))
        (d_pos if pair.positive else d_neg).append(entry)
    return SimilarityTable(d_pos=tuple(d_pos), d_neg=tuple(d_neg))


def _top_count(p: float, size: int) -> int:
    # ceil(p/100 * size) with exact rational arithmetic, so integer-valued
    # percentages never pick up a float-rounding extra element.
    if size == 0:
        return 0
    return int(math.ceil(Fraction(p) * size / 100))


def select_top(ordered: Sequence[tuple[int, float]], p: float) -> list[tuple[int, float]]:
    """First ceil(p/100 * len) elements of an already-sorted sequence."""
    if not 0.0 <= p <= 100.0:
        raise ValidationError(f"p must be in [0,100], got {p}")
    return list(ordered[: _top_count(p, len(ordered))])


def mine(table: SimilarityTable, config: MiningConfig) -> MinedPairs:
    """Run hard extraction, refinement, sorting, top-p selection and concat.

    Degenerate rule: an empty negative table leaves ``t_neg`` unset and the
    hard-positive set empty (and symmetrically for positives).
    """
    d_pos = list(table.d_pos)
    d_neg = list(table.d_neg)

    pos_sims = [s for _, s in d_pos]
    neg_sims = [s for _, s in d_neg]

    if config.mode == "literal":
        t_neg = min(neg_sims) if neg_sims else None
        t_pos = max(pos_sims) if pos_sims else None
        hard_pos = [e for e in d_pos if t_neg is not None and e[1] > t_neg]
        hard_neg = [e for e in d_neg if t_pos is not None and e[1] < t_pos]
    else:
        t_neg = max(neg_sims) if neg_sims else None
        t_pos = min(pos_sims) if pos_sims else None
        hard_pos = [e for e in d_pos if t_neg is not None and e[1] < t_neg]
        hard_neg = [e for e in d_neg if t_pos is not None and e[1] > t_pos]

    hard_pos_idx = {i for i, _ in hard_pos}
    hard_neg_idx = {i for i, _ in hard_neg}
    refined_pos = sorted(
        (e for e in d_pos if e[0] not in hard_pos_idx), key=lambda e: (-e[1], e[0])
    )
    refined_neg = sorted(
        (e for e in d_neg if e[0] not in hard_neg_idx), key=lambda e: (e[1], e[0])
    )

    selected_pos = select_top(refined_pos, config.p)
    selected_neg = select_top(refined_neg, config.p)

    return MinedPairs(
        pos_final=tuple(selected_pos + hard_pos),
        neg_final=tuple(selected_neg + hard_neg),
        t_neg=t_neg,
        t_pos=t_pos,
        counts=MinedCounts(
            h_pos=len(hard_pos),
            h_neg=len(hard_neg),
            o_pos=len(refined_pos),
            o_neg=len(refined_neg),
            selected_pos=len(selected_pos),
            selected_neg=len(selected_neg),
        ),
    )
