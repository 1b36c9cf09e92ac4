from __future__ import annotations

import math

import numpy as np
import pytest

from intentclf import MiningConfig, ValidationError
from intentclf.mining import SimilarityTable, batch_similarity_table, build_pairs, mine
from bf_oracles import entries, mine_bruteforce, multi_hot, pair_sims, random_similarity_batch


def _table(d_pos, d_neg) -> SimilarityTable:
    return SimilarityTable(d_pos=pair_sims(d_pos), d_neg=pair_sims(d_neg))


class TestBuildPairs:
    def test_equal_labels_positive(self):
        ps = build_pairs(multi_hot([frozenset({"a"}), frozenset({"a"})]))
        assert len(ps.pairs) == 1 and ps.positive[0]

    def test_disparate_labels_negative(self):
        ps = build_pairs(multi_hot([frozenset({"a"}), frozenset({"b"})]))
        assert len(ps.pairs) == 1 and not ps.positive[0]

    def test_overlap_rule_table(self):
        labels = multi_hot([frozenset({"a", "b"}), frozenset({"b", "c"})])
        assert not build_pairs(labels, "exact").positive[0]
        assert build_pairs(labels, "overlap").positive[0]

    def test_all_unordered_pairs_lexicographic(self):
        ps = build_pairs(multi_hot([frozenset({"a"})] * 4))
        assert ps.pairs.tolist() == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
        ]

    def test_batch_too_small(self):
        with pytest.raises(ValidationError):
            build_pairs(multi_hot([frozenset({"a"})]))


class TestSelectTop:
    """Top-p selection, seen through ``mine``: with no negatives nothing is
    hard, so every positive is refined and only the top-p step selects."""

    @staticmethod
    def _selected(d_pos, p: float) -> list:
        mined = mine(_table(d_pos=d_pos, d_neg=()), MiningConfig(p=p))
        return entries(mined.pos_final)

    def test_everything_at_100(self):
        seq = [(0, 0.5), (1, 0.4)]
        assert self._selected(seq, 100.0) == seq

    def test_nothing_at_0(self):
        assert self._selected([(0, 0.5)], 0.0) == []

    def test_single_element_half(self):
        assert self._selected([(0, 0.5)], 50.0) == [(0, 0.5)]

    def test_integer_percentage_is_exact(self):
        # 37% of 100 must select exactly 37, not a float-rounding 38
        seq = [(i, i / 100) for i in range(100)]
        assert len(self._selected(seq, 37.0)) == 37

    def test_p_validation(self):
        with pytest.raises(ValidationError):
            MiningConfig(p=101.0)


class TestMineHandTraces:
    def test_literal_positive_side(self):
        table = _table(
            d_pos=((0, 0.9), (1, 0.6), (2, -0.5)), d_neg=((3, 0.3), (4, -0.4))
        )
        mined = mine(table, MiningConfig(p=50.0, mode="literal"))
        assert mined.t_neg == -0.4
        assert {i for i, _ in entries(mined.pos_final)} == {0, 1, 2}
        assert mined.counts.h_pos == 2
        assert mined.counts.o_pos == 1
        assert mined.counts.selected_pos == 1
        # concatenation order: top-p prefix first, then the hard set
        assert entries(mined.pos_final)[0] == (2, -0.5)

    def test_literal_negative_side(self):
        table = _table(
            d_pos=((0, 0.9),), d_neg=((1, 0.95), (2, 0.3), (3, -0.4))
        )
        mined = mine(table, MiningConfig(p=50.0, mode="literal"))
        assert mined.t_pos == 0.9
        assert {i for i, _ in entries(mined.neg_final)} == {1, 2, 3}
        assert mined.counts.h_neg == 2
        assert entries(mined.neg_final)[0] == (1, 0.95)

    def test_empty_negative_table_degenerate_rule(self):
        table = _table(d_pos=((0, 0.9), (1, 0.2), (2, 0.5)), d_neg=())
        mined = mine(table, MiningConfig(p=34.0, mode="literal"))
        assert mined.t_neg is None
        assert mined.counts.h_pos == 0
        assert mined.counts.o_pos == 3
        # ceil(0.34 * 3) = 2, sorted descending
        assert entries(mined.pos_final) == [(0, 0.9), (2, 0.5)]

    def test_standard_mode_flips_rules(self):
        table = _table(
            d_pos=((0, 0.9), (1, 0.2)), d_neg=((2, 0.5), (3, -0.1))
        )
        mined = mine(table, MiningConfig(p=0.0, mode="standard"))
        # hard positives: below max(neg)=0.5 ; hard negatives: above min(pos)=0.2
        assert {i for i, _ in entries(mined.pos_final)} == {1}
        assert {i for i, _ in entries(mined.neg_final)} == {2}
        assert mined.t_neg == 0.5 and mined.t_pos == 0.2


class TestMineProperties:
    def test_matches_bruteforce_on_random_batches(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            p = float(rng.choice([0.0, 37.0, 50.0, 100.0]))
            mode = "literal" if rng.integers(0, 2) else "standard"
            mined = mine(_table(d_pos, d_neg), MiningConfig(p=p, mode=mode))
            expected = mine_bruteforce(d_pos, d_neg, p, mode)
            assert entries(mined.pos_final) == expected["pos_final"], (case, p, mode)
            assert entries(mined.neg_final) == expected["neg_final"], (case, p, mode)
            assert mined.t_neg == expected["t_neg"]
            assert mined.t_pos == expected["t_pos"]
            assert (
                mined.counts.h_pos,
                mined.counts.h_neg,
                mined.counts.o_pos,
                mined.counts.o_neg,
                mined.counts.selected_pos,
                mined.counts.selected_neg,
            ) == expected["counts"]

    def test_no_duplicates_and_count_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            sims = [s for _, s in d_pos + d_neg]
            if len(set(sims)) != len(sims):
                continue  # identity is stated for distinct similarities
            p = float(rng.choice([0.0, 25.0, 80.0, 100.0]))
            mined = mine(_table(d_pos, d_neg), MiningConfig(p=p, mode="literal"))
            pos_idx = [i for i, _ in entries(mined.pos_final)]
            assert len(pos_idx) == len(set(pos_idx))
            assert len(mined.pos_final) == mined.counts.h_pos + math.ceil(
                p / 100 * mined.counts.o_pos
            )

    def test_permuting_pair_order_keeps_selected_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            sims = [s for _, s in d_pos + d_neg]
            if len(set(sims)) != len(sims):
                continue
            config = MiningConfig(p=50.0, mode="literal")
            base = mine(_table(d_pos, d_neg), config)
            shuffled_pos = [d_pos[i] for i in rng.permutation(len(d_pos))]
            shuffled_neg = [d_neg[i] for i in rng.permutation(len(d_neg))]
            other = mine(_table(shuffled_pos, shuffled_neg), config)
            assert set(base.pos_final.index.tolist()) == set(other.pos_final.index.tolist())
            assert set(base.neg_final.index.tolist()) == set(other.neg_final.index.tolist())

    def test_literal_and_standard_agree_when_hard_sets_coincide(self):
        # fully separated ranges: no hard pairs under standard; with p=100
        # literal keeps everything via hard sets, standard via top-p
        table = _table(
            d_pos=((0, 0.9), (1, 0.8)), d_neg=((2, 0.1), (3, -0.2))
        )
        literal = mine(table, MiningConfig(p=100.0, mode="literal"))
        standard = mine(table, MiningConfig(p=100.0, mode="standard"))
        assert set(literal.pos_final.index.tolist()) == set(standard.pos_final.index.tolist())
        assert set(literal.neg_final.index.tolist()) == set(standard.neg_final.index.tolist())


class TestBatchSimilarityTable:
    def test_polarity_split_and_values(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"})]
        ps = build_pairs(multi_hot(labels))
        table = batch_similarity_table(z, ps)
        assert entries(table.d_pos) == [(0, 1.0)]
        assert {i for i, _ in entries(table.d_neg)} == {1, 2}
        assert all(s == 0.0 for _, s in entries(table.d_neg))

    def test_row_count_check(self):
        ps = build_pairs(multi_hot([frozenset({"a"}), frozenset({"b"})]))
        with pytest.raises(ValidationError):
            batch_similarity_table(np.eye(3), ps)


def test_mining_config_validation():
    with pytest.raises(ValidationError):
        MiningConfig(p=-1.0)
    with pytest.raises(ValidationError):
        MiningConfig(p=101.0)
    with pytest.raises(ValidationError):
        MiningConfig(mode="sideways")
    with pytest.raises(ValidationError):
        MiningConfig(positive_rule="fuzzy")
