from __future__ import annotations

import math

import numpy as np
import pytest

from intentclf import MiningConfig, TrainConfig, ValidationError
from intentclf.mining import batch_similarity_table, build_pairs, mine
from intentclf.trainer import _pair_loss
from bf_oracles import entries, mine_bruteforce, multi_hot, pair_sims, random_similarity_batch


def _mine(d_pos, d_neg, config: MiningConfig):
    """Mine a batch given as tuple lists: the result, and its kept pairs as tuple lists."""
    sims, positive = pair_sims(d_pos, d_neg)
    mined = mine(sims, positive, config)
    return mined, entries(mined.pos_final, sims), entries(mined.neg_final, sims)


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
        _, pos_final, _ = _mine(d_pos, (), MiningConfig(p=p))
        return pos_final

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
        # hard positives: above min(neg) = -0.4
        mined, pos_final, _ = _mine(
            ((0, 0.9), (1, 0.6), (2, -0.5)), ((3, 0.3), (4, -0.4)),
            MiningConfig(p=50.0, mode="literal"),
        )
        assert {i for i, _ in pos_final} == {0, 1, 2}
        assert mined.counts.h_pos == 2
        assert mined.counts.o_pos == 1
        assert mined.counts.selected_pos == 1
        # concatenation order: top-p prefix first, then the hard set
        assert pos_final[0] == (2, -0.5)

    def test_literal_negative_side(self):
        # hard negatives: below max(pos) = 0.9
        mined, _, neg_final = _mine(
            ((0, 0.9),), ((1, 0.95), (2, 0.3), (3, -0.4)), MiningConfig(p=50.0, mode="literal")
        )
        assert {i for i, _ in neg_final} == {1, 2, 3}
        assert mined.counts.h_neg == 2
        assert neg_final[0] == (1, 0.95)

    @pytest.mark.parametrize("mode", ["literal", "standard"])
    @pytest.mark.parametrize("empty", ["negatives", "positives"])
    def test_empty_negative_table_degenerate_rule(self, empty, mode):
        # with no pair of the opposite polarity nothing is hard, under either mode
        table = ((0, 0.9), (1, 0.2), (2, 0.5))
        d_pos, d_neg = (table, ()) if empty == "negatives" else ((), table)
        mined, pos_final, neg_final = _mine(d_pos, d_neg, MiningConfig(p=34.0, mode=mode))
        assert (mined.counts.h_pos, mined.counts.h_neg) == (0, 0)
        # ceil(0.34 * 3) = 2: positives sorted descending, negatives ascending
        if empty == "negatives":
            assert (mined.counts.o_pos, mined.counts.o_neg) == (3, 0)
            assert (pos_final, neg_final) == ([(0, 0.9), (2, 0.5)], [])
        else:
            assert (mined.counts.o_pos, mined.counts.o_neg) == (0, 3)
            assert (pos_final, neg_final) == ([], [(1, 0.2), (2, 0.5)])

    def test_standard_mode_flips_rules(self):
        mined, pos_final, neg_final = _mine(
            ((0, 0.9), (1, 0.2)), ((2, 0.5), (3, -0.1)), MiningConfig(p=0.0, mode="standard")
        )
        # hard positives: below max(neg)=0.5 ; hard negatives: above min(pos)=0.2
        assert {i for i, _ in pos_final} == {1}
        assert {i for i, _ in neg_final} == {2}
        assert (mined.counts.h_pos, mined.counts.h_neg) == (1, 1)


class TestMineProperties:
    def test_matches_bruteforce_on_random_batches(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            p = float(rng.choice([0.0, 37.0, 50.0, 100.0]))
            mode = "literal" if rng.integers(0, 2) else "standard"
            mined, pos_final, neg_final = _mine(d_pos, d_neg, MiningConfig(p=p, mode=mode))
            expected = mine_bruteforce(d_pos, d_neg, p, mode)
            assert pos_final == expected["pos_final"], (case, p, mode)
            assert neg_final == expected["neg_final"], (case, p, mode)
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
            mined, pos_final, _ = _mine(d_pos, d_neg, MiningConfig(p=p, mode="literal"))
            pos_idx = [i for i, _ in pos_final]
            assert len(pos_idx) == len(set(pos_idx))
            assert len(mined.pos_final) == mined.counts.h_pos + math.ceil(
                p / 100 * mined.counts.o_pos
            )

    def test_permuting_pair_order_keeps_selected_sets(self):
        # renumbering the pairs renumbers what mining keeps, and nothing else
        rng = np.random.default_rng(11)
        for _ in range(50):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            sims, positive = pair_sims(d_pos, d_neg)
            if len(set(sims.tolist())) != sims.size:
                continue
            config = MiningConfig(p=50.0, mode="literal")
            base = mine(sims, positive, config)
            perm = rng.permutation(sims.size)  # pair k becomes pair perm[k]
            moved_sims, moved_positive = np.empty_like(sims), np.empty_like(positive)
            moved_sims[perm], moved_positive[perm] = sims, positive
            other = mine(moved_sims, moved_positive, config)
            assert set(perm[base.pos_final].tolist()) == set(other.pos_final.tolist())
            assert set(perm[base.neg_final].tolist()) == set(other.neg_final.tolist())

    def test_literal_and_standard_agree_when_hard_sets_coincide(self):
        # fully separated ranges: no hard pairs under standard; with p=100
        # literal keeps everything via hard sets, standard via top-p
        sims, positive = pair_sims(((0, 0.9), (1, 0.8)), ((2, 0.1), (3, -0.2)))
        literal = mine(sims, positive, MiningConfig(p=100.0, mode="literal"))
        standard = mine(sims, positive, MiningConfig(p=100.0, mode="standard"))
        assert set(literal.pos_final.tolist()) == set(standard.pos_final.tolist())
        assert set(literal.neg_final.tolist()) == set(standard.neg_final.tolist())


class TestBatchSimilarityTable:
    def test_pair_order_and_values(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"})]
        ps = build_pairs(multi_hot(labels))
        sims = batch_similarity_table(z, ps)
        # pairs (0,1), (0,2), (1,2); only the first is positive
        assert sims.tolist() == [1.0, 0.0, 0.0]
        assert ps.positive.tolist() == [True, False, False]

    def test_row_count_check(self):
        ps = build_pairs(multi_hot([frozenset({"a"}), frozenset({"b"})]))
        with pytest.raises(ValidationError):
            batch_similarity_table(np.eye(3), ps)


class TestPipelineContracts:
    """What the training step and the benchmark's pair counts rely on: P
    pairs per batch, integer pair-index arrays that add up to the mining
    counts, and a length-P gradient that is 0 on every pair a loss left out."""

    def test_pair_counts_indices_and_gradient_support(self):
        rng = np.random.default_rng(19)
        pool = np.eye(4)[[0, 1, 2, 3, 0, 0, 1]] + np.eye(4)[[0, 1, 2, 3, 1, 2, 2]]
        seen = {"ofc": 0, "oc": 0, "cs": 0, "unused": 0}
        for case in range(200):
            n = int(rng.integers(2, 17))
            y = pool[rng.integers(0, len(pool), size=n)]
            rule = "exact" if case % 2 else "overlap"
            ps = build_pairs(y, rule)
            assert len(ps.pairs) == n * (n - 1) // 2, case
            z = rng.normal(size=(n, 5))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            sims = batch_similarity_table(z, ps)
            assert sims.shape == (len(ps.pairs),), case
            p = float(rng.choice([0.0, 10.0, 50.0, 100.0]))
            mode = "literal" if rng.integers(0, 2) else "standard"
            for loss_kind in ("ofc", "oc", "cs"):
                config = TrainConfig(
                    loss_kind=loss_kind, mining=MiningConfig(p=p, mode=mode, positive_rule=rule)
                )
                _, grad = _pair_loss(sims, ps.positive, config)
                assert grad.shape == sims.shape, (case, loss_kind)
                if loss_kind == "cs":
                    continue
                mined = mine(sims, ps.positive, config.mining)
                c = mined.counts
                for kept in (mined.pos_final, mined.neg_final):
                    assert kept.ndim == 1 and kept.dtype.kind == "i", (case, loss_kind)
                assert len(mined.pos_final) == c.h_pos + c.selected_pos, case
                assert len(mined.neg_final) == c.h_neg + c.selected_neg, case
                assert len(mined.pos_final) + len(mined.neg_final) == (
                    c.h_pos + c.h_neg + c.selected_pos + c.selected_neg
                )
                used = np.zeros(sims.size, dtype=bool)
                used[mined.pos_final] = used[mined.neg_final] = True
                assert (grad[~used] == 0.0).all(), (case, loss_kind)
                seen[loss_kind] += 1
                seen["unused"] += int(np.count_nonzero(~used))
            seen["cs"] += 1
        assert all(seen.values()), seen


def test_mining_config_validation():
    with pytest.raises(ValidationError):
        MiningConfig(p=-1.0)
    with pytest.raises(ValidationError):
        MiningConfig(p=101.0)
    with pytest.raises(ValidationError):
        MiningConfig(mode="sideways")
    with pytest.raises(ValidationError):
        MiningConfig(positive_rule="fuzzy")
