from __future__ import annotations

import numpy as np
import pytest

from intentclf import DegenerateAucError, ValidationError, evaluate
from intentclf.metrics import (
    MicroCounts,
    auc,
    hamming_loss,
    jaccard,
    mcc,
    micro_prf,
    prf_from_counts,
    subset_accuracy,
)
from intentclf.metrics import load_report, save_report, threshold_scores
from bf_oracles import (
    auc_bf,
    counts_bf,
    hamming_bf,
    jaccard_bf,
    mcc_bf,
    prf_bf,
    subset_accuracy_bf,
)


def _random_case(rng, max_rows=64, max_cols=8):
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    truth = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
    pred = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
    scores = np.round(rng.random((rows, cols)), 2)  # rounding forces ties
    return pred, scores, truth


class TestSubsetAccuracy:
    def test_identical(self):
        m = np.array([[1, 0], [0, 1]])
        assert subset_accuracy(m, m) == 1.0

    def test_one_bit_off_in_one_of_two_rows(self):
        truth = np.array([[1, 0], [0, 1]])
        pred = np.array([[1, 1], [0, 1]])
        assert subset_accuracy(pred, truth) == 0.5

    def test_complement_is_zero(self):
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        assert subset_accuracy(1 - truth, truth) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            subset_accuracy(np.zeros((2, 2)), np.zeros((2, 3)))


class TestHammingLoss:
    def test_half_wrong_row(self):
        assert hamming_loss(np.array([[1, 1, 0, 0]]), np.array([[1, 0, 1, 0]])) == 0.5

    def test_agreement(self):
        m = np.array([[1, 0, 1]])
        assert hamming_loss(m, m) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        pred = rng.random((64, 8)) < 0.5
        truth = rng.random((64, 8)) < 0.5
        assert hamming_loss(pred, truth) == pytest.approx(
            hamming_bf(pred, truth), abs=1e-15
        )


class TestJaccard:
    def test_third(self):
        pred = np.array([[1, 1, 0]])
        truth = np.array([[0, 1, 1]])
        assert jaccard(pred, truth) == pytest.approx(1 / 3, abs=1e-15)

    def test_identical(self):
        m = np.array([[1, 0, 1], [0, 1, 0]])
        assert jaccard(m, m) == 1.0

    def test_both_empty_row_counts_one(self):
        pred = np.array([[0, 0], [1, 0]])
        truth = np.array([[0, 0], [1, 0]])
        assert jaccard(pred, truth) == 1.0


class TestMicroPrf:
    def test_table_row_identity(self):
        # counts engineered to give precision 0.8683 and recall 0.8530 exactly
        tp = 8683 * 8530
        fp = (10000 - 8683) * 8530
        fn = 8683 * (10000 - 8530)
        precision, recall, f1 = prf_from_counts(MicroCounts(tp=tp, fp=fp, fn=fn, tn=0))
        assert precision == pytest.approx(0.8683, abs=1e-12)
        assert recall == pytest.approx(0.8530, abs=1e-12)
        assert abs(f1 - 0.8606) < 0.0005

    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1]])
        precision, recall, f1, counts = micro_prf(truth, truth)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)
        assert counts.tp == 2 and counts.fp == 0 and counts.fn == 0 and counts.tn == 2

    def test_balanced_errors(self):
        # tp=1, fp=1, fn=1 over a 1x4 row with a tn filler
        pred = np.array([[1, 1, 0, 0]])
        truth = np.array([[1, 0, 1, 0]])
        precision, recall, f1, _ = micro_prf(pred, truth)
        assert (precision, recall, f1) == (0.5, 0.5, 0.5)

    def test_zero_denominator_conventions(self):
        pred = np.zeros((2, 2))
        truth = np.zeros((2, 2))
        precision, recall, f1, _ = micro_prf(pred, truth)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)


class TestMcc:
    def test_perfect(self):
        truth = np.array([[1, 0], [0, 1]])
        assert mcc(truth, truth) == pytest.approx(1.0, abs=1e-12)

    def test_complement(self):
        truth = np.array([[1, 0], [0, 1]])
        assert mcc(1 - truth, truth) == pytest.approx(-1.0, abs=1e-12)

    def test_uncorrelated_hand_case(self):
        truth = np.array([[1, 1, 0, 0]])
        pred = np.array([[1, 0, 1, 0]])
        assert mcc(pred, truth) == 0.0


class TestAuc:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.2, 0.1]])
        truth = np.array([[1, 1, 0, 0]])
        assert auc(scores, truth) == 1.0

    def test_all_ties(self):
        scores = np.full((2, 3), 0.5)
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        assert auc(scores, truth) == 0.5

    def test_three_of_four_pairs(self):
        scores = np.array([[0.9, 0.4, 0.6, 0.1]])
        truth = np.array([[1, 1, 0, 0]])
        assert auc(scores, truth) == 0.75

    def test_single_class_is_degenerate(self):
        with pytest.raises(DegenerateAucError):
            auc(np.array([[0.5, 0.4]]), np.array([[1, 1]]))

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(8)
        scores = rng.random((20, 5))
        truth = rng.random((20, 5)) < 0.5
        base = auc(scores, truth)
        assert auc(np.exp(scores), truth) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, truth) == pytest.approx(base, abs=1e-12)


class TestBruteforceParity:
    def test_random_triples(self):
        rng = np.random.default_rng(99)
        checked_auc = 0
        for _ in range(120):
            pred, scores, truth = _random_case(rng)
            assert subset_accuracy(pred, truth) == pytest.approx(
                subset_accuracy_bf(pred, truth), abs=1e-12
            )
            assert hamming_loss(pred, truth) == pytest.approx(
                hamming_bf(pred, truth), abs=1e-12
            )
            assert jaccard(pred, truth) == pytest.approx(
                jaccard_bf(pred, truth), abs=1e-12
            )
            precision, recall, f1, counts = micro_prf(pred, truth)
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == counts_bf(pred, truth)
            assert (precision, recall, f1) == pytest.approx(
                prf_bf(pred, truth), abs=1e-12
            )
            assert mcc(pred, truth) == pytest.approx(mcc_bf(pred, truth), abs=1e-12)
            flat = truth.ravel()
            if flat.any() and not flat.all():
                assert auc(scores, truth) == pytest.approx(
                    auc_bf(scores, truth), abs=1e-12
                )
                checked_auc += 1
        assert checked_auc > 50


class TestEvaluate:
    def test_perfect_scores(self):
        truth = np.array([[1, 0, 1], [0, 1, 0]])
        scores = np.where(truth == 1, 0.95, 0.05)
        report = evaluate(scores, 0.5, truth)
        assert report.subset_accuracy == 1.0
        assert report.hamming_loss == 0.0
        assert report.jaccard == 1.0
        assert report.f1 == 1.0
        assert report.auc == 1.0
        assert report.sample_count == 2 and report.label_count == 3

    @pytest.mark.parametrize("cell", [0, 1], ids=["no-positive-cells", "no-negative-cells"])
    def test_one_class_holdout_reports_auc_none(self, cell, tmp_path):
        truth = np.full((3, 2), cell)
        scores = np.array([[0.9, 0.2], [0.6, 0.7], [0.1, 0.4]])
        report = evaluate(scores, 0.5, truth)
        assert report.auc is None
        pred = threshold_scores(scores, 0.5)
        assert report.subset_accuracy == subset_accuracy(pred, truth)
        assert report.hamming_loss == hamming_loss(pred, truth)
        assert report.mcc == mcc(pred, truth)
        save_report(report, tmp_path / "r.json")
        assert '"auc": null' in (tmp_path / "r.json").read_text()
        assert load_report(tmp_path / "r.json") == report

    def test_fields_match_standalone_ops(self):
        rng = np.random.default_rng(123)
        scores = rng.random((64, 8))
        truth = rng.random((64, 8)) < 0.4
        report = evaluate(scores, 0.5, truth)
        pred = threshold_scores(scores, 0.5)
        precision, recall, f1, _ = micro_prf(pred, truth)
        assert report.subset_accuracy == subset_accuracy(pred, truth)
        assert report.hamming_loss == hamming_loss(pred, truth)
        assert report.jaccard == jaccard(pred, truth)
        assert (report.precision, report.recall, report.f1) == (precision, recall, f1)
        assert report.mcc == mcc(pred, truth)
        assert report.auc == auc(scores, truth)

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            scores = rng.random((16, 4))
            truth = rng.random((16, 4)) < 0.5
            if not truth.any() or truth.all():
                continue
            r = evaluate(scores, 0.5, truth)
            if r.precision + r.recall > 0:
                expected = 2 * r.precision * r.recall / (r.precision + r.recall)
                assert abs(r.f1 - expected) < 1e-9

    def test_argmax_fallback_matches_predict_rule(self):
        scores = np.array([[0.2, 0.4, 0.3]])
        pred = threshold_scores(scores, 0.5)
        assert pred.tolist() == [[False, True, False]]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(17)
        scores = rng.random((20, 6))
        truth = rng.random((20, 6)) < 0.5
        if not truth.any() or truth.all():  # pragma: no cover - improbable
            truth[0, 0] = True
            truth[1, 1] = False
        base = evaluate(scores, 0.5, truth)
        perm = rng.permutation(20)
        shuffled = evaluate(scores[perm], 0.5, truth[perm])
        assert shuffled == base

    def test_subset_perfect_implies_no_hamming(self):
        rng = np.random.default_rng(21)
        truth = rng.random((10, 4)) < 0.5
        truth[:, 0] = True  # keep both classes present yet rows non-empty
        scores = np.where(truth, 0.9, 0.1)
        report = evaluate(scores, 0.5, truth)
        assert report.subset_accuracy == 1.0
        assert report.hamming_loss == 0.0

    def test_report_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.random((12, 5))
        truth = rng.random((12, 5)) < 0.5
        report = evaluate(scores, 0.5, truth)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path) == report

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(np.zeros((2, 3)), 0.5, np.zeros((2, 2)))
