from __future__ import annotations

import json

import numpy as np
import pytest

from intentclf import ValidationError, evaluate
from intentclf.metrics import MicroCounts, auc, jaccard, subset_accuracy
from intentclf.metrics import EvalReport, save_report, threshold_scores
from bf_oracles import (
    auc_bf,
    counts_bf,
    hamming_bf,
    jaccard_bf,
    mcc_bf,
    prf_bf,
    subset_accuracy_bf,
    threshold_bf,
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
        assert MicroCounts.of(np.array([[1, 1, 0, 0]]), np.array([[1, 0, 1, 0]])).hamming_loss == 0.5

    def test_agreement(self):
        m = np.array([[1, 0, 1]])
        assert MicroCounts.of(m, m).hamming_loss == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        pred = rng.random((64, 8)) < 0.5
        truth = rng.random((64, 8)) < 0.5
        assert MicroCounts.of(pred, truth).hamming_loss == pytest.approx(
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
        counts = MicroCounts(tp=tp, fp=fp, fn=fn, tn=0)
        assert counts.precision == pytest.approx(0.8683, abs=1e-12)
        assert counts.recall == pytest.approx(0.8530, abs=1e-12)
        assert abs(counts.f1 - 0.8606) < 0.0005

    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1]])
        counts = MicroCounts.of(truth, truth)
        assert (counts.precision, counts.recall, counts.f1) == (1.0, 1.0, 1.0)
        assert counts.tp == 2 and counts.fp == 0 and counts.fn == 0 and counts.tn == 2

    def test_balanced_errors(self):
        # tp=1, fp=1, fn=1 over a 1x4 row with a tn filler
        pred = np.array([[1, 1, 0, 0]])
        truth = np.array([[1, 0, 1, 0]])
        counts = MicroCounts.of(pred, truth)
        assert (counts.precision, counts.recall, counts.f1) == (0.5, 0.5, 0.5)

    def test_zero_denominator_conventions(self):
        pred = np.zeros((2, 2))
        truth = np.zeros((2, 2))
        counts = MicroCounts.of(pred, truth)
        assert (counts.precision, counts.recall, counts.f1) == (0.0, 0.0, 0.0)


class TestMcc:
    def test_perfect(self):
        truth = np.array([[1, 0], [0, 1]])
        assert MicroCounts.of(truth, truth).mcc == pytest.approx(1.0, abs=1e-12)

    def test_complement(self):
        truth = np.array([[1, 0], [0, 1]])
        assert MicroCounts.of(1 - truth, truth).mcc == pytest.approx(-1.0, abs=1e-12)

    def test_uncorrelated_hand_case(self):
        truth = np.array([[1, 1, 0, 0]])
        pred = np.array([[1, 0, 1, 0]])
        assert MicroCounts.of(pred, truth).mcc == 0.0


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
        with pytest.raises(ValidationError, match="both positive and negative"):
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
            counts = MicroCounts.of(pred, truth)
            assert counts.hamming_loss == pytest.approx(
                hamming_bf(pred, truth), abs=1e-12
            )
            assert jaccard(pred, truth) == pytest.approx(
                jaccard_bf(pred, truth), abs=1e-12
            )
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == counts_bf(pred, truth)
            assert (counts.precision, counts.recall, counts.f1) == pytest.approx(
                prf_bf(pred, truth), abs=1e-12
            )
            assert counts.mcc == pytest.approx(mcc_bf(pred, truth), abs=1e-12)
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
        counts = MicroCounts.of(pred, truth)
        assert report.subset_accuracy == subset_accuracy(pred, truth)
        assert report.hamming_loss == counts.hamming_loss
        assert report.mcc == counts.mcc
        save_report(report, tmp_path / "r.json")
        assert '"auc": null' in (tmp_path / "r.json").read_text()
        assert EvalReport(**json.loads((tmp_path / "r.json").read_text())) == report

    def test_fields_match_standalone_ops(self):
        # the standalone ops are bf_oracles' loops, thresholding included
        rng = np.random.default_rng(123)
        seen = {"1x1": 0, "fallback-row": 0, "auc-none": 0, "auc": 0}
        for case in range(240):
            rows, cols = (1, 1) if case % 12 == 0 else (int(rng.integers(1, 33)), int(rng.integers(1, 9)))
            scores = np.round(rng.random((rows, cols)), 2)  # rounding forces ties
            density = (0.0, 1.0)[case % 2] if case % 7 == 3 else rng.uniform(0.2, 0.8)
            truth = rng.random((rows, cols)) < density
            threshold = float(rng.choice([0.3, 0.5, 0.9]))
            report = evaluate(scores, threshold, truth)
            pred = threshold_bf(scores, threshold)
            assert (report.sample_count, report.label_count) == (rows, cols), case
            assert report.subset_accuracy == pytest.approx(subset_accuracy_bf(pred, truth), abs=1e-12), case
            assert report.hamming_loss == pytest.approx(hamming_bf(pred, truth), abs=1e-12), case
            assert report.jaccard == pytest.approx(jaccard_bf(pred, truth), abs=1e-12), case
            assert (report.precision, report.recall, report.f1) == pytest.approx(prf_bf(pred, truth), abs=1e-12)
            assert report.mcc == pytest.approx(mcc_bf(pred, truth), abs=1e-12), case
            if truth.any() and not truth.all():
                assert report.auc == pytest.approx(auc_bf(scores, truth), abs=1e-12), case
                seen["auc"] += 1
            else:
                assert report.auc is None, case
                seen["auc-none"] += 1
            seen["1x1"] += (rows, cols) == (1, 1)
            seen["fallback-row"] += not (scores > threshold).any(axis=1).all()
        assert all(count > 0 for count in seen.values()), seen

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
        assert EvalReport(**json.loads(path.read_text())) == report

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(np.zeros((2, 3)), 0.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no-rows", "no-columns"])
    def test_empty_matrix_refused(self, shape):
        # a NaN report would not be JSON, and argmax has nothing to pick
        for metric in (lambda s, t: evaluate(s, 0.5, t), MicroCounts.of, subset_accuracy, jaccard, auc):
            with pytest.raises(ValidationError, match="non-empty 2-D"):
                metric(np.zeros(shape), np.zeros(shape))
        if shape[1] == 0:  # a row with no label has no argmax to fall back to
            with pytest.raises(ValidationError, match="with columns"):
                threshold_scores(np.zeros(shape), 0.5)
