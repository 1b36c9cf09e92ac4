"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The end-to-end criteria share one deterministic toy pipeline built at the
published defaults: the 8-intent maritime taxonomy, 40 queries per class plus
60 two-label combos, trigram toy embeddings at dim 256, 30 pretrain and 50
finetune epochs, seed 42 everywhere, 20% holdout.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from intentclf import (
    MiningConfig,
    default_taxonomy,
    load_artifact,
    load_dataset,
    load_embeddings,
    save_vocabulary,
    split_indices,
    two_label_combos,
)
from intentclf.cli import main
from intentclf.metrics import (
    EvalReport,
    MicroCounts,
    auc,
    evaluate,
    jaccard,
    subset_accuracy,
    threshold_scores,
)
from intentclf.mining import mine
from intentclf.service import make_server
from intentclf import score_samples
from intentclf.trainer import ProjectionHead, predict
from grad_oracle import grad_check, projection_margin_gap
from bf_oracles import (
    auc_bf,
    counts_bf,
    entries,
    hamming_bf,
    jaccard_bf,
    mcc_bf,
    mine_bruteforce,
    pair_sims,
    prf_bf,
    random_similarity_batch,
    subset_accuracy_bf,
)
from stubs import http_post

SEED = 42
PER_CLASS = 40
COMBOS = 60
EMBED_DIM = 256
HOLDOUT_FRACTION = 0.2


@contextmanager
def criterion(name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] FAIL {name}")
        raise
    print(f"[acceptance] PASS {name} ({time.monotonic() - started:.2f}s)")


def _run_pipeline(root, loss_kind: str = "ofc") -> dict:
    vocab = default_taxonomy()
    taxonomy = root / "taxonomy.json"
    save_vocabulary(vocab, taxonomy)
    combos = root / "combos.json"
    combos.write_text(
        json.dumps([sorted(c) for c in two_label_combos(vocab, COMBOS, seed=SEED)]),
        encoding="utf-8",
    )
    paths = {
        "taxonomy": taxonomy,
        "dataset": root / "dataset.jsonl",
        "embeddings": root / "embeddings.jsonl",
        "model": root / "model.json",
        "report": root / "report.json",
    }
    assert main([
        "generate", "--taxonomy", str(taxonomy), "--offline",
        "--per-class", str(PER_CLASS), "--combos", str(combos),
        "--seed", str(SEED), "--out", str(paths["dataset"]),
    ]) == 0
    assert main([
        "embed", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--provider", "toy", "--dim", str(EMBED_DIM), "--embed-seed", str(SEED),
        "--out", str(paths["embeddings"]),
    ]) == 0
    assert main([
        "train", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--embeddings", str(paths["embeddings"]), "--out", str(paths["model"]),
        "--loss", loss_kind, "--seed", str(SEED),
        "--holdout-fraction", str(HOLDOUT_FRACTION), "--split-seed", str(SEED),
        "--provider", "toy", "--dim", str(EMBED_DIM), "--embed-seed", str(SEED),
    ]) == 0
    assert main([
        "eval", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--holdout-fraction", str(HOLDOUT_FRACTION), "--split-seed", str(SEED),
        "--out", str(paths["report"]),
    ]) == 0
    return paths


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_pipeline")
    started = time.monotonic()
    paths = _run_pipeline(root)
    paths["elapsed"] = time.monotonic() - started
    return paths


def _holdout(paths):
    vocab = default_taxonomy()
    dataset = load_dataset(paths["dataset"], vocab)
    x = load_embeddings(paths["embeddings"], dataset)
    _, holdout_idx = split_indices(len(dataset), HOLDOUT_FRACTION, SEED)
    return vocab, x[holdout_idx], dataset.labels[holdout_idx]


def test_criterion_production_scale_note():
    # Production-scale benchmark figures depend on a proprietary
    # expert-curated test set, a licensed encoder and live LLM generations,
    # none of which ship with this repository. The property-based criteria
    # below are the substitute. Nothing to assert.
    print(
        "[acceptance] NOTE production-scale benchmark figures are out of scope "
        "by design; property-based criteria substitute"
    )


def test_criterion_metric_self_consistency():
    with criterion("metric self-consistency: P=0.8683, R=0.8530 -> F1 ~ 0.8606"):
        started = time.monotonic()
        tp = 8683 * 8530
        fp = (10000 - 8683) * 8530
        fn = 8683 * (10000 - 8530)
        counts = MicroCounts(tp=tp, fp=fp, fn=fn, tn=0)
        assert counts.precision == pytest.approx(0.8683, abs=1e-12)
        assert counts.recall == pytest.approx(0.8530, abs=1e-12)
        assert abs(counts.f1 - 0.8606) <= 0.0005
        assert time.monotonic() - started < 1.0


def test_criterion_gradient_oracle():
    with criterion("gradient oracle: 4 components x 10 points, rel err <= 1e-4"):
        started = time.monotonic()
        for component in (
            "projection+ofc",
            "projection+oc",
            "projection+cs",
            "classifier+bce",
        ):
            report = grad_check(component, seed=SEED, tolerance=1e-4, points=10)
            assert report.passed, (component, report.max_rel_error)
        assert time.monotonic() - started < 10.0


def test_criterion_mining_oracle():
    with criterion("mining oracle: 1000 random batches match brute force exactly"):
        started = time.monotonic()
        rng = np.random.default_rng(SEED)
        p_grid = [0.0, 37.0, 50.0, 100.0]
        for case in range(1000):
            _, _, d_pos, d_neg = random_similarity_batch(rng)
            p = p_grid[(case // 2) % len(p_grid)]
            mode = "literal" if case % 2 == 0 else "standard"
            sims, positive = pair_sims(d_pos, d_neg)
            mined = mine(sims, positive, MiningConfig(p=p, mode=mode))
            expected = mine_bruteforce(d_pos, d_neg, p, mode)
            assert entries(mined.pos_final, sims) == expected["pos_final"], (case, p, mode)
            assert entries(mined.neg_final, sims) == expected["neg_final"], (case, p, mode)
            assert (
                mined.counts.h_pos, mined.counts.h_neg,
                mined.counts.o_pos, mined.counts.o_neg,
                mined.counts.selected_pos, mined.counts.selected_neg,
            ) == expected["counts"]
        assert time.monotonic() - started < 10.0


def test_criterion_metrics_oracle():
    with criterion("metrics oracle: 500 random triples match brute force to 1e-12"):
        started = time.monotonic()
        rng = np.random.default_rng(SEED + 1)
        for _ in range(500):
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 9))
            truth = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
            pred = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
            scores = np.round(rng.random((rows, cols)), 2)
            assert abs(subset_accuracy(pred, truth) - subset_accuracy_bf(pred, truth)) <= 1e-12
            counts = MicroCounts.of(pred, truth)
            assert abs(counts.hamming_loss - hamming_bf(pred, truth)) <= 1e-12
            assert abs(jaccard(pred, truth) - jaccard_bf(pred, truth)) <= 1e-12
            assert (counts.tp, counts.fp, counts.fn, counts.tn) == counts_bf(pred, truth)
            bf_p, bf_r, bf_f1 = prf_bf(pred, truth)
            assert abs(counts.precision - bf_p) <= 1e-12
            assert abs(counts.recall - bf_r) <= 1e-12
            assert abs(counts.f1 - bf_f1) <= 1e-12
            assert abs(counts.mcc - mcc_bf(pred, truth)) <= 1e-12
            flat = truth.ravel()
            if flat.any() and not flat.all():
                assert abs(auc(scores, truth) - auc_bf(scores, truth)) <= 1e-12
        assert time.monotonic() - started < 20.0


def test_criterion_end_to_end_toy_pipeline(toy_run):
    with criterion(
        "end-to-end toy pipeline: subset accuracy >= 0.90, hamming <= 0.03, AUC >= 0.98"
    ):
        dataset = load_dataset(toy_run["dataset"], default_taxonomy())
        assert len(dataset) == 8 * PER_CLASS + COMBOS
        report = EvalReport(**json.loads(toy_run["report"].read_text()))
        assert report.sample_count == round(
            (8 * PER_CLASS + COMBOS) * HOLDOUT_FRACTION
        )
        assert report.subset_accuracy >= 0.90, report
        assert report.hamming_loss <= 0.03, report
        assert report.auc >= 0.98, report
        assert toy_run["elapsed"] < 60.0, f"pipeline took {toy_run['elapsed']:.1f}s"


def test_criterion_contrastive_benefit(toy_run):
    with criterion("contrastive benefit: holdout margin gap grows by >= 0.05"):
        vocab, x, y = _holdout(toy_run)
        artifact = load_artifact(toy_run["model"])
        initial = ProjectionHead.init(
            EMBED_DIM,
            artifact.train_config.d_hidden,
            artifact.train_config.d_proj,
            np.random.default_rng([SEED, 101]),
        )
        before = projection_margin_gap(x, y, initial)
        after = projection_margin_gap(x, y, artifact.projection)
        assert after - before >= 0.05, (before, after)


def test_criterion_ablation_harness(toy_run, tmp_path_factory):
    with criterion("ablation harness: ofc / oc / cs all produce reports"):
        reports = {"ofc": EvalReport(**json.loads(toy_run["report"].read_text()))}
        for loss_kind in ("oc", "cs"):
            root = tmp_path_factory.mktemp(f"ablation_{loss_kind}")
            paths = _run_pipeline(root, loss_kind=loss_kind)
            reports[loss_kind] = EvalReport(**json.loads(paths["report"].read_text()))
        for loss_kind, report in reports.items():
            assert report.sample_count == round((8 * PER_CLASS + COMBOS) * HOLDOUT_FRACTION)
            assert 0.0 <= report.subset_accuracy <= 1.0
            print(
                f"[acceptance]   {loss_kind}: accuracy={report.subset_accuracy:.4f} "
                f"hamming={report.hamming_loss:.4f} auc={report.auc:.4f}"
            )


def test_criterion_determinism(toy_run, tmp_path_factory):
    with criterion("determinism: byte-identical dataset/embeddings/model/report"):
        rerun = _run_pipeline(tmp_path_factory.mktemp("toy_rerun"))
        for key in ("dataset", "embeddings", "model", "report"):
            assert (
                toy_run[key].read_bytes() == rerun[key].read_bytes()
            ), f"{key} differs between runs"


def test_criterion_serve_parity(toy_run, capsys):
    with criterion("serve parity: 20 queries, POST /classify == predict output"):
        artifact = load_artifact(toy_run["model"])
        vocab = default_taxonomy()
        dataset = load_dataset(toy_run["dataset"], vocab)
        rng = np.random.default_rng(SEED + 2)
        texts = [dataset.texts[int(i)] for i in rng.integers(0, len(dataset), 20)]

        server = make_server(artifact, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            for text in texts:
                assert main(["predict", "--model", str(toy_run["model"]), "--text", text]) == 0
                printed = capsys.readouterr().out.rstrip("\n").encode("utf-8")
                response = http_post(f"{base}/classify", {"text": text}, timeout=10)
                assert response.status_code == 200
                assert response.content == printed, text
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def test_criterion_holdout_prediction_consistency(toy_run):
    # sanity: the eval path's scores reproduce through the public predict rule
    vocab, x, truth = _holdout(toy_run)
    artifact = load_artifact(toy_run["model"])
    scores = score_samples(x, artifact)
    report = evaluate(scores, artifact.decision_threshold, truth)
    assert report == EvalReport(**json.loads(toy_run["report"].read_text()))
    pred = threshold_scores(scores, artifact.decision_threshold)
    assert pred.any(axis=1).all(), "fallback rule guarantees non-empty predictions"


def test_criterion_predict_matches_batch_forward(toy_run):
    # predict is the 1-row case of score_samples. numpy multiplies a 1-row
    # operand through gemv and a taller one through gemm, so the two agree to
    # a few ulps rather than bit for bit; the bound is fixed from the eps of
    # float32, the dtype the pipeline trains and scores in.
    with criterion("one forward: predict == score_samples row, labels == threshold_scores"):
        vocab, x, _ = _holdout(toy_run)
        artifact = load_artifact(toy_run["model"])
        scores = score_samples(x, artifact)
        assert scores.dtype == np.float32
        pred = threshold_scores(scores, artifact.decision_threshold)
        for row, vector in enumerate(x):
            labels, by_label = predict(vector, artifact)
            assert list(by_label) == list(vocab.labels)
            np.testing.assert_allclose(
                list(by_label.values()), scores[row], rtol=256 * np.finfo(np.float32).eps, atol=0
            )
            assert labels == frozenset(l for l, hit in zip(vocab.labels, pred[row]) if hit)
