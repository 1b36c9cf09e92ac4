from __future__ import annotations

import json
import math

import numpy as np
import pytest

from intentclf import (
    FileFormatError,
    MiningConfig,
    NoPairsError,
    OFCConfig,
    ProviderConfig,
    TrainConfig,
    ValidationError,
    bce_loss,
    embed_dataset,
    finetune,
    grad_check,
    label_matrix,
    load_artifact,
    offline_generate,
    predict,
    pretrain,
    projection_margin_gap,
    save_artifact,
    score_samples,
)
from intentclf import trainer
from intentclf.gradcheck import max_relative_error
from intentclf.trainer import (
    ClassifierHead,
    ModelArtifact,
    ProjectionHead,
    _classify_batch,
    _project_batch,
    _projection_backward,
)
from bf_oracles import central_diff


@pytest.fixture(scope="module")
def separable_samples(small_vocab):
    """Embeddings and label rows of a small dataset, as one (x, y) pair."""
    dataset = offline_generate(small_vocab, per_class=12, combos=[], seed=5)
    return embed_dataset(dataset, ProviderConfig(kind="toy", dim=64, seed=5)), label_matrix(dataset)


def _fast_config(**overrides):
    defaults = dict(
        epochs_pretrain=10,
        epochs_finetune=12,
        batch_size=16,
        seed=11,
        d_hidden=32,
        d_proj=32,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestProjection:
    def test_deterministic_and_unit_norm(self):
        rng = np.random.default_rng(0)
        head = ProjectionHead.init(12, 8, 6, rng)
        x = rng.normal(size=(1, 12))
        (z1, _), (z2, _) = _project_batch(x, head), _project_batch(x, head)
        assert np.array_equal(z1, z2)
        assert z1.shape == (1, 6)
        assert abs(np.linalg.norm(z1[0]) - 1.0) < 1e-6

    def test_dim_check(self, small_vocab):
        artifact = _probs_artifact(small_vocab, [0.5, 0.5, 0.5])
        with pytest.raises(ValidationError):
            score_samples(np.ones((1, 7)), artifact)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        head = ProjectionHead.init(9, 7, 5, rng)
        x = rng.normal(size=(4, 9))
        probe = rng.normal(size=(4, 5))

        z, cache = _project_batch(x, head)
        analytic = _projection_backward(probe, cache, head)

        params = head.params()
        for which in range(4):
            def f(value, which=which):
                saved = params[which].copy()
                params[which][...] = value
                z2, _ = _project_batch(x, head)
                params[which][...] = saved
                return float(np.sum(probe * z2))

            numeric = central_diff(f, params[which])
            assert max_relative_error(analytic[which], numeric) < 1e-4

    def test_glorot_bounds_and_reproducibility(self):
        head_a = ProjectionHead.init(20, 10, 5, np.random.default_rng(3))
        head_b = ProjectionHead.init(20, 10, 5, np.random.default_rng(3))
        assert np.array_equal(head_a.w1, head_b.w1)
        assert np.all(np.abs(head_a.w1) <= math.sqrt(6 / 30))
        assert np.all(np.abs(head_a.w2) <= math.sqrt(6 / 15))
        assert not head_a.b1.any() and not head_a.b2.any()


class TestClassify:
    def test_zero_head_gives_half(self):
        head = ClassifierHead(w=np.zeros((4, 3)), b=np.zeros(3))
        assert _classify_batch(np.ones((1, 4)) / 2.0, head).tolist() == [[0.5, 0.5, 0.5]]

    def test_hand_logits(self):
        head = ClassifierHead(w=np.zeros((2, 2)), b=np.array([0.0, math.log(3)]))
        probs = _classify_batch(np.array([[1.0, 0.0]]), head)[0]
        assert probs == pytest.approx([0.5, 0.75], abs=1e-12)

    def test_monotone_in_logit(self):
        values = []
        for bias in (-4.0, -1.0, 0.0, 2.0, 6.0):
            head = ClassifierHead(w=np.zeros((2, 1)), b=np.array([bias]))
            values.append(_classify_batch(np.ones((1, 2)), head)[0, 0])
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)


class TestBce:
    def test_perfect_fit_is_tiny(self):
        value, _ = bce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_coin_flip_is_log_two(self):
        value, _ = bce_loss(np.full((3, 4), 0.5), np.ones((3, 4)))
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_frozen_hand_value(self):
        value, _ = bce_loss(np.array([[0.9, 0.2]]), np.array([[1.0, 0.0]]))
        expected = (-math.log(0.9) - math.log(0.8)) / 2
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.164252033, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPretrain:
    def test_zero_epochs_returns_seeded_initial_head(self, separable_samples):
        config = _fast_config(epochs_pretrain=0)
        head_a, history_a = pretrain(*separable_samples, config)
        head_b, _ = pretrain(*separable_samples, config)
        assert history_a == []
        assert all(np.array_equal(a, b) for a, b in zip(head_a.params(), head_b.params()))
        trained, _ = pretrain(*separable_samples, _fast_config(epochs_pretrain=1))
        assert not np.array_equal(head_a.w1, trained.w1)

    def test_loss_decreases_on_separable_set(self, separable_samples):
        _, history = pretrain(*separable_samples, _fast_config(epochs_pretrain=30))
        assert history[-1] <= history[0]

    def test_bit_identical_under_seed(self, separable_samples):
        config = _fast_config()
        head_a, hist_a = pretrain(*separable_samples, config)
        head_b, hist_b = pretrain(*separable_samples, config)
        assert hist_a == hist_b
        assert all(np.array_equal(a, b) for a, b in zip(head_a.params(), head_b.params()))

    def test_needs_two_distinct_label_sets(self, separable_samples):
        x, y = separable_samples
        same = (y == y[0]).all(axis=1)
        with pytest.raises(ValidationError):
            pretrain(x[same], y[same], _fast_config())

    def test_runs_for_all_loss_kinds(self, separable_samples):
        for kind in ("ofc", "oc", "cs"):
            _, history = pretrain(*separable_samples, _fast_config(loss_kind=kind, epochs_pretrain=3))
            assert len(history) == 3


class TestFinetune:
    def test_zero_epochs_keeps_seeded_classifier(self, small_vocab, separable_samples):
        config = _fast_config(epochs_finetune=0)
        head, _ = pretrain(*separable_samples, config)
        art_a, hist = finetune(*separable_samples, small_vocab, head, config)
        art_b, _ = finetune(*separable_samples, small_vocab, head, config)
        assert hist == []
        assert np.array_equal(art_a.classifier.w, art_b.classifier.w)
        # the projection passed in is not mutated
        assert np.array_equal(art_a.projection.w1, head.w1)

    def test_bce_mostly_decreases(self, small_vocab, separable_samples):
        config = _fast_config(epochs_finetune=50)
        head, _ = pretrain(*separable_samples, config)
        _, history = finetune(*separable_samples, small_vocab, head, config)
        decreasing = sum(1 for a, b in zip(history, history[1:]) if b < a)
        assert decreasing / (len(history) - 1) >= 0.8

    def test_bit_identical_artifact_files(self, tmp_path, small_vocab, separable_samples):
        config = _fast_config()
        provider = ProviderConfig(kind="toy", dim=64, seed=5)
        paths = []
        for name in ("a.json", "b.json"):
            head, _ = pretrain(*separable_samples, config)
            artifact, _ = finetune(*separable_samples, small_vocab, head, config, provider)
            path = tmp_path / name
            save_artifact(artifact, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dim_mismatch_rejected(self, small_vocab, separable_samples):
        head = ProjectionHead.init(32, 8, 8, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            finetune(*separable_samples, small_vocab, head, _fast_config())


class TestArrayBoundary:
    def test_row_count_mismatch_rejected(self, small_vocab, separable_samples):
        x, y = separable_samples
        head = ProjectionHead.init(x.shape[1], 8, 8, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            pretrain(x, y[:-1], _fast_config())
        with pytest.raises(ValidationError):
            finetune(x[:-1], y, small_vocab, head, _fast_config())
        with pytest.raises(ValidationError):
            projection_margin_gap(x, y[:-1], head)

    def test_label_width_must_match_vocabulary(self, small_vocab, separable_samples):
        x, y = separable_samples
        head = ProjectionHead.init(x.shape[1], 8, 8, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="columns"):
            finetune(x, y[:, :-1], small_vocab, head, _fast_config())


def _probs_artifact(small_vocab, probabilities, threshold=0.5):
    """An artifact whose classifier emits fixed probabilities for any input."""
    d_in, d_proj = 6, 4
    head = ProjectionHead.init(d_in, 5, d_proj, np.random.default_rng(0))
    logits = [math.log(p / (1 - p)) for p in probabilities]
    classifier = ClassifierHead(w=np.zeros((d_proj, len(probabilities))), b=np.array(logits))
    return ModelArtifact(
        vocabulary=small_vocab,
        embed_dim=d_in,
        projection=head,
        classifier=classifier,
        decision_threshold=threshold,
        train_config=TrainConfig(),
        provider=None,
    )


class TestPredict:
    def test_threshold_rule(self, small_vocab):
        artifact = _probs_artifact(small_vocab, [0.9, 0.1, 0.6])
        labels, scores = predict(np.ones(6), artifact)
        assert labels == frozenset({"eta", "fuel"})
        assert list(scores) == list(small_vocab.labels)
        assert scores["eta"] == pytest.approx(0.9, abs=1e-9)

    def test_argmax_fallback(self, small_vocab):
        artifact = _probs_artifact(small_vocab, [0.2, 0.4, 0.3])
        labels, _ = predict(np.ones(6), artifact)
        assert labels == frozenset({"berth"})

    def test_never_empty_even_at_extreme_threshold(self, small_vocab):
        artifact = _probs_artifact(small_vocab, [0.2, 0.4, 0.3], threshold=0.999)
        labels, _ = predict(np.ones(6), artifact)
        assert labels == frozenset({"berth"})

    def test_dim_mismatch(self, small_vocab):
        artifact = _probs_artifact(small_vocab, [0.5, 0.5, 0.5])
        with pytest.raises(ValidationError):
            predict(np.ones(7), artifact)


class TestGradCheck:
    @pytest.mark.parametrize(
        "component",
        ["projection+ofc", "projection+oc", "projection+cs", "classifier+bce"],
    )
    def test_components_pass(self, component):
        report = grad_check(component, seed=0, tolerance=1e-4, points=3)
        assert report.passed, report

    def test_detector_flags_perturbed_gradient(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=50)
        assert max_relative_error(grads, grads) == 0.0
        assert max_relative_error(grads + 1e-2, grads) > 1e-4

    def test_unknown_component(self):
        with pytest.raises(ValidationError):
            grad_check("decoder+mse")

    @pytest.mark.parametrize(
        "component, step, part",
        [
            ("projection+ofc", "_pretrain_step", 1),  # dw1
            ("classifier", "_finetune_step", 1),  # dw1, reached through d_z
            ("classifier", "_finetune_step", 2),  # classifier dw
        ],
    )
    def test_oracle_checks_the_training_step(self, monkeypatch, component, step, part):
        original = getattr(trainer, step)

        def skewed(*args):
            result = list(original(*args))
            result[part] = [result[part][0] * 1.01, *result[part][1:]]
            return tuple(result)

        assert grad_check(component, points=2).passed
        monkeypatch.setattr(trainer, step, skewed)
        assert not grad_check(component, points=2).passed


class TestArtifactPersistence:
    def _trained(self, small_vocab, separable_samples, tmp_path):
        config = _fast_config(epochs_pretrain=2, epochs_finetune=2)
        provider = ProviderConfig(kind="toy", dim=64, seed=5)
        head, _ = pretrain(*separable_samples, config)
        artifact, _ = finetune(*separable_samples, small_vocab, head, config, provider)
        path = tmp_path / "model.json"
        save_artifact(artifact, path)
        return artifact, path

    def test_round_trip_predictions_identical(self, tmp_path, small_vocab, separable_samples):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        loaded = load_artifact(path)
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.normal(size=64)
            assert predict(x, artifact) == predict(x, loaded)

    def test_unknown_version(self, tmp_path, small_vocab, separable_samples):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 999
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="999"):
            load_artifact(path)

    def test_truncated_file(self, tmp_path, small_vocab, separable_samples):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(FileFormatError):
            load_artifact(path)

    def test_dim_inconsistency(self, tmp_path, small_vocab, separable_samples):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["embed_dim"] = 63
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match="embed_dim"):
            load_artifact(path)

    def test_missing_field(self, tmp_path, small_vocab, separable_samples):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        del obj["classifier"]
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_artifact(path)

    @pytest.mark.parametrize(
        "head, name, edit",
        [
            (None, "embed_dim", lambda d: d + 1),  # w1 rows vs embed_dim
            ("projection", "b1", lambda b: b[:-1]),  # b1 vs w1 columns
            ("projection", "w2", lambda w: w[:-1]),  # w2 rows vs w1 columns
            ("projection", "b2", lambda b: b[:-1]),  # b2 vs w2 columns
            ("classifier", "w", lambda w: w[:-1]),  # rows vs projection output
            ("classifier", "w", lambda w: [row[:-1] for row in w]),  # columns vs labels
            ("classifier", "b", lambda b: b[:-1]),  # b vs labels
            ("projection", "w1", lambda w: [[math.nan, *w[0][1:]], *w[1:]]),
            ("classifier", "b", lambda b: [math.inf, *b[1:]]),
            ("projection", "w2", lambda w: [["x", *w[0][1:]], *w[1:]]),
            ("projection", "b1", lambda b: {"values": b}),
            ("projection", "w1", lambda w: w[0]),  # wrong ndim
            ("classifier", "b", lambda b: [b]),
        ],
    )
    def test_each_shape_and_value_rule(self, tmp_path, small_vocab, separable_samples, head, name, edit):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        parent = obj if head is None else obj[head]
        parent[name] = edit(parent[name])
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_artifact(path)


class TestMarginGap:
    def test_crafted_gap(self):
        vectors = [
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
        ]
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # a, a, b
        # identity-ish head: project still normalizes, gap sign must hold
        head = ProjectionHead.init(2, 8, 4, np.random.default_rng(0))
        gap = projection_margin_gap(np.stack(vectors), labels, head)
        assert math.isfinite(gap)

    def test_single_polarity_raises(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        head = ProjectionHead.init(2, 4, 4, np.random.default_rng(0))
        with pytest.raises(NoPairsError):
            projection_margin_gap(x, np.ones((2, 1)), head)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(lr_pretrain=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValidationError):
        TrainConfig(decision_threshold=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(loss_kind="hinge")
    with pytest.raises(ValidationError):
        TrainConfig(epochs_pretrain=-1)
    with pytest.raises(ValidationError):
        TrainConfig(grad_clip_norm=0.0)


def test_train_config_json_round_trip():
    config = TrainConfig(
        loss_kind="oc",
        mining=MiningConfig(p=25.0, mode="standard"),
        ofc=OFCConfig(alpha=2.0, gamma=1.0),
        grad_clip_norm=None,
    )
    assert TrainConfig.from_json(config.to_json()) == config
