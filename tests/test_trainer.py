from __future__ import annotations

import base64
import json
import math
import tracemalloc

import numpy as np
import pytest

from intentclf import (
    FileFormatError,
    MiningConfig,
    OFCConfig,
    ProviderConfig,
    TrainConfig,
    ValidationError,
    embed_texts,
    finetune,
    load_artifact,
    offline_generate,
    predict,
    pretrain,
    save_artifact,
    score_samples,
)
from intentclf import trainer
from intentclf.trainer import (
    ARTIFACT_FORMAT_VERSION,
    ClassifierHead,
    ModelArtifact,
    ProjectionHead,
    _classify_batch,
    _project_batch,
    _projection_backward,
    bce_loss,
)
from bf_oracles import central_diff
from grad_oracle import grad_check, max_relative_error, projection_margin_gap


@pytest.fixture(scope="module")
def separable_samples(small_vocab):
    """Embeddings and label rows of a small dataset, as one (x, y) pair."""
    dataset = offline_generate(small_vocab, per_class=12, combos=[], seed=5)
    return embed_texts(dataset.texts, ProviderConfig(kind="toy", dim=64, seed=5)), dataset.labels


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
        value, _ = bce_loss(np.array([[40.0, -40.0]]), np.array([[1.0, 0.0]]))
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_coin_flip_is_log_two(self):
        value, _ = bce_loss(np.zeros((3, 4)), np.ones((3, 4)))
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_frozen_hand_value(self):
        # logits of the probabilities 0.9 and 0.2
        value, _ = bce_loss(np.array([[math.log(9), math.log(0.25)]]), np.array([[1.0, 0.0]]))
        expected = (-math.log(0.9) - math.log(0.8)) / 2
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.164252033, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype, want", [(np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
    def test_gradient_in_the_logits_compute_dtype(self, dtype, want):
        value, grad = bce_loss(np.zeros((2, 3), dtype=dtype), np.ones((2, 3)))
        assert grad.dtype == want and value == pytest.approx(math.log(2), rel=1e-6)

    def test_wrong_side_saturated_column_keeps_its_gradient(self):
        n, m = 5, 3
        rng = np.random.default_rng(0)
        head = ProjectionHead.init(6, 4, 4, rng)
        classifier = ClassifierHead(w=np.zeros((4, m)), b=np.array([40.0, 0.0, 0.0]))
        y = np.zeros((n, m))
        y[:, 1] = 1.0
        value, (_, (_, d_b)) = trainer._finetune_step(rng.normal(size=(n, 6)), y, head, classifier)
        # sigmoid(40) rounds to 1: each of the n cells adds 1 / (n m)
        assert d_b[0] == pytest.approx(1.0 / m, rel=1e-12)
        assert value == pytest.approx((40.0 + 2 * math.log(2)) / m, rel=1e-12)


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

    @pytest.mark.parametrize("kind, p, mode", [("ofc", 50.0, "literal"), ("oc", 0.0, "standard"), ("cs", 100.0, "literal")])
    def test_config_records_the_mining_the_loss_trains_on(self, separable_samples, kind, p, mode):
        flagged = _fast_config(loss_kind=kind, epochs_pretrain=2, mining=MiningConfig(p=50.0, positive_rule="overlap"))
        assert flagged.mining == MiningConfig(p=p, mode=mode, positive_rule="overlap")
        if kind == "ofc":
            return
        # oc and cs fix their mining, so the flags move no weight
        plain = _fast_config(loss_kind=kind, epochs_pretrain=2, mining=MiningConfig(positive_rule="overlap"))
        heads = [pretrain(*separable_samples, config)[0] for config in (flagged, plain)]
        assert all(np.array_equal(a, b) for a, b in zip(heads[0].params(), heads[1].params()))

    def test_trailing_single_row_batch_is_left_out(self, monkeypatch, separable_samples):
        x, y = (a[::4] for a in separable_samples)  # 9 rows across all three labels
        sizes = []
        step = trainer._pretrain_step

        def recording(xb, yb, head, config):
            sizes.append(len(xb))
            return step(xb, yb, head, config)

        monkeypatch.setattr(trainer, "_pretrain_step", recording)
        _, history = pretrain(x, y, _fast_config(batch_size=4, epochs_pretrain=3))
        assert len(x) == 9
        assert sizes == [4, 4] * 3
        assert len(history) == 3 and all(math.isfinite(v) for v in history)


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

    def test_provider_width_mismatch_rejected(self, small_vocab, separable_samples):
        # load_artifact would refuse such a model, so finetune does not make it
        head = ProjectionHead.init(64, 8, 8, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="provider dim 256 does not match embedding width 64"):
            finetune(*separable_samples, small_vocab, head, _fast_config(), ProviderConfig(dim=256))


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


class TestComputeDtype:
    """Training and scoring compute in the dtype of their input: float32 from
    an embeddings file, float64 on the oracles' path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_and_scores_take_the_input_dtype(self, small_vocab, separable_samples, dtype):
        x, y = separable_samples
        x = x.astype(dtype)
        config = _fast_config(epochs_pretrain=2, epochs_finetune=2)
        head, _ = pretrain(x, y, config)
        assert {p.dtype for p in head.params()} == {np.dtype(dtype)}
        artifact, _ = finetune(x, y, small_vocab, head, config)
        assert {p.dtype for p in _head_arrays(artifact)} == {np.dtype(dtype)}
        assert score_samples(x, artifact).dtype == dtype
        # predict is the one-row forward in the heads' dtype, whatever the query's type
        for query in (x[0], x[0].astype(np.float64), x[0].tolist()):
            _, by_label = predict(query, artifact)
            assert list(by_label.values()) == score_samples(x[:1], artifact)[0].tolist()

    def test_float32_heads_start_from_the_float64_draws_rounded(self, small_vocab, separable_samples):
        x, y = separable_samples
        config = _fast_config(epochs_pretrain=0, epochs_finetune=0)
        head64, _ = pretrain(x, y, config)
        head32, _ = pretrain(x.astype(np.float32), y, config)
        for want, got in zip(head64.params(), head32.params(), strict=True):
            assert got.tobytes() == want.astype(np.float32).tobytes()
        # finetune copies a projection of the other dtype into the input's, leaving it as it was
        art32, _ = finetune(x.astype(np.float32), y, small_vocab, head64, config)
        art64, _ = finetune(x, y, small_vocab, head64, config)
        assert {p.dtype for p in head64.params()} == {np.dtype(np.float64)}
        for want, got in zip(_head_arrays(art64), _head_arrays(art32), strict=True):
            assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_float32_training_tracks_float64(self, small_vocab, separable_samples):
        # the same run in each dtype ends with nearly the same probabilities
        x, y = separable_samples
        config = _fast_config()
        scores = []
        for dtype in (np.float64, np.float32):
            head, _ = pretrain(x.astype(dtype), y, config)
            artifact, _ = finetune(x.astype(dtype), y, small_vocab, head, config)
            scores.append(score_samples(x, artifact))
        assert np.abs(scores[0] - scores[1]).max() < 1e-3
        assert np.array_equal(scores[0] > 0.5, scores[1] > 0.5)


def _probs_artifact(small_vocab, probabilities, threshold=0.5):
    """An artifact whose classifier emits fixed probabilities for any input."""
    d_in, d_proj = 6, 4
    head = ProjectionHead.init(d_in, 5, d_proj, np.random.default_rng(0))
    logits = [math.log(p / (1 - p)) for p in probabilities]
    classifier = ClassifierHead(w=np.zeros((d_proj, len(probabilities))), b=np.array(logits))
    return ModelArtifact(
        vocabulary=small_vocab,
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

        # ``part`` indexes (value, *gradient groups); the group's first array is skewed
        def skewed(*args):
            value, grads = original(*args)
            result = [value, *grads]
            result[part] = [result[part][0] * 1.01, *result[part][1:]]
            return result[0], result[1:]

        assert grad_check(component, points=2).passed
        monkeypatch.setattr(trainer, step, skewed)
        assert not grad_check(component, points=2).passed


def _decoded(field: dict) -> np.ndarray:
    """A format-2 array field as an array of its stored dtype."""
    return np.frombuffer(base64.b64decode(field["data"]), dtype=field["dtype"]).reshape(field["shape"])


def _encoded(array, dtype="<f8") -> dict:
    """``array`` as a format-2 array field of ``dtype``."""
    array = np.asarray(array, dtype=dtype)
    return {"shape": list(array.shape), "dtype": dtype, "data": base64.b64encode(array.tobytes()).decode()}


def _head_arrays(artifact: ModelArtifact) -> list[np.ndarray]:
    return [*artifact.projection.params(), *artifact.classifier.params()]


class TestArtifactPersistence:
    def _trained(self, small_vocab, separable_samples, tmp_path, dtype=np.float64):
        config = _fast_config(epochs_pretrain=2, epochs_finetune=2)
        provider = ProviderConfig(kind="toy", dim=64, seed=5)
        x, y = separable_samples
        head, _ = pretrain(x.astype(dtype), y, config)
        artifact, _ = finetune(x.astype(dtype), y, small_vocab, head, config, provider)
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

    @pytest.mark.parametrize("version", [1, 999])
    def test_unknown_version(self, tmp_path, small_vocab, separable_samples, version):
        # format 1 (nested lists) is refused too; the file's arrays are valid
        # format 2, so only the version can be what is refused
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["format_version"] = version
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match=rf"format_version {version} \(supported: 2\)") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

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
            ("projection", "b1", lambda b: {"values": b}),  # an object without shape, dtype and data
            ("projection", "w1", lambda w: w[0]),  # wrong ndim
            ("classifier", "b", lambda b: [b]),
            # a provider that cannot produce embed_dim-long inputs
            ("config", "provider", lambda p: {**p, "dim": 32}),
            ("config", "provider", lambda p: {**p, "kind": "http", "dim": 32, "endpoint": "http://127.0.0.1:9/e"}),
        ],
    )
    def test_each_shape_and_value_rule(self, tmp_path, small_vocab, separable_samples, head, name, edit):
        # an array edit applies to the decoded nested lists, and a list it
        # returns is stored back as "<f8" bytes, NaN and inf included
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        if head in ("projection", "classifier"):
            edited = edit(_decoded(obj[head][name]).tolist())
            obj[head][name] = edited if isinstance(edited, dict) else _encoded(edited)
        else:
            parent = obj if head is None else obj[head]
            parent[name] = edit(parent[name])
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_artifact(path)

    def test_provider_width_mismatch_names_the_file(self, tmp_path, small_vocab, separable_samples):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["config"]["provider"]["dim"] = 32
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError) as caught:
            load_artifact(path)
        width = artifact.embed_dim
        assert str(caught.value) == f"provider dim 32 does not match embedding width {width} [{path}]"

    def test_round_trip_is_bit_exact(self, tmp_path, small_vocab, separable_samples):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        assert obj["format_version"] == ARTIFACT_FORMAT_VERSION == 2
        loaded = load_artifact(path)
        for want, got in zip(_head_arrays(artifact), _head_arrays(loaded), strict=True):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.owndata and got.flags.writeable
        again = tmp_path / "again.json"
        save_artifact(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("dtype, stored", [(np.float32, "<f4"), (np.float64, "<f8")])
    def test_each_head_dtype_round_trips_bit_for_bit(self, tmp_path, small_vocab, separable_samples, dtype, stored):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path, dtype)
        obj = json.loads(path.read_text())
        assert {field["dtype"] for head in ("projection", "classifier") for field in obj[head].values()} == {stored}
        loaded = load_artifact(path)
        for want, got in zip(_head_arrays(artifact), _head_arrays(loaded), strict=True):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        again = tmp_path / "again.json"
        save_artifact(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_float32_dtype_over_float64_data_is_refused_before_decoding(
        self, tmp_path, small_vocab, separable_samples, monkeypatch
    ):
        # w1 is read first, so nothing may be decoded at all
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        self._edited(path, "w1", dtype="<f4")

        def no_decoding(*args, **kwargs):
            raise AssertionError("data decoded before its length was checked")

        monkeypatch.setattr(trainer.base64, "b64decode", no_decoding)
        with pytest.raises(FileFormatError, match=r"'projection.w1' data must be \d+ base64 characters") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    def test_heads_of_two_dtypes_are_refused(self, tmp_path, small_vocab, separable_samples):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        self._edited(path, "b2", **_encoded(artifact.projection.b2, "<f4"))
        with pytest.raises(FileFormatError, match="head arrays mix dtypes float32, float64") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    def _edited(self, path, name, **changes):
        obj = json.loads(path.read_text())
        obj["projection"][name].update(changes)
        path.write_text(json.dumps(obj))

    # each but little-endian float32 and float64, which are the two that load
    @pytest.mark.parametrize("dtype", [">f4", ">f8", "float64", "f8", None, ["<f8"], "<f2", "float32", "f4", ["<f4"]])
    def test_dtype_other_than_little_endian_float64(self, tmp_path, small_vocab, separable_samples, dtype):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        self._edited(path, "b1", dtype=dtype)
        with pytest.raises(FileFormatError, match="'projection.b1' has dtype") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("size", [-1, True, 1.5, 10**9, 2**63, "8"])
    def test_shape_entry_that_is_not_a_fitting_non_negative_integer(
        self, tmp_path, small_vocab, separable_samples, size
    ):
        # the hidden width is first read from w1, so only the data length can
        # tell that 10**9 or 2**63 is a lie
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        self._edited(path, "w1", shape=[artifact.embed_dim, size])
        with pytest.raises(FileFormatError, match="'projection.w1' (shape must be|data must be)") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("char", ["!", "-", "_", " ", "\u00e9", "="])
    def test_base64_alphabet_error(self, tmp_path, small_vocab, separable_samples, char):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        data = json.loads(path.read_text())["projection"]["w2"]["data"]
        self._edited(path, "w2", data=char + data[1:])
        with pytest.raises(FileFormatError, match="'projection.w2' data is not valid base64") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("cut", [1, 4])
    def test_data_shorter_than_its_shape(self, tmp_path, small_vocab, separable_samples, cut):
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        data = json.loads(path.read_text())["projection"]["w2"]["data"]
        self._edited(path, "w2", data=data[:-cut])
        with pytest.raises(FileFormatError, match="'projection.w2' data must be"):
            load_artifact(path)

    def test_lying_shape_is_refused_before_decoding(self, tmp_path, small_vocab, separable_samples, monkeypatch):
        # a 2**31 x 2**31 claim (2**65 bytes) over the real, short payload;
        # only what is allocated after the JSON parse counts
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["embed_dim"] = 2**31
        obj["projection"]["w1"]["shape"] = [2**31, 2**31]
        path.write_text(json.dumps(obj))
        parse, parsed_at = trainer.read_json, []

        def parse_then_reset_peak(*args):
            parsed = parse(*args)
            tracemalloc.reset_peak()
            parsed_at.append(tracemalloc.get_traced_memory()[0])
            return parsed

        monkeypatch.setattr(trainer, "read_json", parse_then_reset_peak)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="'projection.w1' data must be") as caught:
                load_artifact(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(caught.value)
        assert peak - parsed_at[0] < path.stat().st_size

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bytes(self, tmp_path, small_vocab, separable_samples, value):
        artifact, path = self._trained(small_vocab, separable_samples, tmp_path)
        w1 = artifact.projection.w1.copy()
        w1[0, 0] = value
        self._edited(path, "w1", **_encoded(w1))
        with pytest.raises(FileFormatError, match="'projection.w1' has non-finite entries") as caught:
            load_artifact(path)
        assert str(path) in str(caught.value)

    def test_file_provider_dim_is_not_checked(self, tmp_path, small_vocab, separable_samples):
        # the file's rows fix the model's input dim, so the snapshot's dim is not used
        _, path = self._trained(small_vocab, separable_samples, tmp_path)
        obj = json.loads(path.read_text())
        obj["config"]["provider"] = {"kind": "file", "dim": 32, "path": "vectors.npy"}
        path.write_text(json.dumps(obj))
        assert load_artifact(path).provider.kind == "file"


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
        with pytest.raises(ValueError, match="both pair polarities"):
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
