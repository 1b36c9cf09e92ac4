from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import intentclf

from intentclf import (
    FileFormatError,
    LLMClientConfig,
    PipelineError,
    ProviderConfig,
    RemoteServiceError,
    TrainConfig,
    ValidationError,
    default_taxonomy,
    load_artifact,
    load_dataset,
    load_embeddings,
    save_vocabulary,
    split_indices,
    two_label_combos,
)
import intentclf.cli as cli
import intentclf.datagen as datagen
import intentclf.embedding as embedding
import intentclf.service as service
import intentclf.trainer as trainer
from intentclf.cli import main
from intentclf.metrics import EvalReport
from intentclf import evaluate, save_artifact, score_samples
from intentclf.trainer import ARTIFACT_FORMAT_VERSION
from stubs import http_get, npy_bytes

_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Taxonomy + combos files and a tiny generate/embed/train/eval run."""
    root = tmp_path_factory.mktemp("cli")
    vocab = default_taxonomy()
    taxonomy = root / "taxonomy.json"
    save_vocabulary(vocab, taxonomy)
    combos = root / "combos.json"
    combos.write_text(
        json.dumps([sorted(c) for c in two_label_combos(vocab, 6, seed=3)]),
        encoding="utf-8",
    )
    paths = {
        "root": root,
        "taxonomy": taxonomy,
        "combos": combos,
        "dataset": root / "dataset.jsonl",
        "embeddings": root / "embeddings.npy",
        "model": root / "model.json",
        "report": root / "report.json",
    }
    assert main([
        "generate", "--taxonomy", str(taxonomy), "--offline", "--per-class", "6",
        "--combos", str(combos), "--seed", "3", "--out", str(paths["dataset"]),
    ]) == 0
    assert main([
        "embed", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--provider", "toy", "--dim", "64", "--embed-seed", "3",
        "--out", str(paths["embeddings"]),
    ]) == 0
    assert main([
        "train", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--embeddings", str(paths["embeddings"]), "--out", str(paths["model"]),
        "--seed", "3", "--epochs-pretrain", "4", "--epochs-finetune", "6",
        "--batch-size", "16", "--d-hidden", "32", "--d-proj", "32",
        "--holdout-fraction", "0.2", "--split-seed", "3",
        "--provider", "toy", "--dim", "64", "--embed-seed", "3",
    ]) == 0
    assert main([
        "eval", "--taxonomy", str(taxonomy), "--dataset", str(paths["dataset"]),
        "--embeddings", str(paths["embeddings"]), "--model", str(paths["model"]),
        "--holdout-fraction", "0.2", "--split-seed", "3", "--out", str(paths["report"]),
    ]) == 0
    return paths


class TestGenerate:
    def test_line_count_contract(self, workspace):
        lines = workspace["dataset"].read_text().strip().splitlines()
        assert len(lines) == 8 * 6 + 6

    def test_byte_identical_rerun(self, workspace, tmp_path):
        out = tmp_path / "again.jsonl"
        assert main([
            "generate", "--taxonomy", str(workspace["taxonomy"]), "--offline",
            "--per-class", "6", "--combos", str(workspace["combos"]),
            "--seed", "3", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == workspace["dataset"].read_bytes()

    def test_prints_per_class_counts(self, workspace, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        main([
            "generate", "--taxonomy", str(workspace["taxonomy"]), "--offline",
            "--per-class", "2", "--seed", "1", "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert "long-range ETA in maritime: 2" in stdout
        assert "total: 16 samples" in stdout

    def test_unreachable_endpoint_exits_4(self, workspace, tmp_path):
        code = main([
            "generate", "--taxonomy", str(workspace["taxonomy"]),
            "--endpoint", "http://127.0.0.1:9/v1/chat", "--model-name", "m",
            "--max-retries", "0", "--per-class", "1",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 4

    @pytest.mark.parametrize("labels", ["abc", ["eta", ""], ["eta", 7], {"eta": 1}, ["a", "a"]])
    def test_malformed_taxonomy_labels_exit_3(self, tmp_path, capsys, labels):
        taxonomy = tmp_path / "taxonomy.json"
        taxonomy.write_text(json.dumps({"labels": labels}), encoding="utf-8")
        code = main([
            "generate", "--taxonomy", str(taxonomy), "--offline",
            "--per-class", "1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 3
        assert f"[{taxonomy}]" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        code = main([
            "generate", "--taxonomy", str(workspace["taxonomy"]), "--offline",
            "--per-class", "1", "--seed", "-1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: seed must be >= 0"), err

    def test_missing_taxonomy_exits_3(self, tmp_path):
        code = main([
            "generate", "--taxonomy", str(tmp_path / "nope.json"), "--offline",
            "--per-class", "1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 3


class TestEmbed:
    def test_embeddings_align_with_dataset(self, workspace):
        vocab = default_taxonomy()
        dataset = load_dataset(workspace["dataset"], vocab)
        x = load_embeddings(workspace["embeddings"], dataset)
        assert x.shape == (len(dataset), 64)

    def test_empty_dataset_embeds_to_zero_row_matrix(self, workspace, tmp_path):
        dataset = tmp_path / "empty.jsonl"
        dataset.write_text("", encoding="utf-8")
        out = tmp_path / "empty_embeddings.npy"
        assert main([
            "embed", "--taxonomy", str(workspace["taxonomy"]), "--dataset", str(dataset),
            "--provider", "toy", "--dim", "64", "--out", str(out),
        ]) == 0
        assert np.load(out).shape == (0, 64)

    def test_file_provider_exits_2_and_writes_no_file(self, workspace, tmp_path, capsys):
        # precomputed vectors go to train and eval as --embeddings; embed has nothing to copy
        out = tmp_path / "e.npy"
        capsys.readouterr()
        assert main([
            "embed", "--taxonomy", str(workspace["taxonomy"]), "--dataset", str(workspace["dataset"]),
            "--provider", "file", "--out", str(out),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: provider 'file' cannot embed new text; it must be one of ('http', 'toy')"
        ]
        assert not out.exists()


class TestTrain:
    def test_byte_identical_rerun(self, workspace, tmp_path):
        out = tmp_path / "model_b.json"
        assert main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]), "--out", str(out),
            "--seed", "3", "--epochs-pretrain", "4", "--epochs-finetune", "6",
            "--batch-size", "16", "--d-hidden", "32", "--d-proj", "32",
            "--holdout-fraction", "0.2", "--split-seed", "3",
            "--provider", "toy", "--dim", "64", "--embed-seed", "3",
        ]) == 0
        assert out.read_bytes() == workspace["model"].read_bytes()

    @pytest.mark.parametrize("loss", ["oc", "cs"])
    def test_loss_switch_runs(self, workspace, tmp_path, loss):
        out = tmp_path / f"model_{loss}.json"
        assert main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]), "--out", str(out),
            "--loss", loss, "--seed", "3", "--epochs-pretrain", "2",
            "--epochs-finetune", "2", "--batch-size", "16",
            "--d-hidden", "32", "--d-proj", "32",
            "--provider", "toy", "--dim", "64", "--embed-seed", "3",
        ]) == 0
        assert load_artifact(out).train_config.loss_kind == loss

    def test_missing_embeddings_exits_3(self, workspace, tmp_path):
        code = main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(tmp_path / "missing.npy"),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "vectors",
        [np.array([["q", "1"]]), np.float64(3.0), np.zeros((2, 2, 2)),
         np.array([[0.5, 0.5], [0.5]], dtype=object), np.zeros((3, 0))],
        ids=["non-numeric", "scalar", "nested", "ragged", "empty"],
    )
    def test_malformed_embedding_vector_exits_3(self, workspace, tmp_path, capsys, vectors):
        embeddings = tmp_path / "bad.npy"
        np.save(embeddings, vectors, allow_pickle=True)
        code = main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(embeddings), "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert f"[{embeddings}]" in capsys.readouterr().err

    def test_bad_fraction_exits_2(self, workspace, tmp_path):
        code = main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]),
            "--out", str(tmp_path / "m.json"), "--holdout-fraction", "1.5",
        ])
        assert code == 2

    def test_provider_dim_mismatch_exits_2(self, workspace, tmp_path):
        code = main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]),
            "--out", str(tmp_path / "m.json"),
            "--provider", "toy", "--dim", "128", "--embed-seed", "3",
        ])
        assert code == 2

    def test_toy_provider_that_cannot_reproduce_the_embeddings_exits_2(self, workspace, tmp_path, capsys):
        # the workspace embeds with toy seed 3; serving with seed 0 would embed queries differently
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]), "--out", str(out),
            "--epochs-pretrain", "1", "--epochs-finetune", "1",
            "--batch-size", "16", "--d-hidden", "32", "--d-proj", "32",
            "--provider", "toy", "--dim", "64",
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: toy seed 0 "), err
        assert str(workspace["embeddings"]) in err[0]
        assert not out.exists()

    def test_loss_log_file(self, workspace, tmp_path):
        log = tmp_path / "losses.json"
        assert main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]),
            "--out", str(tmp_path / "m.json"), "--seed", "3",
            "--epochs-pretrain", "2", "--epochs-finetune", "3",
            "--batch-size", "16", "--d-hidden", "32", "--d-proj", "32",
            "--provider", "toy", "--dim", "64", "--embed-seed", "3",
            "--loss-log", str(log),
        ]) == 0
        logged = json.loads(log.read_text())
        assert len(logged["pretrain"]) == 2 and len(logged["finetune"]) == 3

    @pytest.mark.parametrize("exc, code", [
        (OSError(errno.ENOSPC, "No space left on device"), 3),
        (KeyboardInterrupt(), 130),
    ], ids=["disk-full", "ctrl-c"])
    def test_failed_write_keeps_the_previous_model(self, workspace, tmp_path, monkeypatch, capsys, exc, code):
        out = tmp_path / "model.json"
        out.write_bytes(workspace["model"].read_bytes())

        class HalfWritten:
            """A text file that stores half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise exc

        monkeypatch.setattr(trainer, "open", lambda *a, **k: HalfWritten(open(*a, **k)), raising=False)
        capsys.readouterr()
        assert main([
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]), "--out", str(out),
            "--seed", "4", "--epochs-pretrain", "1", "--epochs-finetune", "1",
            "--batch-size", "16", "--d-hidden", "32", "--d-proj", "32",
            "--provider", "toy", "--dim", "64", "--embed-seed", "3",
        ]) == code
        err = capsys.readouterr().err.splitlines()
        assert err == (["error: [Errno 28] No space left on device"] if code == 3 else []), err
        assert out.read_bytes() == workspace["model"].read_bytes()
        assert [path.name for path in tmp_path.iterdir()] == ["model.json"]


class TestEval:
    def test_report_matches_recomputation(self, workspace):
        vocab = default_taxonomy()
        dataset = load_dataset(workspace["dataset"], vocab)
        x = load_embeddings(workspace["embeddings"], dataset)
        artifact = load_artifact(workspace["model"])
        _, holdout_idx = split_indices(len(dataset), 0.2, 3)
        scores = score_samples(x[holdout_idx], artifact)
        truth = dataset.labels[holdout_idx]
        expected = evaluate(scores, artifact.decision_threshold, truth)
        assert EvalReport(**json.loads(workspace["report"].read_text())) == expected

    def test_perfect_fixture_reports_zero_hamming(self, tmp_path):
        from intentclf import LabelVocabulary, save_vocabulary

        vocab = LabelVocabulary(
            ("eta", "fuel"),
            {"eta": "estimated arrival time of a ship", "fuel": "fuel burned by a vessel"},
        )
        t = tmp_path / "t.json"
        save_vocabulary(vocab, t)
        args = {
            "d": tmp_path / "d.jsonl", "e": tmp_path / "e.npy",
            "m": tmp_path / "m.json", "r": tmp_path / "r.json",
        }
        assert main(["generate", "--taxonomy", str(t), "--offline",
                     "--per-class", "12", "--seed", "5", "--out", str(args["d"])]) == 0
        assert main(["embed", "--taxonomy", str(t), "--dataset", str(args["d"]),
                     "--provider", "toy", "--dim", "64", "--embed-seed", "5",
                     "--out", str(args["e"])]) == 0
        assert main(["train", "--taxonomy", str(t), "--dataset", str(args["d"]),
                     "--embeddings", str(args["e"]), "--out", str(args["m"]),
                     "--seed", "5", "--epochs-pretrain", "8", "--epochs-finetune", "30",
                     "--batch-size", "8", "--d-hidden", "32", "--d-proj", "32",
                     "--holdout-fraction", "0.25", "--split-seed", "5",
                     "--provider", "toy", "--dim", "64", "--embed-seed", "5"]) == 0
        assert main(["eval", "--taxonomy", str(t), "--dataset", str(args["d"]),
                     "--embeddings", str(args["e"]), "--model", str(args["m"]),
                     "--holdout-fraction", "0.25", "--split-seed", "5",
                     "--out", str(args["r"])]) == 0
        report = EvalReport(**json.loads(args["r"].read_text()))
        assert report.hamming_loss == 0.0
        assert report.subset_accuracy == 1.0

    def test_one_class_holdout_reports_auc_null_and_exits_0(self, workspace, tmp_path, capsys):
        # every row carries every label: the holdout has no negative cell
        labels = list(default_taxonomy().labels)
        dataset, embeddings, report = tmp_path / "d.jsonl", tmp_path / "e.npy", tmp_path / "r.json"
        dataset.write_text(
            "".join(json.dumps({"text": f"eta fuel berth query {i}", "labels": labels}) + "\n" for i in range(10)),
            encoding="utf-8",
        )
        assert main(["embed", "--taxonomy", str(workspace["taxonomy"]), "--dataset", str(dataset),
                     "--provider", "toy", "--dim", "64", "--embed-seed", "3", "--out", str(embeddings)]) == 0
        capsys.readouterr()
        assert main(["eval", "--taxonomy", str(workspace["taxonomy"]), "--dataset", str(dataset),
                     "--embeddings", str(embeddings), "--model", str(workspace["model"]),
                     "--holdout-fraction", "0.2", "--split-seed", "3", "--out", str(report)]) == 0
        header, values = capsys.readouterr().out.splitlines()[:2]
        assert header.endswith("| AUC") and values.endswith("| undefined (holdout has one class)")
        written = json.loads(report.read_text())
        assert written["auc"] is None
        others = ("subset_accuracy", "hamming_loss", "jaccard", "f1", "precision", "recall", "mcc")
        assert all(isinstance(written[k], float) for k in others)

    def test_table_column_order(self, workspace, tmp_path, capsys):
        assert main([
            "eval", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]),
            "--model", str(workspace["model"]),
            "--holdout-fraction", "0.2", "--split-seed", "3",
            "--out", str(tmp_path / "r.json"),
        ]) == 0
        stdout = capsys.readouterr().out
        assert (
            "Accuracy | Hamming Loss | Jaccard | F1 | Precision | Recall | MCC | AUC"
            in stdout
        )


class TestPredict:
    def test_prints_labels_and_scores(self, workspace, capsys):
        assert main([
            "predict", "--model", str(workspace["model"]),
            "--text", "estimated time of arrival for the tanker ACHERON?",
        ]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["labels"]
        assert set(body["scores"]) == set(default_taxonomy().labels)
        assert body["model_version"] == ARTIFACT_FORMAT_VERSION

    def test_text_that_is_not_utf8_exits_2(self, workspace, capsys):
        # a byte that is not UTF-8 reaches sys.argv as a lone surrogate
        assert main(["predict", "--model", str(workspace["model"]), "--text", "ETA \udcff"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: text is not valid UTF-8: lone surrogate '\\udcff' at index 4"], err

    def test_argv_byte_that_is_not_utf8_exits_2(self, workspace):
        env = {**os.environ, "PYTHONPATH": str(Path(intentclf.__file__).parent.parent), "PYTHONUTF8": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "intentclf.cli", "predict", "--model", str(workspace["model"]), "--text", b"ETA \xff"],
            capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.decode().splitlines() == ["error: text is not valid UTF-8: lone surrogate '\\udcff' at index 4"]

    def test_missing_model_exits_3(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.json"), "--text", "x"]) == 3

    @pytest.mark.parametrize("field, value", [
        ("decision_threshold", 5), ("decision_threshold", -1), ("decision_threshold", 0.0),
        ("decision_threshold", 1.0), ("format_version", True), ("format_version", 1.0),
        ("format_version", 2.0),
    ])
    def test_out_of_contract_model_field_exits_3(self, workspace, tmp_path, capsys, field, value):
        # a threshold outside (0,1) would answer the argmax label or every
        # label; 2.0 compares equal to the format version 2
        model = json.loads(workspace["model"].read_text())
        model[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["predict", "--model", str(path), "--text", "eta?"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0] and str(path) in err[0], err

    def test_model_with_a_reduction_snapshot_predicts_as_before(self, tmp_path, capsys):
        # written while OFCConfig still had a "reduction" field, which the
        # snapshot now carries as an unknown key; the predict output was
        # recorded from that code while the file was format 1, whose version
        # it echoed, and the file was then migrated with README's snippet
        model = _DATA / "model_with_reduction.json"
        for record in json.loads((_DATA / "model_with_reduction.predict.json").read_text()):
            capsys.readouterr()
            assert main(["predict", "--model", str(model), "--text", record["text"]]) == 0
            assert capsys.readouterr().out == record["stdout"].replace('"model_version":1}', '"model_version":2}')
        # saving keeps the weights and drops the key
        resaved = tmp_path / "model.json"
        save_artifact(load_artifact(model), resaved)
        old, new = json.loads(model.read_text()), json.loads(resaved.read_text())
        assert old["config"]["train"]["ofc"].pop("reduction") == "mean"
        assert old["config"]["provider"].pop("path") is None
        assert new == old

    def test_format_1_model_exits_3_naming_the_file_and_the_migration(self, workspace, tmp_path, capsys):
        model = json.loads(workspace["model"].read_text())
        model["format_version"] = 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--text", "eta?"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown artifact format_version 1 (supported: 2)"), err
        assert str(path) in err[0] and "README" in err[0] and "migrate" in err[0], err

    def test_float64_model_loads_bit_for_bit_and_scores_in_float64(self, tmp_path, capsys):
        # a format-2 model whose arrays are "<f8", written while training ran
        # in float64, with the predict output recorded from that code
        model = _DATA / "model_f8.json"
        for record in json.loads((_DATA / "model_f8.predict.json").read_text()):
            capsys.readouterr()
            assert main(["predict", "--model", str(model), "--text", record["text"]]) == 0
            assert capsys.readouterr().out == record["stdout"]
        artifact = load_artifact(model)
        arrays = [*artifact.projection.params(), *artifact.classifier.params()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
        assert score_samples(np.full((2, artifact.embed_dim), 0.25, dtype=np.float32), artifact).dtype == np.float64
        # saving keeps the weights bit for bit and drops the provider's old "path" key
        resaved = tmp_path / "model.json"
        save_artifact(artifact, resaved)
        old, new = json.loads(model.read_text()), json.loads(resaved.read_text())
        assert old["config"]["provider"].pop("path") is None
        assert new == old


class TestRemoteReplies:
    """A reply of the wrong shape from the encoder or the LLM endpoint exits
    4 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "vector", [["a", 1], {"x": 1}, [[1.0, 0.0]], [10**400, 1], ["1.5", True], [1.0, True], ["1", "0"]],
        ids=["string-entry", "object", "nested", "int-overflow", "numeric-string", "boolean", "numeric-strings"],
    )
    def test_encoder_reply_without_numeric_vectors_exits_4(
        self, workspace, tmp_path, monkeypatch, capsys, vector
    ):
        def reply(url, payload, **kwargs):
            return {"vectors": [vector] * len(payload["texts"])}

        monkeypatch.setattr(embedding, "post_json", reply)
        out = tmp_path / "e.npy"
        capsys.readouterr()
        assert main([
            "embed", "--taxonomy", str(workspace["taxonomy"]), "--dataset", str(workspace["dataset"]),
            "--provider", "http", "--endpoint", "http://127.0.0.1:9/embed", "--dim", "2",
            "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: encoder http://127.0.0.1:9/embed: row 0 "), err
        assert not out.exists()

    @pytest.mark.parametrize("content", [5, None, ["a"], {"text": "a"}])
    def test_completion_without_string_content_exits_4(
        self, workspace, tmp_path, monkeypatch, capsys, content
    ):
        def reply(url, payload, **kwargs):
            return {"choices": [{"message": {"content": content}}]}

        monkeypatch.setattr(datagen, "post_json", reply)
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        assert main([
            "generate", "--taxonomy", str(workspace["taxonomy"]),
            "--endpoint", "http://127.0.0.1:9/v1/chat", "--model-name", "m", "--per-class", "1",
            "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: completion response for "), err
        assert not out.exists()

    def _generate_from(self, workspace, monkeypatch, out, content) -> int:
        monkeypatch.setattr(datagen, "post_json", lambda *a, **k: {"choices": [{"message": {"content": content}}]})
        return main([
            "generate", "--taxonomy", str(workspace["taxonomy"]),
            "--endpoint", "http://127.0.0.1:9/v1/chat", "--model-name", "m", "--per-class", "3",
            "--out", str(out),
        ])

    def test_completion_line_that_is_not_utf8_is_dropped(self, workspace, tmp_path, monkeypatch, caplog):
        # json.loads turns a "\\ud800" escape in a reply into a lone surrogate
        out = tmp_path / "d.jsonl"
        content = "1. eta of the ship \ud800?\n2. eta of the tanker ACHERON\n3. fuel burned today"
        assert self._generate_from(workspace, monkeypatch, out, content) == 0
        texts = {json.loads(line)["text"] for line in out.read_text(encoding="utf-8").splitlines()}
        assert texts == {"eta of the tanker ACHERON", "fuel burned today"}
        assert "requested 3 queries, parsed 2" in caplog.text

    def test_completion_without_a_utf8_line_exits_4(self, workspace, tmp_path, monkeypatch, capsys):
        out = tmp_path / "d.jsonl"
        capsys.readouterr()
        assert self._generate_from(workspace, monkeypatch, out, "1. eta \ud800?\n2. \udfff") == 4
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: completion for {default_taxonomy().labels[0]!r} from http://127.0.0.1:9/v1/chat:"
            " response contained no parseable queries"
        ], err
        assert not out.exists()


@pytest.mark.parametrize("error, code", [(ValidationError, 2), (FileFormatError, 3), (RemoteServiceError, 4)])
def test_each_error_class_is_one_exit_code(monkeypatch, capsys, error, code):
    assert set(PipelineError.__subclasses__()) == {ValidationError, FileFormatError, RemoteServiceError}

    def fail(args):
        raise error("it failed")

    monkeypatch.setattr(cli, "run_predict", fail)
    assert main(["predict", "--model", "model.json", "--text", "eta?"]) == code
    assert capsys.readouterr().err == "error: it failed\n"


_GOOD_URL = "http://127.0.0.1:9/v1"


class TestRemoteSettings:
    """A bad endpoint, timeout or retry count exits 2 naming the field, before
    any connection is tried."""

    @pytest.mark.parametrize(
        "command, flags, cfg_obj, field",
        [
            ("embed", ["--endpoint", "foo"], {}, "ProviderConfig.endpoint"),
            ("embed", ["--endpoint", "ftp://h/x"], {}, "ProviderConfig.endpoint"),
            ("embed", ["--endpoint", "http://"], {}, "ProviderConfig.endpoint"),
            ("embed", ["--endpoint", "http://h:99999/x"], {}, "ProviderConfig.endpoint"),
            ("embed", [], {"provider": {"endpoint": "foo"}}, "ProviderConfig.endpoint"),
            ("embed", [], {"provider": {"endpoint": _GOOD_URL, "timeout": -1}}, "ProviderConfig.timeout"),
            ("embed", [], {"provider": {"endpoint": _GOOD_URL, "timeout": 0}}, "ProviderConfig.timeout"),
            ("embed", [], {"provider": {"endpoint": _GOOD_URL, "timeout": 1e10}}, "ProviderConfig.timeout"),
            ("embed", [], {"provider": {"endpoint": _GOOD_URL, "max_retries": -1}}, "ProviderConfig.max_retries"),
            ("generate", ["--endpoint", "foo"], {}, "LLMClientConfig.endpoint_url"),
            ("generate", ["--endpoint", "ftp://h/x"], {}, "LLMClientConfig.endpoint_url"),
            ("generate", ["--endpoint", "http://"], {}, "LLMClientConfig.endpoint_url"),
            ("generate", ["--endpoint", _GOOD_URL, "--timeout", "0"], {}, "LLMClientConfig.timeout"),
            ("generate", ["--endpoint", _GOOD_URL, "--timeout", "-1"], {}, "LLMClientConfig.timeout"),
            ("generate", ["--endpoint", _GOOD_URL, "--max-retries", "-1"], {}, "LLMClientConfig.max_retries"),
            ("generate", [], {"llm": {"endpoint_url": "ftp://h/x"}}, "LLMClientConfig.endpoint_url"),
            ("generate", [], {"llm": {"endpoint_url": _GOOD_URL, "timeout": -1}}, "LLMClientConfig.timeout"),
            ("generate", [], {"llm": {"endpoint_url": _GOOD_URL, "max_retries": -1}}, "LLMClientConfig.max_retries"),
        ],
        ids=[
            "embed-flag-foo", "embed-flag-ftp", "embed-flag-no-host", "embed-flag-bad-port", "embed-config-foo",
            "embed-config-timeout-minus-1", "embed-config-timeout-0", "embed-config-timeout-1e10",
            "embed-config-max_retries-minus-1",
            "generate-flag-foo", "generate-flag-ftp", "generate-flag-no-host", "generate-flag-timeout-0",
            "generate-flag-timeout-minus-1", "generate-flag-max-retries-minus-1", "generate-config-ftp",
            "generate-config-timeout-minus-1", "generate-config-max_retries-minus-1",
        ],
    )
    def test_bad_remote_setting_exits_2_before_connecting(
        self, workspace, tmp_path, monkeypatch, capsys, command, flags, cfg_obj, field
    ):
        calls = []
        for module in (embedding, datagen):
            monkeypatch.setattr(module, "post_json", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_obj))
        common = ["--config", str(cfg), "--taxonomy", str(workspace["taxonomy"])]
        if command == "embed":
            argv = ["embed", *common, "--dataset", str(workspace["dataset"]), "--provider", "http",
                    "--dim", "2", "--out", str(tmp_path / "e.npy"), *flags]
        else:
            argv = ["generate", *common, "--model-name", "m", "--per-class", "1",
                    "--out", str(tmp_path / "d.jsonl"), *flags]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} must be "), err
        assert calls == []


class TestServe:
    @pytest.mark.parametrize("provider",[{"kind": "file", "dim": 64, "path": "e.npy"}, None])
    def test_model_that_cannot_embed_text_exits_2_before_binding(
        self, workspace, tmp_path, monkeypatch, capsys, provider
    ):
        model = json.loads(workspace["model"].read_text())
        model["config"]["provider"] = provider
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        bound = []
        monkeypatch.setattr(service, "PooledHTTPServer", lambda *a, **k: bound.append(a))
        capsys.readouterr()
        assert main(["serve", "--model", str(path), "--port", "0"]) == 2
        assert bound == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "cannot embed new text" in err[0], err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_exits_2_before_binding(self, workspace, monkeypatch, capsys, port):
        bound = []
        monkeypatch.setattr(service, "PooledHTTPServer", lambda *a, **k: bound.append(a))
        capsys.readouterr()
        assert main(["serve", "--model", str(workspace["model"]), "--port", port]) == 2
        assert bound == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --port") and port in err[0], err

    def _start_serve(self, workspace) -> tuple[subprocess.Popen, int]:
        """``intentclf serve`` in a child process, once it answers /health."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = str(Path(intentclf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "intentclf.cli", "serve", "--model", str(workspace["model"]),
             "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        deadline = time.monotonic() + 20
        while True:
            try:
                if http_get(f"http://127.0.0.1:{port}/health", timeout=1).status_code == 200:
                    return proc, port
            except OSError:  # not listening yet
                pass
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                pytest.fail("serve never answered /health")
            time.sleep(0.05)

    def test_ctrl_c_exits_130_without_traceback(self, workspace):
        proc, _ = self._start_serve(workspace)
        try:
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "Traceback" not in err, err

    def test_sigterm_answers_the_open_request_then_exits_143(self, workspace):
        proc, port = self._start_serve(workspace)
        body = json.dumps({"text": "estimated time of arrival of the tanker?"}).encode()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                client.sendall(
                    b"POST /classify HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body[:5]
                )
                time.sleep(0.2)  # a worker holds the connection
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.3)
                assert proc.poll() is None, "serve exited with a request open"
                client.sendall(body[5:])
                reply = b""
                while chunk := client.recv(65536):
                    reply += chunk
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert reply.startswith(b"HTTP/1.0 200 "), reply
        assert proc.returncode == 143, err
        assert "Traceback" not in err, err


class TestConfigFile:
    def test_config_supplies_defaults(self, workspace, tmp_path):
        out = tmp_path / "from_config.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "taxonomy": str(workspace["taxonomy"]),
            "dataset": str(out),
            "generate": {"per_class": 2, "seed": 7, "offline": True},
        }))
        assert main(["generate", "--config", str(cfg)]) == 0
        assert len(out.read_text().strip().splitlines()) == 16

    def test_cli_flag_wins_over_config(self, workspace, tmp_path):
        out = tmp_path / "override.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "taxonomy": str(workspace["taxonomy"]),
            "dataset": str(out),
            "generate": {"per_class": 2, "seed": 7, "offline": True},
        }))
        assert main(["generate", "--config", str(cfg), "--per-class", "3"]) == 0
        assert len(out.read_text().strip().splitlines()) == 24

    def test_malformed_config_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert main(["generate", "--config", str(cfg)]) == 3

    def _train_argv(self, workspace, out, cfg, *flags):
        return [
            "train", "--taxonomy", str(workspace["taxonomy"]),
            "--dataset", str(workspace["dataset"]),
            "--embeddings", str(workspace["embeddings"]), "--out", str(out),
            "--config", str(cfg), *flags,
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            {"train": {"lr_pretrain": "abc"}},
            {"train": {"batch_size": None}},
            {"train": {"mining": {"p": [1]}}},
            {"provider": {"seed": "x"}},
            {"train": {"ofc": []}},
            {"split": {"holdout_fraction": "x"}},
            {"split": {"seed": [3]}},
            {"split": {"seed": -1}},
            {"train": {"seed": -1}},
            {"train": {"epochs_pretrain": True}},
            {"split": 7},
            {"provider": {"endpoint": 7}},
            {"loss_log": 5},
        ],
    )
    def test_wrong_typed_value_exits_2(self, workspace, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        argv = self._train_argv(workspace, tmp_path / "m.json", cfg, "--dim", "64")
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize(
        "flags, cfg_obj, field",
        [
            (["--lr-finetune", "nan"], {}, "lr_finetune"),
            (["--lr-finetune", "inf"], {}, "lr_finetune"),
            (["--lr-pretrain", "nan"], {}, "lr_pretrain"),
            (["--margin=-inf"], {}, "margin"),
            ([], {"train": {"grad_clip_norm": math.nan}}, "grad_clip_norm"),
            ([], {"train": {"momentum": -math.inf}}, "momentum"),
            ([], {"train": {"ofc": {"gamma": math.nan}}}, "gamma"),
            ([], {"provider": {"timeout": math.inf}}, "timeout"),
            ([], {"split": {"holdout_fraction": math.nan}}, "holdout_fraction"),
        ],
        ids=[
            "flag-lr_finetune-nan", "flag-lr_finetune-inf", "flag-lr_pretrain-nan", "flag-margin-minus-inf",
            "config-grad_clip_norm-nan", "config-momentum-minus-inf", "config-gamma-nan",
            "config-timeout-inf", "config-holdout_fraction-nan",
        ],
    )
    def test_non_finite_float_exits_2(self, workspace, tmp_path, capsys, flags, cfg_obj, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_obj))  # NaN and Infinity, as Python's json writes them
        out = tmp_path / "m.json"
        capsys.readouterr()
        assert main(self._train_argv(workspace, out, cfg, "--dim", "64", *flags)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"{field} must be a finite float" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"per_class": "abc"}, {"per_class": None}, {"seed": [1]}, {"seed": "1.5"}, {"per_class": True},
            {"offline": "false"}, {"offline": 1}, {"combos": 5}, {"combos": ["combos.json"]},
        ],
    )
    def test_wrong_typed_generate_value_exits_2(self, workspace, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"generate": {"offline": True, **bad}}))
        capsys.readouterr()
        argv = [
            "generate", "--config", str(cfg), "--taxonomy", str(workspace["taxonomy"]),
            "--out", str(tmp_path / "x.jsonl"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: generate."), err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("taxonomy", 5, "error: taxonomy must be str, got 5"),
            ("embeddings", ["e.jsonl"], "error: embeddings must be str, got ['e.jsonl']"),
            ("report", 1.5, "error: report must be str, got 1.5"),
            ("dataset", None, "error: missing required value: --dataset"),
        ],
    )
    def test_config_path_must_be_a_string(self, workspace, tmp_path, capsys, key, value, message):
        paths = {name: str(workspace[name]) for name in ("taxonomy", "dataset", "embeddings", "model")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**paths, "report": str(tmp_path / "r.json"), key: value}))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("cfg_obj", [{"generate": 5, "split": 7}, {"generate": []}])
    def test_non_object_generate_section_exits_2(self, workspace, tmp_path, capsys, cfg_obj):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_obj))
        capsys.readouterr()
        argv = [
            "generate", "--config", str(cfg), "--taxonomy", str(workspace["taxonomy"]),
            "--offline", "--per-class", "1", "--out", str(tmp_path / "x.jsonl"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config section 'generate' must be a JSON object"], err
        assert not (tmp_path / "x.jsonl").exists()

    def test_sections_reach_the_artifact_and_flags_win(self, workspace, tmp_path):
        out = tmp_path / "m.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "train": {
                "grad_clip_norm": 0.25, "epochs_pretrain": 1, "epochs_finetune": 1, "d_proj": 8,
                "ofc": {"epsilon": 1e-9, "margin": 0.7},
                "mining": {"mode": "standard", "p": 20.0},
            },
            "provider": {"timeout": 5.0},
        }))
        assert main(self._train_argv(
            workspace, out, cfg, "--d-hidden", "16", "--d-proj", "32", "--mining-p", "50", "--margin", "0.3",
            "--provider", "toy", "--dim", "64", "--embed-seed", "3",
        )) == 0
        snapshot = json.loads(out.read_text())["config"]
        assert snapshot["train"]["grad_clip_norm"] == 0.25
        assert snapshot["train"]["ofc"] == {"alpha": 1.0, "gamma": 2.0, "margin": 0.3, "epsilon": 1e-9}
        assert snapshot["train"]["mining"] == {"p": 50.0, "mode": "standard", "positive_rule": "exact"}
        assert snapshot["train"]["d_proj"] == 32
        assert snapshot["provider"]["timeout"] == 5.0

    @pytest.mark.parametrize("moved", ["mining", "ofc"])
    def test_top_level_mining_or_ofc_section_exits_2(self, workspace, tmp_path, capsys, moved):
        # mining and focal settings live under train; a top-level section is refused, not ignored
        out = tmp_path / "m.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({moved: {}}))
        capsys.readouterr()
        assert main(self._train_argv(workspace, out, cfg, "--provider", "toy", "--dim", "64", "--embed-seed", "3")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config section {moved!r} belongs under train: write it as 'train.{moved}'"], err
        assert not out.exists()

    def test_artifact_records_the_mining_oc_trains_on(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs_pretrain": 1, "epochs_finetune": 1, "loss_kind": "oc"}}))
        models = []
        for flags in ([], ["--mining-mode", "literal", "--mining-p", "50"]):
            out = tmp_path / f"m{len(models)}.json"
            assert main(self._train_argv(
                workspace, out, cfg, *flags, "--provider", "toy", "--dim", "64", "--embed-seed", "3",
            )) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]
        mining = json.loads(models[1])["config"]["train"]["mining"]
        assert mining == {"p": 0.0, "mode": "standard", "positive_rule": "exact"}

    def test_snapshot_config_reproduces_model(self, workspace, tmp_path):
        # the model's config object, pasted unchanged, is a config file
        out = tmp_path / "again.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(workspace["model"].read_text())["config"]))
        assert main([
            *self._train_argv(workspace, out, cfg), "--holdout-fraction", "0.2", "--split-seed", "3",
        ]) == 0
        assert out.read_bytes() == workspace["model"].read_bytes()

    def test_every_dotted_dest_names_a_config_field(self):
        # a flag's dest is its --config key: a train, provider or llm key must
        # name a field of that config, a nested one included
        configs = {"train": TrainConfig, "provider": ProviderConfig, "llm": LLMClientConfig}
        subcommands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for sub in subcommands.choices.values() for a in sub._actions if "." in a.dest}
        for dest in dests:
            section, *path = dest.split(".")
            if section in ("generate", "split"):  # read key by key, not through a config
                continue
            assert section in configs, dest
            kind = configs[section]
            for name in path:
                assert dataclasses.is_dataclass(kind) and name in {f.name for f in dataclasses.fields(kind)}, dest
                kind = typing.get_type_hints(kind)[name]
            assert not dataclasses.is_dataclass(kind), dest
        assert {"train.mining.p", "train.ofc.margin", "provider.seed", "llm.timeout"} <= dests


def _argv_reading(kind: str, workspace, path, out) -> list[str]:
    """A command that reads ``path`` as its ``kind`` input, the rest from ``workspace``."""
    files = {name: str(workspace[name]) for name in ("taxonomy", "dataset", "embeddings", "model")}
    files[kind] = str(path)
    generate = ["generate", "--taxonomy", files["taxonomy"], "--offline", "--per-class", "1", "--out", str(out)]
    return {
        "taxonomy": generate,
        "combos": [*generate, "--combos", str(path)],
        "config": [*generate, "--config", str(path)],
        "dataset": ["embed", "--taxonomy", files["taxonomy"], "--dataset", files["dataset"],
                    "--provider", "toy", "--dim", "8", "--out", str(out)],
        "embeddings": ["eval", "--taxonomy", files["taxonomy"], "--dataset", files["dataset"],
                       "--embeddings", files["embeddings"], "--model", files["model"],
                       "--holdout-fraction", "0.2", "--split-seed", "3", "--out", str(out)],
        "model": ["predict", "--model", files["model"], "--text", "eta of the tanker ACHERON?"],
    }[kind]


_INPUT_KINDS = ("taxonomy", "combos", "config", "dataset", "embeddings", "model")


_BAD_INPUTS = [
    *(pytest.param(kind, '{"labels": ["Überfahrt"]}'.encode("latin-1"), 3, id=f"{kind}-latin-1")
      for kind in _INPUT_KINDS),
    # int() refuses 5,000 digits
    *(pytest.param(kind, b"9" * 5000, 3, id=f"{kind}-long-integer") for kind in _INPUT_KINDS),
    pytest.param("config", b"[" * 200_000, 3, id="config-too-deep"),
    pytest.param("dataset", b'{"text": "eta?", "labels": [["x"]]}', 2, id="dataset-nested-label"),
    pytest.param("dataset", b'{"text": "eta?", "labels": [1, null]}', 2, id="dataset-non-string-labels"),
    # json.loads turns the escape into a str that no encoder accepts
    pytest.param("dataset", json.dumps({"text": "eta \ud800?", "labels": [default_taxonomy().labels[0]]}).encode(),
                 2, id="dataset-lone-surrogate"),
    pytest.param("combos", b'[[["a"]]]', 3, id="combos-nested-label"),
    pytest.param("combos", b"[[1, null]]", 3, id="combos-non-string-labels"),
    pytest.param("combos", json.dumps([[default_taxonomy().labels[0]], []]).encode(), 3, id="combos-empty-combo"),
    pytest.param("combos", b'[["nope"]]', 2, id="combos-unknown-label"),
    pytest.param("taxonomy", b'{"labels": ["a", "b"], "descriptions": {"a": 5}}', 3, id="taxonomy-description"),
    pytest.param("taxonomy", b'{"labels": ["eta \\ud800", "b"]}', 3, id="taxonomy-lone-surrogate"),
    pytest.param("model", b'{"format_version": 2, "vocabulary": {"labels": ["a"]}, "embed_dim": 1e400}', 3,
                 id="model-embed-dim-overflow"),
    # format-2 arrays whose shape lies about the data, or whose data is not base64
    pytest.param("model", json.dumps({
        "format_version": 2, "vocabulary": {"labels": ["a"]}, "embed_dim": 1,
        "projection": {"w1": {"shape": [1, 2**40], "dtype": "<f8", "data": "AAAAAAAAAAA="}},
    }).encode(), 3, id="model-lying-shape"),
    pytest.param("model", json.dumps({
        "format_version": 2, "vocabulary": {"labels": ["a"]}, "embed_dim": 1,
        "projection": {"w1": {"shape": [1, 1], "dtype": "<f8", "data": "AAAA AAAAAA="}},
    }).encode(), 3, id="model-not-base64"),
    # .npy embeddings that np.load would allocate for, warn on, fail on with
    # another exception, or load
    pytest.param("embeddings", npy_bytes("<f8", (10**9, 10**9)), 3, id="embeddings-huge-shape"),
    pytest.param("embeddings", npy_bytes("<f8", (2**64, 2**64)), 3, id="embeddings-overflowing-shape"),
    pytest.param("embeddings", npy_bytes("<f8", (-2, -2), payload=bytes(32)), 3, id="embeddings-negative-shape"),
    pytest.param("embeddings", b"PK\x03\x04" + bytes(60), 3, id="embeddings-zip"),
    pytest.param("embeddings", b"", 3, id="embeddings-empty-file"),
    pytest.param("embeddings", b"0.5 0.25\n0.25 0.5\n", 3, id="embeddings-text"),
    pytest.param("embeddings", npy_bytes("<c16", (2, 2), payload=bytes(64)), 3, id="embeddings-complex"),
    pytest.param("embeddings", npy_bytes("<U3", (2, 2), payload=bytes(48)), 3, id="embeddings-unicode"),
    pytest.param("embeddings", npy_bytes("|b1", (2, 2), payload=bytes(4)), 3, id="embeddings-bool"),
    pytest.param("embeddings", npy_bytes("<f8", (2, 2), payload=bytes(31)), 3, id="embeddings-truncated"),
    pytest.param("embeddings", npy_bytes("<f8", (2, 2), payload=bytes(33)), 3, id="embeddings-trailing-byte"),
    pytest.param("embeddings", npy_bytes("<f8", (2, 2), version=(3, 0)), 3, id="embeddings-version-3"),
]


@pytest.mark.parametrize("kind, content, code", _BAD_INPUTS)
def test_bad_input_file_exits_with_one_error_line(workspace, tmp_path, capsys, kind, content, code):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        assert main(_argv_reading(kind, workspace, bad, tmp_path / "out")) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    # every error names the file; a dataset record error also names its
    # line, and a combos label error its combo
    assert str(bad) in err[0], err
    assert code == 3 or err[0].startswith({"dataset": "error: line 1: ", "combos": "error: combo 0: "}[kind]), err


# object keys of every input format, so generated values reach past the
# top-level type checks
_FORMAT_KEYS = st.sampled_from([
    "labels", "descriptions", "text", "index", "vector", "format_version", "vocabulary",
    "embed_dim", "projection", "classifier", "w1", "b1", "w2", "b2", "w", "b",
    "decision_threshold", "config", "train", "provider", "generate", "split", "mining", "ofc",
    "shape", "dtype", "data",
])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_FORMAT_KEYS | st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
_FILE_BYTES = st.one_of(
    st.binary(max_size=256),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.lists(_JSON_VALUES, max_size=4).map(lambda rows: "\n".join(map(json.dumps, rows)).encode()),
)
# dataset lines with known and unknown labels, whose text may hold lone
# surrogate escapes ("\\ud800"), which json.loads accepts and UTF-8 does not
_DATASET_TEXT = st.text(
    st.characters(max_codepoint=0x7F) | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    max_size=8,
)
_DATASET_BYTES = st.lists(
    st.fixed_dictionaries({
        "text": _DATASET_TEXT,
        "labels": st.lists(st.sampled_from([*default_taxonomy().labels, "nope"]), max_size=2),
    }),
    min_size=1,
    max_size=4,
).map(lambda rows: "\n".join(map(json.dumps, rows)).encode())
_NPY_DTYPES = st.sampled_from(["<f8", ">f4", "<f2", "<i4", "|u1", "|b1", "<c16", "<U3", "<M8[s]"])


def _saved(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _npy_files(rows: int):
    """``.npy`` embeddings files for a dataset of ``rows`` samples.

    Valid arrays of random dtype and shape (some with the right row count),
    hand-built headers with random fields, valid files cut short at random,
    and random bytes.
    """
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8) | st.tuples(
        st.just(rows), st.sampled_from([0, 1, 64])
    )
    valid = hnp.arrays(_NPY_DTYPES, shapes).map(_saved)
    dims = st.integers(-2, 8) | st.sampled_from([10**9, 2**63, 2**64])
    headers = st.builds(
        npy_bytes,
        descr=_NPY_DTYPES | st.text(max_size=6) | _JSON_VALUES,
        shape=st.lists(dims, max_size=3).map(tuple) | _JSON_VALUES,
        fortran_order=st.booleans() | _JSON_VALUES,
        payload=st.binary(max_size=64),
        version=st.sampled_from([(1, 0), (2, 0), (3, 0)]),
    )
    cut = st.tuples(valid, st.floats(0, 1)).map(lambda pair: pair[0][: int(len(pair[0]) * pair[1])])
    return st.one_of(valid, headers, cut, st.binary(max_size=256))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", _INPUT_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_input_file_exits_with_a_documented_code(workspace, fuzz_dir, kind, data):
    if kind == "embeddings":
        rows = len(load_dataset(workspace["dataset"], default_taxonomy()))
        content = data.draw(_npy_files(rows), label="content")
    elif kind == "dataset":
        content = data.draw(_FILE_BYTES | _DATASET_BYTES, label="content")
    else:
        content = data.draw(_FILE_BYTES, label="content")
    path = fuzz_dir / f"{kind}.input"
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_argv_reading(kind, workspace, path, fuzz_dir / "out"))
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
