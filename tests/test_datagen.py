from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intentclf
import intentclf.httpclient as httpclient
from intentclf import (
    GenerationError,
    LLMClientConfig,
    PromptTemplate,
    RemoteServiceError,
    ValidationError,
    build_prompt,
    compose_multilabel,
    llm_generate,
    offline_generate,
    parse_generation,
    save_dataset,
    two_label_combos,
)
from stubs import stub_server


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(httpclient, "BACKOFF_BASE_SECONDS", 0.0)


class TestBuildPrompt:
    def test_embeds_label_description_and_count(self):
        prompt = build_prompt(
            PromptTemplate(
                class_label="long-range ETA in maritime",
                description="estimated time of arrival for maritime vessels and ships",
                sample_count=100,
            )
        )
        assert "long-range ETA in maritime" in prompt
        assert "estimated time of arrival for maritime vessels and ships" in prompt
        assert "100" in prompt
        assert "one query per line" in prompt

    def test_single_sample_request(self):
        prompt = build_prompt(PromptTemplate("a", "desc", 1))
        assert "Write 1 distinct" in prompt

    def test_invariants(self):
        with pytest.raises(ValidationError):
            PromptTemplate("a", "", 3)
        with pytest.raises(ValidationError):
            PromptTemplate("a", "d", 0)
        with pytest.raises(ValidationError):
            PromptTemplate(" ", "d", 3)


class TestParseGeneration:
    def test_numbered_list(self):
        raw = "1. When will vessel X arrive?\n2. ETA of ship Y?"
        assert parse_generation(raw, 10) == [
            "When will vessel X arrive?",
            "ETA of ship Y?",
        ]

    def test_markers_and_quotes(self):
        raw = '- "berth waiting time?"\n* fuel usage today\n3) "trajectory please"'
        assert parse_generation(raw, 10) == [
            "berth waiting time?",
            "fuel usage today",
            "trajectory please",
        ]

    def test_case_insensitive_dedupe_keeps_first(self):
        raw = "ETA of ship Y?\neta of SHIP y?\nsomething else"
        assert parse_generation(raw, 10) == ["ETA of ship Y?", "something else"]

    def test_blank_response_fails(self):
        with pytest.raises(GenerationError):
            parse_generation("\n  \n\t\n", 5)

    def test_truncates_to_requested(self):
        raw = "\n".join(f"query number {i}" for i in range(10))
        assert len(parse_generation(raw, 4)) == 4

    @settings(deadline=None, max_examples=60)
    @given(raw=st.text(min_size=1, max_size=200))
    def test_idempotent_on_own_output(self, raw):
        try:
            first = parse_generation(raw, 50)
        except GenerationError:
            return
        again = parse_generation("\n".join(first), len(first))
        assert again == first


class TestCompose:
    def test_singleton_passthrough(self, small_vocab):
        sample = compose_multilabel({"eta": "when?"}, frozenset({"eta"}), small_vocab)
        assert sample.text == "when?"
        assert sample.labels == frozenset({"eta"})

    def test_two_labels_join_in_vocabulary_order(self, small_vocab):
        sample = compose_multilabel(
            {"fuel": "s2", "eta": "s1"}, frozenset({"fuel", "eta"}), small_vocab
        )
        assert sample.text == "s1 s2"
        assert sample.labels == frozenset({"eta", "fuel"})

    def test_three_segments_two_separators(self, small_vocab):
        rng = np.random.default_rng(5)
        for _ in range(20):
            segments = {l: f"seg-{l}-{rng.integers(100)}" for l in small_vocab.labels}
            sample = compose_multilabel(
                segments, frozenset(small_vocab.labels), small_vocab, separator=" | "
            )
            assert sample.text.count(" | ") == 2
            assert [p.split("-")[1] for p in sample.text.split(" | ")] == list(
                small_vocab.labels
            )

    def test_missing_segment(self, small_vocab):
        with pytest.raises(ValidationError, match="fuel"):
            compose_multilabel({"eta": "x"}, frozenset({"eta", "fuel"}), small_vocab)


class TestOfflineGenerate:
    def test_counts(self, maritime_vocab):
        combos = two_label_combos(maritime_vocab, 5, seed=1)
        ds = offline_generate(maritime_vocab, per_class=3, combos=combos, seed=1)
        assert len(ds) == 8 * 3 + 5
        multi = [s for s in ds.samples if len(s.labels) > 1]
        assert len(multi) == 5

    def test_deterministic_files(self, tmp_path, maritime_vocab):
        combos = two_label_combos(maritime_vocab, 4, seed=9)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(offline_generate(maritime_vocab, 5, combos, seed=9), a)
        save_dataset(offline_generate(maritime_vocab, 5, combos, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_classes_share_no_query_strings(self, maritime_vocab):
        ds = offline_generate(maritime_vocab, per_class=40, combos=[], seed=3)
        by_class: dict[str, set[str]] = {}
        for sample in ds.samples:
            (label,) = sample.labels
            by_class.setdefault(label, set()).add(sample.text)
        classes = list(by_class)
        for i, a in enumerate(classes):
            assert len(by_class[a]) == 40  # distinct within class
            for b in classes[i + 1 :]:
                assert not by_class[a] & by_class[b]

    def test_unknown_description_uses_generic_bank(self):
        from intentclf import LabelVocabulary

        vocab = LabelVocabulary(
            labels=("cargo customs",), descriptions={"cargo customs": "customs clearance status"}
        )
        ds = offline_generate(vocab, per_class=6, combos=[], seed=0)
        assert len(ds) == 6
        assert all("customs clearance status" in s.text for s in ds.samples)

    def test_per_class_validation(self, small_vocab):
        with pytest.raises(ValidationError):
            offline_generate(small_vocab, 0, [], seed=0)

    def test_negative_seed_rejected(self, small_vocab):
        with pytest.raises(ValidationError):
            offline_generate(small_vocab, 1, [], seed=-1)
        with pytest.raises(ValidationError):
            two_label_combos(small_vocab, 1, seed=-1)

    def test_combo_validation(self, small_vocab):
        with pytest.raises(ValidationError):
            offline_generate(small_vocab, 1, [frozenset({"bogus"})], seed=0)


class TestTwoLabelCombos:
    def test_count_and_arity(self, maritime_vocab):
        combos = two_label_combos(maritime_vocab, 60, seed=42)
        assert len(combos) == 60
        assert all(len(c) == 2 for c in combos)

    def test_deterministic(self, maritime_vocab):
        assert two_label_combos(maritime_vocab, 60, seed=42) == two_label_combos(
            maritime_vocab, 60, seed=42
        )


class TestLLMGenerate:
    def _completion(self, lines):
        return {"choices": [{"message": {"content": "\n".join(lines)}}]}

    def test_happy_path_with_combo(self, small_vocab):
        responses = [
            (200, self._completion(["eta q1", "eta q2"])),
            (200, self._completion(["berth q1", "berth q2"])),
            (200, self._completion(["fuel q1", "fuel q2"])),
        ]
        with stub_server(responses) as (url, state):
            ds = llm_generate(
                small_vocab,
                per_class=2,
                combos=[frozenset({"eta", "fuel"})],
                config=LLMClientConfig(endpoint_url=url, model_name="test-model"),
                seed=0,
            )
        assert len(ds) == 7
        assert len(state.calls) == 3
        sent = state.calls[0]["body"]
        assert sent["model"] == "test-model"
        assert sent["messages"][0]["role"] == "user"
        combo_sample = ds.samples[-1]
        assert combo_sample.labels == frozenset({"eta", "fuel"})
        assert "eta q" in combo_sample.text and "fuel q" in combo_sample.text

    def test_short_generation_accepted_with_warning(self, small_vocab, caplog):
        responses = [(200, self._completion(["only one"]))] * 3
        with stub_server(responses) as (url, _):
            with caplog.at_level("WARNING"):
                ds = llm_generate(
                    small_vocab,
                    per_class=5,
                    combos=[],
                    config=LLMClientConfig(endpoint_url=url, model_name="m"),
                )
        assert len(ds) == 3
        assert any("requested 5" in r.message for r in caplog.records)

    def test_auth_header_from_env(self, small_vocab, monkeypatch):
        monkeypatch.setenv("MY_TOKEN", "sekrit")
        responses = [(200, self._completion(["q"]))] * 3
        with stub_server(responses) as (url, state):
            llm_generate(
                small_vocab,
                per_class=1,
                combos=[],
                config=LLMClientConfig(endpoint_url=url, model_name="m", auth_token_env="MY_TOKEN"),
            )
        assert state.calls[0]["headers"].get("Authorization") == "Bearer sekrit"

    def test_malformed_body_is_remote_error(self, small_vocab):
        with stub_server([(200, {"unexpected": True})]) as (url, _):
            with pytest.raises(RemoteServiceError, match="choices"):
                llm_generate(
                    small_vocab,
                    per_class=1,
                    combos=[],
                    config=LLMClientConfig(endpoint_url=url, model_name="m", max_retries=0),
                )

    def test_http_failure_retries_then_raises(self, small_vocab):
        with stub_server([(500, {"err": 1}), (500, {"err": 2})]) as (url, state):
            with pytest.raises(RemoteServiceError, match="HTTP 500"):
                llm_generate(
                    small_vocab,
                    per_class=1,
                    combos=[],
                    config=LLMClientConfig(endpoint_url=url, model_name="m", max_retries=1),
                )
        assert len(state.calls) == 2  # initial + one retry

    def test_recovers_after_transient_failure(self, small_vocab):
        responses = [
            (500, {"err": 1}),
            (200, self._completion(["a"])),
            (200, self._completion(["b"])),
            (200, self._completion(["c"])),
        ]
        with stub_server(responses) as (url, state):
            ds = llm_generate(
                small_vocab,
                per_class=1,
                combos=[],
                config=LLMClientConfig(endpoint_url=url, model_name="m", max_retries=2),
            )
        assert len(ds) == 3
        assert len(state.calls) == 4

    def test_combo_draws_do_not_depend_on_the_hash_seed(self, tmp_path):
        # each class answers with its own numbered queries, so combo texts
        # show which query each label's draw picked
        script = (
            "import sys\n"
            "from intentclf import datagen, default_taxonomy, save_dataset, two_label_combos\n"
            "def answer(template, config):\n"
            "    texts = tuple(f'{template.class_label} {i}' for i in range(template.sample_count))\n"
            "    return datagen.GenerationResult(template.class_label, texts, template.sample_count)\n"
            "datagen.generate_class = answer\n"
            "vocab = default_taxonomy()\n"
            "config = datagen.LLMClientConfig(endpoint_url='http://127.0.0.1:9', model_name='m')\n"
            "combos = two_label_combos(vocab, 20, seed=1)\n"
            "save_dataset(datagen.llm_generate(vocab, 5, combos, config, seed=3), sys.argv[1])\n"
        )
        src = str(Path(intentclf.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash{hash_seed}.jsonl"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=60)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
