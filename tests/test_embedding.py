from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import intentclf.embedding as embedding
import intentclf.httpclient as httpclient
from intentclf import (
    Dataset,
    DegenerateEmbeddingError,
    FileFormatError,
    ProviderConfig,
    RemoteServiceError,
    TextSample,
    ValidationError,
    embed_dataset,
    embed_remote,
    embed_texts,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    toy_embed,
)
from bf_oracles import save_embeddings_loop, toy_acc_loop, toy_embed_loop
from stubs import stub_server


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(httpclient, "BACKOFF_BASE_SECONDS", 0.0)


@pytest.fixture
def tiny_dataset(small_vocab):
    return Dataset(
        vocabulary=small_vocab,
        samples=(
            TextSample("when does she arrive", frozenset({"eta"})),
            TextSample("how long at anchor", frozenset({"berth"})),
            TextSample("daily burn rate", frozenset({"fuel"})),
        ),
    )


class TestL2Normalize:
    def test_three_four_five(self):
        assert l2_normalize([3.0, 4.0]).tolist() == [0.6, 0.8]

    def test_unit_vector_idempotent(self):
        rng = np.random.default_rng(0)
        v = l2_normalize(rng.normal(size=16))
        assert np.max(np.abs(l2_normalize(v) - v)) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(DegenerateEmbeddingError):
            l2_normalize([0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            l2_normalize([1.0, float("nan")])


class TestToyEmbed:
    def test_deterministic(self):
        a = toy_embed("estimate the berth waiting time", 64, seed=5)
        b = toy_embed("estimate the berth waiting time", 64, seed=5)
        assert np.array_equal(a, b)

    def test_dim_contract_and_unit_norm(self):
        for dim in (2, 17, 256):
            v = toy_embed("some query", dim, seed=1)
            assert v.shape == (dim,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_different_topics_are_dissimilar(self):
        a = toy_embed("berth waiting time", 256, seed=0)
        b = toy_embed("fuel consumed tanker", 256, seed=0)
        assert float(a @ b) < 0.5

    def test_short_and_empty_text_never_fail(self):
        for text in ("", "a", "ab"):
            v = toy_embed(text, 32, seed=0)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_seed_changes_map(self):
        a = toy_embed("same text", 64, seed=0)
        b = toy_embed("same text", 64, seed=1)
        assert not np.array_equal(a, b)

    def test_dim_validation(self):
        with pytest.raises(ValidationError):
            toy_embed("x", 1, seed=0)

    def test_stable_across_process_restarts(self):
        # frozen reference vector; fails if the hashing scheme ever drifts
        v = toy_embed("estimated time of arrival", 8, 42)
        assert np.allclose(
            v, [0.2, 0.2, -0.4, -0.2, -0.4, 0.4, -0.2, 0.6], atol=1e-12
        )


_CHARS = "ab cdeé ß漢字🚢\t\x00\x02\x03,?"


def _random_text(rng: np.random.Generator) -> str:
    kind = int(rng.integers(0, 4))
    if kind == 0:  # empty-ish
        return str(rng.choice(["", " ", "  ", "\t", "\n", "\x02", "\x03"]))
    pick = lambda n: "".join(rng.choice(list(_CHARS), size=n))  # noqa: E731
    if kind == 1:
        return pick(int(rng.integers(1, 3)))
    if kind == 2:
        return pick(int(rng.integers(3, 80)))
    # long repeated substrings
    return pick(int(rng.integers(1, 6))) * int(rng.integers(20, 300)) + pick(2)


class TestToyEmbedOracle:
    """The memoised, bincount-accumulated embedder against the per-trigram loop."""

    def test_matches_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        cancelled = 0
        for _ in range(1200):
            text = _random_text(rng)
            dim = int(rng.choice([2, 3, 7, 256]))
            seed = int(rng.choice([0, 1, 42, -1, 2**64 - 1]))
            got = toy_embed(text, dim, seed)
            assert got.tobytes() == toy_embed_loop(text, dim, seed).tobytes(), (text, dim, seed)
            cancelled += not toy_acc_loop(text, dim, seed).any()
        assert cancelled > 0, "no text reached the all-cancelled fallback"

    def test_memo_stays_within_its_bound(self):
        bound = embedding._TRIGRAM_MEMO_SIZE
        assert embedding._hash_trigram.cache_info().maxsize == bound
        misses = embedding._hash_trigram.cache_info().misses
        # every 3-letter text brings a new inner trigram: more than the bound
        for letters in itertools.product("abcdefghijklmnopqrstuvwxy", repeat=3):
            toy_embed("".join(letters), 8, seed=11)
            assert embedding._hash_trigram.cache_info().currsize <= bound
        assert embedding._hash_trigram.cache_info().misses - misses > bound


class TestSaveEmbeddingsOracle:
    def test_file_bytes_match_one_dumps_per_record(self, tmp_path):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
                   1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5,
                   float("nan"), float("inf"), float("-inf")]
        rows = [
            np.array([0.0, -0.0, 0.0, -0.0, 1.0]),
            np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, 5e-324]),
            np.array([1e308, -1e308, 1.7976931348623157e308, -0.0, 1e308]),
            np.full(256, 0.0625),
            toy_embed("estimated time of arrival", 256, 42),
            rng.normal(size=256),
            np.where(rng.random(256) < 0.5, -0.0, rng.normal(size=256)),
            np.array([0.25, 0.25, -0.0, 0.25]),  # 2 of 4 distinct: gathered
            np.array([0.25, 0.5, -0.0, 0.25]),  # 3 of 4 distinct: rendered whole
            np.array([float("nan"), float("inf"), float("-inf"), float("nan")]),
            rng.normal(size=16).astype(np.float32),
            np.arange(-3, 4),
            [0.5, -0.0, 0.5],
            np.array([]),
        ]
        rows += [rng.choice(special, size=int(rng.integers(1, 40))) for _ in range(200)]
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        save_embeddings(rows, got)
        save_embeddings_loop(rows, want)
        assert got.read_bytes() == want.read_bytes()


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path, tiny_dataset):
        vectors = [toy_embed(s.text, 8, 0) for s in tiny_dataset.samples]
        path = tmp_path / "e.jsonl"
        save_embeddings(vectors, path)
        loaded = load_embeddings(path, tiny_dataset)
        assert loaded.shape == (3, 8)
        for i, row in enumerate(loaded):
            assert np.allclose(row, vectors[i])

    def test_dimension_mismatch_names_row(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.jsonl"
        rows = [
            {"index": 0, "vector": [1.0] * 4},
            {"index": 1, "vector": [1.0] * 4},
            {"index": 2, "vector": [1.0] * 3},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="row 2"):
            load_embeddings(path, tiny_dataset)

    def test_row_count_mismatch_reports_both_counts(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.jsonl"
        save_embeddings([np.ones(4), np.ones(4)], path)
        with pytest.raises(ValidationError, match=r"2 rows.*3 samples"):
            load_embeddings(path, tiny_dataset)

    def test_index_must_ascend_from_zero(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.jsonl"
        rows = [{"index": 0, "vector": [1, 0]}, {"index": 5, "vector": [0, 1]}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="expected index 1"):
            load_embeddings(path, tiny_dataset)

    def test_vectors_normalized_on_load(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.jsonl"
        save_embeddings([np.full(4, 9.0), np.full(4, 2.0), np.full(4, -3.0)], path)
        for row in load_embeddings(path, tiny_dataset):
            assert abs(np.linalg.norm(row) - 1.0) < 1e-9


class TestRemoteProvider:
    def _config(self, url, dim=3):
        return ProviderConfig(kind="http", dim=dim, endpoint=url, max_retries=0)

    def test_empty_batch_makes_no_call(self):
        with stub_server([(200, {"vectors": []})]) as (url, state):
            assert embed_remote([], self._config(url)) == []
        assert state.calls == []

    def test_order_preserving(self):
        body = {"vectors": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}
        with stub_server([(200, body)]) as (url, state):
            vectors = embed_remote(["a", "b", "c"], self._config(url))
        assert state.calls[0]["body"] == {"texts": ["a", "b", "c"]}
        assert [int(np.argmax(v)) for v in vectors] == [0, 1, 2]
        assert all(abs(np.linalg.norm(v) - 1.0) < 1e-9 for v in vectors)

    def test_inconsistent_dims_rejected(self):
        body = {"vectors": [[1, 0, 0], [0, 1]]}
        with stub_server([(200, body)]) as (url, _):
            with pytest.raises(ValidationError, match="row 1"):
                embed_remote(["a", "b"], self._config(url))

    def test_wrong_count_rejected(self):
        with stub_server([(200, {"vectors": [[1, 0, 0]]})]) as (url, _):
            with pytest.raises(ValidationError, match="1 vectors for 2 texts"):
                embed_remote(["a", "b"], self._config(url))

    def test_server_error_after_retries(self):
        with stub_server([(503, "nope")]) as (url, _):
            config = ProviderConfig(kind="http", dim=3, endpoint=url, max_retries=1)
            with pytest.raises(RemoteServiceError, match="HTTP 503"):
                embed_remote(["a"], config)


class TestProviderConfig:
    def test_kind_validation(self):
        with pytest.raises(ValidationError):
            ProviderConfig(kind="magic", dim=4)

    def test_dim_validation(self):
        with pytest.raises(ValidationError):
            ProviderConfig(kind="toy", dim=1)

    def test_http_needs_endpoint(self):
        with pytest.raises(ValidationError):
            ProviderConfig(kind="http", dim=4)

    def test_file_needs_path(self):
        with pytest.raises(ValidationError):
            ProviderConfig(kind="file", dim=4)

    def test_file_provider_cannot_embed_text(self, tmp_path):
        config = ProviderConfig(kind="file", dim=4, path=str(tmp_path / "e.jsonl"))
        with pytest.raises(ValidationError):
            embed_texts(["x"], config)

    def test_json_round_trip(self):
        config = ProviderConfig(kind="toy", dim=64, seed=9)
        assert ProviderConfig.from_json(config.to_json()) == config


def test_embed_dataset_toy_provider(tiny_dataset):
    embedded = embed_dataset(tiny_dataset, ProviderConfig(kind="toy", dim=32, seed=4))
    assert embedded.shape == (3, 32)
    for row, sample in zip(embedded, tiny_dataset.samples):
        expected = toy_embed(sample.text, 32, 4)
        assert np.array_equal(row, expected)
