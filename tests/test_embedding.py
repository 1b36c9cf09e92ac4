from __future__ import annotations

import itertools
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import intentclf.embedding as embedding
import intentclf.httpclient as httpclient
from intentclf import (
    Dataset,
    DegenerateEmbeddingError,
    FileFormatError,
    LabelVocabulary,
    PipelineError,
    ProviderConfig,
    RemoteServiceError,
    TextSample,
    ValidationError,
    embed_dataset,
    embed_texts,
    load_embeddings,
    save_embeddings,
)
from intentclf.embedding import l2_normalize, toy_embed
from bf_oracles import toy_acc_loop, toy_embed_loop
from stubs import npy_bytes, stub_server


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

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 5e-324])
    def test_sum_of_squares_out_of_range(self, scale):
        # squares of 1e300 overflow to inf and of 1e-300 underflow to 0:
        # neither may give a zero vector, a refusal or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = l2_normalize([3.0 * scale, 4.0 * scale])
        assert np.allclose(got, [0.6, 0.8])

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

    def test_batches_match_loop_bit_for_bit(self):
        rng = np.random.default_rng(2025)
        for _ in range(600):
            texts = [_random_text(rng) for _ in range(int(rng.integers(1, 7)))]
            dim = int(rng.choice([2, 3, 7, 256]))
            seed = int(rng.choice([0, 1, 42, -1, 2**64 - 1]))
            got = embed_texts(texts, ProviderConfig(kind="toy", dim=dim, seed=seed))
            assert got.shape == (len(texts), dim)
            for text, row in zip(texts, got):
                assert row.tobytes() == toy_embed_loop(text, dim, seed).tobytes(), (texts, dim, seed)

    def test_blocks_of_a_long_batch_match_loop(self, monkeypatch):
        monkeypatch.setattr(embedding, "_TOY_BLOCK", 4)
        rng = np.random.default_rng(7)
        texts = [_random_text(rng) for _ in range(11)]
        got = embed_texts(texts, ProviderConfig(kind="toy", dim=16, seed=3))
        want = np.array([toy_embed_loop(text, 16, 3) for text in texts])
        assert got.tobytes() == want.tobytes()

    def test_memo_stays_within_its_bound(self, monkeypatch):
        bound = embedding._TRIGRAM_TABLE_SIZE
        hashed = []

        def counting(trigram, seed):
            hashed.append(trigram)
            return hash_trigram(trigram, seed)

        hash_trigram = embedding._hash_trigram
        monkeypatch.setattr(embedding, "_hash_trigram", counting)
        # every 3-letter text brings a new inner trigram: more than the bound
        for letters in itertools.product("abcdefghijklmnopqrstuvwxy", repeat=3):
            text = "".join(letters)
            assert toy_embed(text, 8, seed=11).tobytes() == toy_embed_loop(text, 8, 11).tobytes()
            assert len(embedding._trigram_table.keys) - 1 <= bound
        assert len(hashed) > bound

    def test_threads_sharing_the_table_agree(self, monkeypatch):
        rng = np.random.default_rng(8)
        texts = [_random_text(rng) for _ in range(48)]
        batches = [texts[k : k + 24] for k in range(0, 24, 3)]  # 8 overlapping batches
        config = ProviderConfig(kind="toy", dim=32, seed=5)
        want = [np.array([toy_embed_loop(t, 32, 5) for t in batch]) for batch in batches]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave between any two bytecodes
        try:
            for _ in range(5):
                monkeypatch.setattr(embedding, "_trigram_table", embedding._empty_table(0, 2))
                start = threading.Barrier(len(batches))

                def embed(batch):
                    start.wait(timeout=30)
                    return embed_texts(batch, config)

                with ThreadPoolExecutor(len(batches)) as pool:
                    got = list(pool.map(embed, batches, timeout=60))
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                # whichever snapshot won holds sorted, distinct, correctly hashed keys
                table = embedding._trigram_table
                keys = table.keys[:-1].tolist()
                assert keys == sorted(set(keys)) and table.keys[-1] == embedding._END_KEY
                for key, column, sign in zip(keys, table.columns.tolist(), table.signs.tolist()):
                    trigram = chr(key >> 42) + chr((key >> 21) & 0x1FFFFF) + chr(key & 0x1FFFFF)
                    bucket, want_sign = embedding._hash_trigram(trigram, 5)
                    assert (column, sign) == (bucket % 32, want_sign)
        finally:
            sys.setswitchinterval(switch)

    def test_lone_surrogate_refused(self):
        config = ProviderConfig(kind="toy", dim=8)
        with pytest.raises(ValidationError, match=r"text 1 is not valid UTF-8: lone surrogate '\\ud800'"):
            embed_texts(["eta", "eta \ud800?"], config)
        with pytest.raises(ValidationError, match="not valid UTF-8"):
            toy_embed("\udcff", 8)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path, tiny_dataset):
        # toy rows and an encoder's dense rows, unnormalized
        rng = np.random.default_rng(5)
        for rows in ([toy_embed(s.text, 8, 0) * 3.0 for s in tiny_dataset.samples], rng.normal(size=(3, 8))):
            path = tmp_path / "e.npy"
            save_embeddings(rows, path)
            loaded = load_embeddings(path, tiny_dataset)
            want = np.array([l2_normalize(row) for row in rows])
            assert loaded.shape == (3, 8) and loaded.flags.c_contiguous
            assert loaded.tobytes() == want.tobytes()

    def test_writes_exactly_the_path_given(self, tmp_path, tiny_dataset):
        path = tmp_path / "embeddings.jsonl"
        save_embeddings(np.eye(3), str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["embeddings.jsonl"]
        assert np.load(path).tobytes() == np.eye(3).tobytes()

    def test_save_needs_a_matrix(self, tmp_path):
        with pytest.raises(ValidationError, match="n x d matrix"):
            save_embeddings(np.ones(4), tmp_path / "e.npy")

    def test_row_count_mismatch_reports_both_counts(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.npy"
        save_embeddings([np.ones(4), np.ones(4)], path)
        with pytest.raises(ValidationError, match=r"2 rows.*3 samples"):
            load_embeddings(path, tiny_dataset)

    def test_vectors_normalized_on_load(self, tmp_path, tiny_dataset):
        path = tmp_path / "e.npy"
        save_embeddings([np.full(4, 9.0), np.full(4, 2.0), np.full(4, -3.0)], path)
        for row in load_embeddings(path, tiny_dataset):
            assert abs(np.linalg.norm(row) - 1.0) < 1e-9

    @pytest.mark.parametrize("bad, error", [(np.nan, ValidationError), (0.0, DegenerateEmbeddingError)])
    def test_non_finite_or_zero_row_refused(self, tmp_path, tiny_dataset, bad, error):
        path = tmp_path / "e.npy"
        save_embeddings([np.ones(4), np.full(4, bad), np.ones(4)], path)
        with pytest.raises(error):
            load_embeddings(path, tiny_dataset)

    @pytest.mark.parametrize("bad, message", [(np.nan, "row 1 has non-finite entries"), (0.0, "row 1 is a zero vector")])
    def test_bad_row_named_with_the_file(self, tmp_path, tiny_dataset, bad, message):
        path = tmp_path / "e.npy"
        save_embeddings([np.ones(4), np.full(4, bad), np.zeros(4)], path)
        with pytest.raises(PipelineError) as caught:
            load_embeddings(path, tiny_dataset)
        assert str(caught.value) == f"{message} [{path}]"

    def test_rows_equal_per_row_norm_bit_for_bit(self, tmp_path):
        # toy rows, dense rows and rows whose peak is far outside (1e-150, 1e150)
        rng = np.random.default_rng(11)
        rows = [toy_embed_loop(_random_text(rng), 64, 0) * rng.integers(1, 9) for _ in range(40)]
        rows += list(rng.normal(size=(40, 64)))
        rows += [rng.normal(size=64) * scale for scale in (1e-200, 1e200, 1e-100, 1e100, 5e-324) for _ in range(8)]
        order = rng.permutation(len(rows))
        matrix = np.array([rows[i] for i in order])
        path = tmp_path / "e.npy"
        save_embeddings(matrix, path)
        dataset = Dataset(
            vocabulary=LabelVocabulary(labels=("a",)),
            samples=tuple(TextSample(f"t{i}", frozenset({"a"})) for i in range(len(matrix))),
        )
        loaded = load_embeddings(path, dataset)
        for got, row in zip(loaded, matrix):
            peak = np.abs(row).max()
            if not 1e-150 < peak < 1e150:
                row = row / peak
            assert got.tobytes() == (row / float(np.linalg.norm(row))).tobytes()

    @pytest.mark.parametrize("array", [
        np.asfortranarray(np.arange(1.0, 13.0).reshape(3, 4)),
        np.arange(1, 13, dtype=">i2").reshape(3, 4),
        np.arange(1, 13, dtype=np.uint8).reshape(3, 4),
        np.arange(1, 13, dtype=np.float32).reshape(3, 4),
    ], ids=["fortran-order", "big-endian-int16", "uint8", "float32"])
    def test_any_real_numeric_matrix_loads(self, tmp_path, tiny_dataset, array):
        path = tmp_path / "e.npy"
        np.save(path, array)
        want = np.array([l2_normalize(row) for row in np.arange(1.0, 13.0).reshape(3, 4)])
        assert np.array_equal(load_embeddings(path, tiny_dataset), want)

    @pytest.mark.parametrize("shape", [(10**9, 10**9), (2**64, 2**64), (1 << 14, 1 << 13)])
    def test_huge_shape_header_refused_without_allocating(self, tmp_path, tiny_dataset, shape):
        path = tmp_path / "e.npy"
        path.write_bytes(npy_bytes("<f8", shape, payload=bytes(96)))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FileFormatError, match="header claims") as caught:
                    load_embeddings(path, tiny_dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(caught.value)
        assert peak < 1 << 20  # the smallest claim above is 1 GiB


class TestRemoteProvider:
    def _config(self, url, dim=3):
        return ProviderConfig(kind="http", dim=dim, endpoint=url, max_retries=0)

    def test_empty_batch_makes_no_call(self):
        with stub_server([(200, {"vectors": []})]) as (url, state):
            assert embed_texts([], self._config(url)).shape == (0, 3)
        assert state.calls == []

    def test_order_preserving(self):
        body = {"vectors": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}
        with stub_server([(200, body)]) as (url, state):
            vectors = embed_texts(["a", "b", "c"], self._config(url))
        assert state.calls[0]["body"] == {"texts": ["a", "b", "c"]}
        assert [int(np.argmax(v)) for v in vectors] == [0, 1, 2]
        assert all(abs(np.linalg.norm(v) - 1.0) < 1e-9 for v in vectors)

    def test_requests_sized_so_no_reply_reaches_the_cap(self, monkeypatch):
        # 2 * 25 bytes per entry of a 3-wide row: 2 texts per request
        monkeypatch.setattr(httpclient, "MAX_REPLY_BYTES", 2 * 25 * 3 * 2 + 149)
        replies = [
            (200, {"vectors": [[1, 0, 0], [0, 2, 0]]}),
            (200, {"vectors": [[0, 0, 3], [4, 4, 0]]}),
            (200, {"vectors": [[0, 5, 5]]}),
        ]
        with stub_server(replies) as (url, state):
            vectors = embed_texts(["a", "b", "c", "d", "e"], self._config(url))
        assert [call["body"] for call in state.calls] == [
            {"texts": ["a", "b"]}, {"texts": ["c", "d"]}, {"texts": ["e"]},
        ]
        rows = np.array([[1, 0, 0], [0, 2, 0], [0, 0, 3], [4, 4, 0], [0, 5, 5]], dtype=float)
        assert vectors.tobytes() == (rows / np.linalg.norm(rows, axis=1, keepdims=True)).tobytes()

    def test_each_request_retried_on_its_own(self, monkeypatch):
        monkeypatch.setattr(httpclient, "MAX_REPLY_BYTES", 2 * 25 * 3)  # one text per request
        replies = [(200, {"vectors": [[1, 0, 0]]}), (503, "busy"), (200, {"vectors": [[0, 1, 0]]})]
        with stub_server(replies) as (url, state):
            config = ProviderConfig(kind="http", dim=3, endpoint=url, max_retries=1)
            vectors = embed_texts(["a", "b"], config)
        assert [call["body"]["texts"] for call in state.calls] == [["a"], ["b"], ["b"]]
        assert vectors.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_bad_row_named_by_its_place_in_the_batch(self, monkeypatch):
        monkeypatch.setattr(httpclient, "MAX_REPLY_BYTES", 2 * 25 * 3)
        replies = [(200, {"vectors": [[1, 0, 0]]}), (200, {"vectors": [[0, 0, 0]]})]
        with stub_server(replies) as (url, _):
            with pytest.raises(DegenerateEmbeddingError, match="^encoder row 1 is a zero vector$"):
                embed_texts(["a", "b"], self._config(url))

    def test_inconsistent_dims_rejected(self):
        body = {"vectors": [[1, 0, 0], [0, 1]]}
        with stub_server([(200, body)]) as (url, _):
            with pytest.raises(ValidationError, match="row 1"):
                embed_texts(["a", "b"], self._config(url))

    def test_wrong_count_rejected(self):
        with stub_server([(200, {"vectors": [[1, 0, 0]]})]) as (url, _):
            with pytest.raises(ValidationError, match="1 vectors for 2 texts"):
                embed_texts(["a", "b"], self._config(url))

    def test_server_error_after_retries(self):
        with stub_server([(503, "nope")]) as (url, _):
            config = ProviderConfig(kind="http", dim=3, endpoint=url, max_retries=1)
            with pytest.raises(RemoteServiceError, match="HTTP 503"):
                embed_texts(["a"], config)


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
        config = ProviderConfig(kind="file", dim=4, path=str(tmp_path / "e.npy"))
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
