from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentclf import (
    Dataset,
    FileFormatError,
    LabelVocabulary,
    TextSample,
    ValidationError,
    default_taxonomy,
    label_matrix,
    load_dataset,
    load_vocabulary,
    offline_generate,
    save_dataset,
    save_vocabulary,
    split_indices,
    two_label_combos,
)
from bf_oracles import encode_labels


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestVocabulary:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            LabelVocabulary(labels=("a", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(ValidationError):
            LabelVocabulary(labels=("a", "  "))

    def test_rejects_unknown_description_key(self):
        with pytest.raises(ValidationError):
            LabelVocabulary(labels=("a",), descriptions={"b": "oops"})

    def test_order_is_preserved_through_file_round_trip(self, tmp_path, small_vocab):
        path = tmp_path / "taxonomy.json"
        save_vocabulary(small_vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == small_vocab
        assert loaded.labels == ("eta", "berth", "fuel")

    def test_sorted_members_follows_vocabulary_order(self, small_vocab):
        assert small_vocab.sorted_members({"fuel", "eta"}) == ["eta", "fuel"]


class TestLoadDataset:
    def test_maritime_example_line(self, tmp_path, maritime_vocab):
        path = tmp_path / "d.jsonl"
        _write(
            path,
            [
                json.dumps(
                    {
                        "text": "Forecast the ETA to next port of vessel with MMSI 564765123",
                        "labels": ["long-range ETA in maritime"],
                    }
                )
            ],
        )
        ds = load_dataset(path, maritime_vocab)
        assert len(ds) == 1
        assert ds.samples[0].labels == frozenset({"long-range ETA in maritime"})

    def test_unknown_label_names_label_and_line(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        _write(
            path,
            [
                json.dumps({"text": "ok", "labels": ["eta"]}),
                json.dumps({"text": "bad", "labels": ["no-such-class"]}),
            ],
        )
        with pytest.raises(ValidationError, match=r"line 2.*no-such-class"):
            load_dataset(path, small_vocab)

    def test_malformed_json_reports_line(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok", "labels": ["eta"]}\n{oops\n', encoding="utf-8")
        with pytest.raises(FileFormatError) as exc:
            load_dataset(path, small_vocab)
        assert exc.value.line == 2

    def test_empty_text_rejected(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        _write(path, [json.dumps({"text": "   ", "labels": ["eta"]})])
        with pytest.raises(ValidationError, match="empty text"):
            load_dataset(path, small_vocab)

    def test_empty_labels_rejected(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        _write(path, [json.dumps({"text": "ok", "labels": []})])
        with pytest.raises(ValidationError, match="labels"):
            load_dataset(path, small_vocab)

    def test_round_trip_identity(self, tmp_path, small_vocab):
        ds = Dataset(
            vocabulary=small_vocab,
            samples=(
                TextSample("when does she arrive", frozenset({"eta"})),
                TextSample("berth wait and fuel burn", frozenset({"berth", "fuel"})),
            ),
        )
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path, small_vocab) == ds


class TestTextSample:
    @pytest.mark.parametrize("text", ["\ud800", "eta \udcff?", "\udfff\ud800"])
    def test_lone_surrogate_refused(self, text):
        with pytest.raises(ValidationError, match="sample text is not valid UTF-8: lone surrogate"):
            TextSample(text, frozenset({"eta"}))

    def test_dataset_line_with_a_lone_surrogate_names_the_line(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        _write(path, ['{"text": "eta?", "labels": ["eta"]}', '{"text": "eta \\ud800?", "labels": ["eta"]}'])
        with pytest.raises(ValidationError, match=r"^line 2: sample text is not valid UTF-8: lone surrogate '\\ud800' at index 4$"):
            load_dataset(path, small_vocab)


class TestEncoding:
    def test_empty_member_set_gives_zeros(self, small_vocab):
        assert encode_labels(frozenset(), small_vocab).tolist() == [0.0, 0.0, 0.0]

    def test_full_vocabulary_gives_ones(self, small_vocab):
        vec = encode_labels(frozenset(small_vocab.labels), small_vocab)
        assert vec.tolist() == [1.0, 1.0, 1.0]

    def test_definition_example(self, small_vocab):
        assert encode_labels({"eta", "fuel"}, small_vocab).tolist() == [1.0, 0.0, 1.0]

    def test_unknown_label_rejected(self, small_vocab):
        with pytest.raises(ValidationError):
            encode_labels({"nope"}, small_vocab)

    @given(bits=st.lists(st.booleans(), min_size=3, max_size=3))
    def test_multi_hot_round_trip(self, bits):
        vocab = LabelVocabulary(labels=("eta", "berth", "fuel"))
        members = frozenset(l for l, b in zip(vocab.labels, bits) if b)
        vec = encode_labels(members, vocab)
        assert frozenset(l for l, bit in zip(vocab.labels, vec) if bit == 1.0) == members

    def test_label_matrix_rows_are_encode_labels(self):
        vocab = default_taxonomy()
        ds = offline_generate(vocab, per_class=3, combos=two_label_combos(vocab, 5, seed=2), seed=2)
        y = label_matrix(ds)
        assert y.shape == (len(ds), len(vocab)) and y.dtype == np.float64
        for row, sample in zip(y, ds.samples):
            assert row.tobytes() == encode_labels(sample.labels, vocab).tobytes()
        assert (y.sum(axis=1) == 2).any(), "the combos give multi-label rows"

    @given(sets=st.lists(st.sets(st.sampled_from(["eta", "berth", "fuel"]), min_size=1), max_size=12))
    def test_label_matrix_equals_stacked_encode_labels(self, sets):
        vocab = LabelVocabulary(labels=("eta", "berth", "fuel"))
        ds = Dataset(vocab, tuple(TextSample(f"q{i}", frozenset(labels)) for i, labels in enumerate(sets)))
        want = np.array([encode_labels(labels, vocab) for labels in sets]).reshape(len(sets), 3)
        assert label_matrix(ds).tobytes() == want.tobytes()

    def test_label_matrix_of_empty_dataset(self, small_vocab):
        assert label_matrix(Dataset(small_vocab, ())).shape == (0, 3)


class TestSplit:
    def test_sizes_and_repeatability(self):
        train1, hold1 = split_indices(10, 0.2, seed=7)
        train2, hold2 = split_indices(10, 0.2, seed=7)
        assert (len(train1), len(hold1)) == (8, 2)
        assert train1 == train2 and hold1 == hold2

    def test_two_samples_half(self):
        train, hold = split_indices(2, 0.5, seed=0)
        assert (len(train), len(hold)) == (1, 1)

    def test_different_seed_same_sizes(self):
        _, hold_a = split_indices(10, 0.3, seed=1)
        _, hold_b = split_indices(10, 0.3, seed=2)
        assert len(hold_a) == len(hold_b) == 3

    def test_fraction_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                split_indices(4, bad, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            split_indices(10, 0.3, seed=-1)

    def test_holdout_never_swallows_everything(self):
        train, hold = split_indices(2, 0.9, seed=3)
        assert len(train) == 1 and len(hold) == 1

    @settings(deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        fraction=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, fraction, seed):
        train, hold = split_indices(n, fraction, seed)
        assert sorted(train + hold) == list(range(n))
        assert not set(train) & set(hold)
        assert len(hold) >= 1 and len(train) >= 1
        again = split_indices(n, fraction, seed)
        assert (train, hold) == again
