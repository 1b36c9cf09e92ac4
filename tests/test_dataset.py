from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intentclf import (
    Dataset,
    FileFormatError,
    LabelVocabulary,
    ValidationError,
    default_taxonomy,
    load_dataset,
    load_vocabulary,
    offline_generate,
    save_dataset,
    save_vocabulary,
    split_indices,
    two_label_combos,
)
from bf_oracles import encode_labels, load_dataset_per_record


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
        assert ds.texts == ("Forecast the ETA to next port of vessel with MMSI 564765123",)
        column = maritime_vocab.labels.index("long-range ETA in maritime")
        assert np.flatnonzero(ds.labels[0]).tolist() == [column]

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

    def test_first_bad_line_is_reported(self, tmp_path, small_vocab):
        # line 1's text is checked with the rows, after line 3 has been read
        path = tmp_path / "d.jsonl"
        _write(path, ['{"text": " ", "labels": ["eta"]}', '{"text": "ok", "labels": ["eta"]}', "{oops"])
        with pytest.raises(ValidationError, match=r"^line 1: empty text"):
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
            texts=("when does she arrive", "berth wait and fuel burn"),
            labels=[[True, False, False], [False, True, True]],
        )
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path, small_vocab)
        assert loaded.vocabulary == ds.vocabulary and loaded.texts == ds.texts
        assert np.array_equal(loaded.labels, ds.labels)
        assert path.read_text(encoding="utf-8").splitlines()[1] == (
            '{"text": "berth wait and fuel burn", "labels": ["berth", "fuel"]}'
        )

    def test_saving_what_was_loaded_reproduces_the_bytes(self, tmp_path):
        vocab = default_taxonomy()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(offline_generate(vocab, per_class=6, combos=two_label_combos(vocab, 9, seed=4), seed=4), first)
        save_dataset(load_dataset(first, vocab), second)
        assert second.read_bytes() == first.read_bytes()


# JSON Lines files for the loader property: good records with up to three bad
# lines put in anywhere. A bad line is a record whose text is blank, not a
# string or holds a lone surrogate ("\\ud800" parses to a str UTF-8 cannot
# encode), or whose labels are unknown, not strings, empty or not a list; or
# a blank, malformed or non-record line. Now and then the file ends in a
# byte that is not UTF-8.
_ORACLE_VOCAB = LabelVocabulary(labels=("eta", "berth", "fuel"))
_GOOD_TEXT = st.text(st.sampled_from("ab ?"), min_size=1, max_size=4).filter(str.strip)
_GOOD_LABELS = st.lists(st.sampled_from(_ORACLE_VOCAB.labels), min_size=1, max_size=3)
_BAD_TEXT = st.text(
    st.sampled_from(" a") | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    max_size=3,
) | st.sampled_from([5, None, ["eta"]])
_BAD_LABELS = st.lists(
    st.sampled_from([*_ORACLE_VOCAB.labels, "nope", 1, None, True, ["eta"], {"eta": 1}]), max_size=3
) | st.sampled_from(["eta", {"eta": 1}, None, 3])
_GOOD_LINE = st.fixed_dictionaries({"text": _GOOD_TEXT, "labels": _GOOD_LABELS}).map(json.dumps)
_BAD_RECORD = st.fixed_dictionaries({"text": _BAD_TEXT, "labels": _GOOD_LABELS}) | st.fixed_dictionaries(
    {"text": _GOOD_TEXT | _BAD_TEXT, "labels": _BAD_LABELS}
)
_BAD_LINE = st.one_of(
    # twice, so that most bad lines are records that reach the row checks
    _BAD_RECORD.map(json.dumps),
    _BAD_RECORD.map(json.dumps),
    st.sampled_from(["", "  ", "{oops", "[1]", "null", '{"text": "a"}', '{"labels": ["eta"]}', '"text"', "[" * 3000]),
)


@st.composite
def _jsonl_bytes(draw) -> bytes:
    lines = draw(st.lists(_GOOD_LINE, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINE))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines).encode("utf-8") + draw(st.sampled_from([b""] * 7 + [b"\xff\n"]))


def _columnar(path, vocabulary):
    dataset = load_dataset(path, vocabulary)
    return dataset.texts, dataset.labels


def _outcome(load, path, vocabulary):
    """``(texts, float label matrix)``, or the error class and the line it names."""
    try:
        texts, y = load(path, vocabulary)
    except (FileFormatError, ValidationError) as exc:
        if isinstance(exc, FileFormatError):
            return type(exc), exc.line
        named = re.match(r"line (\d+): ", str(exc))
        return type(exc), named and int(named[1])
    return list(texts), y.astype(np.float64).tobytes()


class TestLoaderOracle:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_jsonl_bytes())
    def test_load_dataset_matches_the_per_record_reader(self, tmp_path, content):
        path = tmp_path / "d.jsonl"
        path.write_bytes(content)
        want = _outcome(load_dataset_per_record, path, _ORACLE_VOCAB)
        assert _outcome(_columnar, path, _ORACLE_VOCAB) == want
        if want[0] is ValidationError:
            assert want[1] is not None, "a record error names its line"

    def test_a_file_save_dataset_wrote_loads_as_the_oracle_reads_it(self, tmp_path):
        vocab = default_taxonomy()
        path = tmp_path / "d.jsonl"
        save_dataset(offline_generate(vocab, per_class=5, combos=two_label_combos(vocab, 8, seed=3), seed=3), path)
        want = _outcome(load_dataset_per_record, path, vocab)
        assert _outcome(_columnar, path, vocab) == want
        assert len(want[0]) == 8 * 5 + 8


class TestDatasetRows:
    @pytest.mark.parametrize("text", ["\ud800", "eta \udcff?", "\udfff\ud800"])
    def test_lone_surrogate_refused(self, small_vocab, text):
        with pytest.raises(ValidationError, match="^sample 1: text is not valid UTF-8: lone surrogate"):
            Dataset(small_vocab, ("eta?", text), [[True, False, False]] * 2)

    def test_dataset_line_with_a_lone_surrogate_names_the_line(self, tmp_path, small_vocab):
        path = tmp_path / "d.jsonl"
        _write(path, ['{"text": "eta?", "labels": ["eta"]}', '{"text": "eta \\ud800?", "labels": ["eta"]}'])
        want = r"^line 2: text is not valid UTF-8: lone surrogate '\\ud800' at index 4 \[" + re.escape(str(path)) + r"\]$"
        with pytest.raises(ValidationError, match=want):
            load_dataset(path, small_vocab)

    @pytest.mark.parametrize("texts, rows, message", [
        (("ok", "  "), [[1, 0, 0], [1, 0, 0]], "sample 1: empty text"),
        (("ok", 5), [[1, 0, 0], [1, 0, 0]], "sample 1: empty text"),
        (("ok", "ok"), [[1, 0, 0], [0, 0, 0]], "sample 1: empty labels"),
        # the first bad row is named, whatever is wrong with it
        (("ok", "\ud800", " "), [[1, 0, 0], [1, 0, 0], [0, 0, 0]], "sample 1: text is not valid UTF-8"),
        (("ok", "ok", "\ud800"), [[1, 0, 0], [0, 0, 0], [1, 0, 0]], "sample 1: empty labels"),
        (("", "\ud800"), [[0, 0, 0], [1, 0, 0]], "sample 0: empty text"),
    ])
    def test_first_bad_row_is_named(self, small_vocab, texts, rows, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            Dataset(small_vocab, texts, np.array(rows, dtype=bool))

    @pytest.mark.parametrize("labels", [
        np.ones((2, 3)),  # not boolean
        np.ones((2, 2), dtype=bool),  # a column short
        np.ones((3, 3), dtype=bool),  # a row too many
        np.ones(3, dtype=bool),  # not a matrix
    ])
    def test_label_matrix_shape_and_dtype(self, small_vocab, labels):
        with pytest.raises(ValidationError, match="2 x 3 boolean matrix"):
            Dataset(small_vocab, ("a", "b"), labels)

    def test_fields_are_read_only_copies(self, small_vocab):
        labels = np.eye(3, dtype=bool)
        ds = Dataset(small_vocab, ["a", "b", "c"], labels)
        labels[0, 1] = True
        assert ds.texts == ("a", "b", "c") and ds.labels.tolist() == np.eye(3, dtype=bool).tolist()
        with pytest.raises(ValueError):
            ds.labels[0, 0] = False

    def test_samples_view_matches_the_columns(self):
        vocab = default_taxonomy()
        ds = offline_generate(vocab, per_class=2, combos=two_label_combos(vocab, 3, seed=1), seed=1)
        assert [s.text for s in ds.samples] == list(ds.texts)
        for sample, row in zip(ds.samples, ds.labels):
            assert sample.labels == frozenset(vocab.labels[j] for j in np.flatnonzero(row))


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
        y = ds.labels
        assert y.shape == (len(ds), len(vocab)) and y.dtype == bool
        for row, sample in zip(y, ds.samples):
            assert row.astype(np.float64).tobytes() == encode_labels(sample.labels, vocab).tobytes()
        assert (y.sum(axis=1) == 2).any(), "the combos give multi-label rows"

    @given(sets=st.lists(st.sets(st.sampled_from(["eta", "berth", "fuel"]), min_size=1), max_size=12))
    def test_label_matrix_equals_stacked_encode_labels(self, sets):
        vocab = LabelVocabulary(labels=("eta", "berth", "fuel"))
        ds = Dataset.from_rows(vocab, [(f"q{i}", vocab.columns(s)) for i, s in enumerate(sets)])
        want = np.array([encode_labels(labels, vocab) for labels in sets]).reshape(len(sets), 3)
        assert ds.labels.astype(np.float64).tobytes() == want.tobytes()

    def test_label_matrix_of_empty_dataset(self, small_vocab):
        assert Dataset.from_rows(small_vocab, []).labels.shape == (0, 3)

    def test_columns_follow_the_vocabulary(self, small_vocab):
        assert small_vocab.columns(["fuel", "eta", "fuel"]) == [2, 0, 2]
        with pytest.raises(ValidationError, match=r"unknown label\(s\) \['nope'\]"):
            small_vocab.columns(["eta", "nope"])
        with pytest.raises(ValidationError, match="labels must be strings"):
            small_vocab.columns(["eta", ["fuel"]])


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
