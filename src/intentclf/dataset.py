"""Label taxonomy, the columnar dataset, splitting, and the JSON and JSON
Lines readers that parse every text input file of the pipeline.

A :class:`Dataset` is a vocabulary, a tuple of n query texts and one
read-only n x m boolean label matrix whose columns follow the vocabulary. A
dataset file is UTF-8 JSON Lines: each line is an object with ``text``
(string) and ``labels`` (array of strings). A taxonomy file is a JSON object
with ``labels`` (array of strings, order significant) and ``descriptions``
(object mapping label to a one-sentence description).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import FileFormatError, PipelineError, ValidationError

# A label set is simply a subset of a vocabulary's labels.
LabelSet = frozenset[str]


@dataclass(frozen=True)
class LabelVocabulary:
    """The ordered intent taxonomy.

    ``labels`` fixes the class order used for multi-hot encoding and for any
    file that persists per-label values. ``descriptions`` maps a label to the
    one-sentence description used when generating synthetic queries.
    """

    labels: tuple[str, ...]
    descriptions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.labels:
            raise ValidationError("vocabulary needs at least one label")
        object.__setattr__(self, "labels", tuple(self.labels))
        column: dict[str, int] = {}
        for label in self.labels:
            if not isinstance(label, str) or not label.strip():
                raise ValidationError(f"label must be a non-empty string, got {label!r}")
            check_utf8([label], "label")
            if label in column:
                raise ValidationError(f"duplicate label {label!r}")
            column[label] = len(column)
        for key in self.descriptions:
            if key not in column:
                raise ValidationError(f"description key {key!r} is not a vocabulary label")
        object.__setattr__(self, "_column", column)

    def __len__(self) -> int:
        return len(self.labels)

    def columns(self, labels: Collection[str]) -> list[int]:
        """The column of each of ``labels``, each a string naming a vocabulary label."""
        try:
            return [self._column[label] for label in labels]
        except (KeyError, TypeError):  # a TypeError is an unhashable label
            pass
        if not all(isinstance(label, str) for label in labels):
            raise ValidationError(f"labels must be strings, got {list(labels)!r}")
        raise ValidationError(f"unknown label(s) {sorted(set(labels) - self._column.keys())!r}")

    def sorted_members(self, labels: Iterable[str]) -> list[str]:
        """Return ``labels`` ordered by vocabulary position."""
        members = set(labels)
        return [lab for lab in self.labels if lab in members]

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "descriptions": dict(self.descriptions)}

    @classmethod
    def from_json(cls, obj: dict) -> "LabelVocabulary":
        if not isinstance(obj, dict) or "labels" not in obj:
            raise FileFormatError("taxonomy must be an object with a 'labels' array")
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(
            isinstance(label, str) and label.strip() for label in labels
        ):
            raise FileFormatError("taxonomy 'labels' must be an array of non-empty strings")
        descriptions = obj.get("descriptions", {})
        if not isinstance(descriptions, dict) or not all(
            isinstance(text, str) for text in descriptions.values()
        ):
            raise FileFormatError("taxonomy 'descriptions' must be an object of strings")
        return cls(labels=tuple(labels), descriptions=dict(descriptions))


def read_json(path: str | Path, what: str, kind: type = dict):
    """The JSON value in the UTF-8 file at ``path``, which must be a ``kind``.

    A file that is not UTF-8, not JSON, nested too deeply to parse or of
    another top-level type is a :class:`FileFormatError` naming ``what`` and
    ``path``.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FileFormatError(f"{what} is not valid UTF-8 JSON: {exc}", path=str(path)) from exc
    if not isinstance(obj, kind):
        name = "object" if kind is dict else "array"
        raise FileFormatError(f"{what} must be a JSON {name}", path=str(path))
    return obj


def load_vocabulary(path: str | Path) -> LabelVocabulary:
    """Read a taxonomy file (JSON object with labels and descriptions)."""
    obj = read_json(path, "taxonomy")
    try:
        return LabelVocabulary.from_json(obj)
    except (FileFormatError, ValidationError) as exc:  # e.g. a duplicate label
        raise FileFormatError(str(exc), path=str(path)) from exc


def save_vocabulary(vocabulary: LabelVocabulary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(vocabulary.to_json(), indent=2) + "\n", encoding="utf-8")


def _lone_surrogate(texts: Sequence[str]) -> tuple[int, str] | None:
    """Index of the first text UTF-8 cannot encode and where it fails, or None.

    A ``str`` can hold lone surrogates (``"\\ud800"``, or a byte that is not
    UTF-8 in ``sys.argv``). Only a failed bulk encode scans text by text.
    """
    try:
        "".join(texts).encode("utf-8")
        return None
    except UnicodeEncodeError:
        pass
    for index, text in enumerate(texts):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            return index, f"lone surrogate {text[exc.start]!r} at index {exc.start}"


def check_utf8(texts: Sequence[str], what: str = "text") -> None:
    """Raise :class:`ValidationError` unless every text encodes as UTF-8."""
    bad = _lone_surrogate(texts)
    if bad is not None:
        name = what if len(texts) == 1 else f"{what} {bad[0]}"
        raise ValidationError(f"{name} is not valid UTF-8: {bad[1]}")


# One row of a dataset, as the derived ``Dataset.samples`` view builds it.
TextSample = namedtuple("TextSample", ["text", "labels"])


class _BadRow(ValidationError):
    """Dataset row ``row`` (0-based) breaks the contract for ``reason``."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"sample {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True)
class Dataset:
    """A vocabulary, n query texts and their read-only n x m boolean label
    matrix, column j for vocabulary label j. Construction is the one place
    rows are checked: each text is a non-blank string UTF-8 can encode, and
    each row sets a label; the first bad row is a :class:`ValidationError`.
    """

    vocabulary: LabelVocabulary
    texts: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        texts, labels = tuple(self.texts), np.array(self.labels)
        n, m = len(texts), len(self.vocabulary)
        if labels.dtype != bool or labels.shape != (n, m):
            raise ValidationError(f"labels must be a {n} x {m} boolean matrix, got {labels.dtype} {labels.shape}")
        labels.flags.writeable = False
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "labels", labels)
        # the first bad row is named, whatever is wrong with it
        blank = next((i for i, text in enumerate(texts) if not isinstance(text, str) or not text.strip()), n)
        first = min(blank, int(np.argmin(np.append(labels.any(axis=1), False))))
        surrogate = _lone_surrogate(texts[:first])
        if surrogate is not None:
            raise _BadRow(surrogate[0], f"text is not valid UTF-8: {surrogate[1]}")
        if first < n:
            raise _BadRow(first, "empty text" if first == blank else "empty labels")

    @classmethod
    def from_rows(cls, vocabulary: LabelVocabulary, rows: Sequence[tuple[str, Sequence[int]]]) -> "Dataset":
        """The dataset of ``(text, label columns)`` rows."""
        counts = [len(columns) for _, columns in rows]
        labels = np.zeros((len(rows), len(vocabulary)), dtype=bool)
        cells = np.fromiter(chain.from_iterable(columns for _, columns in rows), np.intp, sum(counts))
        labels[np.repeat(np.arange(len(rows)), counts), cells] = True
        return cls(vocabulary, tuple(text for text, _ in rows), labels)

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def samples(self) -> tuple[TextSample, ...]:
        # Only bench/workloads.py::query_pool reads this view; the package
        # reads ``texts`` and ``labels``.
        names = self.vocabulary.labels
        return tuple(
            TextSample(text, frozenset(compress(names, row))) for text, row in zip(self.texts, self.labels.tolist())
        )


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write one JSON record per line; labels serialized in vocabulary order."""
    names = dataset.vocabulary.labels
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(
            json.dumps({"text": text, "labels": list(compress(names, row))}) + "\n"
            for text, row in zip(dataset.texts, dataset.labels.tolist())
        )


def load_dataset(path: str | Path, vocabulary: LabelVocabulary) -> Dataset:
    """Read a JSONL dataset, checking every record against ``vocabulary``.

    Each non-blank line is parsed once and each label mapped to its column
    with one dict lookup; :class:`Dataset` then checks texts and rows in
    bulk. Errors name the file and the 1-based line of the first bad record.
    """
    rows: list[tuple[str, list[int]]] = []
    lines: list[int] = []
    failure = None  # the first bad record, raised once the rows before it pass
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    reason = getattr(exc, "msg", exc)  # a JSONDecodeError's msg has no position
                    raise FileFormatError(f"malformed JSON record: {reason}", path=str(path), line=lineno) from exc
                if not isinstance(record, dict) or "text" not in record or "labels" not in record:
                    raise FileFormatError("record must be an object with 'text' and 'labels'", path=str(path), line=lineno)
                try:
                    if not isinstance(record["labels"], list):
                        raise ValidationError("'labels' must be an array")
                    rows.append((record["text"], vocabulary.columns(record["labels"])))
                except ValidationError as exc:
                    raise ValidationError(f"line {lineno}: {exc} [{path}]") from None
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        failure = FileFormatError(f"file is not UTF-8 text: {exc}", path=str(path))
    except PipelineError as exc:
        failure = exc
    try:
        dataset = Dataset.from_rows(vocabulary, rows)
    except _BadRow as exc:
        raise ValidationError(f"line {lines[exc.row]}: {exc.reason} [{path}]") from None
    if failure is not None:
        raise failure
    return dataset


def _holdout_size(n: int, fraction: float) -> int:
    # round-half-up, at least 1, and never the whole dataset
    size = int(math.floor(fraction * n + 0.5))
    return min(max(size, 1), n - 1)


def split_indices(n: int, holdout_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministically partition ``range(n)`` into (train, holdout) index lists.

    Membership is a pure function of ``(n, holdout_fraction, seed)``; both
    halves keep ascending original order so they stay aligned with any
    row-indexed sidecar file.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValidationError(f"holdout_fraction must be in (0,1), got {holdout_fraction}")
    if seed < 0:
        raise ValidationError(f"split seed must be >= 0, got {seed}")
    if n < 2:
        raise ValidationError("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    size = _holdout_size(n, holdout_fraction)
    holdout = sorted(int(i) for i in perm[:size])
    chosen = set(holdout)
    train = [i for i in range(n) if i not in chosen]
    return train, holdout
