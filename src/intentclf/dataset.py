"""Label taxonomy, sample records, multi-hot encoding, splitting, and the JSON
and JSON Lines readers that parse every text input file of the pipeline.

A dataset file is UTF-8 JSON Lines: each line is an object with ``text``
(string) and ``labels`` (array of strings). A taxonomy file is a JSON object
with ``labels`` (array of strings, order significant) and ``descriptions``
(object mapping label to a one-sentence description).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FileFormatError, ValidationError

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
        seen: set[str] = set()
        for label in self.labels:
            if not isinstance(label, str) or not label.strip():
                raise ValidationError(f"label must be a non-empty string, got {label!r}")
            check_utf8([label], "label")
            if label in seen:
                raise ValidationError(f"duplicate label {label!r}")
            seen.add(label)
        for key in self.descriptions:
            if key not in seen:
                raise ValidationError(f"description key {key!r} is not a vocabulary label")

    def __len__(self) -> int:
        return len(self.labels)

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


def read_json_lines(path: str | Path, keys: tuple[str, ...]):
    """Yield ``(lineno, record)`` for each non-blank line of a UTF-8 JSONL file.

    Lines are read one at a time. Each record must be an object holding
    ``keys``; anything else is a :class:`FileFormatError` carrying the
    1-based line number.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    reason = getattr(exc, "msg", exc)  # a JSONDecodeError's msg has no position
                    raise FileFormatError(
                        f"malformed JSON record: {reason}", path=str(path), line=lineno
                    ) from exc
                if not isinstance(record, dict) or not all(key in record for key in keys):
                    raise FileFormatError(
                        f"record must be an object with {' and '.join(map(repr, keys))}",
                        path=str(path),
                        line=lineno,
                    )
                yield lineno, record
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"file is not UTF-8 text: {exc}", path=str(path)) from exc


def load_vocabulary(path: str | Path) -> LabelVocabulary:
    """Read a taxonomy file (JSON object with labels and descriptions)."""
    obj = read_json(path, "taxonomy")
    try:
        return LabelVocabulary.from_json(obj)
    except (FileFormatError, ValidationError) as exc:  # e.g. a duplicate label
        raise FileFormatError(str(exc), path=str(path)) from exc


def save_vocabulary(vocabulary: LabelVocabulary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(vocabulary.to_json(), indent=2) + "\n", encoding="utf-8")


def check_utf8(texts: Sequence[str], what: str = "text") -> None:
    """Raise :class:`ValidationError` unless every text encodes as UTF-8.

    A ``str`` can hold lone surrogates (``"\\ud800"``, or a byte that is not
    UTF-8 in ``sys.argv``), which no encoder or file format accepts.
    """
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        for index, text in enumerate(texts):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                name = what if len(texts) == 1 else f"{what} {index}"
                raise ValidationError(
                    f"{name} is not valid UTF-8: lone surrogate {text[exc.start]!r} at index {exc.start}"
                ) from None


@dataclass(frozen=True)
class TextSample:
    """A query string with its (non-empty) label subset."""

    text: str
    labels: LabelSet

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError("sample text is empty")
        check_utf8([self.text], "sample text")
        object.__setattr__(self, "labels", frozenset(self.labels))
        if not self.labels:
            raise ValidationError("sample needs at least one label")


@dataclass(frozen=True)
class Dataset:
    """A vocabulary plus samples, each validated against that vocabulary."""

    vocabulary: LabelVocabulary
    samples: tuple[TextSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        known = set(self.vocabulary.labels)
        for pos, sample in enumerate(self.samples):
            unknown = sample.labels - known
            if unknown:
                raise ValidationError(
                    f"sample {pos} has unknown label(s) {sorted(unknown)!r}"
                )

    def __len__(self) -> int:
        return len(self.samples)


def validate_labels(labels: Iterable[str], vocabulary: LabelVocabulary) -> LabelSet:
    """Return ``labels`` as a frozenset after checking each is a vocabulary label."""
    labels = tuple(labels)
    if not all(isinstance(label, str) for label in labels):
        raise ValidationError(f"labels must be strings, got {list(labels)!r}")
    members = frozenset(labels)
    unknown = members - set(vocabulary.labels)
    if unknown:
        raise ValidationError(f"unknown label(s) {sorted(unknown)!r}")
    return members


def label_matrix(dataset: Dataset) -> np.ndarray:
    """Multi-hot label rows (n x m) of ``dataset``, columns in vocabulary order.

    Cell ``(i, j)`` is 1.0 iff vocabulary label ``j`` is a member of sample
    ``i``; the dataset has checked every label against its vocabulary already.
    """
    column = {label: i for i, label in enumerate(dataset.vocabulary.labels)}
    cells = [(row, column[label]) for row, s in enumerate(dataset.samples) for label in s.labels]
    y = np.zeros((len(dataset), len(dataset.vocabulary)), dtype=np.float64)
    y[tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)] = 1.0
    return y


def _sample_to_record(sample: TextSample, vocabulary: LabelVocabulary) -> dict:
    return {"text": sample.text, "labels": vocabulary.sorted_members(sample.labels)}


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write one JSON record per line; labels serialized in vocabulary order."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for sample in dataset.samples:
            fh.write(json.dumps(_sample_to_record(sample, dataset.vocabulary)) + "\n")


def load_dataset(path: str | Path, vocabulary: LabelVocabulary) -> Dataset:
    """Read a JSONL dataset, validating every record against ``vocabulary``.

    Errors carry the 1-based line number of the offending record.
    """
    samples: list[TextSample] = []
    for lineno, record in read_json_lines(path, ("text", "labels")):
        text = record["text"]
        labels = record["labels"]
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"line {lineno}: empty text")
        if not isinstance(labels, list) or not labels:
            raise ValidationError(f"line {lineno}: 'labels' must be a non-empty array")
        try:
            samples.append(TextSample(text=text, labels=validate_labels(labels, vocabulary)))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return Dataset(vocabulary=vocabulary, samples=tuple(samples))


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
