"""Interchangeable text-embedding providers emitting unit-norm vectors.

Three provider kinds exist:

* ``toy``  - deterministic signed-hash bag of character trigrams, for tests
  and offline runs;
* ``http`` - a remote encoder speaking ``POST {"texts": [..]} ->
  {"vectors": [[..], ..]}``;
* ``file`` - precomputed vectors aligned row-for-row with a dataset, stored
  as JSON Lines ``{"index": <int>, "vector": [..]}`` with ``index`` ascending
  from 0.

Every provider normalizes at the boundary, so cosine similarity downstream is
a plain dot product.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import JsonConfig
from .dataset import Dataset, read_json_lines
from .errors import (
    DegenerateEmbeddingError,
    FileFormatError,
    ValidationError,
)
from .httpclient import post_json

# An embedding is a 1-D float64 numpy array of unit Euclidean norm.
EmbeddingVector = np.ndarray

_PROVIDER_KINDS = ("file", "http", "toy")
_TEXT_PROVIDER_KINDS = ("http", "toy")
_TEXT_START = "\x02"
_TEXT_END = "\x03"


@dataclass(frozen=True)
class ProviderConfig(JsonConfig):
    """Which embedding provider to use and how to reach it."""

    kind: str = "toy"
    dim: int = 256
    path: str | None = None
    endpoint: str | None = None
    seed: int = 0
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if self.kind not in _PROVIDER_KINDS:
            raise ValidationError(f"provider kind must be one of {_PROVIDER_KINDS}, got {self.kind!r}")
        if self.dim < 2:
            raise ValidationError(f"embedding dim must be >= 2, got {self.dim}")
        if self.kind == "http" and not self.endpoint:
            raise ValidationError("http provider needs an endpoint")
        if self.kind == "file" and not self.path:
            raise ValidationError("file provider needs a path")


def l2_normalize(v: Sequence[float] | np.ndarray) -> EmbeddingVector:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    Raises :class:`DegenerateEmbeddingError` for the zero vector and
    :class:`ValidationError` for non-finite entries.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("vector has non-finite entries")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise DegenerateEmbeddingError("cannot normalize a zero vector")
    return arr / norm


def _trigrams(text: str) -> list[str]:
    padded = _TEXT_START + text + _TEXT_END
    while len(padded) < 3:
        padded += _TEXT_END
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


# Entries of the trigram memo: about 240 B each, so at most about 2 MB.
_TRIGRAM_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=_TRIGRAM_MEMO_SIZE)
def _hash_trigram(trigram: str, seed: int) -> tuple[int, float]:
    # A pure function of its arguments, so one process-wide memo serves every
    # caller; real text reuses a few thousand trigrams over and over.
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(trigram.encode("utf-8"), key=key, digest_size=9).digest()
    bucket = int.from_bytes(digest[:8], "little")
    sign = 1.0 if digest[8] & 1 else -1.0
    return bucket, sign


def toy_embed(text: str, dim: int, seed: int = 0) -> EmbeddingVector:
    """Deterministic signed-hash bag of character trigrams, unit-normalized.

    The text is wrapped in boundary markers, so inputs shorter than three
    characters still produce at least one trigram. The map (text, dim, seed)
    -> vector is a pure function, stable across processes.
    """
    if dim < 2:
        raise ValidationError(f"embedding dim must be >= 2, got {dim}")
    buckets, signs = zip(*[_hash_trigram(t, seed) for t in _trigrams(text)])
    # sums of +-1.0 are exact integers, so the order of addition is immaterial
    index = (np.array(buckets, dtype=np.uint64) % np.uint64(dim)).astype(np.intp)
    acc = np.bincount(index, weights=signs, minlength=dim)
    if not acc.any():
        # All buckets cancelled (vanishingly rare); fall back to a one-hot
        # bucket derived from the whole text so the map stays total. The
        # whole text is no trigram, so it bypasses the memo.
        bucket, sign = _hash_trigram.__wrapped__(_TEXT_START + text + _TEXT_END, seed)
        acc[bucket % dim] = sign
    return l2_normalize(acc)


def embed_remote(texts: Sequence[str], config: ProviderConfig) -> list[EmbeddingVector]:
    """Encode a batch through the configured HTTP endpoint, order-preserving."""
    if config.kind != "http":
        raise ValidationError(f"embed_remote needs an http provider, got {config.kind!r}")
    if not texts:
        return []
    body = post_json(
        config.endpoint,
        {"texts": list(texts)},
        timeout=config.timeout,
        max_retries=config.max_retries,
    )
    vectors = body.get("vectors")
    if not isinstance(vectors, list) or len(vectors) != len(texts):
        got = len(vectors) if isinstance(vectors, list) else "none"
        raise ValidationError(
            f"encoder returned {got} vectors for {len(texts)} texts"
        )
    out: list[EmbeddingVector] = []
    for row, vec in enumerate(vectors):
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != config.dim:
            raise ValidationError(
                f"encoder row {row} has dim {arr.shape} but config.dim={config.dim}"
            )
        out.append(l2_normalize(arr))
    return out


def check_embeds_text(config: ProviderConfig | None) -> None:
    """Raise :class:`ValidationError` unless ``config`` can embed new text.

    Only toy and http providers can; a file provider holds precomputed rows.
    """
    kind = "none" if config is None else config.kind
    if kind not in _TEXT_PROVIDER_KINDS:
        raise ValidationError(
            f"provider {kind!r} cannot embed new text; it must be one of {_TEXT_PROVIDER_KINDS}"
        )


def embed_texts(texts: Sequence[str], config: ProviderConfig) -> list[EmbeddingVector]:
    """Embed arbitrary texts with a provider able to do so (toy or http)."""
    check_embeds_text(config)
    if config.kind == "toy":
        return [toy_embed(t, config.dim, config.seed) for t in texts]
    return embed_remote(texts, config)


def embed_dataset(dataset: Dataset, config: ProviderConfig) -> np.ndarray:
    """Embed every sample of a dataset (toy/http) or load the aligned file, one row each."""
    if config.kind == "file":
        return load_embeddings(config.path, dataset)
    vectors = embed_texts([s.text for s in dataset.samples], config)
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), config.dim)


def _vector_json(row: np.ndarray) -> str:
    """``json.dumps(row.tolist())`` for a 1-D float64 ``row``.

    Rendering floats is most of the cost. When at most half of a row's values
    are distinct, as in toy vectors (a handful of counts over one norm), each
    distinct value is rendered once and the list is gathered from those
    renderings. Values are told apart by bit pattern, so ``-0.0`` stays
    ``-0.0``. Other rows, such as an encoder's, are rendered whole; telling
    the two kinds apart costs one sort of the row.
    """
    bits = row.view(np.int64)
    ordered = np.sort(bits)
    if 2 * np.count_nonzero(ordered[1:] != ordered[:-1]) >= row.size:
        return json.dumps(row.tolist())
    distinct, inverse = np.unique(bits, return_inverse=True)
    words = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return "[" + ", ".join(np.array(words, dtype=object)[inverse].tolist()) + "]"


def save_embeddings(vectors: Sequence[np.ndarray], path: str | Path) -> None:
    """Write vectors as JSON Lines with ascending ``index`` starting at 0.

    Each line is byte for byte what ``json.dumps({"index": i, "vector": [floats]})``
    gives, ``NaN`` and ``Infinity`` included.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        for index, vec in enumerate(vectors):
            vector = _vector_json(np.asarray(vec, dtype=np.float64))
            fh.write('{"index": %d, "vector": %s}\n' % (index, vector))


def load_embeddings(path: str | Path, dataset: Dataset) -> np.ndarray:
    """Read an embedding file aligned row-for-row with ``dataset`` as an n x d matrix.

    Vectors are normalized on load. Rows must carry ``index`` equal to their
    0-based position, share one dimension, and match the dataset row count.
    """
    rows: list[np.ndarray] = []
    dim: int | None = None
    for lineno, record in read_json_lines(path, ("index", "vector")):
        row = len(rows)
        if record["index"] != row:
            raise FileFormatError(
                f"expected index {row}, got {record['index']!r}",
                path=str(path),
                line=lineno,
            )
        try:
            vec = np.asarray(record["vector"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            vec = None
        if vec is None or vec.ndim != 1 or vec.size == 0:
            raise FileFormatError(
                "'vector' must be a non-empty flat array of numbers",
                path=str(path),
                line=lineno,
            )
        if dim is None:
            dim = int(vec.shape[0])
        elif vec.shape[0] != dim:
            raise FileFormatError(
                f"dimension mismatch at row {row}: expected {dim}, got {vec.shape[0]}",
                path=str(path),
            )
        rows.append(vec)
    if len(rows) != len(dataset):
        raise ValidationError(
            f"embedding file has {len(rows)} rows but dataset has {len(dataset)} samples"
        )
    # per row: a batched norm over axis 1 rounds differently on some rows
    x = np.empty((len(rows), dim or 0))
    for row, vec in enumerate(rows):
        x[row] = l2_normalize(vec)
    return x
