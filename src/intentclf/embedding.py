"""Interchangeable text-embedding providers emitting unit-norm vectors.

Three provider kinds exist:

* ``toy``  - deterministic signed-hash bag of character trigrams, for tests
  and offline runs;
* ``http`` - a remote encoder speaking ``POST {"texts": [..]} ->
  {"vectors": [[..], ..]}``;
* ``file`` - precomputed vectors aligned row-for-row with a dataset, stored
  as one n x d ``.npy`` matrix, numpy's own binary format.

Every provider normalizes at the boundary, so cosine similarity downstream is
a plain dot product.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import tokenize
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import JsonConfig
from .dataset import Dataset
from .errors import (
    DegenerateEmbeddingError,
    FileFormatError,
    ValidationError,
)
from .httpclient import check_remote, post_json

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
        if self.kind == "http":
            check_remote(self, "endpoint")
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
    peak = np.abs(arr).max()  # NaN when an entry is NaN
    if not math.isfinite(peak):
        raise ValidationError("vector has non-finite entries")
    if peak == 0.0:
        raise DegenerateEmbeddingError("cannot normalize a zero vector")
    if not 1e-150 < peak < 1e150:
        # the sum of squares would overflow to inf or underflow towards 0
        arr = arr / peak
    return arr / float(np.linalg.norm(arr))


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


def _embed_remote(texts: Sequence[str], config: ProviderConfig) -> list[EmbeddingVector]:
    """Encode a batch through the configured HTTP endpoint, order-preserving."""
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
        # numpy would read "1.5" and true as numbers; a JSON reply holds int or float
        if not isinstance(vec, list) or not all(type(v) in (int, float) for v in vec):
            raise ValidationError(f"encoder row {row} is not a vector of JSON numbers")
        try:
            arr = np.asarray(vec, dtype=np.float64)
        except OverflowError:
            raise ValidationError(f"encoder row {row} has an entry beyond float range") from None
        if len(arr) != config.dim:
            raise ValidationError(f"encoder row {row} has dim {len(arr)} but config.dim={config.dim}")
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
    return _embed_remote(texts, config)


def embed_dataset(dataset: Dataset, config: ProviderConfig) -> np.ndarray:
    """Embed every sample of a dataset (toy/http) or load the aligned file, one row each."""
    if config.kind == "file":
        return load_embeddings(config.path, dataset)
    vectors = embed_texts([s.text for s in dataset.samples], config)
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), config.dim)


# numpy's .npy header readers, by format version; 3.0 only adds UTF-8 field
# names, which a numeric matrix does not have
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def save_embeddings(vectors: Sequence[np.ndarray] | np.ndarray, path: str | Path) -> None:
    """Write ``vectors`` to exactly ``path`` as one n x d float64 ``.npy`` matrix."""
    matrix = np.asarray(vectors, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValidationError(f"embeddings must be an n x d matrix, got shape {matrix.shape}")
    # through an open file: np.save would add ".npy" to a path that lacks it
    with Path(path).open("wb") as fh:
        np.save(fh, matrix, allow_pickle=False)


def load_embeddings(path: str | Path, dataset: Dataset) -> np.ndarray:
    """Read a ``.npy`` matrix aligned row-for-row with ``dataset``, rows normalized.

    The file must hold a 2-D float or integer array whose data is exactly as
    long as its header claims; anything else is a :class:`FileFormatError`
    naming ``path``, raised before the data is read. The row count must match
    the dataset (:class:`ValidationError`), and each row must be finite and
    non-zero (see :func:`l2_normalize`).
    """
    with Path(path).open("rb") as fh:
        try:
            with warnings.catch_warnings():
                # numpy warns on Python 2 headers and deprecated dtype aliases
                warnings.simplefilter("ignore")
                version = np.lib.format.read_magic(fh)
                if version not in _NPY_HEADER_READERS:
                    raise ValueError(f"unsupported format version {version[0]}.{version[1]}")
                shape, fortran_order, dtype = _NPY_HEADER_READERS[version](fh)
        except (ValueError, IndexError, tokenize.TokenError) as exc:  # what numpy's parser raises
            reason = " ".join(str(exc).split())
            raise FileFormatError(f"unreadable .npy header: {reason}", path=str(path)) from exc
        if dtype.kind not in "fiu":
            raise FileFormatError(f"embeddings must be float or integer, got {dtype}", path=str(path))
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 1:
            raise FileFormatError(
                f"embeddings must be a 2-D matrix with columns, got shape {shape}", path=str(path)
            )
        rows, cols = shape
        data_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if rows * cols * dtype.itemsize != data_bytes:
            raise FileFormatError(
                f"header claims a {rows} x {cols} {dtype} matrix, but {data_bytes} data bytes follow",
                path=str(path),
            )
        if rows != len(dataset):
            raise ValidationError(
                f"embedding file has {rows} rows but dataset has {len(dataset)} samples"
            )
        flat = np.fromfile(fh, dtype=dtype, count=rows * cols)
    x = flat.reshape(shape, order="F" if fortran_order else "C")
    x = x.astype(np.float64, order="C", copy=False)
    # per row: a batched norm over axis 1 rounds differently on some rows
    for row in x:
        row[:] = l2_normalize(row)
    return x
