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
from .dataset import Dataset, check_utf8
from .errors import (
    DegenerateEmbeddingError,
    FileFormatError,
    ValidationError,
)
from . import httpclient
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``x``, as an n x 1 column.

    Row ``i`` gets exactly ``np.linalg.norm(x[i])``: the stacked matmul takes
    each sum of squares through the same dot product as ``norm``, whereas
    ``einsum`` and ``norm(axis=1)`` round some rows differently.
    """
    return np.sqrt(x[:, None, :] @ x[:, :, None]).reshape(len(x), 1)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row of the float64 matrix ``x`` to unit length, in place.

    Row ``i`` becomes exactly ``row / np.linalg.norm(row)``. A row whose peak
    lies outside (1e-150, 1e150) is first divided by its peak, since its sum
    of squares would overflow to inf or underflow towards 0. Raises
    :class:`ValidationError` for the first row with a non-finite entry and
    :class:`DegenerateEmbeddingError` for the first zero row, each naming
    the row.
    """
    peak = np.maximum(x.max(axis=1), -x.min(axis=1))  # NaN when a row holds one
    usable = (peak > 0.0) & (peak < np.inf)
    if not usable.all():
        row = int(np.argmin(usable))
        if math.isfinite(peak[row]):
            raise DegenerateEmbeddingError(f"row {row} is a zero vector")
        raise ValidationError(f"row {row} has non-finite entries")
    extreme = (peak <= 1e-150) | (peak >= 1e150)
    if extreme.any():
        x[extreme] /= peak[extreme, None]
    x /= _row_norms(x)
    return x


def l2_normalize(v: Sequence[float] | np.ndarray) -> EmbeddingVector:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    Raises :class:`DegenerateEmbeddingError` for the zero vector and
    :class:`ValidationError` for non-finite entries.
    """
    arr = np.array(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    return _normalize_rows(arr[None, :])[0]


def _hash_trigram(trigram: str, seed: int) -> tuple[int, float]:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(trigram.encode("utf-8"), key=key, digest_size=9).digest()
    bucket = int.from_bytes(digest[:8], "little")
    sign = 1.0 if digest[8] & 1 else -1.0
    return bucket, sign


# A trigram's key packs its three code points, 21 bits each, into 63 bits,
# so this sentinel, which ends every table, is above every key.
_END_KEY = np.uint64(2**64 - 1)
_HIGH, _MID = np.uint64(42), np.uint64(21)


@dataclass(frozen=True)
class _TrigramTable:
    """Hashed trigrams of one (seed, dim): sorted keys, their columns and signs.

    A snapshot is never changed once published, so threads read it without a
    lock; a writer publishes a new one, and an update lost to a concurrent
    writer only costs a later miss.
    """

    seed: int
    dim: int
    keys: np.ndarray  # uint64, ascending, ending in _END_KEY
    columns: np.ndarray  # intp: the trigram's bucket modulo dim
    signs: np.ndarray  # float64: +-1.0


def _empty_table(seed: int, dim: int) -> _TrigramTable:
    return _TrigramTable(seed, dim, np.array([_END_KEY]), np.zeros(1, dtype=np.intp), np.zeros(1))


# Trigrams kept per process, about 24 B each, so about 400 KB; real text
# reuses a few thousand (3,139 in 3,800 generated queries).
_TRIGRAM_TABLE_SIZE = 1 << 14
_trigram_table = _empty_table(0, 2)
# Texts per bincount, which bounds a block's temporaries.
_TOY_BLOCK = 256


def _lookup(keys: np.ndarray, seed: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and sign of each trigram key; only keys the table lacks are hashed."""
    global _trigram_table
    table = _trigram_table
    if (table.seed, table.dim) != (seed, dim):
        table = _empty_table(seed, dim)
    at = np.searchsorted(table.keys, keys)
    columns, signs = table.columns[at], table.signs[at]
    missing = table.keys[at] != keys
    if not missing.any():
        return columns, signs
    unseen = keys[missing]
    # sorted distinct keys; np.unique would import numpy.ma, 1.5 MB of RSS
    new_keys = np.sort(unseen)
    first = np.ones(len(new_keys), dtype=bool)
    first[1:] = new_keys[1:] != new_keys[:-1]
    new_keys = new_keys[first]
    hashed = [
        _hash_trigram(chr(k >> 42) + chr((k >> 21) & 0x1FFFFF) + chr(k & 0x1FFFFF), seed)
        for k in new_keys.tolist()
    ]
    new_columns = np.array([bucket % dim for bucket, _ in hashed], dtype=np.intp)
    new_signs = np.array([sign for _, sign in hashed])
    slot = np.searchsorted(new_keys, unseen)
    columns[missing], signs[missing] = new_columns[slot], new_signs[slot]
    if len(table.keys) - 1 + len(new_keys) > _TRIGRAM_TABLE_SIZE:
        # full: start over with what this call saw
        table = _empty_table(seed, dim)
        new_keys, new_columns, new_signs = (a[:_TRIGRAM_TABLE_SIZE] for a in (new_keys, new_columns, new_signs))
    order = np.argsort(np.concatenate([table.keys, new_keys]), kind="stable")
    _trigram_table = _TrigramTable(
        seed,
        dim,
        *(np.concatenate([old, new])[order] for old, new in (
            (table.keys, new_keys), (table.columns, new_columns), (table.signs, new_signs)
        )),
    )
    return columns, signs


def _toy_block(texts: Sequence[str], dim: int, seed: int, out: np.ndarray) -> None:
    """Write the unit toy vectors of ``texts`` into the rows of ``out``."""
    # each text padded to at least three characters, so it has a trigram
    padded = [_TEXT_START + t + _TEXT_END if t else _TEXT_START + _TEXT_END * 2 for t in texts]
    codes = np.frombuffer("".join(padded).encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    keys = codes[:-2] << _HIGH
    keys |= codes[1:-1] << _MID
    keys |= codes[2:]
    cells = 0  # offset of each window's row in the flattened block
    if len(texts) > 1:
        lengths = np.fromiter(map(len, padded), dtype=np.intp, count=len(texts))
        ends = np.cumsum(lengths)[:-1]
        inside = np.ones(len(keys), dtype=bool)
        inside[ends - 2] = inside[ends - 1] = False  # the windows straddling two texts
        keys = keys[inside]
        cells = np.repeat(np.arange(0, len(texts) * dim, dim), lengths - 2)
    columns, signs = _lookup(keys, seed, dim)
    # sums of +-1.0 are exact integers, so the order of addition is immaterial
    acc = np.bincount(columns + cells, weights=signs, minlength=len(texts) * dim).reshape(len(texts), dim)
    norms = _row_norms(acc)  # exact: the sums of squares are integers
    for row in np.flatnonzero(norms == 0.0).tolist():
        # All buckets cancelled (vanishingly rare); fall back to a one-hot
        # bucket derived from the whole text so the map stays total.
        bucket, sign = _hash_trigram(_TEXT_START + texts[row] + _TEXT_END, seed)
        acc[row, bucket % dim] = sign
        norms[row] = 1.0
    np.divide(acc, norms, out=out)


def _toy_embed(texts: Sequence[str], dim: int, seed: int) -> np.ndarray:
    out = np.empty((len(texts), dim), dtype=np.float64)
    for start in range(0, len(texts), _TOY_BLOCK):
        _toy_block(texts[start : start + _TOY_BLOCK], dim, seed, out[start : start + _TOY_BLOCK])
    return out


def toy_embed(text: str, dim: int, seed: int = 0) -> EmbeddingVector:
    """Deterministic signed-hash bag of character trigrams, unit-normalized.

    The text is wrapped in boundary markers, so inputs shorter than three
    characters still produce at least one trigram. The map (text, dim, seed)
    -> vector is a pure function, stable across processes.
    """
    if dim < 2:
        raise ValidationError(f"embedding dim must be >= 2, got {dim}")
    check_utf8([text])
    return _toy_embed([text], dim, seed)[0]


def _embed_remote(texts: Sequence[str], config: ProviderConfig) -> np.ndarray:
    """Encode texts through the configured HTTP endpoint, order-preserving.

    Texts go out in consecutive requests of at most ``MAX_REPLY_BYTES //
    (2 * 25 * dim)`` each: a float64 in shortest form takes at most 26 bytes
    with its separator, so no reply reaches the cap. Each request is retried
    on its own.
    """
    out = np.empty((len(texts), config.dim), dtype=np.float64)
    per_request = max(1, httpclient.MAX_REPLY_BYTES // (2 * 25 * config.dim))
    for start in range(0, len(texts), per_request):
        batch = list(texts[start : start + per_request])
        body = post_json(config.endpoint, {"texts": batch}, timeout=config.timeout, max_retries=config.max_retries)
        vectors = body.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(batch):
            got = len(vectors) if isinstance(vectors, list) else "none"
            raise ValidationError(f"encoder returned {got} vectors for {len(batch)} texts")
        for row, vec in enumerate(vectors, start=start):
            # numpy would read "1.5" and true as numbers; a JSON reply holds int or float
            if not isinstance(vec, list) or not all(type(v) in (int, float) for v in vec):
                raise ValidationError(f"encoder row {row} is not a vector of JSON numbers")
            if len(vec) != config.dim:
                raise ValidationError(f"encoder row {row} has dim {len(vec)} but config.dim={config.dim}")
            try:
                out[row] = vec
            except OverflowError:
                raise ValidationError(f"encoder row {row} has an entry beyond float range") from None
    try:
        return _normalize_rows(out)
    except (DegenerateEmbeddingError, ValidationError) as exc:
        raise type(exc)(f"encoder {exc}") from None


def check_embeds_text(config: ProviderConfig | None) -> None:
    """Raise :class:`ValidationError` unless ``config`` can embed new text.

    Only toy and http providers can; a file provider holds precomputed rows.
    """
    kind = "none" if config is None else config.kind
    if kind not in _TEXT_PROVIDER_KINDS:
        raise ValidationError(
            f"provider {kind!r} cannot embed new text; it must be one of {_TEXT_PROVIDER_KINDS}"
        )


def embed_texts(texts: Sequence[str], config: ProviderConfig) -> np.ndarray:
    """Embed arbitrary texts with a provider able to do so (toy or http).

    Returns one unit row per text, an n x dim float64 matrix.
    """
    check_embeds_text(config)
    check_utf8(texts)
    if config.kind == "toy":
        return _toy_embed(texts, config.dim, config.seed)
    return _embed_remote(texts, config)


def embed_dataset(dataset: Dataset, config: ProviderConfig) -> np.ndarray:
    """Embed every sample of a dataset (toy/http) or load the aligned file, one row each."""
    if config.kind == "file":
        return load_embeddings(config.path, dataset)
    return embed_texts([s.text for s in dataset.samples], config)


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
    try:
        return _normalize_rows(x)
    except (DegenerateEmbeddingError, ValidationError) as exc:
        raise type(exc)(f"{exc} [{path}]") from None
