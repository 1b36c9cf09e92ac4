"""Projection head, sigmoid classifier, two-stage training and persistence.

Stage one pretrains a two-layer projection over frozen external embeddings
with a contrastive objective on mined pairs. Stage two fine-tunes projection
and classifier jointly under per-label binary cross-entropy from logits. One
loop runs both stages' steps: plain SGD with momentum, single-threaded and
bit-reproducible from (dataset, config, seed).

Training and scoring compute in the dtype of their input: float32
embeddings, as an embeddings file holds, give float32 heads, and float64
embeddings give float64 heads. The heads are drawn from the same float64
random streams either way and then rounded. Scoring runs in the heads'
dtype.
"""

from __future__ import annotations

import base64
import json
import math
import os
import secrets
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import JsonConfig, coerce
from .dataset import LabelSet, LabelVocabulary, read_json
from .embedding import ProviderConfig, check_provider_width
from .errors import FileFormatError, ValidationError
from .losses import OFCConfig, cs_loss, ofc_loss, oc_loss
from .metrics import threshold_scores
from .mining import (
    MiningConfig,
    PairSet,
    batch_similarity_table,
    build_pairs,
    mine,
)

ARTIFACT_FORMAT_VERSION = 2  # the one version save_artifact writes and load_artifact reads
_LOSS_KINDS = ("ofc", "oc", "cs")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype, copy=False)


def _float_array(a) -> np.ndarray:
    """``a`` as an array of a compute dtype: float32 stays float32, anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


@dataclass
class ProjectionHead:
    """Two-layer tanh MLP whose output is unit-normalized."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(
        cls, d_in: int, d_hidden: int, d_proj: int, rng: np.random.Generator, dtype=np.float64
    ) -> "ProjectionHead":
        return cls(
            w1=_glorot(rng, d_in, d_hidden, dtype),
            b1=np.zeros(d_hidden, dtype=dtype),
            w2=_glorot(rng, d_hidden, d_proj, dtype),
            b2=np.zeros(d_proj, dtype=dtype),
        )

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_proj(self) -> int:
        return self.w2.shape[1]

    def astype(self, dtype) -> "ProjectionHead":
        """A copy of the head with every array in ``dtype``."""
        return ProjectionHead(*(p.astype(dtype) for p in self.params()))

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class ClassifierHead:
    """Per-label logits over the projected space."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, d_proj: int, n_labels: int, rng: np.random.Generator, dtype=np.float64) -> "ClassifierHead":
        return cls(w=_glorot(rng, d_proj, n_labels, dtype), b=np.zeros(n_labels, dtype=dtype))

    def params(self) -> list[np.ndarray]:
        return [self.w, self.b]


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    lr_pretrain: float = 0.05
    lr_finetune: float = 0.2
    momentum: float = 0.9
    epochs_pretrain: int = 30
    epochs_finetune: int = 50
    batch_size: int = 32
    seed: int = 0
    decision_threshold: float = 0.5
    loss_kind: str = "ofc"
    d_hidden: int = 128
    d_proj: int = 128
    grad_clip_norm: float | None = 1.0
    mining: MiningConfig = field(default_factory=MiningConfig)
    ofc: OFCConfig = field(default_factory=OFCConfig)

    def __post_init__(self):
        if self.lr_pretrain <= 0 or self.lr_finetune <= 0:
            raise ValidationError("learning rates must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0,1), got {self.momentum}")
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise ValidationError("epoch counts must be >= 0")
        if self.batch_size < 2:
            raise ValidationError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValidationError("decision_threshold must be in (0,1)")
        if self.loss_kind not in _LOSS_KINDS:
            raise ValidationError(f"loss_kind must be one of {_LOSS_KINDS}")
        if self.d_hidden < 1 or self.d_proj < 1:
            raise ValidationError("head dims must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # record the mining each loss trains on: the oc hinge keeps the hard
        # pairs of the standard convention, and cs uses every pair
        if self.loss_kind == "oc":
            object.__setattr__(self, "mining", replace(self.mining, mode="standard", p=0.0))
        elif self.loss_kind == "cs":
            object.__setattr__(self, "mining", replace(self.mining, p=100.0))
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValidationError("grad_clip_norm must be > 0 or None")


@dataclass
class ModelArtifact:
    """Everything needed to score a query: heads, vocabulary and config."""

    vocabulary: LabelVocabulary
    projection: ProjectionHead
    classifier: ClassifierHead
    decision_threshold: float
    train_config: TrainConfig
    provider: ProviderConfig | None = None

    @property
    def embed_dim(self) -> int:
        """The input width, read from the projection's weights."""
        return self.projection.d_in


# ---------------------------------------------------------------------------
# forward / backward primitives


def _project_batch(x: np.ndarray, head: ProjectionHead):
    a1 = x @ head.w1 + head.b1
    h = np.tanh(a1)
    a2 = h @ head.w2 + head.b2
    norms = np.linalg.norm(a2, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError("projection collapsed to a zero vector")
    z = a2 / norms[:, None]
    return z, (x, h, z, norms)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-l)), with l clipped to [-60, 60] so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))


def _classify_batch(z: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Per-label probabilities sigmoid(z w + b) for each row of ``z``."""
    return _sigmoid(z @ head.w + head.b)


def _projection_backward(d_z: np.ndarray, cache, head: ProjectionHead) -> list[np.ndarray]:
    """Gradients [dw1, db1, dw2, db2] given dL/dZ and a cached forward."""
    x, h, z, norms = cache
    inner = np.sum(d_z * z, axis=1, keepdims=True)
    d_a2 = (d_z - z * inner) / norms[:, None]
    d_w2 = h.T @ d_a2
    d_b2 = d_a2.sum(axis=0)
    d_h = d_a2 @ head.w2.T
    d_a1 = d_h * (1.0 - h * h)
    d_w1 = x.T @ d_a1
    d_b1 = d_a1.sum(axis=0)
    return [d_w1, d_b1, d_w2, d_b2]


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over all cells of log(1 + e^l) - y l, the BCE of sigmoid(l), plus dL/dl.

    No clamp: a cell saturated on the wrong side keeps its gradient (sigmoid(l) - y) / size.
    The gradient is in the logits' dtype (float32 stays float32, anything else is float64).
    """
    logits = _float_array(logits)
    y = np.asarray(targets, dtype=logits.dtype)
    if logits.shape != y.shape:
        raise ValidationError(f"shape mismatch: logits {logits.shape} vs targets {y.shape}")
    value = float(np.mean(np.logaddexp(0.0, logits) - y * logits))
    return value, (_sigmoid(logits) - y) / logits.size


def _sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocity: list[np.ndarray],
    lr: float,
    momentum: float,
    clip_norm: float | None,
) -> None:
    """One momentum step on ``grads`` clipped to global norm ``clip_norm``; overwrites ``grads``."""
    if clip_norm is not None:
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        if total > clip_norm:
            for g in grads:
                g *= clip_norm / total
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        np.multiply(v, lr, out=g)
        p -= g


# ---------------------------------------------------------------------------
# pair-loss dispatch


def _pair_loss(sims: np.ndarray, positive: np.ndarray, config: TrainConfig) -> tuple[float, np.ndarray]:
    if config.loss_kind == "cs":
        return cs_loss(sims, positive)
    mined = mine(sims, positive, config.mining)
    if config.loss_kind == "oc":
        return oc_loss(sims, mined, config.ofc.margin)
    return ofc_loss(sims, mined, config.ofc)


def _sim_grads_to_z(grad: np.ndarray, pair_set: PairSet, z: np.ndarray) -> np.ndarray:
    """dL/dZ = (G + G^T) Z, where G[a, b] is dL/ds of pair (a, b) and G is 0 below the diagonal."""
    n = len(z)
    g = np.zeros((n, n), dtype=z.dtype)
    g[pair_set.pairs[:, 0], pair_set.pairs[:, 1]] = grad
    return (g + g.T) @ z


def _aligned(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` (n x d embeddings) in its compute dtype and ``y`` (n x m label rows) in the same dtype."""
    x = _float_array(x)
    y = np.asarray(y, dtype=x.dtype)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise ValidationError(f"expected n x d embeddings and n x m label rows, got {x.shape} and {y.shape}")
    return x, y


# ---------------------------------------------------------------------------
# training stages


def _descend(x: np.ndarray, y: np.ndarray, heads: list, step, lr: float, epochs: int, config: TrainConfig,
             shuffle_rng: np.random.Generator, min_rows: int = 1) -> list[float]:
    """Train ``heads`` in place by momentum SGD; return the per-epoch mean batch loss.

    Each epoch cuts a ``shuffle_rng`` permutation of the rows into batches, leaving out
    one of fewer than ``min_rows`` rows. ``step(x_batch, y_batch)`` returns the batch
    loss and one gradient list per head; each head takes its own clipped step.
    """
    velocity = [[np.zeros_like(p) for p in head.params()] for head in heads]
    history: list[float] = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(x))
        batch_losses: list[float] = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            if len(chunk) < min_rows:
                continue
            value, grads = step(x[chunk], y[chunk])
            for head, g, v in zip(heads, grads, velocity):
                _sgd_step(head.params(), g, v, lr, config.momentum, config.grad_clip_norm)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)))
    return history


def _pretrain_step(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, config: TrainConfig
) -> tuple[float, list[list[np.ndarray]]]:
    """Pair loss of one batch and its gradients [[dw1, db1, dw2, db2]] in ``head``."""
    z, cache = _project_batch(x, head)
    pair_set = build_pairs(y, config.mining.positive_rule)
    sims = batch_similarity_table(z, pair_set)
    value, grad = _pair_loss(sims, pair_set.positive, config)
    d_z = _sim_grads_to_z(grad, pair_set, z)
    return value, [_projection_backward(d_z, cache, head)]


def pretrain(x: np.ndarray, y: np.ndarray, config: TrainConfig) -> tuple[ProjectionHead, list[float]]:
    """Contrastive pretraining of the projection head.

    ``x`` holds one embedding per row and ``y`` its multi-hot label row.
    Each epoch reshuffles with the seeded generator, mines pairs per batch
    and steps SGD on the configured pair loss. Returns the head and the
    per-epoch mean batch loss. A trailing batch of one row has no pairs and
    is left out of its epoch. The head is in ``x``'s compute dtype.
    """
    x, y = _aligned(x, y)
    if not (y != y[:1]).any():  # also rejects fewer than 2 rows
        raise ValidationError("pretraining needs at least 2 distinct label sets")
    init_rng = np.random.default_rng([config.seed, 101])
    shuffle_rng = np.random.default_rng([config.seed, 102])
    head = ProjectionHead.init(x.shape[1], config.d_hidden, config.d_proj, init_rng, x.dtype)
    return head, _descend(x, y, [head], lambda xb, yb: _pretrain_step(xb, yb, head, config),
                          config.lr_pretrain, config.epochs_pretrain, config, shuffle_rng, min_rows=2)


def _finetune_step(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, classifier: ClassifierHead
) -> tuple[float, list[list[np.ndarray]]]:
    """BCE of one batch and its gradients [[dw1, db1, dw2, db2], [dw, db]] in ``head`` and ``classifier``."""
    z, cache = _project_batch(x, head)
    value, d_logits = bce_loss(z @ classifier.w + classifier.b, y)
    grads_c = [z.T @ d_logits, d_logits.sum(axis=0)]
    d_z = d_logits @ classifier.w.T
    return value, [_projection_backward(d_z, cache, head), grads_c]


def finetune(
    x: np.ndarray,
    y: np.ndarray,
    vocabulary: LabelVocabulary,
    projection: ProjectionHead,
    config: TrainConfig,
    provider: ProviderConfig | None = None,
) -> tuple[ModelArtifact, list[float]]:
    """Joint projection+classifier training under per-label BCE from logits.

    ``y`` holds the multi-hot label rows of ``x``, columns in ``vocabulary``
    order. The given projection is copied into ``x``'s compute dtype, not
    mutated. Returns the packaged artifact, whose heads are all in that
    dtype, and the per-epoch mean batch loss.
    """
    x, y = _aligned(x, y)
    if not len(x):
        raise ValidationError("finetuning needs at least 1 sample")
    if x.shape[1] != projection.d_in:
        raise ValidationError(f"projection expects dim {projection.d_in}, embeddings have {x.shape[1]}")
    if y.shape[1] != len(vocabulary):
        raise ValidationError(f"label rows have {y.shape[1]} columns for {len(vocabulary)} labels")
    check_provider_width(provider, x.shape[1])
    head = projection.astype(x.dtype)
    init_rng = np.random.default_rng([config.seed, 201])
    shuffle_rng = np.random.default_rng([config.seed, 202])
    classifier = ClassifierHead.init(head.d_proj, len(vocabulary), init_rng, x.dtype)
    history = _descend(x, y, [head, classifier], lambda xb, yb: _finetune_step(xb, yb, head, classifier),
                       config.lr_finetune, config.epochs_finetune, config, shuffle_rng)
    return ModelArtifact(
        vocabulary=vocabulary,
        projection=head,
        classifier=classifier,
        decision_threshold=config.decision_threshold,
        train_config=config,
        provider=provider,
    ), history


def predict(embedding: np.ndarray, artifact: ModelArtifact) -> tuple[LabelSet, dict[str, float]]:
    """Labels above the decision threshold, falling back to the argmax label.

    The returned label set is never empty: a router must always route. The
    score map covers the full vocabulary in vocabulary order.
    """
    x = np.asarray(embedding)
    if x.shape != (artifact.embed_dim,):
        raise ValidationError(
            f"expected embedding of dim {artifact.embed_dim}, got shape {x.shape}"
        )
    probs = score_samples(x[None, :], artifact)
    chosen = threshold_scores(probs, artifact.decision_threshold)[0]
    vocab = artifact.vocabulary.labels
    labels = frozenset(label for label, hit in zip(vocab, chosen) if hit)
    return labels, {label: float(p) for label, p in zip(vocab, probs[0])}


def score_samples(x: np.ndarray, artifact: ModelArtifact) -> np.ndarray:
    """Per-label probability matrix (n x m) for embeddings ``x`` (n x d), in the heads' dtype."""
    x = np.asarray(x, dtype=artifact.projection.w1.dtype)
    if x.ndim != 2 or x.shape[1] != artifact.embed_dim:
        raise ValidationError(
            f"expected n x {artifact.embed_dim} embeddings, got shape {x.shape}"
        )
    z, _ = _project_batch(x, artifact.projection)
    return _classify_batch(z, artifact.classifier)


# ---------------------------------------------------------------------------
# persistence


# The named dimensions of each stored head array, in dataclass field order.
# embed_dim and the label count are known before the arrays are read; the
# hidden and projection widths are taken from the first array that has them.
_HEAD_SHAPES = {
    ("projection", "w1"): ("embed_dim", "hidden width"),
    ("projection", "b1"): ("hidden width",),
    ("projection", "w2"): ("hidden width", "projection width"),
    ("projection", "b2"): ("projection width",),
    ("classifier", "w"): ("projection width", "label count"),
    ("classifier", "b"): ("label count",),
}


# a format-2 array's stored dtype, little-endian float32 or float64, and the
# native dtype it loads as
_DTYPES = {"<f4": np.dtype(np.float32), "<f8": np.dtype(np.float64)}


def _array_json(arr: np.ndarray) -> dict:
    """Format 2's form of ``arr``: its shape, dtype (``<f4`` if float32, else ``<f8``) and base64 bytes."""
    dtype = "<f4" if arr.dtype == np.float32 else "<f8"
    data = np.asarray(arr, dtype=dtype).tobytes()
    return {"shape": list(arr.shape), "dtype": dtype, "data": base64.b64encode(data).decode("ascii")}


def _head_json(head: ProjectionHead | ClassifierHead) -> dict:
    return {f.name: _array_json(getattr(head, f.name)) for f in fields(head)}


def _replace_file(path: str | Path, text: str) -> None:
    """Write ``text`` beside ``path`` under a temporary name, then rename it onto ``path``.

    A write that fails or is interrupted removes the temporary file and
    leaves what ``path`` held before.
    """
    path = Path(os.path.realpath(path))  # a symlink keeps pointing at the new file
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    # not tempfile, whose files are private (0600): the model keeps the
    # permissions any new file gets
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_artifact(artifact: ModelArtifact, path: str | Path) -> None:
    """Write the artifact as one format-2 JSON object, replacing ``path`` whole.

    Every head array is stored as ``{"shape", "dtype", "data"}``, with
    ``dtype`` ``"<f4"`` for a float32 array and ``"<f8"`` otherwise and
    ``data`` the base64 of its row-major little-endian bytes, so the weights
    and their dtype round-trip bit for bit.
    """
    obj = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "vocabulary": artifact.vocabulary.to_json(),
        "embed_dim": artifact.embed_dim,
        "projection": _head_json(artifact.projection),
        "classifier": _head_json(artifact.classifier),
        "decision_threshold": artifact.decision_threshold,
        "config": {
            "train": artifact.train_config.to_json(),
            "provider": artifact.provider.to_json() if artifact.provider else None,
        },
    }
    _replace_file(path, json.dumps(obj, indent=1) + "\n")


def _check_dims(key: str, shape, dims: tuple[str, ...], sizes: dict[str, int]) -> None:
    """Refuse ``shape`` unless it has one entry per named dimension, each agreeing with ``sizes``."""
    if len(shape) != len(dims):
        raise FileFormatError(f"field {key!r} must be {len(dims)}-dimensional")
    for dim, size in zip(dims, shape):
        if sizes.setdefault(dim, size) != size:
            raise FileFormatError(f"field {key!r} has shape {tuple(shape)}, but the {dim} is {sizes[dim]}")


def _array_from_base64(value, key: str, dims: tuple[str, ...], sizes: dict[str, int]) -> np.ndarray:
    """A format-2 array, its dtype, shape and data length checked before ``data`` is decoded."""
    if not isinstance(value, dict):
        raise FileFormatError(f"field {key!r} must be an object with shape, dtype and data")
    shape, dtype, data = value.get("shape"), value.get("dtype"), value.get("data")
    # exactly "<f4" or "<f8" ("float32" and "f4" leave the byte order open); a list is unhashable
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise FileFormatError(f"field {key!r} has dtype {dtype!r}, not one of {', '.join(map(repr, _DTYPES))}")
    # exactly JSON integers: true compares equal to 1
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise FileFormatError(f"field {key!r} shape must be a list of non-negative integers, got {shape!r}")
    _check_dims(key, shape, dims, sizes)
    # Python integers, so a shape that lies about the data allocates nothing
    nbytes = _DTYPES[dtype].itemsize * math.prod(shape)
    length = 4 * -(-nbytes // 3)
    if not isinstance(data, str) or len(data) != length:
        raise FileFormatError(f"field {key!r} data must be {length} base64 characters for shape {tuple(shape)}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise FileFormatError(f"field {key!r} data is not valid base64: {exc}") from exc
    if len(raw) != nbytes:
        raise FileFormatError(f"field {key!r} data decodes to {len(raw)} bytes, not {nbytes}")
    # astype copies: the heads get owned, writable, native-order arrays
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_DTYPES[dtype])
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"field {key!r} has non-finite entries")
    return arr


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load and validate a format-2 model artifact file."""
    obj = read_json(path, "artifact")
    try:
        version = obj.get("format_version")
        # exactly the JSON integer: true and 2.0 compare equal to 2
        if type(version) is not int or version != ARTIFACT_FORMAT_VERSION:
            raise FileFormatError(
                f"unknown artifact format_version {version!r} (supported: {ARTIFACT_FORMAT_VERSION}); "
                "README's \"Model artifact\" section shows how to migrate a format-1 file"
            )
        vocabulary = LabelVocabulary.from_json(obj["vocabulary"])
        embed_dim = coerce(obj["embed_dim"], int, "embed_dim")
        sizes = {"embed_dim": embed_dim, "label count": len(vocabulary)}
        heads: dict[str, dict[str, np.ndarray]] = {}
        for (head, name), dims in _HEAD_SHAPES.items():
            heads.setdefault(head, {})[name] = _array_from_base64(obj[head][name], f"{head}.{name}", dims, sizes)
        dtypes = {str(a.dtype) for head in heads.values() for a in head.values()}
        if len(dtypes) > 1:
            raise FileFormatError(f"head arrays mix dtypes {', '.join(sorted(dtypes))}; a model computes in one")
        decision_threshold = coerce(obj["decision_threshold"], float, "decision_threshold")
        if not 0.0 < decision_threshold < 1.0:
            raise FileFormatError(f"decision_threshold must be in (0,1), got {decision_threshold!r}")
        config_obj = obj["config"]
        train_config = TrainConfig.from_json(config_obj["train"])
        provider_obj = config_obj.get("provider")
        provider = ProviderConfig.from_json(provider_obj) if provider_obj else None
        check_provider_width(provider, embed_dim)
    except (FileFormatError, ValidationError) as exc:
        raise FileFormatError(str(exc), path=str(path)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"artifact is missing or mistypes a field: {exc}", path=str(path)) from exc
    return ModelArtifact(
        vocabulary=vocabulary,
        projection=ProjectionHead(**heads["projection"]),
        classifier=ClassifierHead(**heads["classifier"]),
        decision_threshold=decision_threshold,
        train_config=train_config,
        provider=provider,
    )
