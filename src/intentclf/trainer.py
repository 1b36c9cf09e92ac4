"""Projection head, sigmoid classifier, two-stage training and persistence.

Stage one pretrains a two-layer projection over frozen external embeddings
with a contrastive objective on mined pairs. Stage two fine-tunes projection
and classifier jointly under per-label binary cross-entropy. Both stages run
plain SGD with momentum, single-threaded, and are bit-reproducible from
(dataset, config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import JsonConfig, coerce
from .dataset import LabelSet, LabelVocabulary, read_json
from .embedding import ProviderConfig
from .errors import (
    DegenerateProjectionError,
    FileFormatError,
    NoPairsError,
    ValidationError,
)
from .losses import (
    LossOutput,
    OFCConfig,
    cs_loss,
    ofc_loss,
    oc_loss,
)
from .metrics import threshold_scores
from .mining import (
    MiningConfig,
    PairSet,
    batch_similarity_table,
    build_pairs,
    mine,
)

ARTIFACT_FORMAT_VERSION = 1
_LOSS_KINDS = ("ofc", "oc", "cs")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class ProjectionHead:
    """Two-layer tanh MLP whose output is unit-normalized."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, d_in: int, d_hidden: int, d_proj: int, rng: np.random.Generator) -> "ProjectionHead":
        return cls(
            w1=_glorot(rng, d_in, d_hidden),
            b1=np.zeros(d_hidden),
            w2=_glorot(rng, d_hidden, d_proj),
            b2=np.zeros(d_proj),
        )

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_proj(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "ProjectionHead":
        return ProjectionHead(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class ClassifierHead:
    """Per-label logits over the projected space."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, d_proj: int, n_labels: int, rng: np.random.Generator) -> "ClassifierHead":
        return cls(w=_glorot(rng, d_proj, n_labels), b=np.zeros(n_labels))

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
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValidationError("grad_clip_norm must be > 0 or None")


@dataclass
class ModelArtifact:
    """Everything needed to score a query: heads, vocabulary and config."""

    vocabulary: LabelVocabulary
    embed_dim: int
    projection: ProjectionHead
    classifier: ClassifierHead
    decision_threshold: float
    train_config: TrainConfig
    provider: ProviderConfig | None = None
    format_version: int = ARTIFACT_FORMAT_VERSION


# ---------------------------------------------------------------------------
# forward / backward primitives


def _project_batch(x: np.ndarray, head: ProjectionHead):
    a1 = x @ head.w1 + head.b1
    h = np.tanh(a1)
    a2 = h @ head.w2 + head.b2
    norms = np.linalg.norm(a2, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateProjectionError("projection collapsed to a zero vector")
    z = a2 / norms[:, None]
    return z, (x, h, z, norms)


def _classify_batch(z: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Per-label probabilities sigmoid(z w + b) for each row of ``z``."""
    return 1.0 / (1.0 + np.exp(-np.clip(z @ head.w + head.b, -60.0, 60.0)))


def _forward(x: np.ndarray, artifact: ModelArtifact) -> np.ndarray:
    """Label probabilities (n x m) for a batch of embeddings (n x d)."""
    z, _ = _project_batch(x, artifact.projection)
    return _classify_batch(z, artifact.classifier)


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


BCE_EPSILON = 1e-12


def bce_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over all cells, plus dL/dprobs.

    Probabilities are clamped to [eps, 1-eps] inside the log; the gradient is
    zero where the clamp is active.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ValidationError(f"shape mismatch: probs {p.shape} vs targets {y.shape}")
    clamped = np.clip(p, BCE_EPSILON, 1.0 - BCE_EPSILON)
    value = float(np.mean(-(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped))))
    active = (p > BCE_EPSILON) & (p < 1.0 - BCE_EPSILON)
    grad = np.where(active, -y / clamped + (1.0 - y) / (1.0 - clamped), 0.0) / p.size
    return value, grad


def _clip_global_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return [g * scale for g in grads]


def _sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocity: list[np.ndarray],
    lr: float,
    momentum: float,
    clip_norm: float | None,
) -> None:
    if clip_norm is not None:
        grads = _clip_global_norm(grads, clip_norm)
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


# ---------------------------------------------------------------------------
# pair-loss dispatch


def _mining_for_loss(config: TrainConfig) -> MiningConfig:
    if config.loss_kind == "oc":
        # hinge baseline trains on hard pairs only, standard convention
        return MiningConfig(p=0.0, mode="standard", positive_rule=config.mining.positive_rule)
    return config.mining


def _pair_loss(table, config: TrainConfig) -> LossOutput:
    if config.loss_kind == "cs":
        return cs_loss(table.d_pos, table.d_neg)
    mined = mine(table, _mining_for_loss(config))
    if config.loss_kind == "oc":
        return oc_loss(mined, config.ofc.margin)
    return ofc_loss(mined, config.ofc)


def _sim_grads_to_z(out: LossOutput, pair_set: PairSet, z: np.ndarray) -> np.ndarray:
    """Chain dL/ds through s = z_a . z_b to the pair endpoints.

    Row r of the result adds g * z[other end] for each loss entry whose pair
    touches r, one term at a time in entry order: the float additions of a
    plain loop over the entries, so the trained weights do not depend on how
    the scatter is vectorised. Each row's terms are laid out in that order
    along a padded axis, and step k adds every row's k-th term at once.
    Padding adds g = 0, which leaves the sums unchanged bit for bit: they
    start at +0.0 and so never become -0.0.
    """
    ends = pair_set.pairs[out.index]
    rows = ends.ravel()
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    others = ends[:, ::-1].ravel()[order]
    grads = np.repeat(out.grad, 2)[order]
    counts = np.bincount(rows, minlength=len(z))
    step = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    width = int(counts.max(initial=0))
    g = np.zeros((width, len(z)))
    src = np.zeros((width, len(z)), dtype=np.intp)
    g[step, rows] = grads
    src[step, rows] = others
    d_z = np.zeros_like(z)
    for k in range(width):
        d_z += g[k][:, None] * z[src[k]]
    return d_z


def _aligned(x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` (n x d embeddings) and ``y`` (n x m label rows) as float64 matrices."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise ValidationError(f"expected n x d embeddings and n x m label rows, got {x.shape} and {y.shape}")
    return x, y


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# training stages


def _pretrain_step(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, config: TrainConfig
) -> tuple[LossOutput, list[np.ndarray]]:
    """Pair loss of one batch and its gradients [dw1, db1, dw2, db2] in ``head``."""
    z, cache = _project_batch(x, head)
    pair_set = build_pairs(y, config.mining.positive_rule)
    table = batch_similarity_table(z, pair_set)
    out = _pair_loss(table, config)
    d_z = _sim_grads_to_z(out, pair_set, z)
    return out, _projection_backward(d_z, cache, head)


def pretrain(x: np.ndarray, y: np.ndarray, config: TrainConfig) -> tuple[ProjectionHead, list[float]]:
    """Contrastive pretraining of the projection head.

    ``x`` holds one embedding per row and ``y`` its multi-hot label row.
    Each epoch reshuffles with the seeded generator, mines pairs per batch
    and steps SGD on the configured pair loss. Returns the head and the
    per-epoch mean batch loss. A trailing batch of one row has no pairs and
    is left out of its epoch.
    """
    x, y = _aligned(x, y)
    if not (y != y[:1]).any():  # also rejects fewer than 2 rows
        raise ValidationError("pretraining needs at least 2 distinct label sets")
    init_rng = np.random.default_rng([config.seed, 101])
    shuffle_rng = np.random.default_rng([config.seed, 102])
    head = ProjectionHead.init(x.shape[1], config.d_hidden, config.d_proj, init_rng)
    velocity = [np.zeros_like(p) for p in head.params()]
    history: list[float] = []
    for _ in range(config.epochs_pretrain):
        order = shuffle_rng.permutation(len(x))
        batch_losses: list[float] = []
        for chunk in _batches(order, config.batch_size):
            if len(chunk) < 2:
                continue
            out, grads = _pretrain_step(x[chunk], y[chunk], head, config)
            _sgd_step(head.params(), grads, velocity, config.lr_pretrain, config.momentum, config.grad_clip_norm)
            batch_losses.append(out.value)
        history.append(float(np.mean(batch_losses)))
    return head, history


def _finetune_step(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, classifier: ClassifierHead
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """BCE of one batch and its gradients in ``head`` and in ``classifier`` [dw, db]."""
    z, cache = _project_batch(x, head)
    probs = _classify_batch(z, classifier)
    value, d_probs = bce_loss(probs, y)
    d_logits = d_probs * probs * (1.0 - probs)
    grads_c = [z.T @ d_logits, d_logits.sum(axis=0)]
    d_z = d_logits @ classifier.w.T
    return value, _projection_backward(d_z, cache, head), grads_c


def finetune(
    x: np.ndarray,
    y: np.ndarray,
    vocabulary: LabelVocabulary,
    projection: ProjectionHead,
    config: TrainConfig,
    provider: ProviderConfig | None = None,
) -> tuple[ModelArtifact, list[float]]:
    """Joint projection+classifier training under per-label BCE.

    ``y`` holds the multi-hot label rows of ``x``, columns in ``vocabulary``
    order. The given projection is copied, not mutated. Returns the packaged
    artifact and the per-epoch mean batch loss.
    """
    x, y = _aligned(x, y)
    if not len(x):
        raise ValidationError("finetuning needs at least 1 sample")
    if x.shape[1] != projection.d_in:
        raise ValidationError(
            f"projection expects dim {projection.d_in}, embeddings have {x.shape[1]}"
        )
    if y.shape[1] != len(vocabulary):
        raise ValidationError(f"label rows have {y.shape[1]} columns for {len(vocabulary)} labels")
    head = projection.copy()
    init_rng = np.random.default_rng([config.seed, 201])
    shuffle_rng = np.random.default_rng([config.seed, 202])
    classifier = ClassifierHead.init(head.d_proj, len(vocabulary), init_rng)
    velocity_p = [np.zeros_like(p) for p in head.params()]
    velocity_c = [np.zeros_like(p) for p in classifier.params()]
    history: list[float] = []
    for _ in range(config.epochs_finetune):
        order = shuffle_rng.permutation(len(x))
        batch_losses: list[float] = []
        for chunk in _batches(order, config.batch_size):
            value, grads_p, grads_c = _finetune_step(x[chunk], y[chunk], head, classifier)
            _sgd_step(head.params(), grads_p, velocity_p, config.lr_finetune, config.momentum, config.grad_clip_norm)
            _sgd_step(classifier.params(), grads_c, velocity_c, config.lr_finetune, config.momentum, config.grad_clip_norm)
            batch_losses.append(value)
        history.append(float(np.mean(batch_losses)))
    artifact = ModelArtifact(
        vocabulary=vocabulary,
        embed_dim=head.d_in,
        projection=head,
        classifier=classifier,
        decision_threshold=config.decision_threshold,
        train_config=config,
        provider=provider,
    )
    return artifact, history


def predict(embedding: np.ndarray, artifact: ModelArtifact) -> tuple[LabelSet, dict[str, float]]:
    """Labels above the decision threshold, falling back to the argmax label.

    The returned label set is never empty: a router must always route. The
    score map covers the full vocabulary in vocabulary order.
    """
    x = np.asarray(embedding, dtype=np.float64)
    if x.shape != (artifact.embed_dim,):
        raise ValidationError(
            f"expected embedding of dim {artifact.embed_dim}, got shape {x.shape}"
        )
    probs = _forward(x[None, :], artifact)
    chosen = threshold_scores(probs, artifact.decision_threshold)[0]
    vocab = artifact.vocabulary.labels
    labels = frozenset(label for label, hit in zip(vocab, chosen) if hit)
    return labels, {label: float(p) for label, p in zip(vocab, probs[0])}


def score_samples(x: np.ndarray, artifact: ModelArtifact) -> np.ndarray:
    """Per-label probability matrix (n x m) for embeddings ``x`` (n x d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != artifact.embed_dim:
        raise ValidationError(
            f"expected n x {artifact.embed_dim} embeddings, got shape {x.shape}"
        )
    return _forward(x, artifact)


def projection_margin_gap(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, rule: str = "exact"
) -> float:
    """Mean positive-pair similarity minus mean negative-pair similarity.

    Measured in projection space over all pairs of the rows of ``x``, with
    polarities from their label rows ``y``. Raises :class:`NoPairsError` if
    either polarity is absent.
    """
    x, y = _aligned(x, y)
    pair_set = build_pairs(y, rule)  # rejects fewer than 2 rows
    z, _ = _project_batch(x, head)
    table = batch_similarity_table(z, pair_set)
    if not table.d_pos or not table.d_neg:
        raise NoPairsError("margin gap needs both pair polarities")
    pos = np.mean(table.d_pos.sim)
    neg = np.mean(table.d_neg.sim)
    return float(pos - neg)


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


def _head_json(head: ProjectionHead | ClassifierHead) -> dict:
    return {f.name: getattr(head, f.name).tolist() for f in fields(head)}


def save_artifact(artifact: ModelArtifact, path: str | Path) -> None:
    """Serialize the artifact as one JSON object with row-major float arrays."""
    obj = {
        "format_version": artifact.format_version,
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
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load and validate a model artifact file."""
    obj = read_json(path, "artifact")
    try:
        version = obj.get("format_version")
        # exactly the JSON integer: true and 1.0 compare equal to 1
        if type(version) is not int or version != ARTIFACT_FORMAT_VERSION:
            raise FileFormatError(
                f"unknown artifact format_version {version!r} (supported: {ARTIFACT_FORMAT_VERSION})"
            )
        vocabulary = LabelVocabulary.from_json(obj["vocabulary"])
        embed_dim = coerce(obj["embed_dim"], int, "embed_dim")
        sizes = {"embed_dim": embed_dim, "label count": len(vocabulary)}
        heads: dict[str, dict[str, np.ndarray]] = {}
        for (head, name), dims in _HEAD_SHAPES.items():
            key, value = f"{head}.{name}", obj[head][name]
            try:
                arr = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise FileFormatError(f"field {key!r} is not a numeric array") from exc
            if not np.all(np.isfinite(arr)):
                raise FileFormatError(f"field {key!r} has non-finite entries")
            if arr.ndim != len(dims):
                raise FileFormatError(f"field {key!r} must be {len(dims)}-dimensional")
            for dim, size in zip(dims, arr.shape):
                if sizes.setdefault(dim, size) != size:
                    raise FileFormatError(f"field {key!r} has shape {arr.shape}, but the {dim} is {sizes[dim]}")
            heads.setdefault(head, {})[name] = arr
        decision_threshold = coerce(obj["decision_threshold"], float, "decision_threshold")
        if not 0.0 < decision_threshold < 1.0:
            raise FileFormatError(f"decision_threshold must be in (0,1), got {decision_threshold!r}")
        config_obj = obj["config"]
        train_config = TrainConfig.from_json(config_obj["train"])
        provider_obj = config_obj.get("provider")
        provider = ProviderConfig.from_json(provider_obj) if provider_obj else None
    except FileFormatError as exc:
        raise FileFormatError(str(exc), path=str(path)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"artifact is missing or mistypes a field: {exc}", path=str(path)) from exc
    return ModelArtifact(
        vocabulary=vocabulary,
        embed_dim=embed_dim,
        projection=ProjectionHead(**heads["projection"]),
        classifier=ClassifierHead(**heads["classifier"]),
        decision_threshold=decision_threshold,
        train_config=train_config,
        provider=provider,
        format_version=version,
    )
