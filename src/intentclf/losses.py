"""Contrastive losses over pair similarities, with analytic derivatives.

The focal-contrastive objective scores a positive pair through q = s^2 and a
negative pair through q = clip(m - s, 0, 1)^2, then applies the focal term

    -alpha * (1 - q)^gamma * log(q)

with q floored at ``epsilon`` so the log never diverges. Gradients are zero
inside any clamped region. Two baselines are provided for ablations: the
hinge-style online-contrastive loss and a plain cosine-regression loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import NoPairsError, ValidationError
from .mining import MinedPairs, PairSims

_REDUCTIONS = ("mean", "sum")
_SIM_SLACK = 1e-6


@dataclass(frozen=True)
class OFCConfig(JsonConfig):
    """Focal-contrastive hyperparameters.

    alpha: positive weight factor; gamma: focusing exponent; margin: the
    similarity offset below which a negative pair is free; epsilon: floor
    inside the log.
    """

    alpha: float = 1.0
    gamma: float = 2.0
    margin: float = 0.5
    epsilon: float = 1e-12
    reduction: str = "mean"

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")
        if not self.gamma >= 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.margin <= 2.0:
            raise ValidationError(f"margin must be in (0, 2], got {self.margin}")
        if not 0.0 < self.epsilon <= 1e-3:
            raise ValidationError(f"epsilon must be in (0, 1e-3], got {self.epsilon}")
        if self.reduction not in _REDUCTIONS:
            raise ValidationError(f"reduction must be one of {_REDUCTIONS}")


@dataclass(frozen=True)
class LossOutput:
    """A scalar loss plus dL/ds for every contributing pair.

    ``grad[k]`` is the derivative with respect to the similarity of pair
    ``index[k]``; entries follow the order of the pairs the loss was given.
    """

    value: float
    index: np.ndarray
    grad: np.ndarray


def _no_grads() -> LossOutput:
    return LossOutput(value=0.0, index=np.zeros(0, dtype=np.intp), grad=np.zeros(0))


def _check_sims(sims: np.ndarray) -> np.ndarray:
    if sims.size and (np.max(np.abs(sims)) > 1.0 + _SIM_SLACK or not np.all(np.isfinite(sims))):
        raise ValidationError("pair similarities must lie in [-1, 1]")
    return np.clip(sims, -1.0, 1.0)


def _focal(q: np.ndarray, alpha: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element -alpha*(1-q)^gamma*log(q) and its derivative in q, q in [eps, 1]."""
    one_minus = 1.0 - q
    log_q = np.log(q)
    value = -alpha * one_minus**gamma * log_q
    if gamma == 0.0:
        dvalue = -alpha / q
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            dvalue = alpha * gamma * one_minus ** (gamma - 1.0) * log_q - alpha * one_minus**gamma / q
        # at q == 1 both factors vanish; the limit of the derivative is 0
        boundary = one_minus == 0.0
        if np.any(boundary):
            value = np.where(boundary, 0.0, value)
            dvalue = np.where(boundary, 0.0, dvalue)
    return value, dvalue


def _reduce(terms: np.ndarray, dterm_ds: np.ndarray, reduction: str) -> tuple[float, np.ndarray]:
    if terms.size == 0:
        return 0.0, dterm_ds
    if reduction == "mean":
        return float(np.mean(terms)), dterm_ds / terms.size
    return float(np.sum(terms)), dterm_ds


def positive_loss(pairs: PairSims, config: OFCConfig) -> LossOutput:
    """Focal loss over positive-pair similarities: q = max(s^2, epsilon)."""
    s = _check_sims(pairs.sim)
    q_raw = s * s
    clamped = q_raw < config.epsilon
    q = np.maximum(q_raw, config.epsilon)
    term, dterm_dq = _focal(q, config.alpha, config.gamma)
    dq_ds = np.where(clamped, 0.0, 2.0 * s)
    value, grad = _reduce(term, dterm_dq * dq_ds, config.reduction)
    return LossOutput(value=value, index=pairs.index, grad=grad)


def negative_loss(pairs: PairSims, config: OFCConfig) -> LossOutput:
    """Focal loss over negative-pair similarities: q = max(clip(m-s,0,1)^2, epsilon).

    The upper clip caps the incentive at s = margin - 1; without it the raw
    formula would reward pushing negatives apart without bound.
    """
    s = _check_sims(pairs.sim)
    u_raw = config.margin - s
    u = np.clip(u_raw, 0.0, 1.0)
    du_ds = np.where((u_raw > 0.0) & (u_raw < 1.0), -1.0, 0.0)
    q_raw = u * u
    clamped = q_raw < config.epsilon
    q = np.maximum(q_raw, config.epsilon)
    term, dterm_dq = _focal(q, config.alpha, config.gamma)
    dq_du = np.where(clamped, 0.0, 2.0 * u)
    value, grad = _reduce(term, dterm_dq * dq_du * du_ds, config.reduction)
    return LossOutput(value=value, index=pairs.index, grad=grad)


def _empty_mined(mined: MinedPairs) -> LossOutput | None:
    """Zero loss when mining retained nothing from a non-empty batch.

    Raises :class:`NoPairsError` when the batch had no pairs of either
    polarity to begin with; hinges going inactive is not an error.
    """
    if mined.pos_final or mined.neg_final:
        return None
    table_sizes = (
        mined.counts.h_pos + mined.counts.o_pos + mined.counts.h_neg + mined.counts.o_neg
    )
    if table_sizes == 0:
        raise NoPairsError("no pairs of either polarity")
    return _no_grads()


def ofc_loss(mined: MinedPairs, config: OFCConfig) -> LossOutput:
    """Positive plus negative focal loss over the mined pair sets."""
    empty = _empty_mined(mined)
    if empty is not None:
        return empty
    pos = positive_loss(mined.pos_final, config)
    neg = negative_loss(mined.neg_final, config)
    return LossOutput(
        value=pos.value + neg.value,
        index=np.concatenate((pos.index, neg.index)),
        grad=np.concatenate((pos.grad, neg.grad)),
    )


def oc_loss(mined: MinedPairs, margin: float = 0.5) -> LossOutput:
    """Hinge-style baseline over mined pairs.

    Mean of (1-s)^2 over retained positives plus mean of max(0, s-margin)^2
    over retained negatives. Feed it standard-mode, p=0 mining so the
    retained sets are exactly the hard pairs; once every pair is separated
    the hinges go inactive and the loss is 0.
    """
    empty = _empty_mined(mined)
    if empty is not None:
        return empty
    value = 0.0
    pos_grad = neg_grad = np.zeros(0)
    if mined.pos_final:
        s = _check_sims(mined.pos_final.sim)
        value += float(np.mean((1.0 - s) ** 2))
        pos_grad = -2.0 * (1.0 - s) / s.size
    if mined.neg_final:
        s = _check_sims(mined.neg_final.sim)
        hinge = np.maximum(0.0, s - margin)
        value += float(np.mean(hinge**2))
        neg_grad = 2.0 * hinge / s.size
    return LossOutput(
        value=value,
        index=np.concatenate((mined.pos_final.index, mined.neg_final.index)),
        grad=np.concatenate((pos_grad, neg_grad)),
    )


def cs_loss(pos_pairs: PairSims, neg_pairs: PairSims) -> LossOutput:
    """Cosine-regression baseline over all pairs: mean (s - t)^2.

    Targets are 1 for positive pairs, 0 for negative pairs. No mining.
    """
    if not pos_pairs and not neg_pairs:
        return _no_grads()
    sims = _check_sims(np.concatenate((pos_pairs.sim, neg_pairs.sim)))
    targets = np.concatenate([np.ones(len(pos_pairs)), np.zeros(len(neg_pairs))])
    residual = sims - targets
    value = float(np.mean(residual**2))
    grad = 2.0 * residual / residual.size
    return LossOutput(
        value=value, index=np.concatenate((pos_pairs.index, neg_pairs.index)), grad=grad
    )
