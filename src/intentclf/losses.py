"""Contrastive losses over pair similarities, with analytic derivatives.

The focal-contrastive objective maps each pair's similarity s to a score u,
u = s for a positive pair and u = clip(m - s, 0, 1) for a negative one, and
passes u with du/ds to one kernel. The kernel applies the focal term

    -alpha * (1 - q)^gamma * log(q),   q = max(u^2, epsilon)

(the floor keeps the log finite) and carries its derivative back to s.
Gradients are zero inside any clamped region. Two baselines are provided
for ablations: the hinge-style online-contrastive loss and a plain
cosine-regression loss.

Every loss returns ``(value, grad)``: the scalar loss and dL/ds for each
similarity it was given, in their order, 0 for a pair it did not use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import ValidationError

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

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {self.alpha}")
        if not self.gamma >= 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.margin <= 2.0:
            raise ValidationError(f"margin must be in (0, 2], got {self.margin}")
        if not 0.0 < self.epsilon <= 1e-3:
            raise ValidationError(f"epsilon must be in (0, 1e-3], got {self.epsilon}")


def _check_sims(sims: np.ndarray) -> np.ndarray:
    if sims.size and (np.max(np.abs(sims)) > 1.0 + _SIM_SLACK or not np.all(np.isfinite(sims))):
        raise ValidationError("pair similarities must lie in [-1, 1]")
    return np.clip(sims, -1.0, 1.0)


def _mean(terms: np.ndarray, dterm_ds: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of the per-pair terms and its derivative; 0 over no pairs."""
    if terms.size == 0:
        return 0.0, dterm_ds
    return float(np.mean(terms)), dterm_ds / terms.size


def _focal_mean(u: np.ndarray, du_ds, config: OFCConfig) -> tuple[float, np.ndarray]:
    """Mean of -alpha*(1-q)^gamma*log(q) at q = max(u^2, epsilon), and dL/ds given du/ds."""
    alpha, gamma = config.alpha, config.gamma
    q_raw = u * u
    q = np.maximum(q_raw, config.epsilon)
    one_minus = 1.0 - q
    log_q = np.log(q)
    value = -alpha * one_minus**gamma * log_q
    if gamma == 0.0:
        dvalue_dq = -alpha / q
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            dvalue_dq = alpha * gamma * one_minus ** (gamma - 1.0) * log_q - alpha * one_minus**gamma / q
        # at q == 1 both factors vanish; the limit of the derivative is 0
        boundary = one_minus == 0.0
        if np.any(boundary):
            value = np.where(boundary, 0.0, value)
            dvalue_dq = np.where(boundary, 0.0, dvalue_dq)
    dq_du = np.where(q_raw < config.epsilon, 0.0, 2.0 * u)
    return _mean(value, dvalue_dq * dq_du * du_ds)


def positive_loss(sims: np.ndarray, config: OFCConfig) -> tuple[float, np.ndarray]:
    """Focal loss over positive-pair similarities: u = s, so q = max(s^2, epsilon).

    Returns the loss and dL/ds for each entry of ``sims``.
    """
    return _focal_mean(_check_sims(sims), 1.0, config)


def negative_loss(sims: np.ndarray, config: OFCConfig) -> tuple[float, np.ndarray]:
    """Focal loss over negative-pair similarities: u = clip(m-s, 0, 1).

    The upper clip caps the incentive at s = margin - 1; without it the raw
    formula would reward pushing negatives apart without bound. Returns the
    loss and dL/ds for each entry of ``sims``.
    """
    u_raw = config.margin - _check_sims(sims)
    du_ds = np.where((u_raw > 0.0) & (u_raw < 1.0), -1.0, 0.0)
    return _focal_mean(np.clip(u_raw, 0.0, 1.0), du_ds, config)


def _on_batch(sims: np.ndarray, mined, pos: tuple, neg: tuple) -> tuple[float, np.ndarray]:
    """The sum of the mined positives' and negatives' (value, dL/ds), as a batch loss.

    Mining names each pair at most once, so each dL/ds lands on its own pair.
    """
    (pos_value, pos_grad), (neg_value, neg_grad) = pos, neg
    grad = np.zeros(sims.size)
    grad[mined.pos_final] = pos_grad
    grad[mined.neg_final] = neg_grad
    return pos_value + neg_value, grad


def ofc_loss(sims: np.ndarray, mined, config: OFCConfig) -> tuple[float, np.ndarray]:
    """Positive plus negative focal loss over the mined pairs of ``sims``.

    ``mined`` (mining's result) names the kept pairs by index into ``sims``.
    When mining kept nothing the loss and its gradient are 0.
    """
    pos = positive_loss(sims[mined.pos_final], config)
    neg = negative_loss(sims[mined.neg_final], config)
    return _on_batch(sims, mined, pos, neg)


def oc_loss(sims: np.ndarray, mined, margin: float) -> tuple[float, np.ndarray]:
    """Hinge-style baseline over mined pairs.

    Mean of (1-s)^2 over retained positives plus mean of max(0, s-margin)^2
    over retained negatives. Feed it standard-mode, p=0 mining so the
    retained sets are exactly the hard pairs; once every pair is separated
    the hinges go inactive and the loss is 0.
    """
    s = _check_sims(sims[mined.pos_final])
    pos = _mean((1.0 - s) ** 2, -2.0 * (1.0 - s))
    hinge = np.maximum(0.0, _check_sims(sims[mined.neg_final]) - margin)
    neg = _mean(hinge**2, 2.0 * hinge)
    return _on_batch(sims, mined, pos, neg)


def cs_loss(sims: np.ndarray, positive: np.ndarray) -> tuple[float, np.ndarray]:
    """Cosine-regression baseline over all pairs: mean (s - t)^2.

    Targets are 1 for positive pairs, 0 for negative pairs. No mining.
    """
    residual = _check_sims(sims) - positive
    return _mean(residual**2, 2.0 * residual)
