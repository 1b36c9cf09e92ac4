"""Analytic gradients of the training stages against central finite differences.

A verification tool, kept out of the training module. Random check points are
drawn away from the clamps and hinges where no gradient is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .losses import LossOutput, cs_loss, ofc_loss, oc_loss
from .mining import (
    MinedCounts,
    MinedPairs,
    MiningConfig,
    PairSims,
    batch_similarity_table,
    build_pairs,
    mine,
)
from .trainer import (
    ClassifierHead,
    ProjectionHead,
    TrainConfig,
    _classify_batch,
    _mining_for_loss,
    _project_batch,
    _projection_backward,
    _sim_grads_to_z,
    bce_loss,
)


@dataclass(frozen=True)
class GradCheckReport:
    component: str
    points: int
    tolerance: float
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a-b| / max(|a|+|b|, 1e-3), maximized.

    The floor makes the comparison quasi-absolute for near-zero gradients,
    where finite differences are dominated by roundoff.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-3)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _central_difference(f, params: list[np.ndarray], step_scale: float = 1e-5) -> list[np.ndarray]:
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            h = step_scale * max(1.0, abs(orig))
            flat_p[i] = orig + h
            f_plus = f()
            flat_p[i] = orig - h
            f_minus = f()
            flat_p[i] = orig
            flat_g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


_GRAD_COMPONENTS = ("projection+ofc", "projection+oc", "projection+cs", "classifier+bce", "classifier")


def _fixed_mined(pos: PairSims, neg: PairSims) -> MinedPairs:
    return MinedPairs(
        pos_final=pos,
        neg_final=neg,
        t_neg=None,
        t_pos=None,
        counts=MinedCounts(len(pos), len(neg), 0, 0, 0, 0),
    )


def _away_from_kinks(pos: PairSims, neg: PairSims, margin: float, delta: float = 1e-3) -> bool:
    s = np.abs(pos.sim)
    if np.any((s < delta) | (np.abs(s - 1.0) < 1e-9)):
        return False
    return not np.any((np.abs(neg.sim - margin) < delta) | (np.abs(neg.sim - (margin - 1.0)) < delta))


def _grad_point_projection(loss_kind: str, rng: np.random.Generator):
    """A random batch, head, and frozen mined pair sets away from kinks."""
    d_in, d_hidden, d_proj, batch = 10, 7, 5, 6
    base_config = TrainConfig(
        loss_kind=loss_kind,
        d_hidden=d_hidden,
        d_proj=d_proj,
        mining=MiningConfig(p=50.0, mode="literal"),
    )
    pool = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=np.float64)
    x = rng.normal(size=(batch, d_in))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = pool[rng.integers(0, len(pool), size=batch)]
    head = ProjectionHead.init(d_in, d_hidden, d_proj, rng)
    z, _ = _project_batch(x, head)
    pair_set = build_pairs(labels, "exact")
    table = batch_similarity_table(z, pair_set)
    if not table.d_pos or not table.d_neg:
        return None
    if loss_kind == "cs":
        pos_idx, neg_idx = table.d_pos.index, table.d_neg.index
    else:
        mined = mine(table, _mining_for_loss(base_config))
        if not mined.pos_final and not mined.neg_final:
            return None
        pos_idx, neg_idx = mined.pos_final.index, mined.neg_final.index
    # freeze the retained pairs in table order
    frozen_pos = table.d_pos.take(np.isin(table.d_pos.index, pos_idx))
    frozen_neg = table.d_neg.take(np.isin(table.d_neg.index, neg_idx))
    if not _away_from_kinks(frozen_pos, frozen_neg, base_config.ofc.margin):
        return None
    return x, head, pair_set, frozen_pos.index, frozen_neg.index, base_config


def _projection_loss_on_fixed(x, head, pair_set, pos_idx, neg_idx, config) -> tuple[float, LossOutput, np.ndarray, tuple]:
    z, cache = _project_batch(x, head)
    gram = z @ z.T
    a, b = pair_set.pairs.T
    pos = PairSims(pos_idx, gram[a[pos_idx], b[pos_idx]])
    neg = PairSims(neg_idx, gram[a[neg_idx], b[neg_idx]])
    if config.loss_kind == "cs":
        out = cs_loss(pos, neg)
    elif config.loss_kind == "oc":
        out = oc_loss(_fixed_mined(pos, neg), config.ofc.margin)
    else:
        out = ofc_loss(_fixed_mined(pos, neg), config.ofc)
    return out.value, out, z, cache


def _check_projection_point(loss_kind: str, rng: np.random.Generator) -> float | None:
    point = _grad_point_projection(loss_kind, rng)
    if point is None:
        return None
    x, head, pair_set, pos_idx, neg_idx, config = point
    value, out, z, cache = _projection_loss_on_fixed(x, head, pair_set, pos_idx, neg_idx, config)
    d_z = _sim_grads_to_z(out, pair_set, z)
    analytic = _projection_backward(d_z, cache, head)

    def f() -> float:
        v, _, _, _ = _projection_loss_on_fixed(x, head, pair_set, pos_idx, neg_idx, config)
        return v

    numeric = _central_difference(f, head.params())
    return max(
        max_relative_error(a, n) for a, n in zip(analytic, numeric)
    )


def _check_classifier_point(rng: np.random.Generator) -> float:
    batch, d_proj, n_labels = 6, 5, 4
    z = rng.normal(size=(batch, d_proj))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    y = (rng.random(size=(batch, n_labels)) < 0.4).astype(np.float64)
    head = ClassifierHead.init(d_proj, n_labels, rng)

    def forward() -> tuple[float, np.ndarray, np.ndarray]:
        probs = _classify_batch(z, head)
        value, d_probs = bce_loss(probs, y)
        return value, probs, d_probs

    value, probs, d_probs = forward()
    d_logits = d_probs * probs * (1.0 - probs)
    analytic = [z.T @ d_logits, d_logits.sum(axis=0)]
    numeric = _central_difference(lambda: forward()[0], head.params())
    return max(max_relative_error(a, n) for a, n in zip(analytic, numeric))


def grad_check(
    component: str, seed: int = 0, tolerance: float = 1e-4, points: int = 10
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``component`` is ``classifier`` (BCE head) or ``projection+<loss_kind>``
    for the full contrastive chain. Random points that land too close to a
    clamp or hinge are redrawn, since no gradient is defined there.
    """
    comp = component.lower()
    if comp == "classifier+bce":
        comp = "classifier"
    if comp not in _GRAD_COMPONENTS:
        raise ValidationError(f"component must be one of {_GRAD_COMPONENTS}, got {component!r}")
    worst = 0.0
    for point in range(points):
        if comp == "classifier":
            err = _check_classifier_point(np.random.default_rng([seed, point]))
        else:
            loss_kind = comp.split("+", 1)[1]
            err = None
            for attempt in range(200):
                err = _check_projection_point(loss_kind, np.random.default_rng([seed, point, attempt]))
                if err is not None:
                    break
            if err is None:
                raise ValidationError("could not draw a valid gradient-check point")
        worst = max(worst, err)
    return GradCheckReport(component=comp, points=points, tolerance=tolerance, max_rel_error=worst)
