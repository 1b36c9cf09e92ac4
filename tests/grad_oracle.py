"""Verification oracles for training: analytic gradients against central
finite differences, and the projection margin gap.

The gradient oracle differentiates the training steps themselves:
``trainer._pretrain_step`` with mining live for the projection components,
and ``trainer._finetune_step`` over projection and classifier together for
the classifier component. Random check points are redrawn where no gradient
is defined: when a kept pair sits at a clamp or hinge, or when a
perturbation changes which pairs mining keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from intentclf import trainer
from intentclf.errors import ValidationError
from intentclf.mining import MiningConfig, batch_similarity_table, build_pairs, mine
from intentclf.trainer import ClassifierHead, ProjectionHead, TrainConfig


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


def _away_from_kinks(pos: np.ndarray, neg: np.ndarray, margin: float, delta: float = 1e-3) -> bool:
    s = np.abs(pos)
    if np.any((s < delta) | (np.abs(s - 1.0) < 1e-9)):
        return False
    return not np.any((np.abs(neg - margin) < delta) | (np.abs(neg - (margin - 1.0)) < delta))


def _used_pairs(x, labels, head: ProjectionHead, config: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch's pair similarities, polarities, and a mask of the pairs its loss uses."""
    z, _ = trainer._project_batch(x, head)
    pair_set = build_pairs(labels, config.mining.positive_rule)
    sims = batch_similarity_table(z, pair_set)
    used = np.full(sims.size, config.loss_kind == "cs")
    if config.loss_kind != "cs":
        mined = mine(sims, pair_set.positive, config.mining)
        used[mined.pos_final] = used[mined.neg_final] = True
    return sims, pair_set.positive, used


def _check_projection_point(loss_kind: str, rng: np.random.Generator) -> float | None:
    """Worst error of ``_pretrain_step`` at a random batch and head, or None to redraw."""
    d_in, d_hidden, d_proj, batch = 10, 7, 5, 6
    config = TrainConfig(
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
    sims, positive, used = _used_pairs(x, labels, head, config)
    if positive.all() or not positive.any() or not used.any():
        return None
    _, (analytic,) = trainer._pretrain_step(x, labels, head, config)
    if not _away_from_kinks(sims[used & positive], sims[used & ~positive], config.ofc.margin):
        return None
    same_pairs = True

    def f() -> float:
        nonlocal same_pairs
        same_pairs &= np.array_equal(_used_pairs(x, labels, head, config)[2], used)
        return trainer._pretrain_step(x, labels, head, config)[0]

    numeric = _central_difference(f, head.params())
    if not same_pairs:
        return None
    return max(max_relative_error(a, n) for a, n in zip(analytic, numeric))


def _check_classifier_point(rng: np.random.Generator, saturated: bool) -> float:
    """Worst error of ``_finetune_step`` over projection and classifier parameters.

    A ``saturated`` point puts the first two label columns' logits near +40
    and -40, each on the wrong side of its targets.
    """
    d_in, d_hidden, d_proj, n_labels, batch = 10, 7, 5, 4, 6
    x = rng.normal(size=(batch, d_in))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = (rng.random(size=(batch, n_labels)) < 0.4).astype(np.float64)
    head = ProjectionHead.init(d_in, d_hidden, d_proj, rng)
    classifier = ClassifierHead.init(d_proj, n_labels, rng)
    if saturated:
        classifier.b[:2] = [40.0, -40.0]
        y[:, :2] = [0.0, 1.0]
    _, (grads_p, grads_c) = trainer._finetune_step(x, y, head, classifier)
    numeric = _central_difference(
        lambda: trainer._finetune_step(x, y, head, classifier)[0], head.params() + classifier.params()
    )
    return max(max_relative_error(a, n) for a, n in zip(grads_p + grads_c, numeric))


def grad_check(
    component: str, seed: int = 0, tolerance: float = 1e-4, points: int = 10
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``component`` is ``classifier`` (the BCE finetune step, projection and
    classifier; its first point has saturated logits) or
    ``projection+<loss_kind>`` (the contrastive pretrain step). Random
    points where no gradient is defined are redrawn.
    """
    comp = component.lower()
    if comp == "classifier+bce":
        comp = "classifier"
    if comp not in _GRAD_COMPONENTS:
        raise ValidationError(f"component must be one of {_GRAD_COMPONENTS}, got {component!r}")
    worst = 0.0
    for point in range(points):
        if comp == "classifier":
            err = _check_classifier_point(np.random.default_rng([seed, point]), saturated=point == 0)
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


def projection_margin_gap(
    x: np.ndarray, y: np.ndarray, head: ProjectionHead, rule: str = "exact"
) -> float:
    """Mean positive-pair similarity minus mean negative-pair similarity.

    Measured in projection space over all pairs of the rows of ``x``, with
    polarities from their label rows ``y``. Raises ``ValueError`` if either
    polarity is absent.
    """
    x, y = trainer._aligned(x, y)
    pair_set = build_pairs(y, rule)  # rejects fewer than 2 rows
    z, _ = trainer._project_batch(x, head)
    sims = batch_similarity_table(z, pair_set)
    positive = pair_set.positive
    if positive.all() or not positive.any():
        raise ValueError("margin gap needs both pair polarities")
    return float(np.mean(sims[positive]) - np.mean(sims[~positive]))
