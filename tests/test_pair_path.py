"""The array pair path against the original per-pair loops.

Pair building and the similarity vector must produce exactly the pairs and
floats of the per-pair loops in ``bf_oracles``. The gradient scatter,
``d_z = (G + G^T) Z``, adds the same terms in another order, so it must agree
with the loop to rounding: elementwise within the standard bound for a sum
of k terms, ``k * eps * S``, where k is the number of pairs with a nonzero
dL/ds and S is the loop run on |dL/ds| and |z| (exactly equal where S is 0).
Each random batch runs all three loss kinds, so the scatter sees the
gradients of ofc (mined pairs), oc (hard pairs only) and cs (every pair).
"""

from __future__ import annotations

import numpy as np

from intentclf import MiningConfig, TrainConfig
from intentclf.mining import batch_similarity_table, build_pairs, mine
from intentclf.trainer import _pair_loss, _sim_grads_to_z
from bf_oracles import build_pairs_loop, multi_hot, sim_grads_to_z_loop

_POOL = ["a", "b", "c", "d"]


def _random_batch(rng: np.random.Generator, shape: str):
    """Labels, positive rule and unit rows z for one batch of a given shape.

    ``mixed``: random label sets. ``all-positive``: one label set everywhere.
    ``all-negative``: pairwise disjoint singletons. ``separated``: rows with
    equal label sets share one vector, so every positive pair sits at
    similarity 1 above every negative and standard p=0 mining keeps nothing.
    """
    n = int(rng.integers(2, 21))
    if shape == "all-positive":
        labels = [frozenset({"a", "b"})] * n
    elif shape == "all-negative":
        labels = [frozenset({f"l{i}"}) for i in range(n)]
    else:
        labels = [
            frozenset(rng.choice(_POOL, size=int(rng.integers(1, 3)), replace=False))
            for _ in range(n)
        ]
    rule = "exact" if shape == "separated" or rng.integers(0, 2) else "overlap"
    if shape == "separated":
        vectors = {s: rng.normal(size=6) for s in labels}
        z = np.stack([vectors[s] for s in labels])
    else:
        z = rng.normal(size=(n, 6))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return labels, rule, z


def _loop_sims(z: np.ndarray, pairs) -> list:
    gram = np.clip(z @ z.T, -1.0, 1.0)
    return [float(gram[a, b]) for a, b, _ in pairs]


def _assert_scatter_matches_loop(grad: np.ndarray, pair_set, pairs, z: np.ndarray, case) -> None:
    grads = list(enumerate(grad.tolist()))
    expected = sim_grads_to_z_loop(grads, pairs, z)
    scale = sim_grads_to_z_loop([(i, abs(g)) for i, g in grads], pairs, np.abs(z))
    error = np.abs(_sim_grads_to_z(grad, pair_set, z) - expected)
    terms = np.count_nonzero(grad)
    assert (error <= terms * np.finfo(np.float64).eps * scale).all(), case


def test_array_path_matches_loops():
    rng = np.random.default_rng(20240611)
    shapes = ("mixed", "all-positive", "all-negative", "separated")
    seen = {"overlap": 0, "exact": 0, "one-polarity": 0, "kept-nothing": 0}
    for case in range(1000):
        shape = shapes[case % len(shapes)]
        labels, rule, z = _random_batch(rng, shape)
        seen[rule] += 1

        loop_pairs = build_pairs_loop(labels, rule)
        pair_set = build_pairs(multi_hot(labels), rule)
        assert pair_set.pairs.tolist() == [[a, b] for a, b, _ in loop_pairs], case
        assert pair_set.positive.tolist() == [positive for _, _, positive in loop_pairs], case

        sims = batch_similarity_table(z, pair_set)
        assert sims.tobytes() == np.array(_loop_sims(z, loop_pairs)).tobytes(), case
        seen["one-polarity"] += pair_set.positive.all() or not pair_set.positive.any()

        p = 0.0 if shape == "separated" else float(rng.choice([0.0, 10.0, 37.0, 100.0]))
        mode = "standard" if shape == "separated" or rng.integers(0, 2) else "literal"
        for loss_kind in ("ofc", "oc", "cs"):
            config = TrainConfig(
                loss_kind=loss_kind, mining=MiningConfig(p=p, mode=mode, positive_rule=rule)
            )
            _, grad = _pair_loss(sims, pair_set.positive, config)
            if loss_kind != "cs":
                mined = mine(sims, pair_set.positive, config.mining)
                seen["kept-nothing"] += mined.pos_final.size + mined.neg_final.size == 0

            _assert_scatter_matches_loop(grad, pair_set, loop_pairs, z, (case, loss_kind))
    assert all(count > 0 for count in seen.values()), seen

