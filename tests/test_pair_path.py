"""The array pair path against the original per-pair loops, byte for byte.

Training is bit-reproducible only if pair building, the similarity table and
the gradient scatter produce exactly the floats the per-pair loops in
``bf_oracles`` produce. Each random batch runs all three loss kinds, so the
scatter sees the gradient orders of ofc (mined positives, then negatives), oc
(hard pairs only) and cs (every pair in table order).
"""

from __future__ import annotations

import numpy as np

from intentclf import (
    LossOutput,
    MiningConfig,
    TrainConfig,
    batch_similarity_table,
    build_pairs,
    mine,
)
from intentclf.trainer import _mining_for_loss, _pair_loss, _sim_grads_to_z
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


def _loop_table(z: np.ndarray, pairs) -> tuple[list, list]:
    gram = np.clip(z @ z.T, -1.0, 1.0)
    d_pos, d_neg = [], []
    for index, (a, b, positive) in enumerate(pairs):
        (d_pos if positive else d_neg).append((index, float(gram[a, b])))
    return d_pos, d_neg


def test_array_path_matches_loops_byte_for_byte():
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

        loop_pos, loop_neg = _loop_table(z, loop_pairs)
        table = batch_similarity_table(z, pair_set)
        for side, loop_side in ((table.d_pos, loop_pos), (table.d_neg, loop_neg)):
            assert side.index.tolist() == [i for i, _ in loop_side], case
            assert side.sim.tobytes() == np.array([s for _, s in loop_side]).tobytes(), case
        seen["one-polarity"] += not loop_pos or not loop_neg

        p = 0.0 if shape == "separated" else float(rng.choice([0.0, 10.0, 37.0, 100.0]))
        mode = "standard" if shape == "separated" or rng.integers(0, 2) else "literal"
        for loss_kind in ("ofc", "oc", "cs"):
            config = TrainConfig(
                loss_kind=loss_kind, mining=MiningConfig(p=p, mode=mode, positive_rule=rule)
            )
            out = _pair_loss(table, config)
            if loss_kind == "cs":
                expected_order = np.concatenate((table.d_pos.index, table.d_neg.index))
            else:
                mined = mine(table, _mining_for_loss(config))
                expected_order = np.concatenate((mined.pos_final.index, mined.neg_final.index))
            assert out.index.tolist() == expected_order.tolist(), (case, loss_kind)
            seen["kept-nothing"] += out.index.size == 0

            d_z = _sim_grads_to_z(out, pair_set, z)
            loop_grads = list(zip(out.index.tolist(), out.grad.tolist()))
            expected = sim_grads_to_z_loop(loop_grads, loop_pairs, z)
            assert d_z.tobytes() == expected.tobytes(), (case, loss_kind)
    assert all(count > 0 for count in seen.values()), seen


def test_scatter_sums_repeated_pairs_in_entry_order():
    # a loss may name a pair more than once; each entry still adds in order
    rng = np.random.default_rng(5)
    labels = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"}), frozenset({"a"})]
    z = rng.normal(size=(4, 3))
    index = np.array([3, 0, 3, 5, 0, 1])
    grad = rng.normal(size=index.size)
    out = LossOutput(value=0.0, index=index, grad=grad)
    expected = sim_grads_to_z_loop(
        list(zip(index.tolist(), grad.tolist())), build_pairs_loop(labels, "exact"), z
    )
    assert _sim_grads_to_z(out, build_pairs(multi_hot(labels)), z).tobytes() == expected.tobytes()
