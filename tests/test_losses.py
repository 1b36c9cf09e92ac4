from __future__ import annotations

import math

import numpy as np
import pytest

from intentclf import OFCConfig, ValidationError
from intentclf.losses import cs_loss, negative_loss, oc_loss, ofc_loss, positive_loss
from intentclf.mining import MinedCounts, MinedPairs
from bf_oracles import central_diff, pair_sims


def _mined(pos, neg, size=None):
    """(sims, mined) of a batch whose mining kept the tuple lists ``pos`` and ``neg``.

    The batch has ``size`` pairs, by default one past the largest index named.
    """
    sims, _ = pair_sims(pos, neg)
    if size is not None:
        sims = np.concatenate((sims, np.zeros(size - sims.size)))
    mined = MinedPairs(
        pos_final=np.array([i for i, _ in pos], dtype=np.intp),
        neg_final=np.array([i for i, _ in neg], dtype=np.intp),
        counts=MinedCounts(
            h_pos=0, h_neg=0, o_pos=len(pos), o_neg=len(neg),
            selected_pos=len(pos), selected_neg=len(neg),
        ),
    )
    return sims, mined


def _one(s: float) -> np.ndarray:
    return np.array([s])


class TestPositiveLoss:
    @pytest.mark.parametrize("alpha,gamma", [(1.0, 2.0), (0.5, 0.0), (2.0, 1.0)])
    def test_perfect_similarity_is_zero(self, alpha, gamma):
        value, _ = positive_loss(_one(1.0), OFCConfig(alpha=alpha, gamma=gamma))
        assert value == 0.0

    def test_frozen_value_at_0p8(self):
        # (1 - 0.64)^2 * (-log 0.64), computed independently
        expected = (1 - 0.64) ** 2 * -math.log(0.64)
        value, _ = positive_loss(_one(0.8), OFCConfig(alpha=1.0, gamma=2.0))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.057838808, abs=1e-9)

    def test_clamped_at_zero_similarity(self):
        expected = (1 - 1e-12) ** 2 * -math.log(1e-12)
        value, grad = positive_loss(_one(0.0), OFCConfig(alpha=1.0, gamma=2.0, epsilon=1e-12))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(27.631, abs=1e-3)
        # inside the clamp the gradient vanishes
        assert grad[0] == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_strictly_decreasing_in_abs_similarity(self, gamma):
        config = OFCConfig(gamma=gamma)
        grid = np.linspace(math.sqrt(config.epsilon) * 10, 0.999999, 400)
        values = [positive_loss(_one(s), config)[0] for s in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        # symmetric in the sign of s
        neg_values = [positive_loss(_one(-s), config)[0] for s in grid]
        assert np.allclose(values, neg_values)

    def test_out_of_range_similarity_rejected(self):
        with pytest.raises(ValidationError):
            positive_loss(_one(1.5), OFCConfig())


class TestNegativeLoss:
    def test_zero_exactly_at_and_below_margin_minus_one(self):
        config = OFCConfig(margin=0.5)
        for s in (-0.5, -0.7, -1.0):
            assert negative_loss(_one(s), config)[0] == 0.0

    def test_frozen_value_at_zero(self):
        expected = (1 - 0.25) ** 2 * -math.log(0.25)
        value, _ = negative_loss(_one(0.0), OFCConfig(alpha=1.0, gamma=2.0, margin=0.5))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.779790578, abs=1e-9)

    def test_violating_negative_is_large_but_finite(self):
        config = OFCConfig(alpha=1.0, gamma=2.0, margin=0.5, epsilon=1e-12)
        expected = (1 - 1e-12) ** 2 * -math.log(1e-12)
        value, _ = negative_loss(_one(0.9), config)
        assert value == pytest.approx(expected, rel=1e-9)
        assert math.isfinite(value)

    def test_nonincreasing_towards_margin_minus_one(self):
        config = OFCConfig(margin=0.5, gamma=2.0)
        grid = np.linspace(0.5, -0.499, 300)  # s decreasing towards m-1
        values = [negative_loss(_one(s), config)[0] for s in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: a negative with s >= margin sits at q = epsilon and gets no gradient",
    )
    def test_gradient_nonzero_until_the_pair_is_free(self):
        config = OFCConfig(margin=0.5)
        grid = np.linspace(config.margin - 1.0, 1.0 - 1e-3, 301)[1:]  # (m - 1, 1 - 1e-3]
        _, grad = negative_loss(grid, config)
        assert np.all(grad != 0.0), grid[grad == 0.0]


class TestLossSurface:
    def test_finite_and_nonnegative_everywhere(self):
        config = OFCConfig()
        for s in np.linspace(-1.0, 1.0, 201):
            for value, grad in (positive_loss(_one(s), config), negative_loss(_one(s), config)):
                assert math.isfinite(value) and value >= 0.0
                assert np.isfinite(grad).all()

    def test_mean_reduction_invariant_to_duplication(self):
        config = OFCConfig()
        pos = [(0, 0.7), (1, 0.3)]
        neg = [(2, 0.2), (3, -0.1)]
        single, _ = ofc_loss(*_mined(pos, neg), config)
        doubled, _ = ofc_loss(*_mined(pos * 2, neg * 2), config)
        assert doubled == pytest.approx(single, rel=1e-12)


class TestOfcLoss:
    def test_empty_negative_side_reduces_to_positive(self):
        config = OFCConfig()
        pos = [(0, 0.8), (1, 0.2)]
        combined_value, combined_grad = ofc_loss(*_mined(pos, []), config)
        value, grad = positive_loss(np.array([0.8, 0.2]), config)
        assert combined_value == value
        assert combined_grad.tolist() == grad.tolist()

    def test_zero_at_ideal_pairs(self):
        config = OFCConfig(margin=0.5)
        value, _ = ofc_loss(*_mined([(0, 1.0)], [(1, -0.5)]), config)
        assert value == 0.0

    def test_zero_when_mining_retained_nothing_from_real_batch(self):
        value, grad = ofc_loss(*_mined([], [], size=5), OFCConfig())
        assert value == 0.0 and grad.tolist() == [0.0] * 5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        config = OFCConfig()
        for _ in range(10):
            pos = [(i, float(s)) for i, s in enumerate(rng.uniform(0.05, 0.95, size=4))]
            neg = [
                (i + 4, float(s)) for i, s in enumerate(rng.uniform(-0.45, 0.45, size=3))
            ]
            _, grad = ofc_loss(*_mined(pos, neg), config)

            sims0 = np.array([s for _, s in pos] + [s for _, s in neg])

            def f(sims):
                p = [(i, float(sims[k])) for k, (i, _) in enumerate(pos)]
                n = [(i, float(sims[len(pos) + k])) for k, (i, _) in enumerate(neg)]
                return ofc_loss(*_mined(p, n), config)[0]

            numeric = central_diff(f, sims0)
            analytic = np.array([grad[i] for i, _ in pos + neg])
            assert np.max(np.abs(analytic - numeric)) < 1e-4 * max(
                1.0, float(np.max(np.abs(analytic)))
            )


class TestOcLoss:
    def test_zero_when_hinges_inactive(self):
        value, _ = oc_loss(*_mined([(0, 1.0), (1, 1.0)], [(2, 0.5), (3, -0.2)]), margin=0.5)
        assert value == 0.0

    def test_zero_when_mining_retained_nothing(self):
        value, grad = oc_loss(*_mined([], [], size=5), margin=0.5)
        assert value == 0.0 and grad.tolist() == [0.0] * 5

    def test_single_violating_negative(self):
        value, _ = oc_loss(*_mined([], [(0, 0.7)]), margin=0.5)
        assert value == pytest.approx(0.04, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        pos = [(i, float(s)) for i, s in enumerate(rng.uniform(0.1, 0.9, size=3))]
        neg = [(3 + i, float(s)) for i, s in enumerate([0.8, 0.2, 0.65])]
        _, grad = oc_loss(*_mined(pos, neg), margin=0.5)
        sims0 = np.array([s for _, s in pos] + [s for _, s in neg])

        def f(sims):
            p = [(i, float(sims[k])) for k, (i, _) in enumerate(pos)]
            n = [(i, float(sims[len(pos) + k])) for k, (i, _) in enumerate(neg)]
            return oc_loss(*_mined(p, n), margin=0.5)[0]

        numeric = central_diff(f, sims0)
        analytic = np.array([grad[i] for i, _ in pos + neg])
        assert np.max(np.abs(analytic - numeric)) < 1e-6


class TestCsLoss:
    def test_exact_fit_is_zero(self):
        value, _ = cs_loss(*pair_sims([(0, 1.0), (1, 1.0)], [(2, 0.0)]))
        assert value == 0.0

    def test_single_half_off_pair(self):
        value, _ = cs_loss(*pair_sims([(0, 0.5)]))
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_empty_input_is_zero_not_error(self):
        value, grad = cs_loss(*pair_sims([]))
        assert value == 0.0 and grad.size == 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pos = [(i, float(s)) for i, s in enumerate(rng.uniform(-0.9, 0.9, size=3))]
        neg = [(3 + i, float(s)) for i, s in enumerate(rng.uniform(-0.9, 0.9, size=2))]
        _, grad = cs_loss(*pair_sims(pos, neg))
        sims0 = np.array([s for _, s in pos] + [s for _, s in neg])

        def f(sims):
            p = [(i, float(sims[k])) for k, (i, _) in enumerate(pos)]
            n = [(i, float(sims[len(pos) + k])) for k, (i, _) in enumerate(neg)]
            return cs_loss(*pair_sims(p, n))[0]

        numeric = central_diff(f, sims0)
        analytic = np.array([grad[i] for i, _ in pos + neg])
        assert np.max(np.abs(analytic - numeric)) < 1e-7


def test_config_validation():
    with pytest.raises(ValidationError):
        OFCConfig(alpha=0.0)
    with pytest.raises(ValidationError):
        OFCConfig(gamma=-1.0)
    with pytest.raises(ValidationError):
        OFCConfig(margin=0.0)
    with pytest.raises(ValidationError):
        OFCConfig(margin=2.5)
    with pytest.raises(ValidationError):
        OFCConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        OFCConfig(epsilon=0.01)


def test_grad_spans_the_batch_and_is_zero_off_the_contributing_pairs():
    _, grad = ofc_loss(*_mined([(3, 0.5), (9, 0.2)], [(4, 0.1)], size=12), OFCConfig())
    assert grad.shape == (12,)
    assert np.flatnonzero(grad).tolist() == [3, 4, 9]
