import math

import numpy as np
import pytest

from tailwise.allocate import (
    Assignment,
    PlanConfig,
    apply_embedding_override,
    build_plan,
    linear_map,
    mean_normalized_map,
    trust_ratio_lr,
)
from tailwise.errors import (
    EmptyInput,
    InfiniteAlpha,
    InvalidConfig,
    NonPositiveLog,
    UnknownLayer,
)
from tailwise.optim import LAMB_MAX_RATIO, OptimizerKind, adamw_step, init_moments
from tailwise.spectral import LayerRole

ETA = 1e-3


def lrs(plan):
    return dict(plan.per_layer)


class TestLinearMap:
    def test_hand_values(self):
        plan = linear_map([("a", 2.0), ("b", 3.0), ("c", 4.0)], PlanConfig(eta=ETA, s=5.0))
        got = lrs(plan)
        assert got["a"] == pytest.approx(1e-3, abs=1e-18)
        assert got["b"] == pytest.approx(3e-3, abs=1e-18)
        assert got["c"] == pytest.approx(5e-3, abs=1e-18)
        assert (plan.alpha_min, plan.alpha_max) == (2.0, 4.0)

    def test_equal_alphas_degenerate_to_eta(self):
        plan = linear_map([("a", 3.3), ("b", 3.3)], PlanConfig(eta=ETA, s=5.0))
        assert all(lr == ETA for _, lr in plan.per_layer)

    def test_table_bounds(self):
        # eta 1e-3 with s = 5 spans exactly [1e-3, 5e-3].
        rng = np.random.default_rng(0)
        alphas = [(f"l{i}", float(a)) for i, a in enumerate(rng.uniform(1.5, 6.0, 40))]
        plan = linear_map(alphas, PlanConfig(eta=1e-3, s=5.0))
        values = [lr for _, lr in plan.per_layer]
        assert min(values) == pytest.approx(1e-3)
        assert max(values) == pytest.approx(5e-3)

    def test_infinite_alpha_gets_top_bound(self):
        plan = linear_map([("a", 2.0), ("b", math.inf), ("c", 4.0)], PlanConfig(eta=ETA, s=5.0))
        assert lrs(plan)["b"] == 5.0 * ETA
        assert plan.alpha_max == 4.0  # sentinel excluded from extremes

    def test_infinite_alpha_under_inverse_gets_bottom(self):
        cfg = PlanConfig(eta=ETA, s=5.0, assignment=Assignment.LINEAR_INVERSE)
        plan = linear_map([("a", 2.0), ("b", math.inf)], cfg)
        assert lrs(plan)["b"] == ETA

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            linear_map([], PlanConfig(eta=ETA))

    def test_fuzzed_bounds_affine_inversion_degenerate(self):
        # Bounds, affine invariance, inversion identity, degenerate rule.
        rng = np.random.default_rng(42)
        fwd = PlanConfig(eta=ETA, s=4.0)
        inv = PlanConfig(eta=ETA, s=4.0, assignment=Assignment.LINEAR_INVERSE)
        for trial in range(2000):
            n = int(rng.integers(1, 24))
            if trial % 7 == 0:
                alphas = [(f"l{i}", 2.5) for i in range(n)]
            else:
                draws = rng.uniform(1.05, 9.0, n)
                if n > 1 and np.ptp(draws) < 1e-6:
                    continue
                alphas = [(f"l{i}", float(a)) for i, a in enumerate(draws)]
            plan = linear_map(alphas, fwd)
            values = np.array([lr for _, lr in plan.per_layer])
            assert np.all(values >= ETA - 1e-15)
            assert np.all(values <= 4.0 * ETA + 1e-15)

            a, b = float(rng.uniform(0.5, 4.0)), float(rng.uniform(-2.0, 2.0))
            shifted = [(name, a * al + b) for name, al in alphas]
            values2 = np.array([lr for _, lr in linear_map(shifted, fwd).per_layer])
            assert np.max(np.abs(values - values2)) <= 1e-12

            if len({al for _, al in alphas}) == 1:
                # Degenerate range: both projections collapse to eta.
                assert np.all(values == ETA)
            else:
                inverse = np.array([lr for _, lr in linear_map(alphas, inv).per_layer])
                assert np.max(np.abs(values + inverse - 5.0 * ETA)) <= 1e-12

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        alphas = [(f"l{i}", float(a)) for i, a in enumerate(rng.uniform(1.1, 8.0, 16))]
        plan = lrs(linear_map(alphas, PlanConfig(eta=ETA, s=3.0)))
        ordered = sorted(alphas, key=lambda p: p[1])
        values = [plan[name] for name, _ in ordered]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))

    def test_s1_uniform_degeneration(self):
        alphas = [("a", 1.3), ("b", 7.0), ("c", math.inf)]
        plan = linear_map(alphas, PlanConfig(eta=ETA, s=1.0))
        assert all(lr == ETA for _, lr in plan.per_layer)


class TestMeanNormalizedMap:
    def test_sqrt_uniform_input(self):
        plan = mean_normalized_map([("a", 4.0), ("b", 4.0)],
                                   PlanConfig(eta=ETA, assignment=Assignment.SQRT))
        assert all(lr == pytest.approx(ETA) for _, lr in plan.per_layer)

    def test_sqrt_hand_values(self):
        plan = mean_normalized_map([("a", 4.0), ("b", 9.0)],
                                   PlanConfig(eta=ETA, assignment=Assignment.SQRT))
        got = lrs(plan)
        assert got["a"] == pytest.approx(0.8e-3, rel=1e-12)
        assert got["b"] == pytest.approx(1.2e-3, rel=1e-12)

    def test_log2_hand_values(self):
        plan = mean_normalized_map([("a", 2.0), ("b", 4.0)],
                                   PlanConfig(eta=ETA, assignment=Assignment.LOG2))
        got = lrs(plan)
        assert got["a"] == pytest.approx(ETA * 1.0 / 1.5, rel=1e-12)
        assert got["b"] == pytest.approx(ETA * 2.0 / 1.5, rel=1e-12)

    def test_rejects_inf_and_low_alpha(self):
        cfg = PlanConfig(eta=ETA, assignment=Assignment.LOG2)
        with pytest.raises(InfiniteAlpha):
            mean_normalized_map([("a", math.inf), ("b", 2.0)], cfg)
        with pytest.raises(NonPositiveLog):
            mean_normalized_map([("a", 1.0), ("b", 2.0)], cfg)


class TestEmbeddingOverride:
    ROLES = {
        "emb": LayerRole.EMBEDDING,
        "head": LayerRole.OUTPUT_HEAD,
        "q": LayerRole.ATT_Q,
    }

    def test_pins_to_upper_bound(self):
        cfg = PlanConfig(eta=ETA, s=5.0)
        plan = linear_map([("emb", 3.0), ("head", 2.0), ("q", 4.0)], cfg)
        pinned = apply_embedding_override(plan, self.ROLES, cfg)
        got = lrs(pinned)
        assert got["emb"] == 5.0 * ETA
        assert got["head"] == 5.0 * ETA
        assert got["q"] == lrs(plan)["q"]

    def test_disabled_is_noop(self):
        cfg = PlanConfig(eta=ETA, s=5.0, embedding_override=False)
        plan = linear_map([("emb", 3.0), ("q", 4.0)], cfg)
        assert apply_embedding_override(plan, self.ROLES, cfg).per_layer == plan.per_layer

    def test_idempotent(self):
        cfg = PlanConfig(eta=ETA, s=5.0)
        plan = linear_map([("emb", 3.0), ("q", 4.0)], cfg)
        once = apply_embedding_override(plan, self.ROLES, cfg)
        twice = apply_embedding_override(once, self.ROLES, cfg)
        assert once.per_layer == twice.per_layer

    def test_mean_normalized_pins_to_plan_max(self):
        cfg = PlanConfig(eta=ETA, assignment=Assignment.SQRT)
        plan = mean_normalized_map([("emb", 4.0), ("q", 9.0)], cfg)
        pinned = apply_embedding_override(plan, self.ROLES, cfg)
        assert lrs(pinned)["emb"] == plan.max_lr

    def test_s1_override_keeps_eta(self):
        cfg = PlanConfig(eta=ETA, s=1.0)
        plan = build_plan([("emb", 3.0), ("q", 4.0)], self.ROLES, cfg)
        assert all(lr == ETA for _, lr in plan.per_layer)


class TestPlanLookup:
    def test_unknown_layer(self):
        plan = linear_map([("a", 2.0)], PlanConfig(eta=ETA))
        with pytest.raises(UnknownLayer):
            plan.base_lr("nope")

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            PlanConfig(eta=0.0)
        with pytest.raises(InvalidConfig):
            PlanConfig(eta=1e-3, s=0.5)


class TestTrustRatio:
    def test_lars_hand_value(self):
        assert trust_ratio_lr(2.0, 1.0, 0.1) == pytest.approx(0.2)

    def test_lars_zero_weight_guard(self):
        assert trust_ratio_lr(0.0, 1.0, 0.1) == 0.1

    def test_lars_zero_denominator_guard(self):
        assert trust_ratio_lr(2.0, 0.0, 0.1) == 0.1

    def test_lars_weight_decay_in_denominator(self):
        got = trust_ratio_lr(2.0, 1.0 + 0.5 * 2.0, 0.1)
        assert got == pytest.approx(0.1 * 2.0 / (1.0 + 0.5 * 2.0))

    def test_lamb_hand_value(self):
        got = trust_ratio_lr(3.0, 1.5, 0.05)
        assert got == pytest.approx(0.1)

    def test_lamb_ratio_clip(self):
        # One-entry matrices at lr 0.1: the first AdamW update is 1 / (1 + 1e-8),
        # so the trust ratio is ||w|| (1 + 1e-8), clipped at LAMB_MAX_RATIO = 10.
        def lamb_step(w):
            params = {"m": np.array([[w]])}
            adamw_step(params, {"m": np.array([[1.0]])}, init_moments(params), 1, {"m": 0.1},
                       weight_decay=0.0, grad_clip=None, optimizer=OptimizerKind.ADAMW_LAMB)
            return w - params["m"][0, 0]

        assert LAMB_MAX_RATIO == 10.0
        assert lamb_step(100.0) == pytest.approx(1.0)  # ratio clipped at 10
        assert lamb_step(8.0) == pytest.approx(0.8)  # ratio 8 is below the clip
        assert trust_ratio_lr(100.0, 1.0, 0.1) == pytest.approx(10.0)  # no clip here

    def test_linear_in_eta(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w, g, eta = rng.random(3) + 0.01
            base = trust_ratio_lr(w, g + 0.1 * w, eta)
            assert trust_ratio_lr(w, g + 0.1 * w, 3.0 * eta) == pytest.approx(
                3.0 * base, rel=1e-12
            )
