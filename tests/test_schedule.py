import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailwise.allocate import Assignment, PlanConfig
from tailwise.errors import InvalidConfig, NonMonotonicStep, StepOutOfRange, UnknownLayer
from tailwise.schedule import (
    BaseSchedule,
    ScheduleConfig,
    ScheduleState,
    SwitchMode,
    base_lr_at,
    layer_lr_at,
    lrs_at,
    on_step,
    recompute_due,
)
from tailwise.spectral import LayerRole

ROLES = {"a": LayerRole.ATT_Q, "b": LayerRole.FFN_UP, "emb": LayerRole.EMBEDDING}


def flat_cfg(t_max=1000, **kw):
    # Constant base schedule: cosine with floor 1 never decays.
    kw.setdefault("warmup_steps", 0)
    kw.setdefault("min_lr_fraction", 1.0)
    return ScheduleConfig(t_max=t_max, **kw)


def drive(cfg, provider, plan_cfg, steps, roles=ROLES):
    state = ScheduleState()
    states = []
    for t in range(steps):
        state = on_step(state, cfg, provider, plan_cfg, roles, t)
        states.append(state)
    return states


class TestBaseLrAt:
    def test_ramp_start_is_zero(self):
        cfg = ScheduleConfig(t_max=100, warmup_steps=10)
        assert base_lr_at(cfg, 1e-3, 0) == 0.0

    def test_ramp_end_is_peak(self):
        cfg = ScheduleConfig(t_max=100, warmup_steps=10)
        assert base_lr_at(cfg, 1e-3, 10) == 1e-3

    def test_cosine_midpoint(self):
        cfg = ScheduleConfig(t_max=110, warmup_steps=10, min_lr_fraction=0.0)
        assert base_lr_at(cfg, 1e-3, 60) == pytest.approx(0.5e-3, abs=1e-15)

    def test_cosine_end_hits_floor(self):
        cfg = ScheduleConfig(t_max=100, warmup_steps=0, min_lr_fraction=0.1)
        assert base_lr_at(cfg, 1e-3, 100) == pytest.approx(1e-4, abs=1e-18)

    def test_wsd_shape(self):
        cfg = ScheduleConfig(t_max=100, warmup_steps=10, base=BaseSchedule.WSD,
                             wsd_stable_fraction=0.5, min_lr_fraction=0.0)
        # stable span: floor(0.5 * 90) = 45 steps after warmup
        assert base_lr_at(cfg, 1.0, 10) == 1.0
        assert base_lr_at(cfg, 1.0, 54) == 1.0
        assert base_lr_at(cfg, 1.0, 100) == pytest.approx(0.0, abs=1e-15)
        mid = base_lr_at(cfg, 1.0, 55 + 22)
        assert 0.0 < mid < 1.0

    def test_step_out_of_range(self):
        cfg = ScheduleConfig(t_max=100)
        with pytest.raises(StepOutOfRange):
            base_lr_at(cfg, 1.0, -1)
        with pytest.raises(StepOutOfRange):
            base_lr_at(cfg, 1.0, 101)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            ScheduleConfig(t_max=100, warmup_steps=100)
        with pytest.raises(InvalidConfig):
            ScheduleConfig(t_max=100, t_switch=200)
        with pytest.raises(InvalidConfig):
            ScheduleConfig(t_max=100, active_fraction=0.0)


class TestSwitchWindow:
    def test_midpoint_blend(self):
        # Layer "a" moves 1e-3 -> 3e-3 over 50 steps on a flat base.
        cfg2 = flat_cfg(t_max=1000, t_switch=50, recompute_interval=100, active_fraction=1.0)
        table = {0: [("a", 2.0), ("b", 4.0)], 100: [("a", 3.0), ("b", 2.0)]}

        def provider(t):
            return table.get(t, table[100])

        plan_cfg = PlanConfig(eta=1e-3, s=3.0)
        state = ScheduleState()
        for t in range(101):
            state = on_step(state, cfg2, provider, plan_cfg, ROLES, t)
        # layer a: old peak eta=1e-3, new peak 3e-3 (alpha at top of range)
        assert layer_lr_at(state, cfg2, "a", 100) == pytest.approx(1e-3)
        assert layer_lr_at(state, cfg2, "a", 125) == pytest.approx(2e-3)
        assert layer_lr_at(state, cfg2, "a", 149) == pytest.approx(1e-3 + 2e-3 * 49 / 50)
        assert layer_lr_at(state, cfg2, "a", 150) == pytest.approx(3e-3)

    def test_no_spike_bound_soft(self):
        cfg = flat_cfg(t_max=1000, t_switch=50, recompute_interval=100, active_fraction=1.0)
        table = {0: [("a", 2.0), ("b", 4.0)], 100: [("a", 4.0), ("b", 2.0)]}
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        state = ScheduleState()
        values = []
        for t in range(200):
            provider = lambda _t: table.get(_t, table[100])
            state = on_step(state, cfg, provider, plan_cfg, ROLES, t)
            values.append(layer_lr_at(state, cfg, "a", t))
        deltas = [abs(y - x) for x, y in zip(values, values[1:])]
        start, target = 1e-3, 5e-3
        assert max(deltas) <= (target - start) / 50 + 1e-12

    def test_hard_switch_jumps(self):
        cfg = flat_cfg(t_max=1000, t_switch=50, recompute_interval=100,
                       active_fraction=1.0, switch_mode=SwitchMode.HARD)
        table = {0: [("a", 2.0), ("b", 4.0)], 100: [("a", 4.0), ("b", 2.0)]}
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        state = ScheduleState()
        values = []
        for t in range(150):
            state = on_step(state, cfg, lambda _t: table.get(_t, table[100]),
                            plan_cfg, ROLES, t)
            values.append(layer_lr_at(state, cfg, "a", t))
        deltas = [abs(y - x) for x, y in zip(values, values[1:])]
        assert max(deltas) == pytest.approx(4e-3, abs=1e-15)  # single-step jump
        assert values[99] == pytest.approx(1e-3)
        assert values[100] == pytest.approx(5e-3)

    def test_equal_peaks_follow_base_schedule_exactly(self):
        cfg = ScheduleConfig(t_max=400, warmup_steps=40, recompute_interval=100,
                             t_switch=50, active_fraction=1.0)
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        fixed = [("a", 2.0), ("b", 4.0)]
        states = drive(cfg, lambda t: fixed, plan_cfg, 400)
        for t in (0, 39, 100, 125, 260, 399):
            st = states[t]
            assert layer_lr_at(st, cfg, "a", t) == base_lr_at(cfg, 1e-3, t)
            assert layer_lr_at(st, cfg, "b", t) == base_lr_at(cfg, 5e-3, t)

    def test_window_ends_at_the_last_step(self):
        # The step-55 window would reach step 105; it ends at t_max = 100 instead,
        # so it blends over 45 steps.
        cfg = flat_cfg(t_max=100, recompute_interval=55, t_switch=50, active_fraction=0.6)
        table = {0: [("a", 2.0), ("b", 4.0)], 55: [("a", 4.0), ("b", 2.0)]}
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        states = drive(cfg, lambda t: table[t], plan_cfg, 100)
        rows = timeline(states, cfg, 1e-3, ["a", "b"])
        assert len(rows) == 200
        a, b = 1e-3, 5e-3  # layer "a" moves from the bottom to the top bound
        assert layer_lr_at(states[54], cfg, "a", 54) == a
        assert layer_lr_at(states[55], cfg, "a", 55) == a
        assert layer_lr_at(states[99], cfg, "a", 99) == a + 44 / 45 * (b - a)

    def test_unknown_layer(self):
        cfg = flat_cfg()
        states = drive(cfg, lambda t: [("a", 2.0)], PlanConfig(eta=1e-3), 1)
        with pytest.raises(UnknownLayer):
            layer_lr_at(states[0], cfg, "zzz", 0)


class TestOnStep:
    def test_recompute_cadence_active_fifth(self):
        cfg = ScheduleConfig(t_max=1000, recompute_interval=100, t_switch=50,
                             active_fraction=0.2)
        calls = []

        def provider(t):
            calls.append(t)
            return [("a", 2.0), ("b", 3.0)]

        drive(cfg, provider, PlanConfig(eta=1e-3), 1000)
        assert calls == [0, 100, 200]

    def test_recompute_cadence_full_run(self):
        cfg = ScheduleConfig(t_max=1000, recompute_interval=100, t_switch=50,
                             active_fraction=1.0)
        calls = []

        def provider(t):
            calls.append(t)
            return [("a", 2.0), ("b", 3.0)]

        drive(cfg, provider, PlanConfig(eta=1e-3), 1000)
        assert calls == list(range(0, 1000, 100))  # 10 plans; t=1000 never runs

    def test_frozen_after_active_phase(self):
        cfg = ScheduleConfig(t_max=1000, recompute_interval=100, t_switch=50,
                             active_fraction=0.2)
        states = drive(cfg, lambda t: [("a", 2.0), ("b", 3.0)], PlanConfig(eta=1e-3), 1000)
        assert states[999].current_plan is states[200].current_plan

    def test_non_monotonic_step(self):
        cfg = flat_cfg()
        state = ScheduleState()
        state = on_step(state, cfg, lambda t: [("a", 2.0)], PlanConfig(eta=1e-3), ROLES, 0)
        with pytest.raises(NonMonotonicStep):
            on_step(state, cfg, lambda t: [("a", 2.0)], PlanConfig(eta=1e-3), ROLES, 2)

    def test_fixed_alphas_give_identical_plans_and_continuity(self):
        cfg = flat_cfg(t_max=500, recompute_interval=100, t_switch=50, active_fraction=1.0)
        fixed = [("a", 2.0), ("b", 4.0)]
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        states = drive(cfg, lambda t: fixed, plan_cfg, 500)
        plans = {id(s.current_plan) for s in states}
        assert len(plans) == 5
        values = [layer_lr_at(states[t], cfg, "a", t) for t in range(500)]
        assert len(set(values)) == 1  # flat base + identical plans = constant LR

    def test_recompute_due_matches_loop(self):
        cfg = ScheduleConfig(t_max=1000, recompute_interval=100, t_switch=50,
                             active_fraction=0.2)
        due = [t for t in range(1000) if recompute_due(cfg, t)]
        assert due == [0, 100, 200]

    def test_active_steps_exact_at_decimal_edge(self):
        # 0.29 * 100 is 28.999999999999996 in floats; the active phase still ends at 29.
        cfg = ScheduleConfig(t_max=100, recompute_interval=29, t_switch=1, active_fraction=0.29)
        assert cfg.active_steps == 29
        assert [t for t in range(100) if recompute_due(cfg, t)] == [0, 29]


def timeline(states, cfg, eta, names):
    rows = []
    for t, state in enumerate(states):
        lrs = lrs_at(state, cfg, eta, names, t)
        rows.extend((t, name, lrs[name]) for name in names)
    return rows


class TestLrsAt:
    def test_cardinality_and_order(self):
        cfg = flat_cfg(t_max=10, recompute_interval=10, t_switch=1, active_fraction=1.0)
        states = drive(cfg, lambda t: [("a", 2.0), ("b", 3.0)], PlanConfig(eta=1e-3), 3)
        rows = timeline(states, cfg, 1e-3, ["a", "b"])
        assert len(rows) == 6
        assert [r[0] for r in rows] == [0, 0, 1, 1, 2, 2]
        assert [r[1] for r in rows[:2]] == ["a", "b"]

    def test_uniform_s1_single_value_per_step(self):
        cfg = flat_cfg(t_max=10, recompute_interval=10, t_switch=1, active_fraction=1.0)
        plan_cfg = PlanConfig(eta=1e-3, s=1.0)
        states = drive(cfg, lambda t: [("a", 2.0), ("b", 9.0)], plan_cfg, 10)
        rows = timeline(states, cfg, 1e-3, ["a", "b", "emb"])
        by_step = {}
        for step, _, lr in rows:
            by_step.setdefault(step, set()).add(lr)
        assert all(len(v) == 1 for v in by_step.values())

    def test_rows_match_replay(self):
        cfg = ScheduleConfig(t_max=300, warmup_steps=30, recompute_interval=100,
                             t_switch=50, active_fraction=1.0)
        table = {0: [("a", 2.0), ("b", 4.0)], 100: [("a", 4.0), ("b", 2.0)],
                 200: [("a", 3.0), ("b", 3.5)]}
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        states = drive(cfg, lambda t: table.get(t, table[200]), plan_cfg, 300)
        for step, layer, lr in timeline(states, cfg, 1e-3, ["a", "b"]):
            assert lr == layer_lr_at(states[step], cfg, layer, step)

    def test_names_outside_the_plan_follow_eta(self):
        cfg = ScheduleConfig(t_max=100, warmup_steps=10, recompute_interval=50,
                             t_switch=10, active_fraction=1.0)
        plan_cfg = PlanConfig(eta=1e-3, s=5.0)
        table = {0: [], 50: [("a", 2.0), ("b", 4.0)]}  # the first sweep fits nothing
        states = drive(cfg, lambda t: table[t], plan_cfg, 100)
        assert states[49].current_plan is None
        for step, layer, lr in timeline(states, cfg, 2e-3, ["a", "b", "gain"]):
            if step < 50 or layer == "gain":
                assert lr == base_lr_at(cfg, 2e-3, step)
            else:
                assert lr == layer_lr_at(states[step], cfg, layer, step)


@st.composite
def schedule_configs(draw):
    t_max = draw(st.integers(1, 300))
    interval = draw(st.integers(1, t_max))
    return ScheduleConfig(
        t_max=t_max,
        base=draw(st.sampled_from(BaseSchedule)),
        warmup_steps=draw(st.integers(0, t_max - 1)),
        min_lr_fraction=draw(st.floats(0.0, 1.0)),
        recompute_interval=interval,
        t_switch=draw(st.integers(1, interval)),
        active_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        switch_mode=draw(st.sampled_from(SwitchMode)),
        wsd_stable_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


ALPHAS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "emb"]),
              st.one_of(st.floats(1.01, 8.0), st.just(math.inf))),
    unique_by=lambda pair: pair[0],
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cfg=schedule_configs(), eta=st.floats(1e-5, 1.0), s=st.floats(1.0, 10.0),
       assignment=st.sampled_from([Assignment.LINEAR, Assignment.LINEAR_INVERSE]),
       data=st.data())
def test_every_step_stays_in_bounds(cfg, eta, s, assignment, data):
    # Fresh alphas at each recompute (some layers or all of them may be missing);
    # every step of the run must give each name an LR in [0, s*eta], a name
    # outside the current plan must follow the base schedule at eta, and a
    # soft switch must start where the old plan's schedule stands (no spike).
    plan_cfg = PlanConfig(eta=eta, s=s, assignment=assignment)
    names = ["a", "b", "emb", "gain"]
    state = ScheduleState()
    for t in range(cfg.t_max):
        state = on_step(state, cfg, lambda _t: data.draw(ALPHAS), plan_cfg, ROLES, t)
        lrs = lrs_at(state, cfg, eta, names, t)
        plan, previous = state.current_plan, state.previous_plan
        for name, lr in lrs.items():
            assert 0.0 <= lr <= s * eta * (1 + 1e-12)  # one rounding of slack
            if plan is None or name not in plan:
                assert lr == base_lr_at(cfg, eta, t)
            elif state.last_recompute_step == t and previous is not None and name in previous:
                assert lr == base_lr_at(cfg, previous.base_lr(name), t)
