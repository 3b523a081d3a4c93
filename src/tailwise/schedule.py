"""Per-step, per-layer learning-rate trajectories.

A base schedule (cosine-with-warmup or warmup-stable-decay) is evaluated
at each layer's plan peak. Plans are recomputed at the multiples of
recompute_interval up to active_steps = floor(active_fraction * t_max),
worked out exactly from the decimal active_fraction. In soft mode each
recompute after the first opens a switch window that linearly blends a
layer's LR from its value at the recompute step to the new plan's
scheduled value at the window end, avoiding LR spikes; a window that
would run past t_max ends there. After the active phase the last plan's
ratios hold for the rest of training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .allocate import LRPlan, PlanConfig, build_plan
from .errors import InvalidConfig, NonMonotonicStep, StepOutOfRange, UnknownLayer
from .spectral import LayerRole

AlphaProvider = Callable[[int], Sequence[tuple[str, float]]]


class BaseSchedule(Enum):
    COSINE_WARMUP = "cosine"
    WSD = "wsd"


class SwitchMode(Enum):
    SOFT = "soft"
    HARD = "hard"


@dataclass(frozen=True)
class ScheduleConfig:
    t_max: int
    base: BaseSchedule = BaseSchedule.COSINE_WARMUP
    warmup_steps: int = 0
    min_lr_fraction: float = 0.0  # end-of-decay floor as a fraction of peak
    recompute_interval: int | None = None  # unset: min(100, t_max)
    t_switch: int | None = None  # unset: min(50, recompute_interval)
    active_fraction: float = 0.2
    switch_mode: SwitchMode = SwitchMode.SOFT
    wsd_stable_fraction: float = 0.8
    # Last step that may recompute: floor(active_fraction * t_max), taken in
    # exact decimal arithmetic (0.29 * 100 is 29, not 28.999999999999996).
    active_steps: int = field(init=False)

    def __post_init__(self):
        if self.t_max < 1:
            raise InvalidConfig("t_max must be positive")
        if not 0 <= self.warmup_steps < self.t_max:
            raise InvalidConfig("warmup_steps must lie in [0, t_max)")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise InvalidConfig("min_lr_fraction must lie in [0, 1]")
        if self.recompute_interval is None:
            object.__setattr__(self, "recompute_interval", min(100, self.t_max))
        if self.t_switch is None:
            object.__setattr__(self, "t_switch", min(50, self.recompute_interval))
        if not 1 <= self.t_switch <= self.recompute_interval <= self.t_max:
            raise InvalidConfig("need 1 <= t_switch <= recompute_interval <= t_max")
        if not 0.0 < self.active_fraction <= 1.0:
            raise InvalidConfig("active_fraction must lie in (0, 1]")
        if not 0.0 < self.wsd_stable_fraction < 1.0:
            raise InvalidConfig("wsd_stable_fraction must lie in (0, 1)")
        active = math.floor(Fraction(str(self.active_fraction)) * self.t_max)
        object.__setattr__(self, "active_steps", active)


@dataclass(frozen=True)
class ScheduleState:
    """Trajectory state owned by a single training loop; ScheduleState() is the start."""

    t: int = -1
    current_plan: LRPlan | None = None
    # The plan a soft switch window blends from: set when a soft-mode
    # recompute replaces a plan, None after any other recompute.
    previous_plan: LRPlan | None = None
    last_recompute_step: int = -1


def base_lr_at(cfg: ScheduleConfig, peak: float, t: int) -> float:
    """Base schedule value at step t for a given peak LR."""
    if not 0 <= t <= cfg.t_max:
        raise StepOutOfRange(f"t={t} outside [0, {cfg.t_max}]")
    w = cfg.warmup_steps
    if t < w:
        return peak * t / w
    floor = cfg.min_lr_fraction
    span = cfg.t_max - w
    if cfg.base is BaseSchedule.COSINE_WARMUP:
        if span == 0:
            return peak
        cos_part = 0.5 * (1.0 + math.cos(math.pi * (t - w) / span))
        return peak * (floor + (1.0 - floor) * cos_part)
    stable = math.floor(cfg.wsd_stable_fraction * span)
    if t < w + stable:
        return peak
    decay_span = span - stable
    if decay_span == 0:
        return peak
    frac = (t - w - stable) / decay_span
    return peak * (1.0 + frac * (floor - 1.0))


def recompute_due(cfg: ScheduleConfig, t: int) -> bool:
    """True when step t is a plan-recompute boundary inside the active phase."""
    return t % cfg.recompute_interval == 0 and t <= cfg.active_steps


def layer_lr_at(state: ScheduleState, cfg: ScheduleConfig, layer: str, t: int) -> float:
    """LR applied to ``layer`` at step t.

    Inside a soft-switch window, which runs from the recompute step to
    min(recompute step + t_switch, t_max), the value blends linearly between
    the layer's LR at the recompute step (old plan's schedule) and the new
    plan's scheduled value at the window end; when old and new peaks are
    identical the blend is skipped so an unchanged plan follows the base
    schedule bit-exactly.
    """
    if state.current_plan is None:
        raise UnknownLayer(f"{layer}: no plan has been computed yet")
    peak = state.current_plan.base_lr(layer)
    previous = state.previous_plan
    start_step = state.last_recompute_step
    end_step = min(start_step + cfg.t_switch, cfg.t_max)
    if previous is not None and start_step <= t < end_step and layer in previous:
        old_peak = previous.base_lr(layer)
        if old_peak != peak:
            start = base_lr_at(cfg, old_peak, start_step)
            target = base_lr_at(cfg, peak, end_step)
            frac = (t - start_step) / (end_step - start_step)
            return start + frac * (target - start)
    return base_lr_at(cfg, peak, t)


def lrs_at(
    state: ScheduleState, cfg: ScheduleConfig, eta: float, names: Iterable[str], t: int
) -> dict[str, float]:
    """LR of each named parameter at step t, keyed in ``names`` order.

    A name in the current plan follows its plan trajectory (layer_lr_at);
    any other name (a non-matrix parameter, a layer excluded from the plan,
    or every name before the first plan) follows the base schedule at eta.
    """
    plan = state.current_plan
    lrs = {}
    fallback = None
    for name in names:
        if plan is not None and name in plan:
            lrs[name] = layer_lr_at(state, cfg, name, t)
        else:
            if fallback is None:
                fallback = base_lr_at(cfg, eta, t)
            lrs[name] = fallback
    return lrs


def on_step(
    state: ScheduleState,
    cfg: ScheduleConfig,
    alpha_provider: AlphaProvider,
    plan_cfg: PlanConfig,
    roles: Mapping[str, LayerRole],
    t: int,
) -> ScheduleState:
    """Advance the schedule by one optimizer step.

    On recompute boundaries inside the active phase this calls the alpha
    provider and builds a fresh plan; in soft mode, with a plan already
    current, that plan is kept as ``previous_plan`` to blend from. A
    provider that returns no alphas (no layer could be fitted) yields no
    plan, so every layer follows the base schedule at eta until a later
    recompute. Past the active phase the current plan holds to the end.
    """
    if t != state.t + 1:
        raise NonMonotonicStep(f"expected t={state.t + 1}, got {t}")
    if not recompute_due(cfg, t):
        return replace(state, t=t)
    alphas = alpha_provider(t)
    plan = build_plan(alphas, roles, plan_cfg, step=t) if alphas else None
    previous = state.current_plan if cfg.switch_mode is SwitchMode.SOFT else None
    return ScheduleState(t=t, current_plan=plan, previous_plan=previous, last_recompute_step=t)

