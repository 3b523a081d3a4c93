"""Map per-layer tail exponents to per-layer base learning rates.

The default assignment is the bounded linear map

    f(i) = eta * ((alpha_i - alpha_min) / (alpha_max - alpha_min) * (s - 1) + 1)

which lands every layer in [eta, s*eta]: weak heavy-tails (large alpha,
under-trained layers) get the large rates. Ablation variants: the inverse
projection, and mean-normalized sqrt/log2 maps (unbounded by construction).
Embedding and output-head layers are pinned to the plan's upper bound
unless the override is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import EmptyInput, InfiniteAlpha, InvalidConfig, NonPositiveLog, UnknownLayer
from .spectral import PINNED_ROLES, LayerRole
from .tailfit import SpectralSummary

AlphaList = Sequence[tuple[str, float]]
RoleMap = Mapping[str, LayerRole]


class Assignment(Enum):
    LINEAR = "linear"
    SQRT = "sqrt"
    LOG2 = "log2"
    LINEAR_INVERSE = "linear-inv"


@dataclass(frozen=True)
class PlanConfig:
    eta: float
    s: float = 5.0
    assignment: Assignment = Assignment.LINEAR
    embedding_override: bool = True

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise InvalidConfig(f"eta must be positive and finite, got {self.eta}")
        if not 1.0 <= self.s < math.inf:
            raise InvalidConfig(f"s must be >= 1 and finite, got {self.s}")
        if not math.isfinite(self.s * self.eta):
            raise InvalidConfig(f"s * eta must be finite, got {self.s} * {self.eta}")


@dataclass
class LRPlan:
    """Per-layer base learning rates plus the alpha extremes behind them."""

    per_layer: list[tuple[str, float]]
    alpha_min: float
    alpha_max: float
    _index: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = dict(self.per_layer)
        if len(self._index) != len(self.per_layer):
            raise ValueError("duplicate layer names in plan")

    def base_lr(self, layer: str) -> float:
        try:
            return self._index[layer]
        except KeyError:
            raise UnknownLayer(layer) from None

    def __contains__(self, layer: str) -> bool:
        return layer in self._index

    @property
    def max_lr(self) -> float:
        return max(lr for _, lr in self.per_layer)


def alpha_range(alphas: Iterable[float]) -> tuple[float, float]:
    """Min and max of the finite alphas; nan and nan when there are none."""
    pool = [a for a in alphas if math.isfinite(a)]
    if not pool:
        return math.nan, math.nan
    return min(pool), max(pool)


def linear_map(alphas: AlphaList, cfg: PlanConfig) -> LRPlan:
    """Bounded linear (or inverse-linear) alpha-to-LR map.

    Infinite-alpha layers (degenerate spectra) count as least heavy-tailed:
    they get s*eta under LINEAR and eta under LINEAR_INVERSE, keeping the
    inversion identity f + f_inv = (s+1)*eta exact for every layer. A
    degenerate alpha range maps all finite-alpha layers to eta.
    """
    if not alphas:
        raise EmptyInput("no alphas to allocate over")
    amin, amax = alpha_range(a for _, a in alphas)
    inverse = cfg.assignment is Assignment.LINEAR_INVERSE
    span = amax - amin
    per_layer = []
    for name, a in alphas:
        if math.isinf(a):
            lr = cfg.eta if inverse else cfg.s * cfg.eta
        elif math.isnan(span) or span == 0.0:
            lr = cfg.eta
        else:
            ratio = (amax - a) / span if inverse else (a - amin) / span
            lr = cfg.eta * (ratio * (cfg.s - 1.0) + 1.0)
        per_layer.append((name, lr))
    return LRPlan(per_layer, amin, amax)


def mean_normalized_map(alphas: AlphaList, cfg: PlanConfig) -> LRPlan:
    """Sqrt or log2 assignment, normalized by the layer mean of the transform."""
    if not alphas:
        raise EmptyInput("no alphas to allocate over")
    for name, a in alphas:
        if math.isinf(a):
            raise InfiniteAlpha(f"{name}: mean-normalized maps need finite alphas")
        if a <= 1.0:
            raise NonPositiveLog(f"{name}: alpha={a} must exceed 1")
    transform = math.sqrt if cfg.assignment is Assignment.SQRT else math.log2
    values = [transform(a) for _, a in alphas]
    mean = sum(values) / len(values)
    per_layer = [(name, cfg.eta * v / mean) for (name, _), v in zip(alphas, values)]
    return LRPlan(per_layer, *alpha_range(a for _, a in alphas))


def apply_embedding_override(plan: LRPlan, roles: RoleMap, cfg: PlanConfig) -> LRPlan:
    """Pin embedding/output-head layers to the plan's upper LR bound.

    Linear variants pin to s*eta exactly; the mean-normalized variants have
    no fixed bound, so they pin to the plan maximum. No-op when the
    override is disabled. Idempotent.
    """
    if not cfg.embedding_override:
        return plan
    if cfg.assignment in (Assignment.LINEAR, Assignment.LINEAR_INVERSE):
        pinned = cfg.s * cfg.eta
    else:
        pinned = plan.max_lr
    per_layer = [
        (name, pinned if roles.get(name) in PINNED_ROLES else lr)
        for name, lr in plan.per_layer
    ]
    return LRPlan(per_layer, plan.alpha_min, plan.alpha_max)


def build_plan(summaries: Sequence[SpectralSummary], cfg: PlanConfig) -> LRPlan | None:
    """Assignment map plus embedding override over a sweep's fitted layers; None if none."""
    if not summaries:
        return None
    alphas = [(s.layer_name, s.alpha) for s in summaries]
    if cfg.assignment in (Assignment.LINEAR, Assignment.LINEAR_INVERSE):
        plan = linear_map(alphas, cfg)
    else:
        plan = mean_normalized_map(alphas, cfg)
    return apply_embedding_override(plan, {s.layer_name: s.role for s in summaries}, cfg)
