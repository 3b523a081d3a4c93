"""End-to-end training loop: spectra -> plan -> schedule -> AdamW.

Each step samples a batch, advances the schedule (recomputing the
per-layer plan from fresh spectra on cadence boundaries during the active
phase), then applies AdamW with per-group learning rates. Uniform mode is
the same loop with plans built at s = 1: every plan peak equals eta, so
every group follows the global schedule bit for bit, and the spectral
telemetry is recorded on the same cadence as in LLR mode.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .allocate import PlanConfig
from .data import DataConfig, batch_sampler, gen_corpus
from .errors import DataError, DivergedLoss, InvalidConfig, NumericalError
from .model import ModelConfig, build_model, loss_and_grads
from .optim import OptimizerKind, adamw_step, init_moments
from .schedule import ScheduleConfig, ScheduleState, lrs_at, on_step
from .spectral import WeightMatrix
from .tailfit import FitConfig, SpectralSummary, summarize

log = logging.getLogger(__name__)

# Trailing window averaged into final_loss; smooths single-step noise so
# seed-paired comparisons are stable.
FINAL_LOSS_WINDOW = 100


class TrainMode(Enum):
    UNIFORM = "uniform"
    LLR = "llr"


@dataclass
class OptimConfig:
    optimizer: OptimizerKind = OptimizerKind.ADAMW
    eta: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    mode: TrainMode = TrainMode.UNIFORM
    plan_cfg: PlanConfig | None = None
    schedule_cfg: ScheduleConfig | None = None
    fit_cfg: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not (0.0 < self.betas[0] < 1.0 and 0.0 < self.betas[1] < 1.0):
            raise InvalidConfig("betas must lie in (0, 1)")
        if self.grad_clip <= 0.0:
            raise InvalidConfig("grad_clip must be positive")
        if self.eta <= 0.0:
            raise InvalidConfig("eta must be positive")
        if self.plan_cfg is None:
            self.plan_cfg = PlanConfig(eta=self.eta)
        elif self.plan_cfg.eta != self.eta:
            raise InvalidConfig(f"plan eta {self.plan_cfg.eta} != optim eta {self.eta}: "
                                "a run has one eta")


@dataclass
class TrainRun:
    """Step-by-step telemetry of one training run."""

    losses: np.ndarray
    lr_timeline: list[tuple[int, str, float]]
    alpha_history: list[list[SpectralSummary]]
    alpha_std_history: list[float]
    recompute_steps: list[int]
    final_loss: float
    mode: TrainMode
    diverged: bool = False


def sweep_summaries(
    matrices: Sequence[WeightMatrix], fit_cfg: FitConfig
) -> tuple[list[SpectralSummary], dict[str, str]]:
    """Spectral summaries of the fittable matrices, in input order.

    A matrix whose spectrum cannot be fitted (too few positive eigenvalues,
    not a matrix, non-finite entries) is excluded: it is returned by name
    with its error text, is left out of every plan, and follows the global
    schedule at eta. InvalidConfig propagates.
    """
    summaries, excluded = [], {}
    for w in matrices:
        try:
            summaries.append(summarize(w, fit_cfg))
        except (DataError, NumericalError) as exc:
            log.warning("excluding %s from allocation: %s", w.name, exc)
            excluded[w.name] = f"{type(exc).__name__}: {exc}"
    return summaries, excluded


def alpha_std(summaries: list[SpectralSummary]) -> float:
    finite = [s.alpha for s in summaries if math.isfinite(s.alpha)]
    return float(np.std(finite)) if finite else math.nan


def _finalize(losses, timeline, history, stds, boundaries, mode, diverged):
    arr = np.asarray(losses)
    if diverged or arr.size == 0:
        final = math.inf
    else:
        final = float(arr[-min(FINAL_LOSS_WINDOW, arr.size):].mean())
    return TrainRun(arr, timeline, history, stds, boundaries, final, mode, diverged)


def run_training(
    model_cfg: ModelConfig,
    opt_cfg: OptimConfig,
    data_cfg: DataConfig,
    steps: int,
) -> TrainRun:
    """Train for ``steps`` optimizer steps and return the telemetry.

    Raises DivergedLoss (with the partial TrainRun attached) if the loss
    becomes non-finite.
    """
    if steps < 1:
        raise InvalidConfig("steps must be positive")
    if data_cfg.vocab != model_cfg.vocab:
        raise InvalidConfig("data vocab must match model vocab")
    sched_cfg = opt_cfg.schedule_cfg
    if sched_cfg is None:
        sched_cfg = ScheduleConfig(t_max=steps, warmup_steps=steps // 10)
    elif sched_cfg.t_max != steps:
        raise InvalidConfig(f"schedule t_max {sched_cfg.t_max} != steps {steps}")
    # Uniform mode is LLR with s = 1: every plan peak is eta.
    if opt_cfg.mode is TrainMode.LLR:
        plan_cfg = opt_cfg.plan_cfg
    else:
        plan_cfg = PlanConfig(eta=opt_cfg.eta, s=1.0)

    model = build_model(model_cfg)
    stream = gen_corpus(data_cfg)
    batches = batch_sampler(data_cfg, stream, model_cfg.context + 1)
    moments = init_moments(model.params)
    matrix_order = model.matrix_names()

    losses: list[float] = []
    timeline: list[tuple[int, str, float]] = []
    history: list[list[SpectralSummary]] = []
    stds: list[float] = []
    boundaries: list[int] = []
    state = ScheduleState()

    def provider(t: int):
        summaries, _ = sweep_summaries(model.weight_matrices(), opt_cfg.fit_cfg)
        history.append(summaries)
        stds.append(alpha_std(summaries))
        boundaries.append(t)
        return [(s.layer_name, s.alpha) for s in summaries]

    for t in range(steps):
        batch = next(batches)
        state = on_step(state, sched_cfg, provider, plan_cfg, model.roles, t)
        lrs = lrs_at(state, sched_cfg, opt_cfg.eta, model.params, t)
        timeline.extend((t, name, lrs[name]) for name in matrix_order)

        loss, grads = loss_and_grads(model, batch)
        if not math.isfinite(loss):
            partial = _finalize(losses, timeline, history, stds, boundaries,
                                opt_cfg.mode, diverged=True)
            raise DivergedLoss(t, partial)
        losses.append(loss)

        adamw_step(
            model.params,
            grads,
            moments,
            t + 1,
            lrs,
            betas=opt_cfg.betas,
            eps=opt_cfg.eps,
            weight_decay=opt_cfg.weight_decay,
            grad_clip=opt_cfg.grad_clip,
            optimizer=opt_cfg.optimizer,
        )

    return _finalize(losses, timeline, history, stds, boundaries,
                     opt_cfg.mode, diverged=False)
