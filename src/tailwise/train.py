"""End-to-end training loop: spectra -> plan -> schedule -> AdamW.

Each step samples a batch, advances the schedule (recomputing the
per-layer plan from fresh spectra on cadence boundaries during the active
phase), then applies AdamW with per-group learning rates. Uniform mode is
the same loop with plans built at s = 1: every plan peak equals eta, so
every group follows the global schedule bit for bit, and the spectral
telemetry is recorded on the same cadence as in LLR mode.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .allocate import PlanConfig
from .data import DataConfig, batch_sampler, gen_corpus
from .errors import DataError, InvalidConfig, NumericalError
from .model import ModelConfig, build_model, loss_and_grads
from .optim import OptimizerKind, adamw_step, init_moments
from .schedule import ScheduleConfig, ScheduleState, lrs_at, on_step
from .spectral import LayerRole, WeightMatrix
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
    mode: TrainMode = TrainMode.LLR

    def __post_init__(self):
        if not (0.0 < self.betas[0] < 1.0 and 0.0 < self.betas[1] < 1.0):
            raise InvalidConfig("betas must lie in (0, 1)")
        if not 0.0 < self.grad_clip < math.inf:
            raise InvalidConfig("grad_clip must be positive and finite")
        if not 0.0 < self.eta < math.inf:
            raise InvalidConfig("eta must be positive and finite")
        if not 0.0 < self.eps < math.inf:
            raise InvalidConfig("eps must be positive and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise InvalidConfig("weight_decay must be non-negative and finite")


@dataclass
class TrainRun:
    """Step-by-step telemetry of one training run, complete or diverged.

    A diverged run holds every step up to the first non-finite loss: the
    losses before it, and the LRs and sweeps of that step too.
    """

    losses: np.ndarray
    lr_timeline: list[tuple[int, str, float]]
    alpha_history: list[list[SpectralSummary]]
    recompute_steps: list[int]
    mode: TrainMode
    diverged: bool

    @property
    def alpha_std_history(self) -> list[float]:
        return [alpha_std(summaries) for summaries in self.alpha_history]

    @property
    def final_loss(self) -> float:
        """Mean of the last FINAL_LOSS_WINDOW losses; inf for a diverged or empty run."""
        if self.diverged or self.losses.size == 0:
            return math.inf
        return float(self.losses[-FINAL_LOSS_WINDOW:].mean())


def sweep_summaries(
    matrices: Iterable[WeightMatrix], fit_cfg: FitConfig
) -> tuple[list[SpectralSummary], list[tuple[str, LayerRole, str | None]]]:
    """Spectral summaries of the fittable matrices, and every matrix's outcome.

    Returns ``(summaries, layers)``: the summaries in input order, and each
    input matrix in order as ``(name, role, error)``. A matrix whose
    spectrum cannot be fitted (too few positive eigenvalues, non-finite
    entries) has its error text there, is left out of every plan, and
    follows the global schedule at eta; a fitted one has ``None``.
    InvalidConfig propagates. ``matrices`` is iterated once, and no matrix
    is kept once it is summarized.
    """
    summaries, layers = [], []
    for w in matrices:
        error = None
        try:
            summaries.append(summarize(w, fit_cfg))
        except (DataError, NumericalError) as exc:
            # Logged as text: a kept log record must not keep the matrix
            # alive through the exception's traceback.
            log.warning("excluding %s from allocation: %s", w.name, str(exc))
            error = f"{type(exc).__name__}: {exc}"
        layers.append((w.name, w.role, error))
        del w  # else it stays alive while the next matrix is made
    return summaries, layers


def alpha_std(summaries: list[SpectralSummary]) -> float:
    finite = [s.alpha for s in summaries if math.isfinite(s.alpha)]
    return float(np.std(finite)) if finite else math.nan


def _keep_heap() -> None:
    """Have malloc keep freed memory for the next step instead of unmapping it.

    Every step allocates the same large temporaries. By default glibc maps
    each one above its mmap threshold afresh, faults it in as zeroed pages
    and unmaps it on free, and trims freed memory at the top of the heap.
    Raising both thresholds lets the next step reuse those pages; the
    setting holds for the rest of the process. Nothing computed changes.
    Does nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's largest allowed value
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def check_sections(model_cfg: ModelConfig, opt_cfg: OptimConfig, data_cfg: DataConfig,
                   plan_cfg: PlanConfig) -> None:
    """Raise InvalidConfig unless the sections agree on the vocab and on eta
    and the corpus holds one window: ``context`` tokens and the next one."""
    if data_cfg.vocab != model_cfg.vocab:
        raise InvalidConfig("data vocab must match model vocab")
    window = model_cfg.context + 1
    if data_cfg.length < window:
        raise InvalidConfig(f"corpus length {data_cfg.length} below window {window}")
    if plan_cfg.eta != opt_cfg.eta:
        raise InvalidConfig(f"plan eta {plan_cfg.eta} != optim eta {opt_cfg.eta}: "
                            "a run has one eta")


def run_training(
    model_cfg: ModelConfig,
    opt_cfg: OptimConfig,
    data_cfg: DataConfig,
    plan_cfg: PlanConfig,
    sched_cfg: ScheduleConfig,
    fit_cfg: FitConfig = FitConfig(),
) -> TrainRun:
    """Train for ``sched_cfg.t_max`` optimizer steps and return the telemetry.

    A non-finite loss stops the loop: the run returned then has ``diverged``
    set and holds what was recorded up to that step.
    """
    check_sections(model_cfg, opt_cfg, data_cfg, plan_cfg)
    # Uniform mode is LLR with s = 1: every plan peak is eta.
    if opt_cfg.mode is TrainMode.UNIFORM:
        plan_cfg = PlanConfig(eta=opt_cfg.eta, s=1.0)

    _keep_heap()
    model = build_model(model_cfg)
    stream = gen_corpus(data_cfg)
    batches = batch_sampler(data_cfg, stream, model_cfg.context + 1)
    moments = init_moments(model.params)
    matrix_order = model.matrix_names()

    losses: list[float] = []
    timeline: list[tuple[int, str, float]] = []
    history: list[list[SpectralSummary]] = []
    boundaries: list[int] = []
    state = ScheduleState()
    diverged = False

    def sweep(t: int) -> list[SpectralSummary]:
        summaries, _ = sweep_summaries(model.weight_matrices(), fit_cfg)
        history.append(summaries)
        boundaries.append(t)
        return summaries

    for t in range(sched_cfg.t_max):
        batch = next(batches)
        state = on_step(state, sched_cfg, sweep, plan_cfg, t)
        lrs = lrs_at(state, sched_cfg, opt_cfg.eta, model.params, t)
        timeline.extend((t, name, lrs[name]) for name in matrix_order)

        loss, grads = loss_and_grads(model, batch)
        if not math.isfinite(loss):
            diverged = True
            break
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

    return TrainRun(np.asarray(losses), timeline, history, boundaries, opt_cfg.mode, diverged)
