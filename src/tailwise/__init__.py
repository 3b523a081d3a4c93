"""Layerwise learning-rate allocation from heavy-tailed weight spectra."""

from .allocate import (
    Assignment,
    LRPlan,
    PlanConfig,
    apply_embedding_override,
    build_plan,
    linear_map,
    mean_normalized_map,
)
from .data import CorpusKind, DataConfig, gen_corpus
from .manifest import load_manifest, save_manifest
from .model import Model, ModelConfig, build_model, forward_loss, loss_and_grads
from .optim import OptimizerKind, adamw_step, clip_gradients, init_moments, trust_ratio_lr
from .schedule import (
    BaseSchedule,
    ScheduleConfig,
    ScheduleState,
    SwitchMode,
    base_lr_at,
    layer_lr_at,
    lrs_at,
    on_step,
)
from .spectral import LayerRole, WeightMatrix, esd
from .tailfit import (
    FitConfig,
    FitMethod,
    SpectralSummary,
    fit_alpha,
    hill_alpha,
    summarize,
)
from .train import OptimConfig, TrainMode, TrainRun, run_training, sweep_summaries

__version__ = "0.1.0"
