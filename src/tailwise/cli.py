"""Command-line surface: analyze, plan, schedule, train.

Exit codes: 0 success, 2 usage or bad configuration, 3 data error,
4 numerical failure (any other tailwise error too). Errors are also
emitted as one JSON record on stderr so callers can parse failures.
A diverged training run writes its outputs up to the diverged step, then exits 4.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .allocate import Assignment, PlanConfig, build_plan
from .data import DataConfig
from .errors import DataError, DivergedLoss, EmptyInput, InvalidConfig, ParseError, TailwiseError
from .fromjson import from_json, read_json
from .manifest import load_manifest
from .model import ModelConfig
from .reports import (
    analysis_report,
    plan_document,
    render_document,
    run_summary,
    timeline_csv,
)
from .schedule import BaseSchedule, ScheduleConfig, base_lr_at
from .tailfit import FitConfig, FitMethod
from .train import OptimConfig, check_sections, run_training, sweep_summaries


def _write(out: str | Path | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_bytes(text.encode())
    except OSError as exc:
        raise InvalidConfig(f"cannot write {out}: {exc}") from exc


def _fit_config(args) -> FitConfig:
    return FitConfig(method=FitMethod(args.method))


def _plan_config(args) -> PlanConfig | None:
    if args.eta is None:
        return None
    return PlanConfig(eta=args.eta, s=args.s, assignment=Assignment(args.assignment),
                      embedding_override=not args.no_embedding_override)


def _add_plan_flags(p: argparse.ArgumentParser, eta_required: bool) -> None:
    p.add_argument("--eta", type=float, required=eta_required, default=None,
                   help="global learning rate (plan lower bound)")
    p.add_argument("--s", type=float, default=5.0, help="upper scaling ratio (plan bound s*eta)")
    p.add_argument("--assignment", choices=[a.value for a in Assignment], default="linear")
    p.add_argument("--no-embedding-override", action="store_true",
                   help="do not pin embedding/output-head layers to the upper bound")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=[m.value for m in FitMethod], default="median",
                   help="tail-fit cutoff selection method")


def cmd_analyze(args) -> int:
    matrices = load_manifest(args.manifest)
    report = analysis_report(matrices, _fit_config(args), _plan_config(args))
    _write(args.out, render_document(report))
    return 0


def cmd_plan(args) -> int:
    matrices = load_manifest(args.manifest)
    plan_cfg = _plan_config(args)
    summaries, _ = sweep_summaries(matrices, _fit_config(args))
    plan = build_plan(summaries, plan_cfg)
    if plan is None:
        raise EmptyInput(f"{args.manifest}: no layer could be fitted")
    _write(args.out, render_document(plan_document(plan, plan_cfg, args.method)))
    return 0


def cmd_schedule(args) -> int:
    matrices = load_manifest(args.manifest)
    plan_cfg = _plan_config(args)
    cfg = ScheduleConfig(
        t_max=args.steps,
        base=BaseSchedule(args.base),
        warmup_steps=args.warmup,
        min_lr_fraction=args.min_lr_fraction,
        recompute_interval=args.interval,
        t_switch=args.switch,
        active_fraction=args.active,
    )
    # Alphas are frozen from the manifest, so every recompute would rebuild
    # this plan, and an unchanged plan follows the base schedule at its peak.
    summaries, layers = sweep_summaries(matrices, _fit_config(args))
    plan = build_plan(summaries, plan_cfg)
    peaks = [(name, plan.base_lr(name) if plan is not None and name in plan
              else plan_cfg.eta) for name, _, _ in layers]
    rows = [(t, name, base_lr_at(cfg, peak, t)) for t in range(args.steps) for name, peak in peaks]
    _write(args.out, timeline_csv(rows))
    return 0


@dataclass(frozen=True)
class TrainFile:
    """A train config's top level: the step count and one object per section."""

    steps: int = 2000
    model: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    optim: dict = field(default_factory=dict)
    plan: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)


def cmd_train(args) -> int:
    doc = read_json(args.config, ParseError)
    read = partial(from_json, error=InvalidConfig)
    top = read(TrainFile, doc, "config")
    model_cfg = read(ModelConfig, top.model, "model")
    data_cfg = read(DataConfig, top.data, "data", vocab=model_cfg.vocab)
    opt_cfg = read(OptimConfig, top.optim, "optim")
    plan_cfg = read(PlanConfig, top.plan, "plan", eta=opt_cfg.eta)
    sched_cfg = read(ScheduleConfig, top.schedule, "schedule",
                     t_max=top.steps, warmup_steps=top.steps // 10)
    fit_cfg = read(FitConfig, top.fit, "fit")
    if sched_cfg.t_max != top.steps:
        raise InvalidConfig(f"schedule t_max {sched_cfg.t_max} != steps {top.steps}")
    check_sections(model_cfg, opt_cfg, data_cfg, plan_cfg)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfig(f"cannot write {out_dir}: {exc}") from exc
    # Overflow on the way to a diverged loss is reported by DivergedLoss.
    with np.errstate(all="ignore"):
        run = run_training(model_cfg, opt_cfg, data_cfg, plan_cfg, sched_cfg, fit_cfg)
    _write(out_dir / "summary.json", render_document(run_summary(run)))
    _write(out_dir / "timeline.csv", timeline_csv(run.lr_timeline))
    if run.diverged:
        raise DivergedLoss(run.losses.size)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tailwise",
                                     description="layerwise LR analysis, planning and training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectral and tail-exponent sweep over a checkpoint")
    p.add_argument("--manifest", required=True)
    _add_fit_flags(p)
    _add_plan_flags(p, eta_required=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="emit the per-layer LR plan for a checkpoint")
    p.add_argument("--manifest", required=True)
    _add_fit_flags(p)
    _add_plan_flags(p, eta_required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("schedule", help="timeline CSV for a hypothetical run (frozen alphas)",
                       description="Alphas are frozen from the manifest, so one plan holds for "
                       "the whole run: each layer's LR is its plan LR (eta for a layer left out "
                       "of the plan) times the base schedule. --interval, --switch and --active "
                       "are checked but do not change the CSV.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--interval", type=int, default=None, help="default: min(100, steps)")
    p.add_argument("--switch", type=int, default=None, help="default: min(50, interval)")
    p.add_argument("--active", type=float, default=0.2)
    p.add_argument("--base", choices=[b.value for b in BaseSchedule], default="cosine")
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--min-lr-fraction", type=float, default=0.0)
    _add_fit_flags(p)
    _add_plan_flags(p, eta_required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("train", help="run the toy trainer from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        sys.stderr.write(_error_record(exc))
        return 2
    except DataError as exc:
        sys.stderr.write(_error_record(exc))
        return 3
    except (TailwiseError, ValueError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(_error_record(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
