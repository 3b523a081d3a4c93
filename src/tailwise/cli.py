"""Command-line surface: analyze, plan, schedule, train.

Exit codes: 0 success, 2 usage or bad configuration, 3 data error,
4 numerical failure (any other tailwise error too). Errors are also
emitted as one JSON record on stderr so callers can parse failures.
A diverged training run still writes its partial outputs before exiting 4.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .allocate import Assignment, PlanConfig
from .data import CorpusKind, DataConfig
from .errors import DataError, DivergedLoss, EmptyInput, InvalidConfig, ParseError, TailwiseError
from .manifest import load_manifest
from .model import ModelConfig
from .optim import OptimizerKind
from .reports import (
    analysis_report,
    plan_document,
    render_document,
    run_summary,
    sweep_plan,
    timeline_csv,
)
from .schedule import BaseSchedule, ScheduleConfig, ScheduleState, SwitchMode, lrs_at, on_step
from .tailfit import FitConfig, FitMethod
from .train import OptimConfig, TrainMode, TrainRun, run_training, sweep_summaries


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode())


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
    _, _, plan = sweep_plan(matrices, _fit_config(args), plan_cfg)
    if plan is None:
        raise EmptyInput(f"{args.manifest}: no layer could be fitted")
    _write(args.out, render_document(plan_document(plan, plan_cfg, args.method)))
    return 0


def cmd_schedule(args) -> int:
    matrices = load_manifest(args.manifest)
    fit_cfg = _fit_config(args)
    plan_cfg = _plan_config(args)
    cfg = ScheduleConfig(
        t_max=args.steps,
        base=BaseSchedule(args.base),
        warmup_steps=args.warmup,
        min_lr_fraction=args.min_lr_fraction,
        recompute_interval=args.interval,
        t_switch=args.switch,
        active_fraction=args.active,
        switch_mode=SwitchMode(args.switch_mode),
    )
    # Alphas are frozen from the manifest: every recompute sees the same fit.
    summaries, _ = sweep_summaries(matrices, fit_cfg)
    alphas = [(s.layer_name, s.alpha) for s in summaries]
    roles = {w.name: w.role for w in matrices}
    names = [w.name for w in matrices]
    rows = []
    state = ScheduleState()
    for t in range(args.steps):
        state = on_step(state, cfg, lambda _t: alphas, plan_cfg, roles, t)
        lrs = lrs_at(state, cfg, plan_cfg.eta, names, t)
        rows.extend((t, name, lrs[name]) for name in names)
    _write(args.out, timeline_csv(rows))
    return 0


_CONFIG_KEYS = {"steps", "model", "data", "optim", "plan", "schedule", "fit"}
_OPTIM_KEYS = {"optimizer", "eta", "betas", "eps", "weight_decay", "grad_clip", "mode"}


def _config_from(doc: dict, section: str, builder, **extra):
    entries = dict(doc.get(section, {}))
    entries.update(extra)
    return builder(**entries)


def _check_keys(where: str, entries: dict, known: set[str]) -> None:
    unknown = sorted(set(entries) - known)
    if unknown:
        raise InvalidConfig(f"{where}: unknown keys {unknown}")


def _train_configs(doc: dict) -> tuple[int, ModelConfig, OptimConfig, DataConfig]:
    _check_keys("config", doc, _CONFIG_KEYS)
    steps = int(doc.get("steps", 2000))

    model_cfg = _config_from(doc, "model", ModelConfig)
    data_cfg = _config_from(doc, "data", DataConfig,
                            kind=CorpusKind(doc.get("data", {}).get("kind", "markov")),
                            vocab=doc.get("data", {}).get("vocab", model_cfg.vocab))

    optim = dict(doc.get("optim", {}))
    _check_keys("config section 'optim'", optim, _OPTIM_KEYS)
    eta = float(optim.get("eta", 1e-3))
    plan_section = dict(doc.get("plan", {}))
    plan_section.setdefault("eta", eta)
    plan_section["assignment"] = Assignment(plan_section.get("assignment", "linear"))
    plan_cfg = _config_from({"plan": plan_section}, "plan", PlanConfig)

    sched_section = dict(doc.get("schedule", {}))
    sched_section.setdefault("t_max", steps)
    sched_section.setdefault("warmup_steps", steps // 10)
    sched_section["base"] = BaseSchedule(sched_section.get("base", "cosine"))
    sched_section["switch_mode"] = SwitchMode(sched_section.get("switch_mode", "soft"))
    sched_cfg = _config_from({"schedule": sched_section}, "schedule", ScheduleConfig)

    fit_section = dict(doc.get("fit", {}))
    fit_section["method"] = FitMethod(fit_section.get("method", "median"))
    fit_cfg = _config_from({"fit": fit_section}, "fit", FitConfig)

    opt_cfg = OptimConfig(
        optimizer=OptimizerKind(optim.get("optimizer", "adamw")),
        eta=eta,
        betas=tuple(optim.get("betas", (0.9, 0.999))),
        eps=float(optim.get("eps", 1e-8)),
        weight_decay=float(optim.get("weight_decay", 0.1)),
        grad_clip=float(optim.get("grad_clip", 1.0)),
        mode=TrainMode(optim.get("mode", "llr")),
        plan_cfg=plan_cfg,
        schedule_cfg=sched_cfg,
        fit_cfg=fit_cfg,
    )
    return steps, model_cfg, opt_cfg, data_cfg


def _write_run(out_dir: Path, run: TrainRun) -> None:
    (out_dir / "summary.json").write_bytes(render_document(run_summary(run)).encode())
    (out_dir / "timeline.csv").write_bytes(timeline_csv(run.lr_timeline).encode())


def cmd_train(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{args.config}: {exc}") from exc
    try:
        steps, model_cfg, opt_cfg, data_cfg = _train_configs(doc)
    except (AttributeError, TypeError, ValueError) as exc:  # malformed section or value
        raise InvalidConfig(f"{args.config}: {exc}") from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # Overflow on the way to a diverged loss is reported by DivergedLoss.
        with np.errstate(all="ignore"):
            run = run_training(model_cfg, opt_cfg, data_cfg, steps)
    except DivergedLoss as exc:
        _write_run(out_dir, exc.partial)
        raise
    _write_run(out_dir, run)
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

    p = sub.add_parser("schedule", help="timeline CSV for a hypothetical run (frozen alphas)")
    p.add_argument("--manifest", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--interval", type=int, default=None, help="default: min(100, steps)")
    p.add_argument("--switch", type=int, default=None, help="default: min(50, interval)")
    p.add_argument("--active", type=float, default=0.2)
    p.add_argument("--base", choices=[b.value for b in BaseSchedule], default="cosine")
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--min-lr-fraction", type=float, default=0.0)
    p.add_argument("--switch-mode", choices=[m.value for m in SwitchMode], default="soft")
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
    except (TailwiseError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(_error_record(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
