"""Deterministic report documents: analysis JSON, plan JSON, timeline CSV.

Floats are printed with 17 significant digits (%.17g), which round-trips
float64 exactly, so byte-identical inputs give byte-identical reports and
parsed values equal the in-process results. Non-finite floats are encoded
as the JSON strings "inf", "-inf", "nan" to keep documents standard JSON.
"""

from __future__ import annotations

import math
from typing import Sequence

from .allocate import LRPlan, PlanConfig, build_plan
from .spectral import WeightMatrix
from .tailfit import FitConfig, SpectralSummary
from .train import TrainRun, alpha_std, sweep_summaries


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON writer with pinned float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_document(doc: dict) -> str:
    return dumps(doc) + "\n"


def sweep_plan(
    matrices: Sequence[WeightMatrix],
    fit_cfg: FitConfig,
    plan_cfg: PlanConfig | None,
) -> tuple[list[SpectralSummary], dict[str, str], LRPlan | None]:
    """Sweep ``matrices`` and plan over the layers that could be fitted.

    Returns the summaries, the excluded layers' error text by name, and the
    plan, which is None without a plan config or when nothing was fitted.
    """
    summaries, excluded = sweep_summaries(matrices, fit_cfg)
    plan = None
    if plan_cfg is not None and summaries:
        roles = {s.layer_name: s.role for s in summaries}
        plan = build_plan([(s.layer_name, s.alpha) for s in summaries], roles, plan_cfg)
    return summaries, excluded, plan


def analysis_report(
    matrices: Sequence[WeightMatrix],
    fit_cfg: FitConfig = FitConfig(),
    plan_cfg: PlanConfig | None = None,
) -> dict:
    """Full spectral and alpha sweep; per-layer failures recorded inline.

    With a plan config the report also carries the assigned base LRs.
    """
    summaries, excluded, plan = sweep_plan(matrices, fit_cfg, plan_cfg)
    fitted = {s.layer_name: s for s in summaries}
    records = []
    for w in matrices:
        if w.name in excluded:
            records.append({"name": w.name, "role": w.role.value, "error": excluded[w.name]})
            continue
        s = fitted[w.name]
        record = {
            "name": s.layer_name,
            "role": s.role.value,
            "n_eff": s.n_eff,
            "k_used": s.k_used,
            "alpha": s.alpha,
            "lambda_max": s.lambda_max,
            "fro_norm": s.fro_norm,
            "spec_norm": s.spec_norm,
        }
        if plan is not None:
            record["assigned_lr"] = plan.base_lr(s.layer_name)
        records.append(record)

    meta: dict = {"method": fit_cfg.method.value, "alpha_std": alpha_std(summaries)}
    finite = [s.alpha for s in summaries if math.isfinite(s.alpha)]
    meta["alpha_min"] = min(finite) if finite else math.nan
    meta["alpha_max"] = max(finite) if finite else math.nan
    if plan_cfg is not None:
        meta.update(
            eta=plan_cfg.eta,
            s=plan_cfg.s,
            assignment=plan_cfg.assignment.value,
            embedding_override=plan_cfg.embedding_override,
        )
    return {"layers": records, "plan": meta}


def plan_document(plan: LRPlan, plan_cfg: PlanConfig, method: str) -> dict:
    return {
        "eta": plan_cfg.eta,
        "s": plan_cfg.s,
        "assignment": plan_cfg.assignment.value,
        "method": method,
        "created_at_step": plan.created_at_step,
        "alpha_min": plan.alpha_min,
        "alpha_max": plan.alpha_max,
        "layers": [{"name": n, "base_lr": lr} for n, lr in plan.per_layer],
    }


def timeline_csv(rows: Sequence[tuple[int, str, float]]) -> str:
    """CSV with header ``step,layer,lr``, LF endings, 17-digit floats."""
    lines = ["step,layer,lr"]
    lines.extend(f"{step},{layer},{'%.17g' % lr}" for step, layer, lr in rows)
    return "\n".join(lines) + "\n"


def run_summary(run: TrainRun) -> dict:
    """Loss, per-recompute alphas, and alpha-spread telemetry of a run."""
    recomputes = []
    for t, summaries, std in zip(run.recompute_steps, run.alpha_history, run.alpha_std_history):
        recomputes.append(
            {
                "step": t,
                "alpha_std": std,
                "alphas": [{"name": s.layer_name, "alpha": s.alpha, "k_used": s.k_used}
                           for s in summaries],
            }
        )
    return {
        "mode": run.mode.value,
        "steps": int(run.losses.size),
        "diverged": run.diverged,
        "final_loss": run.final_loss,
        "first_loss": float(run.losses[0]) if run.losses.size else math.nan,
        "recomputes": recomputes,
    }
