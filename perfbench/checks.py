"""Checks of every command's output against the reference computations.

Each check raises CheckFailed with a message naming what was wrong. The
expected values come from oracle.py and the generated inputs, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from inputs import PLANTED_REL_TOL, LayerSpec
from oracle import linear_lrs, warmup_cosine

# Gram-eigvalsh against SVD spectra, through the Hill fit.
ALPHA_REL_TOL = 1e-9
# Same quantity by another summation order or arithmetic arrangement.
ROUNDING_REL_TOL = 1e-12
# first_loss against oracle.reference_loss of the step-0 model on the first
# batch: a float32 forward pass against a float64 one (seen: 6e-8).
FORWARD_REL_TOL = 1e-6
# A 0.02-std head gives near-uniform logits at step 0: the first loss lies
# within FIRST_LOSS_TOL + HEAD_STD * sqrt(d_model) of ln(vocab). Over
# unit-RMS features a logit has standard deviation HEAD_STD * sqrt(d_model)
# (0.32 at d_model 256). A batch draws its tokens from a few contexts, so
# its mean loss scatters by a sizeable share of that: up to 0.15 nats over
# 60 seeds at d_model 256 with vocab 16.
FIRST_LOSS_TOL = 0.05
HEAD_STD = 0.02
# final_loss (mean of the last 100 steps) must undercut first_loss by this.
LOSS_MARGIN = 0.3

PINNED_ROLES = ("embed", "output_head")


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Expected:
    layers: tuple[LayerSpec, ...]
    alphas: dict  # manifest layer -> reference alpha
    fro_norms: dict  # manifest layer -> numpy.linalg.norm
    eta: float
    s: float
    schedule_steps: int
    schedule_warmup: int
    train: dict  # the train config the command ran
    step0_alphas: dict  # model matrix -> reference alpha of build_model(cfg)
    first_loss: float  # reference loss of build_model(cfg) on the first batch


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_analysis(doc: dict, exp: Expected) -> dict[str, float]:
    """Alphas, norms, planted exponents and assigned LRs; returns the LRs."""
    records = doc["layers"]
    _fail_unless([r["name"] for r in records] == [l.name for l in exp.layers],
                 "analyze: layer list differs from the manifest")
    alphas = {}
    for r in records:
        name = r["name"]
        _fail_unless("error" not in r, f"analyze: {name} reported {r.get('error')}")
        alphas[name] = float(r["alpha"])
        _fail_unless(_close(alphas[name], exp.alphas[name], ALPHA_REL_TOL),
                     f"analyze: {name} alpha {r['alpha']!r} != reference {exp.alphas[name]!r}")
        _fail_unless(_close(float(r["fro_norm"]), exp.fro_norms[name], ROUNDING_REL_TOL),
                     f"analyze: {name} fro_norm {r['fro_norm']!r} != {exp.fro_norms[name]!r}")

    planted = sorted((l for l in exp.layers if l.planted_alpha is not None),
                     key=lambda l: l.planted_alpha)
    recovered = [alphas[l.name] for l in planted]
    _fail_unless(all(a < b for a, b in zip(recovered, recovered[1:])),
                 f"analyze: planted alphas {recovered} out of planted order")
    for l in planted:
        _fail_unless(abs(alphas[l.name] / l.planted_alpha - 1.0) <= PLANTED_REL_TOL,
                     f"analyze: planted {l.name} alpha {alphas[l.name]} not within "
                     f"{PLANTED_REL_TOL:.0%} of {l.planted_alpha}")

    pinned = {l.name for l in exp.layers if l.role in PINNED_ROLES}
    want = linear_lrs(alphas, pinned, exp.eta, exp.s)
    top = exp.s * exp.eta
    assigned = {}
    for r in records:
        name, lr = r["name"], r["assigned_lr"]
        assigned[name] = lr
        if name in pinned:
            _fail_unless(lr == top, f"analyze: pinned {name} lr {lr!r} != s*eta {top!r}")
        _fail_unless(_close(lr, want[name], ROUNDING_REL_TOL),
                     f"analyze: {name} assigned lr {lr!r} != linear map {want[name]!r}")
        _fail_unless(exp.eta <= lr <= top, f"analyze: {name} lr {lr!r} outside [eta, s*eta]")
    return assigned


def check_plan(doc: dict, assigned: dict[str, float]) -> None:
    got = [(l["name"], l["base_lr"]) for l in doc["layers"]]
    _fail_unless(got == list(assigned.items()),
                 "plan: base LRs differ from analyze's assigned LRs")


def _rows(text: str) -> list[tuple[int, str, float]]:
    lines = text.split("\n")
    _fail_unless(lines[0] == "step,layer,lr" and lines[-1] == "", "csv: bad header or ending")
    rows = []
    for line in lines[1:-1]:
        step, layer, lr = line.split(",")
        rows.append((int(step), layer, float(lr)))
    return rows


def _check_grid(rows, steps: int, layers: list[str], what: str) -> None:
    _fail_unless(len(rows) == steps * len(layers),
                 f"{what}: {len(rows)} rows, want {steps} steps x {len(layers)} layers")
    for i, (step, layer, _) in enumerate(rows):
        if step != i // len(layers) or layer != layers[i % len(layers)]:
            raise CheckFailed(f"{what}: row {i} is ({step}, {layer}), out of order")


def _matches(got: float, want: float) -> bool:
    return got == want if want == 0.0 else _close(got, want, ROUNDING_REL_TOL)


def check_schedule(text: str, exp: Expected, assigned: dict[str, float]) -> None:
    """Frozen alphas: every row is the plan LR times the warmup-cosine factor."""
    rows = _rows(text)
    _check_grid(rows, exp.schedule_steps, list(assigned), "schedule")
    for step, layer, lr in rows:
        want = assigned[layer] * warmup_cosine(step, exp.schedule_steps, exp.schedule_warmup)
        if not _matches(lr, want):
            raise CheckFailed(f"schedule: step {step} {layer} lr {lr!r} != {want!r}")


def check_summary(doc: dict, exp: Expected) -> float:
    """Steps, divergence, loss bounds and step-0 alphas; returns final_loss."""
    cfg = exp.train
    _fail_unless(doc["steps"] == cfg["steps"], f"train: {doc['steps']} steps, want {cfg['steps']}")
    _fail_unless(doc["diverged"] is False, "train: run diverged")
    first, final = doc["first_loss"], doc["final_loss"]
    _fail_unless(isinstance(first, float) and _close(first, exp.first_loss, FORWARD_REL_TOL),
                 f"train: first_loss {first!r} != reference {exp.first_loss!r}")
    excess = first - math.log(cfg["model"]["vocab"])
    tol = FIRST_LOSS_TOL + HEAD_STD * math.sqrt(cfg["model"]["d_model"])
    _fail_unless(abs(excess) <= tol,
                 f"train: first_loss {first!r} is {excess!r} from ln(vocab), beyond {tol}")
    _fail_unless(isinstance(final, float) and final <= first - LOSS_MARGIN,
                 f"train: final_loss {final!r} not {LOSS_MARGIN} below first_loss {first!r}")
    step0 = doc["recomputes"][0]
    _fail_unless(step0["step"] == 0, "train: first recompute is not at step 0")
    got = {a["name"]: a["alpha"] for a in step0["alphas"]}
    _fail_unless(list(got) == list(exp.step0_alphas), "train: step-0 layers differ from the model")
    for name, alpha in got.items():
        _fail_unless(_close(alpha, exp.step0_alphas[name], ALPHA_REL_TOL),
                     f"train: step-0 {name} alpha {alpha!r} != reference {exp.step0_alphas[name]!r}")
    return final


def check_timeline(text: str, exp: Expected) -> None:
    """Rows per step and matrix; pinned rows follow s*eta times warmup-cosine."""
    cfg = exp.train
    steps, eta, s = cfg["steps"], cfg["optim"]["eta"], cfg["plan"]["s"]
    warmup = cfg["schedule"]["warmup_steps"]
    rows = _rows(text)
    _check_grid(rows, steps, list(exp.step0_alphas), "timeline")
    for step, layer, lr in rows:
        if not (math.isfinite(lr) and 0.0 <= lr <= s * eta):
            raise CheckFailed(f"timeline: step {step} {layer} lr {lr!r} outside [0, s*eta]")
        if layer in PINNED_ROLES:
            want = s * eta * warmup_cosine(step, steps, warmup)
            if not _matches(lr, want):
                raise CheckFailed(f"timeline: step {step} {layer} lr {lr!r} != {want!r}")


def check_same_final_loss(losses: list[float]) -> None:
    _fail_unless(len(set(losses)) <= 1, f"train: final_loss differs between repeats: {losses}")
