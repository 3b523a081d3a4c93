"""Decoupled AdamW with per-parameter-group learning rates.

Gradient clipping acts on the global norm across all parameters before
any moment update. Trust-ratio variants rescale each matrix group's LR by
||w|| / (||g|| + wd * ||w||) (LARS) or ||w|| / ||update|| clipped at
LAMB_MAX_RATIO (LAMB); 1-D groups (norm gains) keep the plain LR and take
no weight decay.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ShapeMismatch

# Upper clip of the LAMB trust ratio ||w|| / ||update||.
LAMB_MAX_RATIO = 10.0


class OptimizerKind(Enum):
    ADAMW = "adamw"
    ADAMW_LARS = "adamw-lars"
    ADAMW_LAMB = "adamw-lamb"


def trust_ratio_lr(weight_norm: float, denom_norm: float, eta: float) -> float:
    """eta scaled by the trust ratio ||w|| / denom_norm.

    The ratio is defined as 1 whenever either side of it vanishes. The
    caller picks the denominator (LARS: ||g|| + wd * ||w||; LAMB: the
    adaptive update's norm) and any clip of the ratio.
    """
    ratio = 1.0 if (weight_norm == 0.0 or denom_norm == 0.0) else weight_norm / denom_norm
    return eta * ratio


def init_moments(params: Mapping[str, np.ndarray]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {name: (np.zeros_like(w), np.zeros_like(w)) for name, w in params.items()}


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global norm is <= max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    moments: dict[str, tuple[np.ndarray, np.ndarray]],
    t: int,
    per_layer_lr: Mapping[str, float],
    *,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    grad_clip: float | None = 1.0,
    optimizer: OptimizerKind = OptimizerKind.ADAMW,
) -> None:
    """One optimizer step, in place. ``t`` is 1-based for bias correction."""
    if set(params) != set(grads):
        raise ShapeMismatch("params and grads cover different parameter groups")
    for name in params:
        if params[name].shape != grads[name].shape:
            raise ShapeMismatch(f"{name}: grad shape {grads[name].shape} != {params[name].shape}")
        if name not in per_layer_lr:
            raise ShapeMismatch(f"{name}: no learning rate assigned")
    if grad_clip is not None:
        clip_gradients(grads, grad_clip)
    b1, b2 = betas
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, w in params.items():
        g = grads[name]
        m, v = moments[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        lr = per_layer_lr[name]
        decay = weight_decay if w.ndim == 2 else 0.0
        if optimizer is not OptimizerKind.ADAMW and w.ndim == 2:
            w_norm = float(np.linalg.norm(w))
            if optimizer is OptimizerKind.ADAMW_LARS:
                lr = trust_ratio_lr(w_norm, float(np.linalg.norm(g)) + decay * w_norm, lr)
            else:
                # eta * min(r, 10) == min(eta * r, 10 * eta): rounding is monotone.
                lr = min(trust_ratio_lr(w_norm, float(np.linalg.norm(update)), lr),
                         LAMB_MAX_RATIO * lr)
        w -= lr * (update + decay * w)
