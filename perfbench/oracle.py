"""Reference computations the outputs are checked against.

They are written apart from tailwise: spectra come from numpy.linalg.eigvalsh
of the smaller-side Gram matrix (the program takes an SVD), the Hill
estimate is a plain loop, the LR map and warmup-cosine factor are
restated from their definitions in the README of the repository, and the
step-0 loss comes from a float64 forward pass that walks one sequence,
one head and one position at a time.
"""

from __future__ import annotations

import math

import numpy as np


def gram_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the smaller-side Gram matrix of ``values``."""
    m = np.asarray(values, dtype=np.float64)
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return np.linalg.eigvalsh(gram)


def hill_alpha(eigenvalues) -> float:
    """Hill estimate over the top k = n // 2 positive eigenvalues, as a loop."""
    lam = sorted(float(x) for x in eigenvalues if x > 0.0)
    n = len(lam)
    k = n // 2
    cutoff = lam[n - k - 1]
    total = 0.0
    for i in range(1, k + 1):
        total += math.log(lam[n - i] / cutoff)
    return math.inf if total < 1e-300 else 1.0 + k / total


def layer_alpha(values: np.ndarray) -> float:
    return hill_alpha(gram_eigenvalues(values))


def fro_norm(values: np.ndarray) -> float:
    return float(np.linalg.norm(values))


def linear_lrs(alphas: dict[str, float], pinned: set[str], eta: float, s: float) -> dict[str, float]:
    """Bounded linear map onto [eta, s*eta]; pinned layers get s*eta."""
    finite = [a for a in alphas.values() if math.isfinite(a)]
    lo, hi = min(finite), max(finite)
    out = {}
    for name, a in alphas.items():
        if name in pinned or math.isinf(a):
            out[name] = s * eta
        elif hi == lo:
            out[name] = eta
        else:
            out[name] = eta + eta * (s - 1.0) * (a - lo) / (hi - lo)
    return out


def warmup_cosine(t: int, t_max: int, warmup: int) -> float:
    """Linear warmup to 1, then a half cosine to 0 at t_max."""
    if t < warmup:
        return t / warmup
    return 0.5 * (1.0 + math.cos(math.pi * (t - warmup) / (t_max - warmup)))


def _rms_normed(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * gain


def _rotary(x: np.ndarray, base: float = 10000.0) -> np.ndarray:
    """Rotate each (even, odd) pair of row t by t times its frequency, as a complex product."""
    t_len, dh = x.shape
    freq = base ** (-np.arange(dh // 2) * 2.0 / dh)
    turned = (x[:, 0::2] + 1j * x[:, 1::2]) * np.exp(1j * np.outer(np.arange(t_len), freq))
    out = np.empty_like(x)
    out[:, 0::2], out[:, 1::2] = turned.real, turned.imag
    return out


def reference_loss(params: dict, n_layers: int, n_heads: int, tokens: np.ndarray) -> float:
    """Mean next-token cross-entropy of the pre-norm rotary decoder, in float64.

    Blocks: x += Attn(RMSNorm(x)) Wo, then x += (SiLU(n Wgate) * (n Wup)) Wdown
    with n = RMSNorm(x); logits = RMSNorm(x) head^T. Causal softmax attention
    is taken position by position.
    """
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    head = p.get("output_head", p["embed"])
    total, count = 0.0, 0
    for seq in np.asarray(tokens):
        inputs, targets = seq[:-1], seq[1:]
        x = p["embed"][inputs]
        for i in range(n_layers):
            b = f"blocks.{i}."
            n = _rms_normed(x, p[b + "att_norm"])
            q, k, v = n @ p[b + "att.q"], n @ p[b + "att.k"], n @ p[b + "att.v"]
            dh = q.shape[1] // n_heads
            context = np.empty_like(q)
            for h in range(n_heads):
                cols = slice(h * dh, (h + 1) * dh)
                qh, kh = _rotary(q[:, cols]), _rotary(k[:, cols])
                for t in range(len(inputs)):
                    scores = kh[: t + 1] @ qh[t] / math.sqrt(dh)
                    weights = np.exp(scores - scores.max())
                    context[t, cols] = weights @ v[: t + 1, cols] / weights.sum()
            x = x + context @ p[b + "att.o"]
            n = _rms_normed(x, p[b + "ffn_norm"])
            gate = n @ p[b + "ffn.gate"]
            x = x + (gate / (1.0 + np.exp(-gate)) * (n @ p[b + "ffn.up"])) @ p[b + "ffn.down"]
        logits = _rms_normed(x, p["final_norm"]) @ head.T
        for row, target in zip(logits, targets):
            top = row.max()
            total += top + math.log(np.exp(row - top).sum()) - row[target]
            count += 1
    return total / count
