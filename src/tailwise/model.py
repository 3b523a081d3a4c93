"""Desk-scale decoder-only transformer in plain NumPy.

Pre-norm blocks with rotary attention and a gated (SiLU) feed-forward,
no biases; float64 throughout. Gradients are hand-written reverse-mode,
exact for the forward pass and deterministic for fixed inputs, so the
whole trainer stays dependency-light and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch, TokenOutOfRange
from .spectral import LayerRole, WeightMatrix

RMS_EPS = 1e-6
ROPE_BASE = 10000.0
EMBED_INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 64
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_mult: float = 4.0
    context: int = 64
    seed: int = 0
    tie_output_head: bool = False
    # Compute dtype of the trainer. Spectral analysis always widens to f64;
    # the gradient-check path needs an f64 model.
    dtype: str = "f32"

    def __post_init__(self):
        if min(self.vocab, self.d_model, self.n_layers, self.n_heads, self.context) < 1:
            raise InvalidConfig("vocab, d_model, n_layers, n_heads, context must be positive")
        if self.ffn_mult <= 0:
            raise InvalidConfig("ffn_mult must be positive")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise InvalidConfig("head dimension must be even for rotary pairs")
        if self.dtype not in ("f32", "f64"):
            raise InvalidConfig("dtype must be 'f32' or 'f64'")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return int(round(self.ffn_mult * self.d_model))

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype == "f32" else np.float64)


_BLOCK_MATRIX_ROLES = {
    "att.q": LayerRole.ATT_Q,
    "att.k": LayerRole.ATT_K,
    "att.v": LayerRole.ATT_V,
    "att.o": LayerRole.ATT_O,
    "ffn.gate": LayerRole.FFN_GATE,
    "ffn.up": LayerRole.FFN_UP,
    "ffn.down": LayerRole.FFN_DOWN,
}


class Model:
    """Parameter store: ordered name -> array plus a role tag per name."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray], roles: dict[str, LayerRole]):
        self.cfg = cfg
        self.params = params
        self.roles = roles

    def matrix_names(self) -> list[str]:
        return [n for n, r in self.roles.items() if r is not LayerRole.NON_MATRIX]

    def weight_matrices(self) -> list[WeightMatrix]:
        """Analyzable 2-D parameters, in construction order (no copies)."""
        return [WeightMatrix(n, self.roles[n], self.params[n]) for n in self.matrix_names()]


def _xavier(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(2.0 / (fan_in + fan_out)))


def build_model(cfg: ModelConfig) -> Model:
    """Deterministic initialization.

    Block matrices use Xavier scale (residual outputs damped by
    1/sqrt(2 * n_layers)); embedding and output head use a 0.02 normal.
    Norm gains start at one.
    """
    rng = np.random.default_rng(cfg.seed)
    d, f, dt = cfg.d_model, cfg.ffn_dim, cfg.np_dtype
    damp = 1.0 / np.sqrt(2.0 * cfg.n_layers)
    params: dict[str, np.ndarray] = {}
    roles: dict[str, LayerRole] = {}

    def add(name, role, array):
        params[name] = array.astype(dt)
        roles[name] = role

    add("embed", LayerRole.EMBEDDING, rng.normal(0.0, EMBED_INIT_STD, (cfg.vocab, d)))
    for i in range(cfg.n_layers):
        p = f"blocks.{i}."
        add(p + "att_norm", LayerRole.NON_MATRIX, np.ones(d))
        add(p + "att.q", LayerRole.ATT_Q, rng.normal(0.0, _xavier(d, d), (d, d)))
        add(p + "att.k", LayerRole.ATT_K, rng.normal(0.0, _xavier(d, d), (d, d)))
        add(p + "att.v", LayerRole.ATT_V, rng.normal(0.0, _xavier(d, d), (d, d)))
        add(p + "att.o", LayerRole.ATT_O, rng.normal(0.0, damp * _xavier(d, d), (d, d)))
        add(p + "ffn_norm", LayerRole.NON_MATRIX, np.ones(d))
        add(p + "ffn.gate", LayerRole.FFN_GATE, rng.normal(0.0, _xavier(d, f), (d, f)))
        add(p + "ffn.up", LayerRole.FFN_UP, rng.normal(0.0, _xavier(d, f), (d, f)))
        add(p + "ffn.down", LayerRole.FFN_DOWN, rng.normal(0.0, damp * _xavier(f, d), (f, d)))
    add("final_norm", LayerRole.NON_MATRIX, np.ones(d))
    if not cfg.tie_output_head:
        add("output_head", LayerRole.OUTPUT_HEAD,
            rng.normal(0.0, EMBED_INIT_STD, (cfg.vocab, d)))
    return Model(cfg, params, roles)


# -- layer primitives -------------------------------------------------------

def _rmsnorm_fwd(x, g):
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    xhat = x / r
    return xhat * g, (xhat, r, g)


def _rmsnorm_bwd(dy, cache):
    xhat, r, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dyh = dy * g
    dot = np.mean(dyh * xhat, axis=-1, keepdims=True)
    dx = (dyh - xhat * dot) / r
    return dx, dg


_TABLE_CACHE: dict[tuple, tuple] = {}


def _rope_tables(t_len: int, head_dim: int, dtype):
    key = ("rope", t_len, head_dim, dtype)
    if key not in _TABLE_CACHE:
        half = head_dim // 2
        inv_freq = ROPE_BASE ** (-np.arange(half) * 2.0 / head_dim)
        angles = np.arange(t_len)[:, None] * inv_freq[None, :]
        _TABLE_CACHE[key] = (np.cos(angles).astype(dtype), np.sin(angles).astype(dtype))
    return _TABLE_CACHE[key]  # each (T, half)


def _causal_mask(t_len: int, dtype):
    key = ("mask", t_len, dtype)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = np.triu(np.full((t_len, t_len), -np.inf, dtype=dtype), k=1)
    return _TABLE_CACHE[key]


def _rope_apply(x, cos, sin):
    # x: (B, H, T, dh); rotate each (even, odd) pair by the position angle.
    c = cos[None, None, :, :]
    s = sin[None, None, :, :]
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * c - x2 * s
    out[..., 1::2] = x1 * s + x2 * c
    return out


def _rope_bwd(dy, cos, sin):
    # The rotation is orthogonal: the adjoint is the inverse rotation.
    c = cos[None, None, :, :]
    s = sin[None, None, :, :]
    dy1, dy2 = dy[..., 0::2], dy[..., 1::2]
    out = np.empty_like(dy)
    out[..., 0::2] = dy1 * c + dy2 * s
    out[..., 1::2] = -dy1 * s + dy2 * c
    return out


def _silu(x):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _softmax_last(x):
    z = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


# -- forward / backward ------------------------------------------------------

def _validate_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ShapeMismatch("tokens must be (batch, length) with length >= 2")
    if tokens.shape[1] - 1 > cfg.context:
        raise ShapeMismatch(f"sequence length {tokens.shape[1] - 1} exceeds context {cfg.context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise TokenOutOfRange(f"tokens must lie in [0, {cfg.vocab})")
    return tokens


def _forward(model: Model, tokens: np.ndarray):
    cfg = model.cfg
    p = model.params
    tokens = _validate_tokens(cfg, tokens)
    inputs, targets = tokens[:, :-1], tokens[:, 1:]
    b, t = inputs.shape
    head = p["embed"] if cfg.tie_output_head else p["output_head"]

    cos, sin = _rope_tables(t, cfg.head_dim, cfg.np_dtype)
    mask = _causal_mask(t, cfg.np_dtype)
    scale = 1.0 / float(np.sqrt(cfg.head_dim))

    x = p["embed"][inputs]  # (B, T, D)
    blocks = []
    for i in range(cfg.n_layers):
        pre = f"blocks.{i}."
        xn, nc1 = _rmsnorm_fwd(x, p[pre + "att_norm"])
        qr = _rope_apply(_split_heads(xn @ p[pre + "att.q"], cfg.n_heads), cos, sin)
        kr = _rope_apply(_split_heads(xn @ p[pre + "att.k"], cfg.n_heads), cos, sin)
        vh = _split_heads(xn @ p[pre + "att.v"], cfg.n_heads)
        att = _softmax_last(qr @ kr.swapaxes(-1, -2) * scale + mask)
        merged = _merge_heads(att @ vh)
        x = x + merged @ p[pre + "att.o"]

        fn, nc2 = _rmsnorm_fwd(x, p[pre + "ffn_norm"])
        u = fn @ p[pre + "ffn.gate"]
        up = fn @ p[pre + "ffn.up"]
        act, sig = _silu(u)
        z = act * up
        x = x + z @ p[pre + "ffn.down"]
        blocks.append(dict(nc1=nc1, xn=xn, qr=qr, kr=kr, vh=vh, att=att, merged=merged,
                           nc2=nc2, fn=fn, u=u, up=up, act=act, sig=sig, z=z))

    h, ncf = _rmsnorm_fwd(x, p["final_norm"])
    logits = h @ head.T  # (B, T, V)
    m = np.max(logits, axis=-1, keepdims=True)
    log_z = m + np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)
    loss = float(np.mean(log_z - picked))
    cache = dict(inputs=inputs, targets=targets, cos=cos, sin=sin, scale=scale,
                 blocks=blocks, h=h, ncf=ncf, logits=logits, log_z=log_z, head=head)
    return loss, cache


def forward_loss(model: Model, tokens: np.ndarray) -> float:
    """Mean next-token cross-entropy (nats) over all positions of the batch."""
    loss, _ = _forward(model, tokens)
    return loss


def loss_and_grads(model: Model, tokens: np.ndarray):
    """One combined forward/backward pass; grads keyed like ``model.params``."""
    cfg = model.cfg
    p = model.params
    loss, c = _forward(model, tokens)
    inputs, targets = c["inputs"], c["targets"]
    b, t = inputs.shape
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}

    probs = np.exp(c["logits"] - c["log_z"])
    dlogits = probs
    np.put_along_axis(dlogits, targets[..., None],
                      np.take_along_axis(dlogits, targets[..., None], axis=-1) - 1.0, axis=-1)
    dlogits *= 1.0 / (b * t)

    d = cfg.d_model
    dhead = dlogits.reshape(-1, cfg.vocab).T @ c["h"].reshape(-1, d)
    if cfg.tie_output_head:
        grads["embed"] += dhead
    else:
        grads["output_head"] += dhead
    dh = dlogits @ c["head"]
    dx, grads["final_norm"] = _rmsnorm_bwd(dh, c["ncf"])

    cos, sin, scale = c["cos"], c["sin"], c["scale"]
    for i in reversed(range(cfg.n_layers)):
        pre = f"blocks.{i}."
        bc = c["blocks"][i]

        # feed-forward
        dz = dx @ p[pre + "ffn.down"].T
        grads[pre + "ffn.down"] += bc["z"].reshape(-1, cfg.ffn_dim).T @ dx.reshape(-1, d)
        dup = dz * bc["act"]
        dact = dz * bc["up"]
        du = dact * bc["sig"] * (1.0 + bc["u"] * (1.0 - bc["sig"]))
        fn2 = bc["fn"].reshape(-1, d)
        grads[pre + "ffn.gate"] += fn2.T @ du.reshape(-1, cfg.ffn_dim)
        grads[pre + "ffn.up"] += fn2.T @ dup.reshape(-1, cfg.ffn_dim)
        dfn = du @ p[pre + "ffn.gate"].T + dup @ p[pre + "ffn.up"].T
        dres, grads[pre + "ffn_norm"] = _rmsnorm_bwd(dfn, bc["nc2"])
        dx = dx + dres

        # attention
        dmerged = dx @ p[pre + "att.o"].T
        grads[pre + "att.o"] += bc["merged"].reshape(-1, d).T @ dx.reshape(-1, d)
        dctx = _split_heads(dmerged, cfg.n_heads)
        datt = dctx @ bc["vh"].swapaxes(-1, -2)
        dvh = bc["att"].swapaxes(-1, -2) @ dctx
        ds = bc["att"] * (datt - np.sum(datt * bc["att"], axis=-1, keepdims=True))
        dqr = ds @ bc["kr"] * scale
        dkr = ds.swapaxes(-1, -2) @ bc["qr"] * scale
        dq = _merge_heads(_rope_bwd(dqr, cos, sin))
        dk = _merge_heads(_rope_bwd(dkr, cos, sin))
        dv = _merge_heads(dvh)
        xn2 = bc["xn"].reshape(-1, d)
        grads[pre + "att.q"] += xn2.T @ dq.reshape(-1, d)
        grads[pre + "att.k"] += xn2.T @ dk.reshape(-1, d)
        grads[pre + "att.v"] += xn2.T @ dv.reshape(-1, d)
        dxn = dq @ p[pre + "att.q"].T + dk @ p[pre + "att.k"].T + dv @ p[pre + "att.v"].T
        dres, grads[pre + "att_norm"] = _rmsnorm_bwd(dxn, bc["nc1"])
        dx = dx + dres

    np.add.at(grads["embed"], inputs.reshape(-1), dx.reshape(-1, d))
    return loss, grads
