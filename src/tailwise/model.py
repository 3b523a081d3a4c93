"""Desk-scale decoder-only transformer in plain NumPy.

Pre-norm blocks with rotary attention and a gated (SiLU) feed-forward,
no biases; float32 unless ``dtype="f64"``. Gradients are hand-written
reverse-mode, exact for the forward pass and deterministic for fixed
inputs, so the whole trainer stays dependency-light and bit-reproducible.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator

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
        if not 0.0 < self.ffn_mult < math.inf:
            raise InvalidConfig("ffn_mult must be positive and finite")
        # build_model draws each FFN, embedding and head matrix as float64;
        # numpy refuses an array of more bytes than it can index.
        if (not math.isfinite(self.ffn_mult * self.d_model)
                or max(self.vocab, self.ffn_dim) * self.d_model * 8 > np.iinfo(np.intp).max):
            raise InvalidConfig(f"vocab {self.vocab}, d_model {self.d_model} and ffn_mult "
                                f"{self.ffn_mult} give an embedding or FFN width numpy "
                                "cannot allocate")
        if self.ffn_dim < 1:
            raise InvalidConfig(f"ffn_mult {self.ffn_mult} * d_model {self.d_model} "
                                "rounds to an empty FFN (ffn_dim 0)")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise InvalidConfig("head dimension must be even for rotary pairs")
        if self.dtype not in ("f32", "f64"):
            raise InvalidConfig("dtype must be 'f32' or 'f64'")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return int(round(self.ffn_mult * self.d_model))

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.dtype == "f32" else np.float64)


class Model:
    """Parameter store: ordered name -> array plus a role tag per name."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray], roles: dict[str, LayerRole]):
        self.cfg = cfg
        self.params = params
        self.roles = roles

    def matrix_names(self) -> list[str]:
        return [n for n, r in self.roles.items() if r is not LayerRole.NON_MATRIX]

    def weight_matrices(self) -> Iterator[WeightMatrix]:
        """Analyzable 2-D parameters, in construction order, one at a time.

        WeightMatrix holds float64 values, so an f32 model's matrices are
        widened into new arrays, each made only when it is reached; an f64
        model's are the parameters themselves.
        """
        for n in self.matrix_names():
            yield WeightMatrix(n, self.roles[n], self.params[n])


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

def _rmsnorm_fwd(x, g, out):
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    xhat = x / r
    return np.multiply(xhat, g, out=out), (xhat, r, g)


def _rmsnorm_bwd(dy, cache, gain_terms, out=None):
    """Input gradient; the gain's per-position terms go to ``gain_terms``, summed later."""
    xhat, r, g = cache
    np.multiply(dy, xhat, out=gain_terms)
    dyh = dy * g
    dot = np.mean(dyh * xhat, axis=-1, keepdims=True)
    return np.divide(dyh - xhat * dot, r, out=out)


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


def _rope_apply(x, cos, sin, out=None):
    # x: (B, H, T, dh); rotate each (even, odd) pair by the position angle.
    c = cos[None, None, :, :]
    s = sin[None, None, :, :]
    x1, x2 = x[..., 0::2], x[..., 1::2]
    if out is None:
        out = np.empty_like(x)
    out[..., 0::2] = x1 * c - x2 * s
    out[..., 1::2] = x1 * s + x2 * c
    return out


def _silu(x, out):
    sig = np.negative(x)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return np.multiply(x, sig, out=out), sig


def _heads(x, n_heads):
    """(B, T, D) -> a (B, H, T, dh) view."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _row_max(x):
    """``np.max(x, axis=-1, keepdims=True)`` as a tree of pairwise maxima.

    A maximum rounds nothing, so any order gives the same bits. Pairing each
    even column with the next odd one makes every level one long strided
    loop over the whole array, where np.max runs one short loop per row.
    """
    while x.shape[-1] > 1:
        n = x.shape[-1]
        m = np.maximum(x[..., 0:n - 1:2], x[..., 1::2])
        if n % 2:
            np.maximum(m[..., :1], x[..., -1:], out=m[..., :1])
        x = m
    return x


def _softmax_last(x):
    """Softmax over the last axis, computed in place of ``x``."""
    x -= _row_max(x)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


# -- forward / backward ------------------------------------------------------
#
# A step runs in two phases. The row phase does the work of each sequence on
# its own: embedding lookup, norms, the activation products, RoPE, attention,
# the loss terms and every activation gradient. The reduction phase sums over
# the whole batch: the loss mean, the weight-gradient GEMMs, the norm-gain
# sums and the embedding scatter. A row's results do not depend on which
# other rows share its call, and each reduction reads full-batch arrays, so a
# batch run as two row shards gives the same bits as one run whole.

# Fewest tokens per batch (B * T) worth a second thread. Each numpy call of a
# shard hands the interpreter lock over; on small arrays that costs more than
# the halved work saves. Measured on 2 cores: d_model 32 is 8-28% slower
# sharded at 256 to 768 tokens and about even at 1024; d_model 64 gains from
# 384 tokens on (about 0.6x the step time at 1024).
SHARD_MIN_TOKENS = 1024


def _validate_tokens(cfg: ModelConfig, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 2:
        raise ShapeMismatch("tokens must be (batch, length) with length >= 2")
    if tokens.shape[1] - 1 > cfg.context:
        raise ShapeMismatch(f"sequence length {tokens.shape[1] - 1} exceeds context {cfg.context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise TokenOutOfRange(f"tokens must lie in [0, {cfg.vocab})")
    return tokens


class _Batch:
    """Full-batch arrays that the row phase writes and the reduction phase reads."""

    def __init__(self, cfg: ModelConfig, b: int, t: int, backward: bool):
        n, d, f = cfg.n_layers, cfg.d_model, cfg.ffn_dim

        def new(width, count=None):
            if count is None:
                return np.empty((b, t, width), cfg.np_dtype)
            return [np.empty((b, t, width), cfg.np_dtype) for _ in range(count)]

        self.nll = new(1)  # loss at each position
        self.xn, self.merged, self.fn, self.z = new(d, n), new(d, n), new(d, n), new(f, n)
        # The FFN's up projection and SiLU output; the backward pass
        # overwrites them with the gradients of the gate and up products.
        self.up, self.act = new(f, n), new(f, n)
        self.h = new(d)
        if backward:
            self.dlogits = new(cfg.vocab)
            self.dq, self.dk, self.dv = new(d, n), new(d, n), new(d, n)
            # Residual-stream gradients and the norm-gain terms of the norm
            # that wrote each: 2n from the final norm, 2i + 1 from block i's
            # FFN, 2i from block i's attention; dx[0] reaches the embedding.
            self.dx, self.gain = new(d, 2 * n + 1), new(d, 2 * n + 1)


def _rows(model: Model, a: _Batch, tables, tokens, rows: slice, backward: bool) -> None:
    """The row phase for batch rows ``rows``, written into ``a``."""
    cfg = model.cfg
    p = model.params
    inputs, targets = tokens[rows, :-1], tokens[rows, 1:]
    n, nh = cfg.n_layers, cfg.n_heads
    head = p["embed"] if cfg.tie_output_head else p["output_head"]
    cos, sin, mask = tables
    scale = 1.0 / float(np.sqrt(cfg.head_dim))

    x = p["embed"][inputs]  # (B, T, D)
    blocks = []
    for i in range(n):
        pre = f"blocks.{i}."
        xn, nc1 = _rmsnorm_fwd(x, p[pre + "att_norm"], a.xn[i][rows])
        qr = _rope_apply(_heads(xn @ p[pre + "att.q"], nh), cos, sin)
        kr = _rope_apply(_heads(xn @ p[pre + "att.k"], nh), cos, sin)
        vh = _heads(xn @ p[pre + "att.v"], nh)
        scores = qr @ kr.swapaxes(-1, -2)
        scores *= scale
        scores += mask
        att = _softmax_last(scores)
        merged = a.merged[i][rows]
        np.matmul(att, vh, out=_heads(merged, nh))
        x = x + merged @ p[pre + "att.o"]

        fn, nc2 = _rmsnorm_fwd(x, p[pre + "ffn_norm"], a.fn[i][rows])
        u = fn @ p[pre + "ffn.gate"]
        up = np.matmul(fn, p[pre + "ffn.up"], out=a.up[i][rows])
        act, sig = _silu(u, a.act[i][rows])
        z = np.multiply(act, up, out=a.z[i][rows])
        x = x + z @ p[pre + "ffn.down"]
        blocks.append((nc1, qr, kr, vh, att, nc2, u, up, act, sig))

    h, ncf = _rmsnorm_fwd(x, p["final_norm"], a.h[rows])
    logits = h @ head.T  # (B, T, V)
    log_z = _row_max(logits)
    log_z = log_z + np.log(np.sum(np.exp(logits - log_z), axis=-1, keepdims=True))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)
    np.subtract(log_z, picked, out=a.nll[rows])
    if not backward:
        return

    dlogits = a.dlogits[rows]
    np.subtract(logits, log_z, out=dlogits)
    np.exp(dlogits, out=dlogits)
    np.put_along_axis(dlogits, targets[..., None],
                      np.take_along_axis(dlogits, targets[..., None], axis=-1) - 1.0, axis=-1)
    dlogits *= 1.0 / (a.nll.shape[0] * a.nll.shape[1])
    _rmsnorm_bwd(dlogits @ head, ncf, a.gain[2 * n][rows], out=a.dx[2 * n][rows])

    # The rotation is orthogonal: its adjoint rotates by the negated angle.
    back_sin = -sin
    for i in reversed(range(n)):
        pre = f"blocks.{i}."
        nc1, qr, kr, vh, att, nc2, u, up, act, sig = blocks.pop()

        # feed-forward
        dx = a.dx[2 * i + 2][rows]
        dz = dx @ p[pre + "ffn.down"].T
        dup = np.multiply(dz, act, out=act)
        du = np.multiply(dz, up, out=up)  # du = dz * up * sig * (1 + u * (1 - sig)), in that order
        du *= sig
        rest = np.subtract(1.0, sig, out=sig)
        rest *= u
        rest += 1.0
        du *= rest
        dfn = du @ p[pre + "ffn.gate"].T + dup @ p[pre + "ffn.up"].T
        dres = _rmsnorm_bwd(dfn, nc2, a.gain[2 * i + 1][rows])
        dx = np.add(dx, dres, out=a.dx[2 * i + 1][rows])

        # attention
        dctx = _heads(dx @ p[pre + "att.o"].T, nh)
        datt = dctx @ vh.swapaxes(-1, -2)
        dq, dk, dv = a.dq[i][rows], a.dk[i][rows], a.dv[i][rows]
        np.matmul(att.swapaxes(-1, -2), dctx, out=_heads(dv, nh))
        ds = datt  # ds = att * (datt - sum(datt * att))
        ds -= np.sum(datt * att, axis=-1, keepdims=True)
        ds *= att
        _rope_apply(ds @ kr * scale, cos, back_sin, out=_heads(dq, nh))
        _rope_apply(ds.swapaxes(-1, -2) @ qr * scale, cos, back_sin, out=_heads(dk, nh))
        dxn = dq @ p[pre + "att.q"].T + dk @ p[pre + "att.k"].T + dv @ p[pre + "att.v"].T
        dres = _rmsnorm_bwd(dxn, nc1, a.gain[2 * i][rows])
        np.add(dx, dres, out=a.dx[2 * i][rows])


def _add_product(g, x, dy) -> None:
    """g += X^T dY, summed over every position of the batch."""
    g += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _gain_sum(grads: dict, name: str, terms) -> None:
    grads[name] = np.sum(terms, axis=(0, 1))


def _reductions(cfg: ModelConfig, a: _Batch, tokens, grads: dict) -> list:
    """The reduction phase as jobs that each write their own grads, longest first."""
    n, d = cfg.n_layers, cfg.d_model
    head = "embed" if cfg.tie_output_head else "output_head"

    def embedding():
        # A tied head's gradient is the head product, then the scatter, in
        # that order, so the two stay one job.
        _add_product(grads[head], a.dlogits, a.h)
        np.add.at(grads["embed"], tokens[:, :-1].reshape(-1), a.dx[0].reshape(-1, d))

    def product(name, x, dy):
        return functools.partial(_add_product, grads[name], x, dy)

    jobs = [embedding]
    for i in range(n):
        pre = f"blocks.{i}."
        jobs += [product(pre + "ffn.down", a.z[i], a.dx[2 * i + 2]),
                 product(pre + "ffn.gate", a.fn[i], a.up[i]),  # holds du
                 product(pre + "ffn.up", a.fn[i], a.act[i])]  # holds dup
    for i in range(n):
        pre = f"blocks.{i}."
        jobs += [product(pre + "att.o", a.merged[i], a.dx[2 * i + 1]),
                 product(pre + "att.q", a.xn[i], a.dq[i]),
                 product(pre + "att.k", a.xn[i], a.dk[i]),
                 product(pre + "att.v", a.xn[i], a.dv[i])]
    jobs.append(functools.partial(_gain_sum, grads, "final_norm", a.gain[2 * n]))
    for i in range(n):
        jobs += [functools.partial(_gain_sum, grads, f"blocks.{i}.ffn_norm", a.gain[2 * i + 1]),
                 functools.partial(_gain_sum, grads, f"blocks.{i}.att_norm", a.gain[2 * i])]
    return jobs


def _drain(jobs) -> None:
    """Run jobs from ``jobs``, an iterator two threads may share: each next() is atomic."""
    for job in jobs:
        job()


@functools.cache
def _worker():
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tailwise-rows")


# A forked child inherits the pool but not its thread, so it starts its own.
os.register_at_fork(after_in_child=_worker.cache_clear)


def _two_threads(first, second) -> None:
    """Run ``second`` on the worker thread while ``first`` runs on this one.

    The worker runs in a copy of this thread's context, so numpy's error
    state (``np.errstate``) holds there too. An exception from either
    reaches the caller, and only once both are done.
    """
    future = _worker().submit(contextvars.copy_context().run, second)
    try:
        first()
    finally:
        future.result()


def _step(model: Model, tokens: np.ndarray, backward: bool, pair=None):
    """Loss and (with ``backward``) grads; ``pair`` runs two row shards, or None for one."""
    cfg = model.cfg
    tokens = _validate_tokens(cfg, tokens)
    b, t = tokens.shape[0], tokens.shape[1] - 1
    # Filled here, so the shards only read the table cache.
    tables = (*_rope_tables(t, cfg.head_dim, cfg.np_dtype), _causal_mask(t, cfg.np_dtype))
    a = _Batch(cfg, b, t, backward)
    if pair is None:
        _rows(model, a, tables, tokens, slice(0, b), backward)
    else:
        pair(*(functools.partial(_rows, model, a, tables, tokens, rows, backward)
               for rows in (slice(0, b // 2), slice(b // 2, b))))
    loss = float(np.mean(a.nll))
    if not backward:
        return loss, None

    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    jobs = iter(_reductions(cfg, a, tokens, grads))
    if pair is None:
        _drain(jobs)
    else:
        pair(functools.partial(_drain, jobs), functools.partial(_drain, jobs))
    return loss, grads


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None if not found."""
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def _run(model: Model, tokens: np.ndarray, backward: bool):
    """``_step``, on two threads when BLAS may use two and the batch is large enough.

    A two-thread step runs BLAS at one thread in each thread, then sets it
    back to its budget, so the spectral sweeps between steps run as before.
    The bits are the same on either path.
    """
    shape = np.shape(tokens)
    blas = None
    if len(shape) == 2 and shape[0] > 1 and shape[0] * (shape[1] - 1) >= SHARD_MIN_TOKENS:
        blas = _openblas()
    budget = blas[0]() if blas else 1
    if budget < 2:
        return _step(model, tokens, backward)
    blas[1](1)
    try:
        return _step(model, tokens, backward, _two_threads)
    finally:
        blas[1](budget)


def forward_loss(model: Model, tokens: np.ndarray) -> float:
    """Mean next-token cross-entropy (nats) over all positions of the batch."""
    loss, _ = _run(model, tokens, backward=False)
    return loss


def loss_and_grads(model: Model, tokens: np.ndarray):
    """One combined forward/backward pass; grads keyed like ``model.params``."""
    return _run(model, tokens, backward=True)
