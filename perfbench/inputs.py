"""Seeded inputs of the benchmark: workload definitions, run configs, checkpoints.

Everything here is made from the workload seed alone and written as plain
files (JSON configs, a JSON manifest over raw little-endian blobs), so the
program under test receives only generated inputs. Nothing in this module
imports tailwise.

Checkpoints mix Gaussian matrices with "planted" ones whose eigenvalue
spectrum is known exactly: W = diag(sigma) Q, with Q the rows of a Sylvester
Hadamard matrix (signed columns, scaled by 1/sqrt(n)), so W W^T = diag(sigma^2).
The planted eigenvalues are the quantiles of a Pareto law with density
p(x) ~ x^-alpha, which a Hill fit over the top half recovers to within
PLANTED_REL_TOL (the finite-grid bias is at most 4% at 64 eigenvalues for
alpha <= 3, and 0.4% at 1024).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PLANTED_REL_TOL = 0.05
# Entry scale of the Gaussian layers; planted spectra are scaled to match.
WEIGHT_STD = 0.02

_ITEMSIZE = {"f32": 4, "f64": 8}


@dataclass(frozen=True)
class LayerSpec:
    name: str
    role: str
    rows: int
    cols: int
    dtype: str = "f32"
    planted_alpha: float | None = None

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * _ITEMSIZE[self.dtype]


@dataclass(frozen=True)
class Workload:
    name: str
    # Manifest that analyze, plan and schedule read.
    layers: tuple[LayerSpec, ...]
    # `tailwise schedule` flags (besides --manifest/--out).
    schedule_steps: int
    schedule_interval: int
    schedule_switch: int
    schedule_active: float
    schedule_warmup: int
    # `tailwise train` config without the seeds.
    train: dict
    eta: float = 3e-3
    s: float = 5.0
    # Which commands' set-up time setup_s reports.
    setup_commands: tuple[str, ...] = ("train",)


def block_layers(vocab: int, d: int, ffn: int, n_blocks: int, planted: dict,
                 f64: frozenset = frozenset()) -> tuple[LayerSpec, ...]:
    """Matrices of a decoder stack in model order: embed, blocks, head."""
    shapes = [("embed", "embed", vocab, d)]
    for i in range(n_blocks):
        p = f"blocks.{i}."
        shapes += [(p + "att.q", "att.q", d, d), (p + "att.k", "att.k", d, d),
                   (p + "att.v", "att.v", d, d), (p + "att.o", "att.o", d, d),
                   (p + "ffn.gate", "ffn.gate", d, ffn), (p + "ffn.up", "ffn.up", d, ffn),
                   (p + "ffn.down", "ffn.down", ffn, d)]
    shapes.append(("output_head", "output_head", vocab, d))
    return tuple(LayerSpec(name, role, r, c, "f64" if name in f64 else "f32", planted.get(name))
                 for name, role, r, c in shapes)


def _train(steps, vocab, d, layers, heads, context, kind, length, batch, eta, optimizer,
           interval, switch, active, warmup) -> dict:
    return {
        "steps": steps,
        "model": {"vocab": vocab, "d_model": d, "n_layers": layers, "n_heads": heads,
                  "context": context, "dtype": "f32"},
        "data": {"kind": kind, "length": length, "batch": batch},
        "optim": {"eta": eta, "mode": "llr", "optimizer": optimizer, "weight_decay": 0.1},
        "plan": {"s": 5.0, "assignment": "linear"},
        "schedule": {"base": "cosine", "warmup_steps": warmup, "recompute_interval": interval,
                     "t_switch": switch, "active_fraction": active},
    }


_PLANT = {"blocks.0.att.q": 2.0, "blocks.0.att.o": 2.5, "blocks.0.ffn.up": 3.0}

WORKLOADS = {
    # The acceptance study's model, data, plan and schedule, cut to 150 steps.
    "llr-d64": Workload(
        name="llr-d64",
        layers=block_layers(64, 64, 256, 2, _PLANT, frozenset({"blocks.0.att.o"})),
        schedule_steps=60, schedule_interval=50, schedule_switch=25,
        schedule_active=0.2, schedule_warmup=6,
        train=_train(60, 64, 64, 2, 4, 64, "markov", 200_000, 16, 3e-3, "adamw",
                     50, 25, 0.2, 6),
    ),
    # Wide matrices, short batches, LAMB and a plan recompute every 5 steps.
    # The corpus is a short Markov stream: with the modular-copy corpus the
    # loss drop within 80 steps depends on the seed (0.07 to 0.5 nats).
    # Short rounds give a run several of them, which steadies its medians.
    "llr-wide-recompute": Workload(
        name="llr-wide-recompute",
        layers=block_layers(16, 256, 1024, 2, _PLANT, frozenset({"blocks.0.att.o"})),
        schedule_steps=40, schedule_interval=5, schedule_switch=2,
        schedule_active=1.0, schedule_warmup=4,
        train=_train(40, 16, 256, 2, 4, 32, "markov", 30_000, 4, 3e-3, "adamw-lamb",
                     5, 2, 1.0, 4),
    ),
    # One d_model-1024 block plus an 8192-row embedding and head (~134 MB).
    # The trailing toy train keeps every end-to-end metric defined; it is
    # a few percent of the round.
    "ckpt-cli": Workload(
        name="ckpt-cli",
        layers=block_layers(8192, 1024, 4096, 1,
                            {"blocks.0.att.q": 2.0, "blocks.0.att.o": 2.5,
                             "blocks.0.ffn.down": 3.0},
                            frozenset({"blocks.0.att.o"})),
        schedule_steps=20_000, schedule_interval=100, schedule_switch=50,
        schedule_active=0.2, schedule_warmup=2_000,
        train=_train(1000, 64, 32, 1, 2, 16, "markov", 20_000, 8, 3e-3, "adamw",
                     250, 125, 0.4, 100),
        eta=1e-3,
        setup_commands=("analyze", "plan", "schedule"),
    ),
}


def train_config(w: Workload, seed: int) -> dict:
    cfg = json.loads(json.dumps(w.train))
    cfg["model"]["seed"] = seed
    cfg["data"]["seed"] = seed
    return cfg


def pareto_quantiles(alpha: float, n: int) -> np.ndarray:
    """Ascending quantiles i/(n+1) of the Pareto law with density ~ x^-alpha, x >= 1."""
    i = np.arange(n, 0, -1)
    return (i / (n + 1.0)) ** (-1.0 / (alpha - 1.0))


def hadamard_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of the n x n Sylvester Hadamard matrix: H[i, j] = (-1)^popcount(i & j)."""
    parity = np.bitwise_count(rows[:, None] & np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * parity


def planted_matrix(rng: np.random.Generator, rows: int, cols: int, alpha: float) -> np.ndarray:
    m, n = min(rows, cols), max(rows, cols)
    if n & (n - 1):
        raise ValueError(f"planted layers need a power-of-two long side, got {n}")
    eigs = pareto_quantiles(alpha, m) * (n * WEIGHT_STD**2)
    sigma = np.sqrt(eigs)[rng.permutation(m)]
    q = hadamard_rows(rng.choice(n, size=m, replace=False), n)
    q *= rng.choice([-1.0, 1.0], size=n)[None, :] / np.sqrt(n)
    w = sigma[:, None] * q
    return w if rows <= cols else w.T


def write_checkpoint(directory: Path, layers: tuple[LayerSpec, ...], seed: int) -> Path:
    """Write the blobs and manifest of ``layers``; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xC4E7])
    entries, offset = [], 0
    with open(directory / "weights.bin", "wb") as fh:
        for spec in layers:
            if spec.planted_alpha is None:
                values = rng.standard_normal((spec.rows, spec.cols)) * WEIGHT_STD
            else:
                values = planted_matrix(rng, spec.rows, spec.cols, spec.planted_alpha)
            dtype = "<f4" if spec.dtype == "f32" else "<f8"
            fh.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
            entries.append({"name": spec.name, "role": spec.role, "rows": spec.rows,
                            "cols": spec.cols, "dtype": spec.dtype, "file": "weights.bin",
                            "byte_offset": offset})
            offset += spec.nbytes
    path = directory / "manifest.json"
    path.write_text(json.dumps({"version": 1, "layers": entries}, indent=1) + "\n")
    return path


def read_layer(manifest: Path, spec: LayerSpec) -> np.ndarray:
    """One stored matrix, widened to float64, read straight from the blob."""
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["layers"] if e["name"] == spec.name)
    dtype = np.dtype("<f4" if entry["dtype"] == "f32" else "<f8")
    values = np.fromfile(manifest.parent / entry["file"], dtype=dtype,
                         count=entry["rows"] * entry["cols"], offset=entry["byte_offset"])
    return values.astype(np.float64).reshape(entry["rows"], entry["cols"])
