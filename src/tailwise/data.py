"""Deterministic synthetic token streams for the toy trainer."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig

# Longest stream numpy can hold as one int64 (or float64 draw) array.
MAX_LENGTH = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


class CorpusKind(Enum):
    MARKOV_CHARS = "markov"


@dataclass(frozen=True)
class DataConfig:
    kind: CorpusKind = CorpusKind.MARKOV_CHARS
    seed: int = 0
    length: int = 200_000
    vocab: int = 64
    batch: int = 16

    def __post_init__(self):
        if self.vocab < 2:
            raise InvalidConfig("vocab must be >= 2")
        if not 2 <= self.length <= MAX_LENGTH:
            raise InvalidConfig(f"length must lie in [2, {MAX_LENGTH}]")
        if self.batch < 1:
            raise InvalidConfig("batch must be >= 1")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")


# Transition rows are a peaky Dirichlet draw (small concentration) mixed
# from a shared bigram table and a pair-specific trigram table. The bigram
# share keeps the stream learnable by a desk-scale model within a few
# thousand steps; the trigram share still rewards attention over context.
MARKOV_CONCENTRATION = 0.08
MARKOV_BIGRAM_WEIGHT = 0.8


def markov_transitions(seed: int, vocab: int) -> np.ndarray:
    """Order-2 transition tensor P[a, b, c] = P(next=c | prev2=a, prev=b)."""
    rng = np.random.default_rng([seed, 0x2A17])
    bigram = rng.gamma(shape=MARKOV_CONCENTRATION, scale=1.0, size=(vocab, vocab)) + 1e-6
    bigram /= bigram.sum(axis=-1, keepdims=True)
    trigram = rng.gamma(shape=MARKOV_CONCENTRATION, scale=1.0, size=(vocab, vocab, vocab)) + 1e-6
    trigram /= trigram.sum(axis=-1, keepdims=True)
    w = MARKOV_BIGRAM_WEIGHT
    mixed = w * bigram[None, :, :] + (1.0 - w) * trigram
    return mixed / mixed.sum(axis=-1, keepdims=True)


# Draws converted to Python floats at a time; bounds the walk's extra memory.
WALK_CHUNK = 8192


def markov_walk(trans: np.ndarray, a: int, b: int, draws: np.ndarray) -> np.ndarray:
    """Tokens a, b, then one token per draw of the chain ``trans``.

    Each next token is the first c with cumsum(trans[a, b])[c] >= draw,
    which is what ``np.searchsorted`` returns. Every row's cumulative
    total is set to exactly 1.0, so a draw in [0, 1) always names a token
    even when the rounded row sum falls short of 1.
    """
    vocab = trans.shape[-1]
    cum = np.cumsum(trans, axis=-1)
    cum[..., -1] = 1.0
    rows = cum.reshape(-1, vocab).tolist()
    out = np.empty(draws.size + 2, dtype=np.int64)
    out[0], out[1] = a, b
    for lo in range(0, draws.size, WALK_CHUNK):
        chunk = []
        for d in draws[lo : lo + WALK_CHUNK].tolist():
            c = bisect_left(rows[a * vocab + b], d)
            chunk.append(c)
            a, b = b, c
        out[lo + 2 : lo + 2 + WALK_CHUNK] = chunk
    return out


def gen_corpus(cfg: DataConfig) -> np.ndarray:
    """Deterministic order-2 Markov token stream of exactly cfg.length tokens."""
    trans = markov_transitions(cfg.seed, cfg.vocab)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    a, b = rng.integers(0, cfg.vocab, size=2)
    draws = rng.random(cfg.length)
    return markov_walk(trans, int(a), int(b), draws[2:])


def batch_sampler(cfg: DataConfig, stream: np.ndarray, window: int):
    """Yields (batch, window) token slabs drawn at seeded random offsets."""
    if stream.size < window:
        raise InvalidConfig(f"corpus length {stream.size} below window {window}")
    rng = np.random.default_rng([cfg.seed, 0xBA7C])
    limit = stream.size - window + 1
    while True:
        starts = rng.integers(0, limit, size=cfg.batch)
        yield np.stack([stream[s : s + window] for s in starts])
