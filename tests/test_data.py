import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailwise.data import (
    MAX_LENGTH,
    WALK_CHUNK,
    DataConfig,
    batch_sampler,
    gen_corpus,
    markov_transitions,
    markov_walk,
)
from tailwise.errors import InvalidConfig


def pair_stationary(trans):
    # Power iteration on the pair chain: pi'(b, c) = sum_a pi(a, b) P[a, b, c].
    v = trans.shape[0]
    pi = np.full((v, v), 1.0 / (v * v))
    for _ in range(4000):
        nxt = np.einsum("ab,abc->bc", pi, trans)
        if np.abs(nxt - pi).max() < 1e-14:
            pi = nxt
            break
        pi = nxt
    return pi.sum(axis=0)  # marginal over the newest token


def searchsorted_markov(cfg):
    # Reference: one np.searchsorted per token over the raw cumulative rows.
    trans = markov_transitions(cfg.seed, cfg.vocab)
    cum = np.cumsum(trans, axis=-1)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    out = np.empty(cfg.length, dtype=np.int64)
    a, b = rng.integers(0, cfg.vocab, size=2)
    out[0], out[1] = a, b
    draws = rng.random(cfg.length)
    for i in range(2, cfg.length):
        c = int(np.searchsorted(cum[a, b], draws[i]))
        out[i] = c
        a, b = b, c
    return out


def assert_matches_reference(cfg):
    stream = gen_corpus(cfg)
    ref = searchsorted_markov(cfg)
    assert stream.dtype == ref.dtype
    np.testing.assert_array_equal(stream, ref)


# Stream lengths on each side of the walk's chunk edges (two tokens precede the draws).
CHUNK_EDGES = [2, 3, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, WALK_CHUNK + 2, WALK_CHUNK + 3,
               2 * WALK_CHUNK + 1, 2 * WALK_CHUNK + 2, 2 * WALK_CHUNK + 3]


class TestMarkov:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), vocab=st.integers(2, 64),
           length=st.integers(2, 20_000))
    @example(seed=5, vocab=64, length=20_000)
    def test_walk_matches_searchsorted_loop(self, seed, vocab, length):
        assert_matches_reference(DataConfig(seed=seed, length=length, vocab=vocab))

    @pytest.mark.parametrize("length", CHUNK_EDGES)
    def test_walk_matches_searchsorted_loop_at_chunk_edges(self, length):
        assert_matches_reference(DataConfig(seed=length, length=length, vocab=7))

    def test_draw_above_rounded_row_total_stays_in_vocab(self):
        vocab = 64
        trans = markov_transitions(0, vocab)
        totals = np.cumsum(trans, axis=-1)[..., -1]
        a, b = np.unravel_index(np.argmin(totals), totals.shape)
        top = 1.0 - 2.0**-53  # the largest draw below 1
        assert totals[a, b] < top  # the raw row would name token `vocab`
        assert np.searchsorted(np.cumsum(trans[a, b]), top) == vocab
        stream = markov_walk(trans, int(a), int(b), np.array([top, top, 0.5]))
        assert stream[2] == vocab - 1
        assert stream.min() >= 0 and stream.max() < vocab

    def test_deterministic(self):
        cfg = DataConfig(seed=9, length=5000, vocab=32)
        np.testing.assert_array_equal(gen_corpus(cfg), gen_corpus(cfg))

    def test_seed_changes_stream(self):
        a = gen_corpus(DataConfig(seed=1, length=5000, vocab=32))
        b = gen_corpus(DataConfig(seed=2, length=5000, vocab=32))
        assert not np.array_equal(a, b)

    def test_transitions_are_distributions(self):
        trans = markov_transitions(0, 16)
        assert trans.min() > 0
        np.testing.assert_allclose(trans.sum(axis=-1), 1.0, atol=1e-12)

    def test_histogram_matches_stationary_distribution(self):
        vocab = 16
        cfg = DataConfig(seed=3, length=1_000_000, vocab=vocab)
        stream = gen_corpus(cfg)
        counts = np.bincount(stream, minlength=vocab)
        freq = counts / counts.sum()
        stationary = pair_stationary(markov_transitions(3, vocab))
        rel = np.abs(freq - stationary) / stationary
        assert rel.max() <= 0.02


class TestBatchSampler:
    def test_shapes_and_range(self):
        cfg = DataConfig(seed=0, length=2000, vocab=8, batch=4)
        stream = gen_corpus(cfg)
        batch = next(batch_sampler(cfg, stream, 17))
        assert batch.shape == (4, 17)
        assert batch.min() >= 0 and batch.max() < 8

    def test_deterministic_sequence_of_batches(self):
        cfg = DataConfig(seed=0, length=2000, vocab=8, batch=4)
        stream = gen_corpus(cfg)
        a = [next(batch_sampler(cfg, stream, 9)) for _ in range(1)]
        gen1 = batch_sampler(cfg, stream, 9)
        gen2 = batch_sampler(cfg, stream, 9)
        for _ in range(5):
            np.testing.assert_array_equal(next(gen1), next(gen2))

    def test_window_too_large(self):
        cfg = DataConfig(seed=0, length=100, vocab=8)
        stream = gen_corpus(cfg)
        with pytest.raises(InvalidConfig):
            next(batch_sampler(cfg, stream, 101))

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            DataConfig(vocab=1)
        with pytest.raises(InvalidConfig):
            DataConfig(batch=0)
        with pytest.raises(InvalidConfig):
            DataConfig(length=MAX_LENGTH + 1)
