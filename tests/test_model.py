import multiprocessing
import sys

import numpy as np
import pytest

from tailwise import model
from tailwise.errors import InvalidConfig, ShapeMismatch, TokenOutOfRange
from tailwise.model import ModelConfig, build_model, forward_loss, loss_and_grads
from tailwise.spectral import LayerRole

MICRO = ModelConfig(vocab=11, d_model=8, n_layers=1, n_heads=2, context=8, seed=3, dtype="f64")


def micro_batch(seed=7, batch=2, length=9):
    rng = np.random.default_rng(seed)
    return rng.integers(0, MICRO.vocab, size=(batch, length))


class TestBuildModel:
    def test_deterministic(self):
        a = build_model(ModelConfig(seed=5))
        b = build_model(ModelConfig(seed=5))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_weights(self):
        a = build_model(ModelConfig(seed=5))
        b = build_model(ModelConfig(seed=6))
        assert not np.array_equal(a.params["embed"], b.params["embed"])

    def test_matrix_census(self):
        m = build_model(ModelConfig(n_layers=2))
        mats = list(m.weight_matrices())
        assert len(mats) == 2 * 7 + 2  # blocks + embedding + output head
        roles = [w.role for w in mats]
        assert roles.count(LayerRole.EMBEDDING) == 1
        assert roles.count(LayerRole.OUTPUT_HEAD) == 1
        assert roles.count(LayerRole.ATT_Q) == 2
        assert roles.count(LayerRole.FFN_DOWN) == 2

    def test_tied_head_aliases_embedding(self):
        m = build_model(ModelConfig(tie_output_head=True))
        assert "output_head" not in m.params
        assert len(list(m.weight_matrices())) == 2 * 7 + 1

    def test_non_matrix_params_exist(self):
        m = build_model(ModelConfig(n_layers=2))
        gains = [n for n, r in m.roles.items() if r is LayerRole.NON_MATRIX]
        assert gains == ["blocks.0.att_norm", "blocks.0.ffn_norm",
                         "blocks.1.att_norm", "blocks.1.ffn_norm", "final_norm"]

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(d_model=65, n_heads=4)
        with pytest.raises(InvalidConfig):
            ModelConfig(dtype="f16")
        for ffn_mult in (float("inf"), float("nan")):
            with pytest.raises(InvalidConfig):
                ModelConfig(ffn_mult=ffn_mult)


class TestForward:
    def test_fresh_model_loss_near_uniform_entropy(self):
        m = build_model(ModelConfig(seed=1))
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 64, size=(8, 65))
        loss = forward_loss(m, tokens)
        assert loss == pytest.approx(np.log(64), rel=0.15)

    def test_identical_sequences_same_loss_as_single(self):
        m = build_model(MICRO)
        row = micro_batch(batch=1)
        rep = np.repeat(row, 4, axis=0)
        assert forward_loss(m, rep) == pytest.approx(forward_loss(m, row), rel=1e-12)

    def test_token_out_of_range(self):
        m = build_model(MICRO)
        bad = micro_batch()
        bad[0, 0] = MICRO.vocab
        with pytest.raises(TokenOutOfRange):
            forward_loss(m, bad)

    def test_sequence_too_long(self):
        m = build_model(MICRO)
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatch):
            forward_loss(m, rng.integers(0, MICRO.vocab, size=(1, MICRO.context + 2)))

    def test_deterministic(self):
        m = build_model(MICRO)
        tokens = micro_batch()
        assert forward_loss(m, tokens) == forward_loss(m, tokens)


class TestBackward:
    def test_zero_output_head_kills_upstream_gradient(self):
        m = build_model(ModelConfig(vocab=11, d_model=8, n_layers=1, n_heads=2,
                                    context=8, seed=3, dtype="f64"))
        m.params["output_head"][:] = 0.0
        grads = loss_and_grads(m, micro_batch())[1]
        assert np.all(grads["embed"] == 0.0)
        assert np.all(grads["blocks.0.att.q"] == 0.0)
        assert np.any(grads["output_head"] != 0.0)

    def test_finite_differences(self):
        # Central differences, h = 1e-5, float64 model.
        m = build_model(MICRO)
        tokens = micro_batch()
        _, grads = loss_and_grads(m, tokens)
        rng = np.random.default_rng(11)
        names = list(m.params)
        h = 1e-5
        worst = 0.0
        for _ in range(200):
            name = names[int(rng.integers(len(names)))]
            arr = m.params[name]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            up = forward_loss(m, tokens)
            arr[idx] = orig - h
            down = forward_loss(m, tokens)
            arr[idx] = orig
            fd = (up - down) / (2.0 * h)
            an = grads[name][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst <= 1e-4

    def test_tied_head_accumulates_both_paths(self):
        cfg = ModelConfig(vocab=11, d_model=8, n_layers=1, n_heads=2, context=8,
                          seed=3, dtype="f64", tie_output_head=True)
        m = build_model(cfg)
        tokens = micro_batch()
        _, grads = loss_and_grads(m, tokens)
        assert "output_head" not in grads
        # finite-difference spot check through the shared matrix
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(20):
            idx = (int(rng.integers(cfg.vocab)), int(rng.integers(cfg.d_model)))
            orig = m.params["embed"][idx]
            m.params["embed"][idx] = orig + h
            up = forward_loss(m, tokens)
            m.params["embed"][idx] = orig - h
            down = forward_loss(m, tokens)
            m.params["embed"][idx] = orig
            fd = (up - down) / (2.0 * h)
            an = grads["embed"][idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4


class TestStepPurity:
    @pytest.mark.parametrize("cfg, batch", [
        (MICRO, 2),
        (ModelConfig(vocab=64, d_model=64, n_layers=2, n_heads=4, context=64, seed=1), 4),
    ])
    def test_step_leaves_inputs_and_repeats_bits(self, cfg, batch):
        # Catches an in-place op that writes through a view of a parameter,
        # the tokens or a cached table.
        m = build_model(cfg)
        tokens = np.random.default_rng(4).integers(0, cfg.vocab, size=(batch, cfg.context + 1))
        params0 = {n: a.copy() for n, a in m.params.items()}
        tokens0 = tokens.copy()
        loss1, grads1 = loss_and_grads(m, tokens)
        for name, arr in m.params.items():
            assert arr.tobytes() == params0[name].tobytes(), name
        np.testing.assert_array_equal(tokens, tokens0)
        loss2, grads2 = loss_and_grads(m, tokens)
        assert np.float64(loss1).tobytes() == np.float64(loss2).tobytes()
        assert list(grads1) == list(grads2)
        for name in grads1:
            assert grads1[name].tobytes() == grads2[name].tobytes(), name


class TestOverfit:
    def test_loss_decreases_on_repeated_batch(self):
        from tailwise.optim import adamw_step, init_moments

        m = build_model(MICRO)
        tokens = micro_batch(seed=1)
        moments = init_moments(m.params)
        lrs = {n: 3e-3 for n in m.params}
        first = forward_loss(m, tokens)
        losses = [first]
        for t in range(50):
            _, grads = loss_and_grads(m, tokens)
            adamw_step(m.params, grads, moments, t + 1, lrs, weight_decay=0.0)
            losses.append(forward_loss(m, tokens))
        assert losses[-1] < 0.6 * first
        # strictly decreasing in the tail once moments settle
        assert all(b < a for a, b in zip(losses[10:-1], losses[11:]))


def _trained_like(cfg):
    """A model whose weights are moved off their initial scales."""
    m = build_model(cfg)
    rng = np.random.default_rng(11)
    for arr in m.params.values():
        arr += (rng.standard_normal(arr.shape) * 0.05).astype(arr.dtype)
    return m


def _in_turn(first, second):
    first()
    second()


def _bytes(loss, grads):
    return np.float64(loss).tobytes(), {n: (g.dtype, g.tobytes()) for n, g in (grads or {}).items()}


class TestRowShards:
    """Two row shards give the bits of one whole-batch pass, on any core count."""

    CASES = {
        "d64-B16-T64": (ModelConfig(vocab=64, d_model=64, n_layers=2, n_heads=4, context=64,
                                    seed=1), 16, 64),
        "d32-B8-T16": (ModelConfig(vocab=64, d_model=32, n_layers=1, n_heads=2, context=16,
                                   seed=2), 8, 16),
        "d256-V16": (ModelConfig(vocab=16, d_model=256, n_layers=2, n_heads=4, context=32,
                                 seed=3), 4, 32),
        "tied": (ModelConfig(vocab=64, d_model=64, n_layers=2, n_heads=4, context=32, seed=4,
                             tie_output_head=True), 6, 32),
        "f64": (ModelConfig(vocab=64, d_model=64, n_layers=2, n_heads=4, context=64, seed=5,
                            dtype="f64"), 8, 64),
        "B3": (ModelConfig(vocab=50, d_model=48, n_layers=2, n_heads=3, context=40, seed=6),
               3, 37),
        "B5": (ModelConfig(vocab=64, d_model=64, n_layers=3, n_heads=4, context=64, seed=7),
               5, 63),
    }

    @pytest.fixture(params=["in-turn", "threaded"])
    def pair(self, request):
        if request.param == "in-turn":
            return _in_turn
        # A short switch interval hands the interpreter lock between the
        # shards as often as it can, so a write to shared state would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        request.addfinalizer(lambda: sys.setswitchinterval(interval))
        return model._two_threads

    @pytest.mark.parametrize("case", CASES)
    def test_shards_give_whole_batch_bits(self, case, pair):
        cfg, b, t = self.CASES[case]
        m = _trained_like(cfg)
        tokens = np.random.default_rng(3).integers(0, cfg.vocab, size=(b, t + 1))
        for backward in (True, False):
            whole = _bytes(*model._step(m, tokens, backward))
            sharded = _bytes(*model._step(m, tokens, backward, pair))
            assert sharded == whole

    def test_large_batch_runs_sharded_at_one_blas_thread(self, two_thread_budget, monkeypatch):
        cfg, b, t = self.CASES["d64-B16-T64"]
        assert b * t >= model.SHARD_MIN_TOKENS
        m = _trained_like(cfg)
        tokens = np.random.default_rng(3).integers(0, cfg.vocab, size=(b, t + 1))
        whole = _bytes(*model._step(m, tokens, True))
        pairs = []
        monkeypatch.setattr(model, "_two_threads",
                            lambda first, second: pairs.append(1) or _in_turn(first, second))
        assert _bytes(*loss_and_grads(m, tokens)) == whole
        assert pairs == [1, 1]  # the row phase, then the weight GEMMs
        assert two_thread_budget == [1, 2]  # BLAS is back at its budget after the step

    @pytest.mark.parametrize("b, t", [(1, 64), (2, 16)], ids=["batch-1", "few-tokens"])
    def test_small_batch_runs_whole(self, two_thread_budget, monkeypatch, b, t):
        cfg = ModelConfig(vocab=64, d_model=64, n_layers=1, n_heads=4, context=64, seed=1)
        monkeypatch.setattr(model, "_two_threads", None)  # calling it would raise
        loss_and_grads(build_model(cfg),
                       np.random.default_rng(3).integers(0, 64, size=(b, t + 1)))
        assert two_thread_budget == []

    def test_forked_child_runs_sharded(self, two_thread_budget):
        # The child inherits the parent's worker pool without its thread; a
        # step that waited on that pool would never return.
        cfg, b, t = self.CASES["d64-B16-T64"]
        m = _trained_like(cfg)
        tokens = np.random.default_rng(3).integers(0, cfg.vocab, size=(b, t + 1))
        loss_and_grads(m, tokens)
        child = multiprocessing.get_context("fork").Process(target=loss_and_grads,
                                                            args=(m, tokens))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_worker_shard_error_reaches_caller(self):
        # Only the second shard's rows hold the overflowing token, so the
        # error is raised on the worker thread, under the caller's errstate.
        cfg = ModelConfig(vocab=8, d_model=16, n_layers=1, n_heads=2, context=16, seed=1)
        m = build_model(cfg)
        m.params["embed"][7] = 3e38
        tokens = np.zeros((4, 17), dtype=np.int64)
        tokens[2:, 5] = 7
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                model._step(m, tokens, True, model._two_threads)
        with np.errstate(all="ignore"):
            model._step(m, tokens, True, model._two_threads)  # and no warning, under -W error

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 63, 64, 65])
    def test_row_max_is_np_max(self, width):
        x = np.random.default_rng(width).standard_normal((3, 4, width)).astype(np.float32)
        x[0, 0, -1] = -np.inf
        x[1] = np.triu(np.full((4, width), -np.inf, dtype=np.float32), k=1) + x[1]
        assert model._row_max(x).tobytes() == np.max(x, axis=-1, keepdims=True).tobytes()
