import numpy as np
import pytest

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
        mats = m.weight_matrices()
        assert len(mats) == 2 * 7 + 2  # blocks + embedding + output head
        roles = [w.role for w in mats]
        assert roles.count(LayerRole.EMBEDDING) == 1
        assert roles.count(LayerRole.OUTPUT_HEAD) == 1
        assert roles.count(LayerRole.ATT_Q) == 2
        assert roles.count(LayerRole.FFN_DOWN) == 2

    def test_tied_head_aliases_embedding(self):
        m = build_model(ModelConfig(tie_output_head=True))
        assert "output_head" not in m.params
        assert len(m.weight_matrices()) == 2 * 7 + 1

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
