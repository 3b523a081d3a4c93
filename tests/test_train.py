import math

import numpy as np
import pytest

from tailwise.allocate import PlanConfig
from tailwise.data import DataConfig
from tailwise.errors import DivergedLoss, InvalidConfig
from tailwise.model import ModelConfig, build_model
from tailwise.schedule import ScheduleConfig, ScheduleState, lrs_at, on_step
from tailwise.train import OptimConfig, TrainMode, TrainRun, run_training

STEPS = 120
MODEL = ModelConfig(vocab=32, d_model=32, n_layers=2, n_heads=2, context=32, seed=0)
DATA = DataConfig(seed=0, length=20_000, vocab=32, batch=4)


def sched(steps=STEPS, **kw):
    kw.setdefault("warmup_steps", steps // 10)
    kw.setdefault("recompute_interval", 40)
    kw.setdefault("t_switch", 20)
    kw.setdefault("active_fraction", 0.5)
    return ScheduleConfig(t_max=steps, **kw)


def run(mode, eta=2e-3, s=4.0, steps=STEPS, **opt_kw):
    oc = OptimConfig(
        eta=eta,
        mode=mode,
        plan_cfg=PlanConfig(eta=eta, s=s),
        schedule_cfg=sched(steps),
        **opt_kw,
    )
    return run_training(MODEL, oc, DATA, steps)


class TestRunTraining:
    def test_uniform_run_shape(self):
        r = run(TrainMode.UNIFORM)
        assert r.losses.shape == (STEPS,)
        assert np.all(np.isfinite(r.losses))
        assert math.isfinite(r.final_loss)
        assert not r.diverged

    def test_determinism_bitwise(self):
        a = run(TrainMode.LLR)
        b = run(TrainMode.LLR)
        np.testing.assert_array_equal(a.losses, b.losses)
        assert a.lr_timeline == b.lr_timeline

    def test_llr_s1_equals_uniform_bitwise(self):
        u = run(TrainMode.UNIFORM, s=1.0)
        l = run(TrainMode.LLR, s=1.0)
        np.testing.assert_array_equal(u.losses, l.losses)

    def test_alpha_telemetry_cadence(self):
        # active window 60 steps, interval 40: recomputes at 0 and 40.
        r = run(TrainMode.LLR)
        assert r.recompute_steps == [0, 40]
        assert len(r.alpha_history) == 2
        assert len(r.alpha_std_history) == 2
        assert all(math.isfinite(s) for s in r.alpha_std_history)

    def test_uniform_records_same_cadence(self):
        r = run(TrainMode.UNIFORM)
        assert r.recompute_steps == [0, 40]
        assert len(r.alpha_history) == 2

    def test_alpha_history_covers_all_matrices(self):
        r = run(TrainMode.LLR)
        names = [s.layer_name for s in r.alpha_history[0]]
        assert names[0] == "embed"
        assert names[-1] == "output_head"
        assert len(names) == 2 * 7 + 2

    def test_applied_lrs_match_schedule_replay(self):
        r = run(TrainMode.LLR)
        cfg = sched()
        model = build_model(MODEL)
        names = model.matrix_names()
        sweeps = dict(zip(r.recompute_steps, r.alpha_history))

        def provider(t):
            return [(s.layer_name, s.alpha) for s in sweeps[t]]

        state = ScheduleState()
        replay = []
        for t in range(STEPS):
            state = on_step(state, cfg, provider, PlanConfig(eta=2e-3, s=4.0), model.roles, t)
            lrs = lrs_at(state, cfg, 2e-3, names, t)
            replay.extend((t, name, lrs[name]) for name in names)
        assert r.lr_timeline == replay

    def test_llr_lrs_respect_plan_bounds(self):
        r = run(TrainMode.LLR, eta=2e-3, s=4.0)
        values = np.array([lr for _, _, lr in r.lr_timeline])
        assert values.min() >= 0.0
        assert values.max() <= 4.0 * 2e-3 + 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaNs flow until caught
    def test_divergence_aborts_with_partial_telemetry(self):
        with pytest.raises(DivergedLoss) as info:
            run(TrainMode.UNIFORM, eta=80.0, steps=60)
        partial = info.value.partial
        assert isinstance(partial, TrainRun)
        assert partial.diverged
        assert partial.final_loss == math.inf
        assert partial.losses.size == info.value.step

    def test_steps_must_match_schedule(self):
        oc = OptimConfig(eta=1e-3, schedule_cfg=sched(STEPS))
        with pytest.raises(InvalidConfig):
            run_training(MODEL, oc, DATA, STEPS + 1)

    def test_vocab_mismatch(self):
        oc = OptimConfig(eta=1e-3, schedule_cfg=sched())
        with pytest.raises(InvalidConfig):
            run_training(ModelConfig(vocab=16, d_model=32, n_layers=1, n_heads=2,
                                     context=32), oc, DATA, STEPS)

    def test_tied_head_trains(self):
        cfg = ModelConfig(vocab=32, d_model=32, n_layers=1, n_heads=2, context=32,
                          seed=0, tie_output_head=True)
        oc = OptimConfig(eta=2e-3, mode=TrainMode.LLR,
                         plan_cfg=PlanConfig(eta=2e-3, s=4.0), schedule_cfg=sched(60))
        r = run_training(cfg, oc, DATA, 60)
        names = {s.layer_name for s in r.alpha_history[0]}
        assert "output_head" not in names  # single shared matrix, one analysis
        assert "embed" in names

    def test_loss_improves_over_run(self):
        r = run(TrainMode.UNIFORM, steps=300)
        assert r.final_loss < float(np.mean(r.losses[:20]))


class TestTrustRatioModes:
    def test_lars_and_lamb_run(self):
        from tailwise.optim import OptimizerKind

        for kind in (OptimizerKind.ADAMW_LARS, OptimizerKind.ADAMW_LAMB):
            r = run(TrainMode.UNIFORM, steps=40, optimizer=kind)
            assert np.all(np.isfinite(r.losses))
