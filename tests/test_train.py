import ctypes
import gc
import importlib
import json
import math
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

import tailwise.cli
import tailwise.schedule
import tailwise.train
from tailwise.allocate import PlanConfig
from tailwise.cli import main
from tailwise.data import DataConfig
from tailwise.errors import InvalidConfig
from tailwise.manifest import save_manifest
from tailwise.model import ModelConfig, build_model
from tailwise.schedule import ScheduleConfig, ScheduleState, lrs_at, on_step
from tailwise.spectral import LayerRole, WeightMatrix
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
    oc = OptimConfig(eta=eta, mode=mode, **opt_kw)
    return run_training(MODEL, oc, DATA, PlanConfig(eta=eta, s=s), sched(steps))


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

        state = ScheduleState()
        replay = []
        for t in range(STEPS):
            state = on_step(state, cfg, sweeps.__getitem__, PlanConfig(eta=2e-3, s=4.0), t)
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
        # The run stops at the first non-finite loss and returns what it had.
        r = run(TrainMode.UNIFORM, eta=80.0, steps=60)
        assert isinstance(r, TrainRun)
        assert r.diverged
        assert r.final_loss == math.inf
        diverged_step = r.losses.size
        assert 0 < diverged_step < 60
        assert np.all(np.isfinite(r.losses))
        names = build_model(MODEL).matrix_names()
        assert len(r.lr_timeline) == (diverged_step + 1) * len(names)
        assert [row[0] for row in r.lr_timeline[-len(names):]] == [diverged_step] * len(names)

    def test_mode_defaults_to_llr(self):
        # A train config without optim.mode gets this dataclass default too.
        assert OptimConfig().mode is TrainMode.LLR

    @pytest.mark.parametrize("field, value", [
        ("eps", math.inf), ("eps", math.nan), ("weight_decay", math.inf),
        ("eta", math.inf), ("eta", math.nan), ("grad_clip", math.inf), ("grad_clip", math.nan)])
    def test_non_finite_optimizer_numbers(self, field, value):
        # Only Python callers can pass these: the JSON reader takes finite numbers.
        with pytest.raises(InvalidConfig):
            OptimConfig(**{field: value})

    def test_steps_must_match_schedule(self):
        # The schedule's t_max is the run's length.
        r = run_training(MODEL, OptimConfig(), DATA, PlanConfig(eta=1e-3), ScheduleConfig(t_max=7))
        assert r.losses.size == 7
        assert r.lr_timeline[-1][0] == 6

    def test_vocab_mismatch(self):
        with pytest.raises(InvalidConfig):
            run_training(ModelConfig(vocab=16, d_model=32, n_layers=1, n_heads=2,
                                     context=32), OptimConfig(eta=1e-3), DATA,
                         PlanConfig(eta=1e-3), sched())

    def test_tied_head_trains(self):
        cfg = ModelConfig(vocab=32, d_model=32, n_layers=1, n_heads=2, context=32,
                          seed=0, tie_output_head=True)
        oc = OptimConfig(eta=2e-3, mode=TrainMode.LLR)
        r = run_training(cfg, oc, DATA, PlanConfig(eta=2e-3, s=4.0), sched(60))
        names = {s.layer_name for s in r.alpha_history[0]}
        assert "output_head" not in names  # single shared matrix, one analysis
        assert "embed" in names

    def test_loss_improves_over_run(self):
        r = run(TrainMode.UNIFORM, steps=300)
        assert r.final_loss < float(np.mean(r.losses[:20]))


class TestPlanCommandAgrees:
    def test_trainer_applies_the_plan_commands_plan(self, tmp_path):
        # The trainer plans over build_model's weights at step 0; `tailwise plan`
        # over a manifest of the same weights must give the same LRs, bit for bit.
        # With no recompute before warmup ends, each layer's LR there is its plan LR.
        manifest = save_manifest(tmp_path, build_model(MODEL).weight_matrices())
        out = tmp_path / "plan.json"
        assert main(["plan", "--manifest", str(manifest), "--eta", repr(2e-3), "--s", "4",
                     "--out", str(out)]) == 0
        layers = json.loads(out.read_text())["layers"]
        planned = {layer["name"]: layer["base_lr"] for layer in layers}
        cfg = sched()
        assert cfg.recompute_interval > cfg.warmup_steps
        r = run(TrainMode.LLR, eta=2e-3, s=4.0)
        applied = {name: lr for t, name, lr in r.lr_timeline if t == cfg.warmup_steps}
        assert len(applied) == 16
        assert applied == planned


class TestTrustRatioModes:
    def test_lars_and_lamb_run(self):
        from tailwise.optim import OptimizerKind

        for kind in (OptimizerKind.ADAMW_LARS, OptimizerKind.ADAMW_LAMB):
            r = run(TrainMode.UNIFORM, steps=40, optimizer=kind)
            assert np.all(np.isfinite(r.losses))


def has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return True


class TestHeapPolicy:
    @pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
    def test_steps_take_no_fresh_pages(self, monkeypatch):
        # Without the heap policy each step maps its temporaries afresh:
        # about 3000 minor page faults per step at this shape.
        steps, first = 40, 5
        faults = []  # minor page faults taken before each step
        real = tailwise.train.loss_and_grads

        def counted(model, batch):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return real(model, batch)

        monkeypatch.setattr(tailwise.train, "loss_and_grads", counted)
        sched_cfg = ScheduleConfig(t_max=steps, warmup_steps=4, recompute_interval=20, t_switch=10)
        # The acceptance study's shape (d64, 2 layers, batch 16, context 64).
        run_training(ModelConfig(seed=0), OptimConfig(eta=3e-3), DataConfig(seed=0, length=20_000),
                     PlanConfig(eta=3e-3), sched_cfg)
        end = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        per_step = (end - faults[first]) / (steps - first)
        assert per_step < 300, f"{per_step:.0f} minor page faults per step"

    def test_trains_the_same_without_mallopt(self, monkeypatch):
        args = (MODEL, OptimConfig(eta=2e-3), DATA, PlanConfig(eta=2e-3), sched(40))
        expected = run_training(*args)
        lookups = []

        def no_libc(name, *args, **kwargs):
            lookups.append(name)
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        got = run_training(*args)
        assert lookups == [None]
        np.testing.assert_array_equal(got.losses, expected.losses)
        assert got.lr_timeline == expected.lr_timeline


def checkpoint_argv(command, manifest, out):
    """Arguments of `tailwise analyze|plan|schedule` over ``manifest``."""
    extra = {"analyze": [], "plan": ["--eta", "1e-3"],
             "schedule": ["--eta", "1e-3", "--steps", "10"]}[command]
    return [command, "--manifest", str(manifest), "--out", str(out), *extra]


class TestBenchmarkMarkSites:
    def test_mark_sites_resolve_and_fire_in_order(self, monkeypatch):
        # perfbench/launch.py times setup and the first step by patching these
        # module globals, so each must exist and be looked up at call time.
        for module, name in [("tailwise.train", "on_step"), ("tailwise.train", "loss_and_grads"),
                             ("tailwise.train", "batch_sampler"),
                             ("tailwise.train", "sweep_summaries"),
                             ("tailwise.cli", "load_manifest"), ("tailwise.cli", "run_training"),
                             ("tailwise.tailfit", "esd")]:
            assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"

        calls = []
        for name in ("on_step", "sweep_summaries", "loss_and_grads"):
            def record(*args, _name=name, _real=getattr(tailwise.train, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(tailwise.train, name, record)
        # The benchmark's allocate.build_plan span is recorded where the schedule
        # looks build_plan up: once per recompute of the trainer's plan.
        plans = []
        build_plan = tailwise.schedule.build_plan

        def counted(*args, **kwargs):
            plans.append(build_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(tailwise.schedule, "build_plan", counted)
        r = run_training(MODEL, OptimConfig(), DATA, PlanConfig(eta=1e-3), ScheduleConfig(t_max=2))
        assert calls[0] == "on_step"
        assert calls.index("sweep_summaries") < calls.index("loss_and_grads")
        assert len(plans) == len(r.recompute_steps) == 1

    @pytest.mark.parametrize("command", ["analyze", "plan", "schedule"])
    def test_checkpoint_commands_load_once_before_the_sweep(self, tmp_path, monkeypatch,
                                                           command):
        # perfbench/launch.py marks the first manifest read, and spans
        # manifest.load_manifest, at tailwise.cli.load_manifest: each checkpoint
        # command calls it once, and it checks the whole manifest before the
        # first layer is summarized.
        calls = []
        for module, name in [(tailwise.cli, "load_manifest"), (tailwise.train, "summarize")]:
            def record(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, record)
        manifest = save_manifest(tmp_path, build_model(MODEL).weight_matrices(), dtype="f32")
        argv = checkpoint_argv(command, manifest, tmp_path / "out")
        assert main(argv) == 0
        assert calls == ["load_manifest"] + ["summarize"] * 16

        # The last layer runs past its file: refused before any layer is read.
        doc = json.loads(manifest.read_text())
        doc["layers"][-1]["byte_offset"] += 4
        manifest.write_text(json.dumps(doc))
        calls.clear()
        assert main(argv) == 3
        assert calls == ["load_manifest"]


def unfittable_checkpoint(directory):
    """An f32 manifest of four layers, the second of them too small to fit."""
    rng = np.random.default_rng(3)
    return save_manifest(directory, [
        WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((40, 16))),
        WeightMatrix("tiny", LayerRole.ATT_Q, rng.standard_normal((2, 3))),
        WeightMatrix("blocks.0.att.k", LayerRole.ATT_K, rng.standard_normal((16, 16))),
        WeightMatrix("blocks.0.ffn.up", LayerRole.FFN_UP, rng.standard_normal((16, 48))),
    ], dtype="f32")


class TestOneLayerAtATime:
    """A sweep widens one matrix to float64 at a time and keeps none it has summarized."""

    @pytest.fixture
    def summarized(self, monkeypatch):
        names = []
        arrays = []  # a weak reference to each summarized matrix's values
        real = tailwise.train.summarize

        def summarize(w, *args, **kwargs):
            gc.collect()
            alive = [n for n, ref in zip(names, arrays) if ref() is not None]
            assert not alive, f"{alive} still alive when {w.name} is summarized"
            names.append(w.name)
            arrays.append(weakref.ref(w.values))
            return real(w, *args, **kwargs)

        monkeypatch.setattr(tailwise.train, "summarize", summarize)
        return names

    @pytest.mark.parametrize("command", ["analyze", "plan", "schedule"])
    def test_checkpoint_command(self, tmp_path, summarized, command):
        assert main(checkpoint_argv(command, unfittable_checkpoint(tmp_path),
                                    tmp_path / "out")) == 0
        assert summarized == ["embed", "tiny", "blocks.0.att.k", "blocks.0.ffn.up"]

    @pytest.mark.parametrize("command", ["analyze", "plan", "schedule"])
    def test_checkpoint_command_peak_memory(self, tmp_path, command):
        # Reading a layer holds its stored f32 values and their float64 copy:
        # 1.5 layers in float64. One more layer kept alive during the read
        # would make it 2.5, and the whole checkpoint in float64 4.5.
        rng = np.random.default_rng(0)
        manifest = save_manifest(tmp_path, (
            WeightMatrix(f"w{i}", LayerRole.OTHER_2D, rng.standard_normal((65536, 8)))
            for i in range(4)), dtype="f32")
        layer_bytes = 65536 * 8 * 8
        argv = checkpoint_argv(command, manifest, tmp_path / "out")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * layer_bytes, f"peak {peak / layer_bytes:.2f} layers in float64"

    def test_training_sweep(self, summarized):
        assert MODEL.dtype == "f32"  # so each swept matrix is a new float64 array
        r = run_training(MODEL, OptimConfig(), DATA, PlanConfig(eta=1e-3), ScheduleConfig(t_max=2))
        assert len(r.recompute_steps) == 1
        assert summarized == build_model(MODEL).matrix_names()
