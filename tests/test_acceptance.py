"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional
training study (criteria 9 and 10) trains nine toy models and is shared
across both tests through a session fixture. ``tests/conftest.py`` runs
the tests that use it after the rest of the suite.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from tailwise.allocate import Assignment, PlanConfig, linear_map
from tailwise.cli import main as cli_main
from tailwise.data import DataConfig
from tailwise.errors import DivergedLoss
from tailwise.manifest import save_manifest
from tailwise.model import ModelConfig, build_model, forward_loss, loss_and_grads
from tailwise.reports import analysis_report
from tailwise.schedule import ScheduleConfig, ScheduleState, SwitchMode, layer_lr_at, on_step
from tailwise.spectral import LayerRole, WeightMatrix, esd
from tailwise.tailfit import FitConfig, fit_alpha, hill_alpha
from tailwise.train import OptimConfig, TrainMode, run_training

# Directional-study configuration (criteria 9 and 10).
STUDY_SEEDS = (0, 1, 2)
STUDY_STEPS = 2000
STUDY_ETA = 3e-3
STUDY_S = 5.0
STUDY_BUDGET_SECONDS = 900.0
STUDY_ARMS = {
    "uniform": (TrainMode.UNIFORM, Assignment.LINEAR),
    "llr": (TrainMode.LLR, Assignment.LINEAR),
    "inv": (TrainMode.LLR, Assignment.LINEAR_INVERSE),
}


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def pareto_quantiles(a: float, n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return (1.0 - i / (n + 1.0)) ** (-1.0 / (a - 1.0))


def hill_loop_oracle(eigs, k):
    lam = sorted(float(x) for x in eigs)
    n = len(lam)
    total = 0.0
    for i in range(1, k + 1):
        total += math.log(lam[n - i] / lam[n - k - 1])
    return math.inf if total < 1e-300 else 1.0 + k / total


def study_schedule(steps: int) -> ScheduleConfig:
    return ScheduleConfig(
        t_max=steps,
        warmup_steps=steps // 10,
        recompute_interval=100,
        t_switch=50,
        active_fraction=0.2,
    )


def study_run(seed: int, mode: TrainMode, assignment: Assignment, steps: int = STUDY_STEPS):
    model_cfg = ModelConfig(seed=seed)
    data_cfg = DataConfig(seed=seed, length=200_000)
    opt_cfg = OptimConfig(
        eta=STUDY_ETA,
        mode=mode,
        plan_cfg=PlanConfig(eta=STUDY_ETA, s=STUDY_S, assignment=assignment),
        schedule_cfg=study_schedule(steps),
    )
    return run_training(model_cfg, opt_cfg, data_cfg, steps)


def study_arm(seed: int, arm: str, steps: int = STUDY_STEPS):
    mode, assignment = STUDY_ARMS[arm]
    return study_run(seed, mode, assignment, steps)


def study_in_workers(jobs):
    """``study_arm(*job)`` for each job, in spawned workers, one per core.

    Each worker's BLAS gets one thread: at the study's size (1024 x 64 by
    64 x 256 at most) a second thread adds CPU time without cutting the
    step time, and two workers at two threads each oversubscribe the cores.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(study_arm, *zip(*jobs)))


@pytest.fixture(scope="session")
def directional_study():
    # The nine runs are independent and seeded, so they train side by side.
    jobs = [(seed, arm) for seed in STUDY_SEEDS for arm in STUDY_ARMS]
    t0 = time.time()
    results = study_in_workers(jobs)
    elapsed = time.time() - t0
    runs = {seed: {} for seed in STUDY_SEEDS}
    for (seed, arm), run in zip(jobs, results):
        runs[seed][arm] = run
    return runs, elapsed


def test_study_workers_match_in_process():
    # A study run trained in a worker gives the bits it gives in this process.
    job = (0, "llr", 100)
    (remote,) = study_in_workers([job])
    local = study_arm(*job)
    assert np.array_equal(remote.losses, local.losses)
    assert remote.lr_timeline == local.lr_timeline
    assert remote.alpha_std_history == local.alpha_std_history


def test_c01_hill_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 513))
        lam = np.sort(rng.random(n) + 1e-6)
        k = int(rng.integers(1, n))
        worst = max(worst, abs(hill_alpha(lam, k) - hill_loop_oracle(lam, k)))
    elapsed = time.time() - t0
    verdict(1, worst <= 1e-10 and elapsed < 5.0,
            f"hill vs straight-loop oracle, 100 spectra: max |diff| = {worst:.3e}, "
            f"{elapsed:.2f}s")


def test_c02_pareto_recovery():
    t0 = time.time()
    errs = {}
    for a in (1.5, 2.5, 3.5):
        alpha, k = fit_alpha(pareto_quantiles(a, 2000))
        assert k == 1000
        errs[a] = abs(alpha - a)
    elapsed = time.time() - t0
    ok = max(errs.values()) <= 0.05 and elapsed < 5.0
    verdict(2, ok, "median-fit recovery on exact power-law quantiles: "
            + ", ".join(f"a={a}: |err|={e:.4f}" for a, e in errs.items())
            + f", {elapsed:.2f}s")


def test_c03_esd_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(rows, 65))
        if rng.random() < 0.5:
            rows, cols = cols, rows
        w = WeightMatrix("w", LayerRole.OTHER_2D, rng.standard_normal((rows, cols)))
        got = esd(w)
        dense = np.sort(np.linalg.eigvalsh(w.values.T @ w.values))[-min(rows, cols):]
        scale = np.maximum(np.abs(dense), 1e-30)
        worst = max(worst, float(np.max(np.abs(got - dense) / scale)))
    verdict(3, worst <= 1e-8,
            f"esd vs dense Gram eigendecomposition, 50 matrices: max rel dev = {worst:.3e}")


def test_c04_bounded_map_properties():
    rng = np.random.default_rng(404)
    eta, s = 1e-3, 5.0
    fwd = PlanConfig(eta=eta, s=s)
    inv = PlanConfig(eta=eta, s=s, assignment=Assignment.LINEAR_INVERSE)
    worst_affine = worst_inversion = 0.0
    bounds_ok = degenerate_ok = True
    for trial in range(10_000):
        n = int(rng.integers(1, 20))
        if trial % 10 == 0:
            alphas = [(f"l{i}", float(rng.uniform(1.1, 8.0))) for _ in [0]
                      for i in range(n)]
            alphas = [(name, alphas[0][1]) for name, _ in alphas]  # all equal
        else:
            draws = rng.uniform(1.05, 9.0, n)
            if n > 1 and np.ptp(draws) < 1e-6:
                continue
            alphas = [(f"l{i}", float(a)) for i, a in enumerate(draws)]
        values = np.array([lr for _, lr in linear_map(alphas, fwd).per_layer])
        bounds_ok &= bool(np.all(values >= eta - 1e-15) and np.all(values <= s * eta + 1e-15))

        a, b = float(rng.uniform(0.5, 4.0)), float(rng.uniform(-2.0, 2.0))
        shifted = [(name, a * al + b) for name, al in alphas]
        values2 = np.array([lr for _, lr in linear_map(shifted, fwd).per_layer])
        worst_affine = max(worst_affine, float(np.max(np.abs(values - values2))))

        if len({al for _, al in alphas}) == 1:
            degenerate_ok &= bool(np.all(values == eta))
        else:
            values_inv = np.array([lr for _, lr in linear_map(alphas, inv).per_layer])
            worst_inversion = max(
                worst_inversion, float(np.max(np.abs(values + values_inv - (s + 1) * eta)))
            )
    ok = bounds_ok and degenerate_ok and worst_affine <= 1e-12 and worst_inversion <= 1e-12
    verdict(4, ok, f"10^4 fuzzed alpha vectors: bounds {'held' if bounds_ok else 'VIOLATED'}, "
            f"affine dev {worst_affine:.2e}, inversion dev {worst_inversion:.2e}, "
            f"degenerate rule {'held' if degenerate_ok else 'VIOLATED'}")


def test_c05_uniform_degeneration_bitwise():
    steps = 500
    model_cfg = ModelConfig(seed=7)
    data_cfg = DataConfig(seed=7, length=100_000)

    def arm(mode):
        opt = OptimConfig(eta=STUDY_ETA, mode=mode,
                          plan_cfg=PlanConfig(eta=STUDY_ETA, s=1.0),
                          schedule_cfg=study_schedule(steps))
        return run_training(model_cfg, opt, data_cfg, steps)

    uniform = arm(TrainMode.UNIFORM)
    llr = arm(TrainMode.LLR)
    identical = bool(np.array_equal(uniform.losses, llr.losses))
    verdict(5, identical and uniform.losses.size == steps,
            f"s=1 layerwise vs uniform, {steps} steps: loss arrays "
            f"{'bit-identical' if identical else 'DIFFER'}")


def test_c06_soft_switch_no_spike():
    eta, s = 1e-3, 5.0
    roles = {"a": LayerRole.ATT_Q, "b": LayerRole.FFN_UP}
    table = {0: [("a", 2.0), ("b", 4.0)], 100: [("a", 4.0), ("b", 2.0)]}
    plan_cfg = PlanConfig(eta=eta, s=s)
    results = {}
    for mode in (SwitchMode.SOFT, SwitchMode.HARD):
        cfg = ScheduleConfig(t_max=1000, warmup_steps=0, min_lr_fraction=1.0,
                             recompute_interval=100, t_switch=50,
                             active_fraction=1.0, switch_mode=mode)
        state = ScheduleState()
        values = []
        for t in range(200):
            state = on_step(state, cfg, lambda _t: table.get(_t, table[100]),
                            plan_cfg, roles, t)
            values.append(layer_lr_at(state, cfg, "a", t))
        deltas = np.abs(np.diff(values))
        results[mode] = (float(deltas.max()), values)
    start, target = eta, s * eta  # layer "a" moves from the bottom to the top bound
    soft_max, _ = results[SwitchMode.SOFT]
    hard_max, hard_values = results[SwitchMode.HARD]
    soft_ok = soft_max <= (target - start) / 50 + 1e-12
    hard_ok = (
        abs(hard_max - (target - start)) <= 1e-15
        and hard_values[99] == start
        and hard_values[100] == target
    )
    verdict(6, soft_ok and hard_ok,
            f"5x target over flat base: soft max step {soft_max:.3e} "
            f"(bound {(target - start) / 50:.3e}), hard jump {hard_max:.3e}")


def test_c07_recompute_cadence():
    plan_cfg = PlanConfig(eta=1e-3, s=5.0)
    roles = {"a": LayerRole.ATT_Q, "b": LayerRole.FFN_UP}
    counts = {}
    for active in (0.2, 1.0):
        cfg = ScheduleConfig(t_max=1000, recompute_interval=100, t_switch=50,
                             active_fraction=active)
        calls = []

        def provider(t, calls=calls):
            calls.append(t)
            return [("a", 2.0), ("b", 3.0)]

        state = ScheduleState()
        for t in range(1000):
            state = on_step(state, cfg, provider, plan_cfg, roles, t)
        counts[active] = len(calls)
    ok = counts[0.2] == 3 and counts[1.0] == 10
    verdict(7, ok, f"plans built: active 0.2 -> {counts[0.2]} (want 3), "
            f"active 1.0 -> {counts[1.0]} (want 10)")


def test_c08_gradient_check():
    cfg = ModelConfig(vocab=11, d_model=8, n_layers=1, n_heads=2, context=8,
                      seed=3, dtype="f64")
    model = build_model(cfg)
    tokens = np.random.default_rng(7).integers(0, cfg.vocab, size=(2, 9))
    _, grads = loss_and_grads(model, tokens)
    rng = np.random.default_rng(808)
    names = list(model.params)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        name = names[int(rng.integers(len(names)))]
        arr = model.params[name]
        idx = tuple(int(rng.integers(dim)) for dim in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        up = forward_loss(model, tokens)
        arr[idx] = orig - h
        down = forward_loss(model, tokens)
        arr[idx] = orig
        fd = (up - down) / (2.0 * h)
        an = grads[name][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    verdict(8, worst <= 1e-4,
            f"central differences, 200 coordinates: max rel err = {worst:.3e}")


def test_c09_directional_training_result(directional_study):
    runs, elapsed = directional_study
    mean = lambda arm: float(np.mean([runs[s][arm].final_loss for s in STUDY_SEEDS]))
    u, l, i = mean("uniform"), mean("llr"), mean("inv")
    ok = l <= u <= i and elapsed <= STUDY_BUDGET_SECONDS
    verdict(9, ok, f"mean final loss over {len(STUDY_SEEDS)} seeds: "
            f"layerwise {l:.4f} <= uniform {u:.4f} <= inverted {i:.4f}; "
            f"study took {elapsed:.0f}s (budget {STUDY_BUDGET_SECONDS:.0f}s)")


def test_c10_alpha_spread_direction(directional_study):
    runs, _ = directional_study
    wins = 0
    details = []
    for seed in STUDY_SEEDS:
        llr_std = float(np.mean(runs[seed]["llr"].alpha_std_history))
        uni_std = float(np.mean(runs[seed]["uniform"].alpha_std_history))
        wins += llr_std < uni_std
        details.append(f"seed {seed}: {llr_std:.4f} vs {uni_std:.4f}")
    verdict(10, wins >= 2, f"inter-layer alpha spread (layerwise vs uniform), "
            f"lower in {wins}/3 seeds: " + "; ".join(details))


def test_c11_cli_determinism(tmp_path):
    model = build_model(ModelConfig(vocab=32, d_model=32, n_layers=1, n_heads=2,
                                    context=16, seed=11, dtype="f64"))
    manifest = save_manifest(tmp_path, model.weight_matrices())
    outs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report_{tag}.json"
        plan_path = tmp_path / f"plan_{tag}.json"
        assert cli_main(["analyze", "--manifest", str(manifest), "--eta", "1e-3",
                         "--s", "5", "--out", str(report_path)]) == 0
        assert cli_main(["plan", "--manifest", str(manifest), "--eta", "1e-3",
                         "--s", "5", "--out", str(plan_path)]) == 0
        outs.append((report_path.read_bytes(), plan_path.read_bytes()))
    byte_identical = outs[0] == outs[1]

    report = json.loads(outs[0][0])
    in_proc = analysis_report(model.weight_matrices(), FitConfig(),
                              PlanConfig(eta=1e-3, s=5.0))
    exact = all(
        got["alpha"] == want["alpha"]
        and got["assigned_lr"] == want["assigned_lr"]
        and got["fro_norm"] == want["fro_norm"]
        for got, want in zip(report["layers"], in_proc["layers"])
    )
    verdict(11, byte_identical and exact,
            f"analyze/plan reruns byte-identical: {byte_identical}; "
            f"report values equal in-process results exactly: {exact}")


def test_c12_heavy_tail_separation():
    q = pareto_quantiles(2.5, 256)
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 1212])
        gaussian = rng.standard_normal((256, 1024))
        heavy = gaussian * q[:, None]
        a_g, _ = fit_alpha(esd(WeightMatrix("g", LayerRole.OTHER_2D, gaussian)))
        a_h, _ = fit_alpha(esd(WeightMatrix("h", LayerRole.OTHER_2D, heavy)))
        wins += a_g > a_h
    verdict(12, wins == 20,
            f"gaussian alpha exceeds pareto-rescaled alpha in {wins}/20 trials")
