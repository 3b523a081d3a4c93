import contextlib
import dataclasses
import io
import json
import math
import tempfile
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailwise.allocate import Assignment, PlanConfig
from tailwise.cli import main
from tailwise.data import DataConfig
from tailwise.manifest import load_manifest, save_manifest
from tailwise.model import ModelConfig
from tailwise.reports import analysis_report, dumps, format_float, timeline_csv
from tailwise.schedule import (
    BaseSchedule,
    ScheduleConfig,
    ScheduleState,
    SwitchMode,
    base_lr_at,
    lrs_at,
    on_step,
)
from tailwise.spectral import LayerRole, WeightMatrix
from tailwise.tailfit import FitConfig, summarize
from tailwise.train import OptimConfig, sweep_summaries


def demo_manifest(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    mats = [
        WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((24, 16))),
        WeightMatrix("blocks.0.att.q", LayerRole.ATT_Q, rng.standard_normal((16, 16))),
        WeightMatrix("blocks.0.att.k", LayerRole.ATT_K, rng.standard_normal((16, 16))),
        WeightMatrix("blocks.0.ffn.up", LayerRole.FFN_UP, rng.standard_normal((16, 48))),
        WeightMatrix("output_head", LayerRole.OUTPUT_HEAD, rng.standard_normal((24, 16))),
    ]
    return save_manifest(tmp_path, mats), mats


class TestExclusionRule:
    def test_unfittable_layer_across_commands(self, tmp_path):
        # A 2x3 layer has 2 eigenvalues: too few to fit. Every command
        # leaves it out of the plan and gives it eta's schedule.
        rng = np.random.default_rng(3)
        mats = [
            WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((24, 16))),
            WeightMatrix("tiny", LayerRole.ATT_Q, rng.standard_normal((2, 3))),
            WeightMatrix("up", LayerRole.FFN_UP, rng.standard_normal((16, 48))),
        ]
        manifest = str(save_manifest(tmp_path, mats))
        plan_flags = ["--manifest", manifest, "--eta", "1e-3", "--s", "5"]

        report_path, plan_path, csv_path = tmp_path / "r.json", tmp_path / "p.json", tmp_path / "t.csv"
        assert main(["analyze", *plan_flags, "--out", str(report_path)]) == 0
        records = json.loads(report_path.read_text())["layers"]
        assert [r["name"] for r in records] == ["embed", "tiny", "up"]
        assert records[1]["error"].startswith("TooFewEigenvalues")
        assert "assigned_lr" not in records[1]

        assert main(["plan", *plan_flags, "--out", str(plan_path)]) == 0
        plan = json.loads(plan_path.read_text())
        assert [l["name"] for l in plan["layers"]] == ["embed", "up"]

        assert main(["schedule", *plan_flags, "--steps", "20", "--interval", "10",
                     "--switch", "5", "--warmup", "2", "--out", str(csv_path)]) == 0
        cfg = ScheduleConfig(t_max=20, warmup_steps=2, recompute_interval=10, t_switch=5)
        rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
        assert len(rows) == 20 * 3
        assert [r[1] for r in rows[:3]] == ["embed", "tiny", "up"]
        for step, layer, lr in rows:
            if layer == "tiny":
                assert float(lr) == base_lr_at(cfg, 1e-3, int(step))

        # The trainer's vocab-3 embedding and head are 3 x 16: unfittable too.
        config = small_config(steps=20)
        config["model"]["vocab"] = config["data"]["vocab"] = 3
        cfg_path, out_dir = tmp_path / "run.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        fitted = {a["name"] for a in summary["recomputes"][0]["alphas"]}
        assert "blocks.0.att.q" in fitted and not fitted & {"embed", "output_head"}
        train_cfg = ScheduleConfig(t_max=20, warmup_steps=3, recompute_interval=10,
                                   t_switch=5, active_fraction=0.5)
        rows = [line.split(",") for line in
                (out_dir / "timeline.csv").read_text().strip().split("\n")[1:]]
        for step, layer, lr in rows:
            if layer in ("embed", "output_head"):
                assert float(lr) == base_lr_at(train_cfg, 2e-3, int(step))

    def test_sweep_returns_every_layer_in_order(self, tmp_path):
        # The first and last layers cannot be fitted: 2 eigenvalues, and a NaN.
        rng = np.random.default_rng(6)
        nan_head = rng.standard_normal((24, 16))
        nan_head[3, 5] = math.nan
        mats = [
            WeightMatrix("tiny", LayerRole.EMBEDDING, rng.standard_normal((2, 3))),
            WeightMatrix("blocks.0.att.q", LayerRole.ATT_Q, rng.standard_normal((16, 16))),
            WeightMatrix("blocks.0.ffn.up", LayerRole.FFN_UP, rng.standard_normal((16, 48))),
            WeightMatrix("output_head", LayerRole.OUTPUT_HEAD, nan_head),
        ]
        manifest = save_manifest(tmp_path, mats)
        summaries, layers = sweep_summaries(load_manifest(manifest), FitConfig())
        assert [(name, role) for name, role, _ in layers] == [(w.name, w.role) for w in mats]

        report_path = tmp_path / "r.json"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(report_path)]) == 0
        records = json.loads(report_path.read_text())["layers"]
        assert [error for _, _, error in layers] == [r.get("error") for r in records]
        assert [error is None for _, _, error in layers] == [False, True, True, False]
        assert [(s.layer_name, s.role) for s in summaries] == [
            (name, role) for name, role, error in layers if error is None]

    def test_plan_with_no_fittable_layer_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        manifest = save_manifest(tmp_path, [
            WeightMatrix("tiny", LayerRole.ATT_Q, rng.standard_normal((2, 3)))])
        assert main(["plan", "--manifest", str(manifest), "--eta", "1e-3"]) == 3
        last = capsys.readouterr().err.strip().split("\n")[-1]
        assert json.loads(last)["error"] == "EmptyInput"


class TestFormatting:
    def test_float_17g_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_float(float(x))) == float(x)

    def test_non_finite_encoding(self):
        assert format_float(math.inf) == '"inf"'
        assert format_float(-math.inf) == '"-inf"'
        assert format_float(math.nan) == '"nan"'

    def test_dumps_is_valid_json(self):
        doc = {"a": [1, 2.5, math.inf], "b": {"c": None, "d": True, "e": "x\"y"}}
        parsed = json.loads(dumps(doc))
        assert parsed["a"][2] == "inf"
        assert parsed["b"]["e"] == 'x"y'

    def test_timeline_csv_shape(self):
        text = timeline_csv([(0, "a", 1e-3), (0, "b", 2e-3)])
        lines = text.split("\n")
        assert lines[0] == "step,layer,lr"
        assert lines[1] == "a,0.001".replace("a,", "0,a,")
        assert text.endswith("\n") and "\r" not in text


class TestAnalyzeCommand:
    def test_byte_identical_reruns(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out1)]) == 0
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_matches_in_process_exactly(self, tmp_path):
        manifest, mats = demo_manifest(tmp_path)
        out = tmp_path / "r.json"
        main(["analyze", "--manifest", str(manifest), "--eta", "1e-3", "--s", "5",
              "--out", str(out)])
        report = json.loads(out.read_text())
        for record in report["layers"]:
            w = next(m for m in mats if m.name == record["name"])
            s = summarize(w, FitConfig())
            assert record["alpha"] == s.alpha
            assert record["fro_norm"] == s.fro_norm
            assert record["k_used"] == s.k_used
        in_proc = analysis_report(mats, FitConfig(), PlanConfig(eta=1e-3, s=5.0))
        for got, want in zip(report["layers"], in_proc["layers"]):
            assert got["assigned_lr"] == want["assigned_lr"]

    def test_assigned_lrs_within_bounds(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out = tmp_path / "r.json"
        main(["analyze", "--manifest", str(manifest), "--eta", "1e-3", "--s", "5",
              "--out", str(out)])
        report = json.loads(out.read_text())
        for record in report["layers"]:
            assert 1e-3 - 1e-15 <= record["assigned_lr"] <= 5e-3 + 1e-15

    def test_identical_matrices_zero_alpha_std(self, tmp_path):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((12, 20))
        mats = [WeightMatrix("a", LayerRole.ATT_Q, w), WeightMatrix("b", LayerRole.ATT_K, w)]
        manifest = save_manifest(tmp_path, mats)
        out = tmp_path / "r.json"
        main(["analyze", "--manifest", str(manifest), "--out", str(out)])
        assert json.loads(out.read_text())["plan"]["alpha_std"] == 0.0

    def test_partial_failure_isolated(self, tmp_path):
        rng = np.random.default_rng(2)
        mats = [
            WeightMatrix("ok", LayerRole.ATT_Q, rng.standard_normal((8, 8))),
            WeightMatrix("thin", LayerRole.ATT_K, rng.standard_normal((2, 8))),
        ]
        manifest = save_manifest(tmp_path, mats)
        out = tmp_path / "r.json"
        assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        by_name = {r["name"]: r for r in report["layers"]}
        assert "alpha" in by_name["ok"]
        assert "error" in by_name["thin"]  # too few eigenvalues to fit

    def test_missing_manifest_exit_3(self, tmp_path, capsys):
        assert main(["analyze", "--manifest", str(tmp_path / "none.json")]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"


class TestPlanCommand:
    def test_byte_identical_reruns(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(["plan", "--manifest", str(manifest), "--eta", "1e-3",
                     "--out", str(out1)]) == 0
        assert main(["plan", "--manifest", str(manifest), "--eta", "1e-3",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_embedding_pinned(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out = tmp_path / "p.json"
        main(["plan", "--manifest", str(manifest), "--eta", "1e-3", "--s", "5",
              "--out", str(out)])
        doc = json.loads(out.read_text())
        lrs = {l["name"]: l["base_lr"] for l in doc["layers"]}
        assert lrs["embed"] == 5e-3
        assert lrs["output_head"] == 5e-3


def replay_schedule(matrices, plan_cfg: PlanConfig, cfg: ScheduleConfig) -> str:
    """The timeline CSV as the trainer's recompute machine gives it over frozen alphas."""
    summaries, _ = sweep_summaries(matrices, FitConfig())
    names = [w.name for w in matrices]
    rows, state = [], ScheduleState()
    for t in range(cfg.t_max):
        state = on_step(state, cfg, lambda _t: summaries, plan_cfg, t)
        lrs = lrs_at(state, cfg, plan_cfg.eta, names, t)
        rows.extend((t, name, lrs[name]) for name in names)
    return timeline_csv(rows)


@pytest.fixture(scope="module")
def unfittable_manifest(tmp_path_factory):
    """A manifest whose 2x3 layer has too few eigenvalues to fit."""
    tmp = tmp_path_factory.mktemp("schedule")
    rng = np.random.default_rng(5)
    mats = [
        WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((24, 16))),
        WeightMatrix("tiny", LayerRole.ATT_Q, rng.standard_normal((2, 3))),
        WeightMatrix("blocks.0.att.k", LayerRole.ATT_K, rng.standard_normal((16, 16))),
        WeightMatrix("blocks.0.ffn.up", LayerRole.FFN_UP, rng.standard_normal((16, 48))),
    ]
    summaries, layers = sweep_summaries(mats, FitConfig())
    assert [name for name, _, error in layers if error is not None] == ["tiny"]
    assert all(s.alpha > 1.0 for s in summaries)  # every assignment can plan over them
    return save_manifest(tmp, mats), mats, tmp / "t.csv"


@st.composite
def schedule_flags(draw):
    """Valid `tailwise schedule` flags, with the ScheduleConfig and PlanConfig they stand for."""
    steps = draw(st.integers(1, 60))
    interval = draw(st.none() | st.integers(1, steps))
    switch = draw(st.none() | st.integers(1, min(100, steps) if interval is None else interval))
    kw = dict(t_max=steps, recompute_interval=interval, t_switch=switch,
              active_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
              base=draw(st.sampled_from(BaseSchedule)),
              warmup_steps=draw(st.integers(0, steps - 1)),
              min_lr_fraction=draw(st.floats(0.0, 1.0)))
    plan_cfg = PlanConfig(eta=1e-3, s=draw(st.floats(1.0, 8.0)),
                          assignment=draw(st.sampled_from(Assignment)),
                          embedding_override=draw(st.booleans()))
    flags = ["--steps", str(steps), "--active", repr(kw["active_fraction"]),
             "--base", kw["base"].value, "--warmup", str(kw["warmup_steps"]),
             "--min-lr-fraction", repr(kw["min_lr_fraction"]),
             "--eta", repr(plan_cfg.eta), "--s", repr(plan_cfg.s),
             "--assignment", plan_cfg.assignment.value]
    if interval is not None:
        flags += ["--interval", str(interval)]
    if switch is not None:
        flags += ["--switch", str(switch)]
    if not plan_cfg.embedding_override:
        flags.append("--no-embedding-override")
    return flags, kw, plan_cfg


class TestScheduleCommand:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(drawn=schedule_flags())
    def test_matches_the_recompute_replay(self, unfittable_manifest, drawn):
        # Frozen alphas rebuild the same plan at every recompute, so the
        # trainer's machine, soft or hard, gives the command's bytes.
        manifest, mats, out = unfittable_manifest
        flags, kw, plan_cfg = drawn
        assert main(["schedule", "--manifest", str(manifest), *flags, "--out", str(out)]) == 0
        got = out.read_text()
        for mode in SwitchMode:
            assert got == replay_schedule(mats, plan_cfg, ScheduleConfig(switch_mode=mode, **kw))

    def test_s1_single_lr_per_step(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["schedule", "--manifest", str(manifest), "--steps", "40",
                     "--interval", "20", "--switch", "10", "--active", "1.0",
                     "--eta", "1e-3", "--s", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert len(lines) == 40 * 5
        per_step = {}
        for line in lines:
            step, layer, lr = line.split(",")
            per_step.setdefault(step, set()).add(lr)
        assert all(len(v) == 1 for v in per_step.values())

    def test_wsd_base(self, tmp_path):
        manifest, _ = demo_manifest(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["schedule", "--manifest", str(manifest), "--steps", "40",
                     "--interval", "20", "--switch", "10", "--active", "1.0",
                     "--base", "wsd", "--eta", "1e-3", "--out", str(out)]) == 0
        assert out.read_text().startswith("step,layer,lr\n")


def small_config(steps=30):
    return {
        "steps": steps,
        "model": {"vocab": 16, "d_model": 16, "n_layers": 1, "n_heads": 2,
                  "context": 16, "seed": 1},
        "data": {"kind": "markov", "seed": 1, "length": 4000, "vocab": 16,
                 "batch": 4},
        "optim": {"eta": 2e-3, "mode": "llr"},
        "plan": {"s": 4.0},
        "schedule": {"recompute_interval": 10, "t_switch": 5,
                     "active_fraction": 0.5, "warmup_steps": 3},
    }


CONFIG_SECTIONS = {"model": ModelConfig, "data": DataConfig, "optim": OptimConfig,
                   "plan": PlanConfig, "schedule": ScheduleConfig, "fit": FitConfig}


def section_fields():
    """(section, field, type) for every settable field of a config section."""
    for section, cls in CONFIG_SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if f.init:
                yield section, f.name, hints[f.name]


def wrongly_typed_fields():
    """(section, field, value) for each settable config field and JSON value of a wrong type."""
    for section, name, tp in section_fields():
        if isinstance(tp, types.UnionType):  # X | None takes null too
            tp = typing.get_args(tp)[0]
        values = [{"x": 1}, 5 if tp is str else "1"]
        if tp is int:
            values += [1.5, True]
        elif tp is float:
            values += [True]
        elif tp is bool:
            values += [1]
        elif typing.get_origin(tp) is tuple:
            values += [[0.9, True]]
        for value in values:
            yield section, name, value


class TestTrainCommand:
    def test_smoke_run_writes_outputs(self, tmp_path):
        config = small_config()
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["steps"] == 30
        assert not summary["diverged"]
        assert math.isfinite(summary["final_loss"])
        assert len(summary["recomputes"]) == 2  # t = 0 and t = 10
        csv = (out_dir / "timeline.csv").read_text()
        assert csv.startswith("step,layer,lr\n")
        assert len(csv.strip().split("\n")) == 1 + 30 * 9  # 7 block + embed + head

    def test_bad_config_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{broken")
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @pytest.mark.parametrize("command", ["train", "analyze"])
    @pytest.mark.parametrize("text", [b'{"steps": "\xff"}', b"[" * 200_000],
                             ids=["bad-utf8", "deep-nesting"])
    def test_unreadable_json_exit_3(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.json"
        if command == "train":
            path.write_bytes(text)
            argv = ["train", "--config", str(path), "--out", str(tmp_path / "o")]
        else:
            path.write_bytes(b'{"version": 1, "layers": ' + text)
            argv = ["analyze", "--manifest", str(path)]
        assert main(argv) == 3
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ParseError"
        assert record["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("patch, code, error, words", [
        ({"data": {"kind": "nope"}}, 2, "InvalidConfig", "'nope' is not a valid CorpusKind"),
        ({"optim": {"mode": "weird"}}, 2, "InvalidConfig", "'weird' is not a valid TrainMode"),
        ({"model": {"widht": 8}}, 2, "InvalidConfig", "unknown keys ['widht']"),
        ({"optim": {"etaa": 1e-3}}, 2, "InvalidConfig", "unknown keys ['etaa']"),
        ({"stepz": 30}, 2, "InvalidConfig", "unknown keys ['stepz']"),
        ({"fit": {"k_override": 1000}}, 2, "InvalidConfig", "fit: unknown keys ['k_override']"),
        ({"plan": {"eta": 1e-2}}, 2, "InvalidConfig", "a run has one eta"),
        ({"model": {"seed": -1}}, 2, "InvalidConfig", "seed must be non-negative"),
        ({"data": {"seed": -1}}, 2, "InvalidConfig", "seed must be non-negative"),
        ({"steps": 20.7}, 2, "InvalidConfig", "config.steps: expected int, got 20.7"),
        ({"optim": {"betas": [0.9, 0.99, 0.999]}}, 2, "InvalidConfig", "optim.betas"),
        ({"schedule": [1]}, 2, "InvalidConfig", "config.schedule: expected dict"),
        ({"optim": {"weight_decay": math.nan}}, 2, "InvalidConfig",
         "optim.weight_decay: expected float, got NaN"),
        ({"optim": {"plan_cfg": {}}}, 2, "InvalidConfig", "optim: unknown keys ['plan_cfg']"),
        ({"data": {"length": 10**20}}, 2, "InvalidConfig", "length must lie in [2, "),
        ({"optim": {"eps": 0.0}}, 2, "InvalidConfig", "eps must be positive"),
        ({"optim": {"weight_decay": -1.0}}, 2, "InvalidConfig", "weight_decay must be non-negative"),
        ({"model": {"d_model": 16, "ffn_mult": 0.01}}, 2, "InvalidConfig", "empty FFN"),
        ({"optim": {"eta": 1e308}}, 2, "InvalidConfig", "s * eta must be finite"),
        ({"schedule": {"t_max": 12}}, 2, "InvalidConfig", "schedule t_max 12 != steps 10"),
        ({"model": {"vocab": 10**15}, "data": {"vocab": 10**15}}, 4, "MemoryError",
         "Unable to allocate"),
        ({"data": {"vocab": 8}}, 2, "InvalidConfig", "data vocab must match model vocab"),
        ({"model": {"context": 8}, "data": {"length": 5}}, 2, "InvalidConfig",
         "corpus length 5 below window 9"),
        ({"model": {"ffn_mult": 1e308}}, 2, "InvalidConfig", "FFN width numpy cannot allocate"),
        ({"model": {"ffn_mult": 1e300}}, 2, "InvalidConfig", "FFN width numpy cannot allocate"),
        ({"model": {"vocab": 10**18}, "data": {"vocab": 10**18}}, 2, "InvalidConfig",
         "FFN width numpy cannot allocate"),
    ])
    def test_bad_config_exit_codes(self, tmp_path, capsys, patch, code, error, words):
        config = small_config(steps=10)
        for section, entries in patch.items():
            if isinstance(entries, dict):
                config.setdefault(section, {}).update(entries)
            else:
                config[section] = entries
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
        record = json.loads(capsys.readouterr().err)  # one record, nothing else
        assert record["error"] == error
        assert words in record["message"]
        if code == 2:  # every config error is found before --out is made
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, name, value", [
        pytest.param(section, name, value, id=f"{section}.{name}={json.dumps(value)}")
        for section, name, value in wrongly_typed_fields()
    ])
    def test_every_config_field_checks_its_type(self, tmp_path, capsys, section, name, value):
        config = small_config(steps=10)
        config.setdefault(section, {})[name] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "InvalidConfig"
        assert f"{section}.{name}" in record["message"]

    def test_diverged_run_writes_partial_outputs(self, tmp_path, capsys):
        config = small_config(steps=60)
        config["optim"]["eta"] = 80.0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy overflow stays silent
            assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DivergedLoss"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["diverged"]
        assert summary["final_loss"] == "inf"
        rows = (out_dir / "timeline.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == (summary["steps"] + 1) * 9  # the diverged step's LRs too

    def test_diverged_sharded_run_is_silent(self, tmp_path, capsys, two_thread_budget):
        # 16 x 64 tokens per batch: each step runs half its rows on a worker
        # thread, which must overflow as silently as the caller's.
        config = small_config(steps=60)
        config["model"]["context"] = 64
        config["data"]["batch"] = 16
        config["optim"]["eta"] = 80.0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "DivergedLoss"
        assert two_thread_budget[:2] == [1, 2]  # the steps ran sharded

    @pytest.mark.parametrize("mode", ["llr", "uniform"])
    def test_no_fittable_matrix_follows_global_schedule(self, tmp_path, mode):
        # d_model 2: every matrix has at most 2 eigenvalues, so no plan is made.
        config = small_config(steps=20)
        config["model"].update(d_model=2, n_heads=1)
        config["optim"]["mode"] = mode
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["mode"] == mode
        assert all(r["alphas"] == [] for r in summary["recomputes"])
        cfg = ScheduleConfig(t_max=20, warmup_steps=3, recompute_interval=10, t_switch=5,
                             active_fraction=0.5)
        for line in (out_dir / "timeline.csv").read_text().strip().split("\n")[1:]:
            step, _, lr = line.split(",")
            assert float(lr) == base_lr_at(cfg, 2e-3, int(step))

    def test_short_runs_default_interval_and_switch(self, tmp_path, capsys):
        # Unset, the interval is min(100, steps) and the switch min(50, interval),
        # so runs shorter than 100 steps need neither; set values are still checked.
        manifest, _ = demo_manifest(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["schedule", "--manifest", str(manifest), "--steps", "60",
                     "--eta", "1e-3", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 60 * 5
        config = small_config(steps=60)
        del config["schedule"]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [r["step"] for r in summary["recomputes"]] == [0]
        assert main(["schedule", "--manifest", str(manifest), "--steps", "60",
                     "--interval", "100", "--eta", "1e-3"]) == 2
        config["schedule"] = {"recompute_interval": 100}
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 2
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["error"] for e in errors] == ["InvalidConfig", "InvalidConfig"]

    def test_switch_window_ends_at_the_last_step(self, tmp_path):
        # The step-55 recompute's window would run to step 105; it ends at step 100.
        config = small_config(steps=100)
        config["schedule"] = {"recompute_interval": 55, "t_switch": 50, "active_fraction": 0.6}
        cfg_path, out_dir = tmp_path / "run.json", tmp_path / "out"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [r["step"] for r in summary["recomputes"]] == [0, 55]
        rows = (out_dir / "timeline.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 100 * 9

    @pytest.mark.parametrize("command", ["analyze", "plan", "schedule", "train"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        manifest, _ = demo_manifest(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(small_config(steps=10)))
        plan = ["--manifest", str(manifest), "--eta", "1e-3"]
        out, argv = {
            "analyze": (tmp_path, ["analyze", *plan]),  # a directory
            "plan": (tmp_path / "missing" / "p.json", ["plan", *plan]),
            "schedule": (tmp_path / "missing" / "t.csv", ["schedule", *plan, "--steps", "10"]),
            "train": (cfg_path, ["train", "--config", str(cfg_path)]),  # an existing file
        }[command]
        assert main([*argv, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "InvalidConfig"
        assert f"cannot write {out}" in record["message"]

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze"])  # missing --manifest
        assert info.value.code == 2


# A wrongly typed value for any field (some are right by chance), and an
# out-of-range or non-finite number for a numeric one.
WRONG_VALUES = [{"x": 1}, "1", 1.5, True, None, [1], [0.9, True]]
BAD_NUMBERS = [-1, 0, -0.5, 0.0, 10**20, 1e308, math.nan, math.inf, -math.inf]
# Fields whose default, or a huge value, would make the run more than tiny.
SIZE_FIELDS = {("config", "steps"), ("model", "d_model"), ("model", "n_layers"),
               ("data", "length"), ("data", "batch")}


def config_fields():
    """(section, field, type) for "steps" and every settable config field."""
    yield "config", "steps", int
    yield from section_fields()


NUMERIC_FIELDS = [(s, n) for s, n, tp in config_fields()
                  if tp in (int, float, int | None)]


# An embedding of this many rows has more float64 bytes than numpy can index.
HUGE_VOCAB = 10**18


def put(config, section, name, value):
    if section == "config":
        config[name] = value
    else:
        config.setdefault(section, {})[name] = value


@st.composite
def train_configs(draw):
    """A tiny train config with up to three mistakes, or a non-object document."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], "config", 1, None, [small_config()]]))
    config = {
        "steps": draw(st.integers(1, 3)),
        "model": {"vocab": 16, "d_model": 8, "n_layers": 1, "n_heads": draw(st.sampled_from([1, 2])),
                  "context": draw(st.integers(1, 16)), "seed": 1},
        "data": {"kind": "markov", "seed": 1, "length": draw(st.integers(2, 2000)), "vocab": 16,
                 "batch": draw(st.integers(1, 4))},
        "optim": {"eta": 2e-3, "mode": draw(st.sampled_from(["llr", "uniform"])),
                  "optimizer": draw(st.sampled_from(["adamw", "adamw-lars", "adamw-lamb"]))},
        "plan": {"s": 4.0},
        "schedule": {},
    }
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["type", "number", "unknown", "missing", "vocab", "eta",
                                     "t_max", "window", "huge_vocab"]))
        if kind == "type":
            section, name, _ = draw(st.sampled_from(list(config_fields())))
            put(config, section, name, draw(st.sampled_from(WRONG_VALUES)))
        elif kind == "number":
            section, name = draw(st.sampled_from(NUMERIC_FIELDS))
            bad = [v for v in BAD_NUMBERS if v != 10**20 or (section, name) not in SIZE_FIELDS]
            put(config, section, name, draw(st.sampled_from(bad)))
        elif kind == "unknown":
            section = draw(st.sampled_from(["config", *CONFIG_SECTIONS]))
            name = draw(st.text("abk_", max_size=3))
            put(config, section, "z" + name, 1)  # no field name starts with z
        elif kind == "missing":
            present = [(s, n) for s, entries in config.items() if isinstance(entries, dict)
                       for n in entries if (s, n) not in SIZE_FIELDS]
            present += [(s, None) for s in ("plan", "schedule") if s in config]
            if present:
                section, name = draw(st.sampled_from(present))
                if name is None:
                    del config[section]
                else:
                    del config[section][name]
        elif kind == "vocab":
            put(config, "data", "vocab", 16 + draw(st.integers(1, 8)))
        elif kind == "eta":
            put(config, "plan", "eta", draw(st.sampled_from([1e-3, 3e-3, 1.0])))
        elif kind == "t_max":
            put(config, "schedule", "t_max", draw(st.integers(1, 4)))
        elif kind == "huge_vocab":  # vocabs agree, so the model's size rule refuses it
            put(config, "model", "vocab", HUGE_VOCAB)
            put(config, "data", "vocab", HUGE_VOCAB)
        else:
            context = config["model"].get("context")
            if type(context) is int and 2 <= context <= 1000:
                put(config, "data", "length", draw(st.integers(2, context)))
    return config


# Both once exited 2 with --out left behind: a corpus shorter than the
# window, and a fit section that set a Hill k larger than any spectrum.
SHORT_CORPUS = {"steps": 3, "model": {"vocab": 16, "d_model": 8, "n_layers": 1, "n_heads": 2,
                                      "context": 8},
                "data": {"length": 5, "batch": 2}, "optim": {"eta": 0.002}}


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(config=train_configs())
@example(config=SHORT_CORPUS)
@example(config=SHORT_CORPUS | {"data": {"length": 500, "batch": 2},
                                "fit": {"k_override": 1000}})
def test_generated_train_configs_keep_the_exit_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out_dir = Path(tmp) / "run.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert (out_dir / "summary.json").is_file()
            assert (out_dir / "timeline.csv").is_file()
        else:
            (line,) = err.getvalue().splitlines()
            assert set(json.loads(line)) >= {"error", "message"}
        if code == 2:
            assert not out_dir.exists()
        if isinstance(config, dict) and config.get("model", {}).get("vocab") == HUGE_VOCAB:
            assert code == 2
