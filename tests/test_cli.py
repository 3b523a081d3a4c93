import json
import math
import warnings

import numpy as np
import pytest

from tailwise.allocate import PlanConfig
from tailwise.cli import main
from tailwise.manifest import save_manifest
from tailwise.reports import analysis_report, dumps, format_float, timeline_csv
from tailwise.schedule import ScheduleConfig, base_lr_at
from tailwise.spectral import LayerRole, WeightMatrix
from tailwise.tailfit import FitConfig, summarize


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


class TestScheduleCommand:
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

    @pytest.mark.parametrize("patch, code, error, words", [
        ({"data": {"kind": "nope"}}, 2, "InvalidConfig", "'nope' is not a valid CorpusKind"),
        ({"optim": {"mode": "weird"}}, 2, "InvalidConfig", "'weird' is not a valid TrainMode"),
        ({"model": {"widht": 8}}, 2, "InvalidConfig", "keyword argument 'widht'"),
        ({"optim": {"etaa": 1e-3}}, 2, "InvalidConfig", "unknown keys ['etaa']"),
        ({"stepz": 30}, 2, "InvalidConfig", "unknown keys ['stepz']"),
        ({"fit": {"k_override": 1000}}, 2, "BadK", "k_override=1000"),
        ({"plan": {"eta": 1e-2}}, 2, "InvalidConfig", "a run has one eta"),
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

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze"])  # missing --manifest
        assert info.value.code == 2
