import json
import math

import numpy as np

from tailwise.allocate import PlanConfig
from tailwise.data import DataConfig
from tailwise.model import ModelConfig
from tailwise.reports import analysis_report, render_document, run_summary, timeline_csv
from tailwise.schedule import ScheduleConfig
from tailwise.spectral import LayerRole, WeightMatrix
from tailwise.tailfit import FitConfig
from tailwise.train import OptimConfig, TrainMode, run_training


def mats(seed=0):
    rng = np.random.default_rng(seed)
    return [
        WeightMatrix("embed", LayerRole.EMBEDDING, rng.standard_normal((16, 12))),
        WeightMatrix("q", LayerRole.ATT_Q, rng.standard_normal((12, 12))),
        WeightMatrix("up", LayerRole.FFN_UP, rng.standard_normal((12, 24))),
    ]


class TestAnalysisReport:
    def test_layer_order_preserved(self):
        report = analysis_report(mats(), FitConfig())
        assert [r["name"] for r in report["layers"]] == ["embed", "q", "up"]

    def test_plan_metadata(self):
        report = analysis_report(mats(), FitConfig(), PlanConfig(eta=1e-3, s=5.0))
        meta = report["plan"]
        assert meta["eta"] == 1e-3
        assert meta["s"] == 5.0
        assert meta["assignment"] == "linear"
        assert meta["method"] == "median"
        assert meta["alpha_min"] <= meta["alpha_max"]
        assert math.isfinite(meta["alpha_std"])

    def test_without_plan_no_assigned_lr(self):
        report = analysis_report(mats(), FitConfig())
        assert all("assigned_lr" not in r for r in report["layers"])
        assert "eta" not in report["plan"]

    def test_render_parses_back(self):
        report = analysis_report(mats(), FitConfig(), PlanConfig(eta=1e-3))
        parsed = json.loads(render_document(report))
        assert parsed["layers"][0]["alpha"] == report["layers"][0]["alpha"]


class TestRunSummary:
    def test_summary_fields(self):
        model = ModelConfig(vocab=16, d_model=16, n_layers=1, n_heads=2, context=16, seed=2)
        data = DataConfig(seed=2, length=4000, vocab=16, batch=4)
        sched = ScheduleConfig(t_max=40, warmup_steps=4, recompute_interval=20,
                               t_switch=10, active_fraction=1.0)
        opt = OptimConfig(eta=2e-3, mode=TrainMode.LLR)
        run = run_training(model, opt, data, PlanConfig(eta=2e-3, s=4.0), sched)
        doc = run_summary(run)
        assert doc["mode"] == "llr"
        assert doc["steps"] == 40
        assert len(doc["recomputes"]) == 2
        assert doc["recomputes"][0]["step"] == 0
        assert len(doc["recomputes"][0]["alphas"]) == 9
        text = render_document(doc)
        json.loads(text)


class TestTimelineCsv:
    def test_deterministic_and_lf_only(self):
        rows = [(0, "a", 1.2345678912345678e-3), (1, "a", 2e-3)]
        a = timeline_csv(rows)
        b = timeline_csv(rows)
        assert a == b
        assert "\r" not in a
        parsed = float(a.split("\n")[1].split(",")[2])
        assert parsed == rows[0][2]
