"""Each output check passes on genuine outputs and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The outputs come from running the four commands through tailwise.cli.main
on a small checkpoint and the toy train of the ckpt-cli workload.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from checks import (  # noqa: E402
    CheckFailed,
    check_analysis,
    check_plan,
    check_same_final_loss,
    check_schedule,
    check_summary,
    check_timeline,
)
from inputs import WORKLOADS, Workload, block_layers  # noqa: E402
from run import COMMANDS, Bench  # noqa: E402
from spans import covered, self_times  # noqa: E402
from tailwise.cli import main as cli_main  # noqa: E402

SMALL = Workload(
    name="small",
    layers=block_layers(64, 64, 256, 1,
                        {"blocks.0.att.q": 2.0, "blocks.0.att.o": 2.5, "blocks.0.ffn.up": 3.0},
                        frozenset({"blocks.0.att.o"})),
    schedule_steps=40, schedule_interval=10, schedule_switch=5,
    schedule_active=0.5, schedule_warmup=4,
    train=WORKLOADS["ckpt-cli"].train,
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    bench = Bench(SMALL, 7, work, deadline=math.inf)
    for kind in COMMANDS:
        assert cli_main(bench.argv(kind, work)) == 0
    return {
        "bench": bench,
        "exp": bench.expected,
        "report": json.loads((work / "report.json").read_text()),
        "plan": json.loads((work / "plan.json").read_text()),
        "schedule": (work / "timeline.csv").read_text(),
        "summary": json.loads((work / "train" / "summary.json").read_text()),
        "timeline": (work / "train" / "timeline.csv").read_text(),
    }


def test_genuine_outputs_pass(run):
    exp = run["exp"]
    assigned = check_analysis(run["report"], exp)
    check_plan(run["plan"], assigned)
    check_schedule(run["schedule"], exp, assigned)
    final = check_summary(run["summary"], exp)
    check_timeline(run["timeline"], exp)
    check_same_final_loss([final, final])


def _scale(record, key, factor):
    record[key] = record[key] * factor


def _error(report):
    report["layers"][3] = {"name": report["layers"][3]["name"], "role": "att.k",
                           "error": "TooFewEigenvalues: 2 positive eigenvalues"}


ANALYSIS_CORRUPTIONS = {
    "alpha": (lambda r: _scale(r["layers"][1], "alpha", 1 + 1e-7), "alpha"),
    "fro_norm": (lambda r: _scale(r["layers"][2], "fro_norm", 1 + 1e-9), "fro_norm"),
    "layer_dropped": (lambda r: r["layers"].pop(4), "layer list"),
    "error_record": (_error, "reported"),
    "assigned_lr": (lambda r: _scale(r["layers"][5], "assigned_lr", 1 + 1e-9), "linear map"),
    "pinned_lr": (lambda r: r["layers"][0].update(
        assigned_lr=math.nextafter(r["layers"][0]["assigned_lr"], 0.0)), "pinned"),
}


@pytest.mark.parametrize("corruption", sorted(ANALYSIS_CORRUPTIONS))
def test_analysis_rejects(run, corruption):
    mutate, message = ANALYSIS_CORRUPTIONS[corruption]
    report = copy.deepcopy(run["report"])
    mutate(report)
    with pytest.raises(CheckFailed, match=message):
        check_analysis(report, run["exp"])


def _replant(exp, mapping):
    layers = tuple(dataclasses.replace(l, planted_alpha=mapping(l.planted_alpha))
                   if l.planted_alpha is not None else l for l in exp.layers)
    return dataclasses.replace(exp, layers=layers)


def test_analysis_rejects_planted_order(run):
    # Claim the reverse order of exponents for the same matrices.
    order = {2.0: 3.0, 3.0: 2.0, 2.5: 2.5}
    with pytest.raises(CheckFailed, match="planted order"):
        check_analysis(run["report"], _replant(run["exp"], order.get))


def test_analysis_rejects_planted_exponent(run):
    with pytest.raises(CheckFailed, match="not within"):
        check_analysis(run["report"], _replant(run["exp"], lambda a: a * 1.2))


def test_plan_rejects_one_ulp(run):
    assigned = check_analysis(run["report"], run["exp"])
    plan = copy.deepcopy(run["plan"])
    plan["layers"][3]["base_lr"] = math.nextafter(plan["layers"][3]["base_lr"], 1.0)
    with pytest.raises(CheckFailed, match="plan"):
        check_plan(plan, assigned)


def _lines(text):
    return text.split("\n")


def _drop_last(text):
    lines = _lines(text)
    del lines[-2]
    return "\n".join(lines)


def _swap(text):
    lines = _lines(text)
    lines[5], lines[6] = lines[6], lines[5]
    return "\n".join(lines)


def _set_lr(text, row, value):
    lines = _lines(text)
    step, layer, _ = lines[row].split(",")
    lines[row] = f"{step},{layer},{value}"
    return "\n".join(lines)


def _scale_lr(text, row, factor):
    lr = float(_lines(text)[row].split(",")[2])
    return _set_lr(text, row, "%.17g" % (lr * factor))


CSV_CORRUPTIONS = {
    "row_dropped": (_drop_last, "rows"),
    "rows_swapped": (_swap, "out of order"),
    "lr_scaled": (lambda t: _scale_lr(t, 200, 1 + 1e-9), "step"),
}


@pytest.mark.parametrize("corruption", sorted(CSV_CORRUPTIONS))
def test_schedule_rejects(run, corruption):
    mutate, message = CSV_CORRUPTIONS[corruption]
    assigned = check_analysis(run["report"], run["exp"])
    with pytest.raises(CheckFailed, match=f"schedule: .*{message}"):
        check_schedule(mutate(run["schedule"]), run["exp"], assigned)


@pytest.mark.parametrize("corruption", sorted(CSV_CORRUPTIONS))
def test_timeline_rejects(run, corruption):
    mutate, message = CSV_CORRUPTIONS[corruption]
    text = run["timeline"]
    if corruption == "lr_scaled":
        # Only the pinned rows have an exact reference: take the embedding
        # at step 100 (rows are step-major, the embedding first).
        text = _scale_lr(text, 1 + 100 * len(run["exp"].step0_alphas), 1 + 1e-9)
    else:
        text = mutate(text)
    with pytest.raises(CheckFailed, match=f"timeline: .*{message}"):
        check_timeline(text, run["exp"])


def test_timeline_rejects_non_finite(run):
    with pytest.raises(CheckFailed, match="outside"):
        check_timeline(_set_lr(run["timeline"], 40, "nan"), run["exp"])


def test_timeline_rejects_above_top_rate(run):
    with pytest.raises(CheckFailed, match="outside"):
        check_timeline(_set_lr(run["timeline"], 41, "0.0151"), run["exp"])


SUMMARY_CORRUPTIONS = {
    "steps": (lambda d: d.update(steps=d["steps"] - 1), "steps"),
    "diverged": (lambda d: d.update(diverged=True), "diverged"),
    "first_loss": (lambda d: d.update(first_loss=d["first_loss"] + 0.1), "first_loss"),
    "first_loss_slightly": (lambda d: d.update(first_loss=d["first_loss"] * (1 + 1e-5)),
                            "first_loss"),
    "final_loss": (lambda d: d.update(final_loss=d["first_loss"] - 0.05), "final_loss"),
    "step0_alpha": (lambda d: _scale(d["recomputes"][0]["alphas"][2], "alpha", 1 + 1e-7),
                    "step-0"),
}


@pytest.mark.parametrize("corruption", sorted(SUMMARY_CORRUPTIONS))
def test_summary_rejects(run, corruption):
    mutate, message = SUMMARY_CORRUPTIONS[corruption]
    summary = copy.deepcopy(run["summary"])
    mutate(summary)
    with pytest.raises(CheckFailed, match=message):
        check_summary(summary, run["exp"])


def test_summary_rejects_first_loss_far_from_uniform(run):
    # A model whose reference loss agrees but is not near-uniform at step 0.
    summary = copy.deepcopy(run["summary"])
    summary["first_loss"] += 1.0
    exp = dataclasses.replace(run["exp"], first_loss=summary["first_loss"])
    with pytest.raises(CheckFailed, match="ln\\(vocab\\)"):
        check_summary(summary, exp)


def test_repeats_must_agree_bit_for_bit(run):
    final = run["summary"]["final_loss"]
    with pytest.raises(CheckFailed, match="differs"):
        check_same_final_loss([final, math.nextafter(final, 0.0)])


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: the union of children is [1, 5]
        ["a.child", 1.0, 2.0, 1],
    ]
    assert covered([(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert self_times(spans) == [6.0, 1.0, 3.0, 1.0]


def test_traced_command_records_spans(run, tmp_path):
    result = tmp_path / "plan.result.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(result), "1",
            *run["bench"].argv("plan", tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(argv, env=env, check=True, timeout=120)
    doc = json.loads(result.read_text())
    names = [doc["names"][i] for i, *_ in doc["spans"]]
    n_layers = len(SMALL.layers)
    assert names.count("cli.plan") == 1
    assert names.count("manifest.load_manifest") == 1
    assert names.count("spectral.esd") == n_layers
    assert names.count("tailfit.summarize") == n_layers
    assert names.count("allocate.build_plan") == 1
    assert len(doc["notes"]) == n_layers
    spans = [[doc["names"][i], a, b, p] for i, a, b, p in doc["spans"]]
    assert all(own >= 0.0 for own in self_times(spans))
