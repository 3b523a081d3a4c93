#!/usr/bin/env python3
"""Benchmark of the tailwise command line: analyze, plan, schedule, train.

Run from the root of the repository:

    python3 perfbench/run.py --workload llr-d64 --seed 1 --seconds 30 --trace 0

One round runs the four commands once, in that order, each in a fresh
process (`python3 perfbench/launch.py ...`, which calls tailwise.cli.main).
A run repeats whole rounds while another one fits in --seconds, and checks
every output against perfbench/oracle.py. With --trace 0 it reports the
end-to-end metrics as medians over rounds; with --trace 1 it runs rounds in
pairs, one untraced and one traced, and reports the per-module metrics of
the traced ones plus the tracing overhead. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import (
    CheckFailed,
    Expected,
    check_analysis,
    check_plan,
    check_same_final_loss,
    check_schedule,
    check_summary,
    check_timeline,
)
from inputs import WORKLOADS, Workload, read_layer, train_config, write_checkpoint
from oracle import fro_norm, layer_alpha, reference_loss
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
# A run stops starting commands this long after it began, so it ends well
# inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
COMMANDS = ("analyze", "plan", "schedule", "train")


@dataclass
class Command:
    kind: str
    code: int
    start: float  # time.monotonic just before the process was spawned
    wall: float
    cpu: float  # user + system, all threads
    rss_mb: float
    marks: dict
    trace: dict | None
    stderr: str


@dataclass
class Round:
    traced: bool
    commands: dict[str, Command]
    failures: list[str]
    final_loss: float | None

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands.values())


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


class Bench:
    def __init__(self, w: Workload, seed: int, work: Path, deadline: float):
        self.w, self.work, self.deadline = w, work, deadline
        self.manifest = write_checkpoint(work / "ckpt", w.layers, seed)
        self.manifest_bytes = sum(l.nbytes for l in w.layers)
        self.train_cfg = train_config(w, seed)
        self.train_cfg_path = work / "train.json"
        self.train_cfg_path.write_text(json.dumps(self.train_cfg, indent=1) + "\n")
        self.expected = self._expected()

    def _expected(self) -> Expected:
        alphas, norms = {}, {}
        for spec in self.w.layers:
            values = read_layer(self.manifest, spec)
            alphas[spec.name] = layer_alpha(values)
            norms[spec.name] = fro_norm(values)
        # The trainer's step-0 weights and first batch, taken from the
        # program's own initializer and data sampler.
        from tailwise.data import CorpusKind, DataConfig, batch_sampler, gen_corpus
        from tailwise.model import ModelConfig, build_model

        model_cfg = ModelConfig(**self.train_cfg["model"])
        model = build_model(model_cfg)
        step0 = {name: layer_alpha(model.params[name]) for name in model.matrix_names()}
        data = dict(self.train_cfg["data"], kind=CorpusKind(self.train_cfg["data"]["kind"]))
        data_cfg = DataConfig(vocab=model_cfg.vocab, **data)
        batch = next(batch_sampler(data_cfg, gen_corpus(data_cfg), model_cfg.context + 1))
        first = reference_loss(model.params, model_cfg.n_layers, model_cfg.n_heads, batch)
        return Expected(self.w.layers, alphas, norms, self.w.eta, self.w.s,
                        self.w.schedule_steps, self.w.schedule_warmup, self.train_cfg, step0,
                        first)

    def argv(self, kind: str, out: Path) -> list[str]:
        w = self.w
        plan = ["--manifest", str(self.manifest), "--eta", repr(w.eta), "--s", repr(w.s)]
        if kind == "analyze":
            return ["analyze", *plan, "--out", str(out / "report.json")]
        if kind == "plan":
            return ["plan", *plan, "--out", str(out / "plan.json")]
        if kind == "schedule":
            return ["schedule", *plan, "--steps", str(w.schedule_steps),
                    "--interval", str(w.schedule_interval), "--switch", str(w.schedule_switch),
                    "--active", repr(w.schedule_active), "--warmup", str(w.schedule_warmup),
                    "--base", "cosine", "--out", str(out / "timeline.csv")]
        return ["train", "--config", str(self.train_cfg_path), "--out", str(out / "train")]

    def _launch(self, kind: str, out: Path, traced: bool) -> Command:
        result = out / f"{kind}.result.json"
        argv = [sys.executable, str(HERE / "launch.py"), str(result), "1" if traced else "0",
                *self.argv(kind, out)]
        err_path = out / f"{kind}.stderr"
        old = signal.signal(signal.SIGALRM, _raise_timeout)
        try:
            with open(err_path, "wb") as err:
                start = time.monotonic()
                proc = subprocess.Popen(argv, env=command_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=err)
                signal.setitimer(signal.ITIMER_REAL, max(1.0, self.deadline - start))
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except _Timeout:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                end = time.monotonic()
        finally:
            signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        doc = json.loads(result.read_text()) if result.is_file() else {"marks": {}}
        return Command(kind, proc.returncode, start, end - start,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       doc["marks"], doc if traced else None,
                       err_path.read_text(errors="replace")[-2000:])

    def round(self, index: int, traced: bool) -> Round:
        out = self.work / f"round{index}"
        out.mkdir()
        commands = {kind: self._launch(kind, out, traced) for kind in COMMANDS}
        failures: list[str] = []

        def attempt(kind, check):
            c = commands[kind]
            if c.code != 0:
                failures.append(f"{kind}: exit {c.code}: {c.stderr.strip()[-500:]}")
                return None
            try:
                return check()
            except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                return None

        def need(value):
            if value is None:
                raise CheckFailed("no analyze LRs to compare against")
            return value

        exp = self.expected
        assigned = attempt("analyze", lambda: check_analysis(
            json.loads((out / "report.json").read_text()), exp))
        attempt("plan", lambda: check_plan(
            json.loads((out / "plan.json").read_text()), need(assigned)))
        attempt("schedule", lambda: check_schedule(
            (out / "timeline.csv").read_text(), exp, need(assigned)))

        def train_check():
            final = check_summary(json.loads((out / "train" / "summary.json").read_text()), exp)
            check_timeline((out / "train" / "timeline.csv").read_text(), exp)
            return final

        final = attempt("train", train_check)
        return Round(traced, commands, failures, final)

    def run(self, seconds: int, trace: bool) -> list[Round]:
        rounds: list[Round] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            began = time.monotonic()
            # Traced pairs alternate which half runs first, so that a drift
            # within the run does not bias the overhead one way.
            order = ((True, False) if len(rounds) % 4 else (False, True)) if trace else (False,)
            for traced in order:
                rounds.append(self.round(len(rounds), traced))
            longest = max(longest, time.monotonic() - began)
            now = time.monotonic()
            if now - start + longest > seconds or now + longest > self.deadline:
                return rounds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p99(values) -> float:
    """Nearest-rank 99th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def end_to_end(w: Workload, rounds: list[Round]) -> dict:
    cfg = w.train
    tokens = cfg["steps"] * cfg["data"]["batch"] * cfg["model"]["context"]
    per_round = defaultdict(list)
    setups = []
    for r in rounds:
        ok = {k: c for k, c in r.commands.items() if c.code == 0}
        if len(ok) == len(COMMANDS):
            per_round["wall_s"].append(r.wall)
            per_round["cpu_s"].append(sum(c.cpu for c in ok.values()))
            per_round["peak_rss_mb"].append(max(c.rss_mb for c in ok.values()))
        for kind in ("analyze", "plan", "schedule"):
            if kind in ok:
                per_round[f"{kind}_s"].append(ok[kind].wall)
        train = ok.get("train")
        if train and {"first_step", "train_end"} <= train.marks.keys():
            per_round["train_tokens_per_s"].append(
                tokens / (train.marks["train_end"] - train.marks["first_step"]))
        if r.final_loss is not None:
            per_round["final_loss"].append(r.final_loss)
        for kind in w.setup_commands:
            c = ok.get(kind)
            mark = "first_step" if kind == "train" else "first_read"
            if c and mark in c.marks:
                setups.append(c.marks[mark] - c.start)
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "train_tokens_per_s": "tokens/s", "final_loss": "nats",
             "analyze_s": "s", "plan_s": "s", "schedule_s": "s"}
    values = dict(per_round, setup_s=setups)
    return {name: {"value": _median(values.get(name, [])), "unit": unit}
            for name, unit in units.items()}


def per_layer(w: Workload, rounds: list[Round], manifest_bytes: int) -> dict:
    traced = [r for r in rounds if r.traced]
    n = max(1, len(traced))
    durations, selfs = defaultdict(list), defaultdict(list)
    unique, eigenvalues = [], []
    for r in traced:
        digests = []
        for c in r.commands.values():
            if c.trace is None or "spans" not in c.trace:
                continue
            names = c.trace["names"]
            spans = [[names[i], a, b, p] for i, a, b, p in c.trace["spans"]]
            for (name, a, b, _), own in zip(spans, self_times(spans)):
                durations[name].append(b - a)
                selfs[name].append(own)
            for _, digest, n_eig in c.trace["notes"]:
                digests.append(digest)
                eigenvalues.append(n_eig)
        unique.append(len(set(digests)) / len(digests) if digests else 0.0)

    def total(name):
        return sum(durations[name]) / n

    def count(name):
        return len(durations[name]) / n

    def own(name):
        return sum(selfs[name]) / n

    def p50_ms(name):
        return _median(durations[name]) * 1e3

    pairs = [sorted(pair, key=lambda r: r.traced) for pair in zip(rounds[::2], rounds[1::2])]
    m = {
        "data.gen_corpus.total": (total("data.gen_corpus"), "s"),
        "data.batch.p50": (p50_ms("data.batch"), "ms"),
        "model.build_model.total": (total("model.build_model"), "s"),
        "model.loss_and_grads.p50": (p50_ms("model.loss_and_grads"), "ms"),
        "model.loss_and_grads.p99": (_p99(durations["model.loss_and_grads"]) * 1e3, "ms"),
        "model.forward_loss.p50": (p50_ms("model.forward_loss"), "ms"),
        "model.backward.p50": (p50_ms("model.loss_and_grads") - p50_ms("model.forward_loss"),
                               "ms"),
        "optim.adamw_step.p50": (p50_ms("optim.adamw_step"), "ms"),
        "train.sweep_summaries.p50": (p50_ms("train.sweep_summaries"), "ms"),
        "train.sweep_summaries.count": (count("train.sweep_summaries"), "count"),
        "train.run_training.self_per_step": (own("train.run_training") / w.train["steps"] * 1e3,
                                             "ms"),
        "spectral.esd.total": (total("spectral.esd"), "s"),
        "spectral.esd.count": (count("spectral.esd"), "count"),
        "spectral.esd.eigenvalues": (sum(eigenvalues) / n, "count"),
        "spectral.esd.unique_ratio": (_median(unique), "ratio"),
        "tailfit.fit_alpha.total": (total("tailfit.fit_alpha"), "s"),
        "tailfit.summarize.self": (own("tailfit.summarize"), "s"),
        "allocate.build_plan.total": (total("allocate.build_plan"), "s"),
        "allocate.build_plan.count": (count("allocate.build_plan"), "count"),
        "schedule.on_step.self_p50": (_median(selfs["schedule.on_step"]) * 1e3, "ms"),
        "schedule.layer_lr_at.total": (total("schedule.layer_lr_at"), "s"),
        "schedule.layer_lr_at.count": (count("schedule.layer_lr_at"), "count"),
        "schedule.export_timeline.total": (total("schedule.export_timeline"), "s"),
        "manifest.load_manifest.total": (total("manifest.load_manifest"), "s"),
        "manifest.bytes": (count("manifest.load_manifest") * manifest_bytes, "bytes"),
        "reports.analysis_report.self": (own("reports.analysis_report"), "s"),
        "reports.render_document.total": (total("reports.render_document"), "s"),
        "reports.timeline_csv.total": (total("reports.timeline_csv"), "s"),
        "cli.train.self": (own("cli.train"), "s"),
        "cli.analyze.self": (own("cli.analyze"), "s"),
        "cli.plan.self": (own("cli.plan"), "s"),
        "cli.schedule.self": (own("cli.schedule"), "s"),
        "trace.overhead_s": (_median([b.wall - a.wall for a, b in pairs]), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def command_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    """nproc, Python, numpy and BLAS as the commands see them."""
    probe = subprocess.run([sys.executable, str(HERE / "launch.py"), "--env"], env=command_env(),
                           cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                           timeout=60, check=True)
    return dict(json.loads(probe.stdout), nproc=len(os.sched_getaffinity(0)))


def write_trace(path: Path, rounds: list[Round]) -> None:
    """All spans of the traced rounds, one list per command."""
    doc = [{"round": i, "command": c.kind, "names": c.trace["names"],
            "spans": c.trace["spans"], "notes": c.trace["notes"]}
           for i, r in enumerate(rounds) if r.traced
           for c in r.commands.values() if c.trace and "spans" in c.trace]
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    began = time.monotonic()
    if not (SRC / "tailwise" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: {SRC}/tailwise not found; run from the repository root\n")
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    work = RUNS / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(w, args.seed, work, began + RUN_DEADLINE_S)
        rounds = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in rounds for f in r.failures]
    losses = [r.final_loss for r in rounds if r.final_loss is not None]
    try:
        check_same_final_loss(losses)
    except CheckFailed as exc:
        failures.append(str(exc))
    for f in failures:
        sys.stderr.write(f"perfbench: {f}\n")
    if args.trace:
        metrics = per_layer(w, rounds, bench.manifest_bytes)
        write_trace(RUNS / f"trace-{w.name}.json", rounds)
    else:
        metrics = end_to_end(w, rounds)
    failed = sum(1 for r in rounds for f in r.failures)
    print(json.dumps({"env": environment(), "workload": w.name, "seed": args.seed,
                      "rounds": [{"traced": r.traced, "wall_s": round(r.wall, 4),
                                  **{k: round(c.wall, 4) for k, c in r.commands.items()}}
                                 for r in rounds]}))
    print(json.dumps({"correct": not failures, "attempted": len(COMMANDS) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
