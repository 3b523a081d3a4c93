"""Run one tailwise CLI command in this process, with timing hooks.

    python3 perfbench/launch.py RESULT.json TRACE COMMAND [ARGS...]
    python3 perfbench/launch.py --env

The command runs through tailwise.cli.main, the function behind the
`tailwise` console script. With TRACE 0 only one-shot markers are installed
(first training step, first manifest read, end of training), which put back
the original function on their first call. With TRACE 1 each module's
public functions are wrapped at the name their caller looks up and every
call leaves a span. RESULT.json receives the marks (time.monotonic, the
clock the parent process reads too), the spans and the notes. The exit code
is the CLI's. With --env it prints the numpy and BLAS set-up it sees.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
import zlib

# Every FORWARD_EVERY-th training step also runs forward_loss on its batch,
# as a side call timed outside the step, so backward = step - forward.
FORWARD_EVERY = 5

# Span name -> the (module, attribute) sites it is recorded at. A site the
# code no longer has is skipped, and its metrics read 0.
SITES = {
    "data.gen_corpus": [("tailwise.train", "gen_corpus")],
    "model.build_model": [("tailwise.train", "build_model")],
    "optim.adamw_step": [("tailwise.train", "adamw_step")],
    "train.sweep_summaries": [("tailwise.train", "sweep_summaries")],
    "train.run_training": [("tailwise.cli", "run_training")],
    "tailfit.fit_alpha": [("tailwise.tailfit", "fit_alpha")],
    "tailfit.summarize": [("tailwise.train", "summarize"), ("tailwise.cli", "summarize"),
                          ("tailwise.reports", "summarize")],
    "allocate.build_plan": [("tailwise.schedule", "build_plan"), ("tailwise.cli", "build_plan"),
                            ("tailwise.reports", "build_plan")],
    "schedule.on_step": [("tailwise.train", "on_step"), ("tailwise.cli", "on_step")],
    "schedule.layer_lr_at": [("tailwise.train", "layer_lr_at"),
                             ("tailwise.schedule", "layer_lr_at")],
    "schedule.export_timeline": [("tailwise.cli", "export_timeline")],
    "manifest.load_manifest": [("tailwise.cli", "load_manifest")],
    "reports.analysis_report": [("tailwise.cli", "analysis_report")],
    "reports.render_document": [("tailwise.cli", "render_document")],
    "reports.timeline_csv": [("tailwise.cli", "timeline_csv")],
    "cli.train": [("tailwise.cli", "cmd_train")],
    "cli.analyze": [("tailwise.cli", "cmd_analyze")],
    "cli.plan": [("tailwise.cli", "cmd_plan")],
    "cli.schedule": [("tailwise.cli", "cmd_schedule")],
}


def _sites(pairs):
    for module_name, attr in pairs:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            yield module, attr


def install_marks(marks: dict) -> None:
    def first_call(module, attr, key):
        original = getattr(module, attr)

        def marker(*args, **kwargs):
            marks.setdefault(key, time.monotonic())
            setattr(module, attr, original)
            return original(*args, **kwargs)

        setattr(module, attr, marker)

    first_step = [("tailwise.train", "on_step"), ("tailwise.train", "loss_and_grads"),
                  ("tailwise.model", "loss_and_grads")]
    for module, attr in _sites(first_step):
        first_call(module, attr, "first_step")
    for module, attr in _sites([("tailwise.cli", "load_manifest")]):
        first_call(module, attr, "first_read")
    for module, attr in _sites([("tailwise.cli", "run_training")]):
        run_training = getattr(module, attr)

        def timed_run(*args, **kwargs):
            try:
                return run_training(*args, **kwargs)
            finally:
                marks["train_end"] = time.monotonic()

        setattr(module, attr, timed_run)


def install_spans(rec) -> None:
    import numpy as np

    for name, pairs in SITES.items():
        for module, attr in _sites(pairs):
            setattr(module, attr, rec.wrap(getattr(module, attr), name))

    for module, attr in _sites([("tailwise.train", "loss_and_grads")]):
        import tailwise.model

        step = rec.wrap(getattr(module, attr), "model.loss_and_grads")
        forward = rec.wrap(tailwise.model.forward_loss, "model.forward_loss")
        calls = itertools.count()

        def loss_and_grads(model, tokens, *args, **kwargs):
            if next(calls) % FORWARD_EVERY == 0:
                forward(model, tokens)
            return step(model, tokens, *args, **kwargs)

        setattr(module, attr, loss_and_grads)

    for module, attr in _sites([("tailwise.train", "batch_sampler")]):
        sampler = getattr(module, attr)

        def timed_sampler(*args, **kwargs):
            batches = sampler(*args, **kwargs)

            def timed():
                while True:
                    with rec.span("data.batch"):
                        batch = next(batches)
                    yield batch

            return timed()

        setattr(module, attr, timed_sampler)

    for module, attr in _sites([("tailwise.tailfit", "esd")]):
        esd = rec.wrap(getattr(module, attr), "spectral.esd")

        def digested_esd(w):
            # The digest identifies a matrix by content across processes; its
            # cost sits in a trace.* span, outside every tailwise span's self time.
            with rec.span("trace.digest"):
                values = np.ascontiguousarray(w.values)
                rec.notes.append(["esd", f"{values.shape}:{zlib.crc32(values):08x}",
                                  min(values.shape)])
            return esd(w)

        setattr(module, attr, digested_esd)


def environment() -> dict:
    """Python, numpy and OpenBLAS versions and the BLAS thread count."""
    import ctypes
    import glob
    import os

    import numpy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "blas_threads": None, "openblas": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        threads = lib.scipy_openblas_get_num_threads64_
        threads.restype = ctypes.c_int
        config = lib.scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        env.update(blas_threads=threads(), openblas=config().decode())
    except (IndexError, OSError, AttributeError):
        pass
    return env


def main() -> int:
    if sys.argv[1:] == ["--env"]:
        print(json.dumps(environment()))
        return 0
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import tailwise.cli

    marks: dict = {}
    rec = None
    if traced:
        from spans import Recorder

        rec = Recorder()
        install_spans(rec)
    else:
        install_marks(marks)
    try:
        return tailwise.cli.main(argv)
    finally:
        marks["end"] = time.monotonic()
        doc = {"marks": marks}
        if rec is not None:
            names = sorted({s[0] for s in rec.spans})
            index = {n: i for i, n in enumerate(names)}
            doc.update(names=names, notes=rec.notes,
                       spans=[[index[n], a, b, p] for n, a, b, p in rec.spans])
        with open(result_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
