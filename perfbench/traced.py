"""Run one CLI stage in process with timing wrappers around each layer.

Each wrapper replaces a public name in the namespace of its caller (for
example `ccrnn.cli.parse_trip_records`) and records a span: wall time, self
time (the span minus the spans opened inside it) and calls. Tensor ops are
counted, not spanned, to keep the per-op cost small. A name that no longer
exists is listed as absent and the stage runs unwrapped there.

    PYTHONPATH=src python3 perfbench/traced.py train --config CFG --out DIR --report R.json

Writes the spans, counters and absent names as JSON to `--report` and exits
with the stage's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# op functions each model module imports from ccrnn.tensor
OPS = ("add", "sub", "mul", "matmul", "concat", "reshape", "softmax", "transpose_last",
       "sigmoid", "tanh", "sqrt", "tmean")
READERS = ("read_demand_blob", "read_sidecar", "load_checkpoint")
WRITERS = ("write_demand_blob", "write_sidecar", "save_checkpoint")


class Tracer:
    def __init__(self, stage: str):
        self.stage = stage
        self.open: list[list] = []  # [name, start, time of child spans]
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])  # total, self, calls
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._step_alloc = "pending"
        self._tensor = importlib.import_module("ccrnn.tensor")

    def grad_enabled(self) -> bool:
        return getattr(self._tensor, "_GRAD_ENABLED", True)

    def run(self, name, fn, args, kwargs):
        self.open.append([name, perf_counter(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            _, start, child = self.open.pop()
            dur = perf_counter() - start
            span = self.spans[name]
            span[0] += dur
            span[1] += dur - child
            span[2] += 1
            if self.open:
                self.open[-1][2] += dur

    def spanned(self, name, after=None):
        """Wrapper factory: a span per call, then `after(args, result)`."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name() if callable(name) else name
                result = self.run(label, fn, args, kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def patch(self, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(original))

    # -- wrappers with extra bookkeeping ------------------------------------

    def op(self, fn, timed: bool):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed:
                start = perf_counter()
                out = fn(*args, **kwargs)
                counts["tensor.matmul_s"] += perf_counter() - start
            else:
                out = fn(*args, **kwargs)
            if self.grad_enabled():
                counts["tensor.step_ops"] += 1
                counts["tensor.step_output_bytes"] += out.data.nbytes
            return out

        return wrapper

    def forward(self, fn):
        """Seq2Seq.forward: spanned only under grad, i.e. in a training step.
        The first step also runs under tracemalloc, stopped after its Adam update."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.grad_enabled():
                return fn(*args, **kwargs)
            if self._step_alloc == "pending":
                tracemalloc.start()
                self._step_alloc = "tracing"
            return self.run("training.forward", fn, args, kwargs)

        return wrapper

    def adam(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run("training.adam", fn, args, kwargs)
            if self._step_alloc == "tracing":
                self.counts["training.peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._step_alloc = "done"
            return result

        return wrapper

    def dpc(self, fn):
        @functools.wraps(fn)
        def wrapper(points, *args, **kwargs):
            tracemalloc.start()
            try:
                return self.run("dpc.cluster", fn, (points, *args), kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["dpc.peak_alloc_bytes"] = max(self.counts["dpc.peak_alloc_bytes"], peak)
                self.counts["dpc.points"] += len(points)

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def install(self) -> None:
        add, p = self.add, self.patch
        p("ccrnn.cli", "parse_trip_records", self.spanned(
            "ingest.parse", after=lambda a, r: add("ingest.rows", r[1].rows_read)))
        for name in ("stations_from_records", "select_top_stations", "virtual_stations"):
            p("ccrnn.cli", name, self.spanned("ingest.stations"))
        p("ccrnn.cli", "build_demand_tensor", self.spanned(
            "ingest.bin", after=lambda a, r: add("ingest.events", 2 * len(a[0]))))
        p("ccrnn.ingest", "dpc_cluster", self.dpc)
        p("ccrnn.ingest", "haversine_km", self.spanned("geo.haversine"))

        p("ccrnn.cli", "station_representations", self.spanned("graphgen.representations"))
        for name in ("default_epsilon", "gaussian_adjacency", "normalize_random_walk"):
            p("ccrnn.cli", name, self.spanned("graphgen.kernel"))
        p("ccrnn.cli", "factorize_adjacency", self.spanned("graphgen.factorize"))

        for name in READERS:
            p("ccrnn.cli", name, self.spanned("persist.read"))
        for name in WRITERS:
            p("ccrnn.cli", name, self.spanned(
                "persist.write", after=lambda a, r: add("persist.bytes_written", os.path.getsize(a[0]))))

        p("ccrnn.cgc", "propagate_layer", self.spanned("cgc.propagate"))
        p("ccrnn.cgc", "couple_embeddings", self.spanned("cgc.couple"))
        p("ccrnn.ccgru", "aggregate_levels", self.spanned("cgc.aggregate"))
        p("ccrnn.ccgru", "encode", self.spanned("ccgru.encode"))
        p("ccrnn.ccgru", "decode", self.spanned("ccgru.decode"))
        p("ccrnn.ccgru", "ccgru_step", self.spanned("ccgru.step"))
        for module in ("ccrnn.cgc", "ccrnn.ccgru", "ccrnn.training"):
            mod = importlib.import_module(module)
            for name in OPS:
                if hasattr(mod, name):
                    p(module, name, functools.partial(self.op, timed=name == "matmul"))

        p("ccrnn.training", "backward", self.spanned("tensor.backward"))
        p("ccrnn.ccgru", "Seq2Seq.forward", self.forward)
        p("ccrnn.training", "adam_step", self.adam)
        forecast = lambda: "training.validation" if self.stage == "train" else "training.forecast"  # noqa: E731
        p("ccrnn.training", "predict_in_batches", self.spanned(forecast))
        p("ccrnn.cli", "predict_in_batches", self.spanned(forecast))
        p("ccrnn.training", "report_from_predictions", self.spanned("training.metrics"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("stage")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()

    tracer = Tracer(args.stage)
    tracer.install()
    cli = importlib.import_module("ccrnn.cli")
    argv = [args.stage, "--config", args.config, "--out", args.out]
    stage_span = "cli." + args.stage.replace("-", "_")
    rc = tracer.run(stage_span, cli.main, (argv,), {})
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": tracer.counts,
                   "absent": tracer.absent}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
