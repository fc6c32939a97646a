"""Stage-level benchmark of the ccrnn pipeline.

Runs the five CLI stages (ingest, build-graph, train, evaluate, predict) on a
seeded synthetic trips CSV, each as its own `python -m ccrnn.cli` child, one
at a time, each once per round, in a fresh output directory per round. Every
child is timed from outside and its peak RSS read with `os.wait4`; every
artifact is checked (see checks.py). Rounds repeat while another one fits in
`--seconds`; each metric is the median over the rounds.

With `--trace 1` the run makes one untraced round and one traced round, in
which each stage runs in process under layer wrappers (see traced.py), and
reports the per-layer metrics and the tracing overhead instead.

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
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
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGES = ("ingest", "build-graph", "train", "evaluate", "predict")
# a child still running this long after --seconds is killed; one round and a
# traced round fit well within it, and the run still ends inside 180 s at 40 s
DEADLINE_MARGIN_S = 120.0

END_TO_END_UNITS = {
    "ingest_trips_per_s": "trips/s",
    "build_graph_s": "s",
    "train_samples_per_s": "windows/s",
    "evaluate_windows_per_s": "windows/s",
    "predict_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env(work: Path) -> dict[str, str]:
    # One BLAS thread (<= nproc): at these shapes a second thread bought no
    # speed and widened the run-to-run spread of the short stages.
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",  # every stage pays the same imports, none writes to src
        TMPDIR=str(work),
    )
    return env


class Runner:
    """Starts children one at a time, times them and reaps them with wait4."""

    def __init__(self, work: Path, deadline: float):
        self.env = child_env(work)
        self.deadline = deadline  # perf_counter time at which children are killed
        self.logs = work / "logs"
        self.logs.mkdir()
        self.launched = 0

    def run(self, argv: list[str]) -> tuple[int, float, float, Path]:
        """(exit code, wall seconds, peak RSS in MB, log path) of one child."""
        self.launched += 1
        log = self.logs / f"{self.launched:03d}.log"
        remaining = self.deadline - time.perf_counter()
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(remaining, 0.0), proc.send_signal, (signal.SIGKILL,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log


def run_round(runner, stage_checks, workload, trips, cfg, out, reports=None):
    """One pass over the stages in `out`, each run once.

    Every invocation is one operation: it fails when it exits non-zero or
    leaves an artifact its check cannot read. With `reports`, each stage runs
    under traced.py and writes its spans there. Returns the invocations and
    the problems the checks found."""
    calls, problems = [], []
    for stage in STAGES:
        if reports is not None:
            argv = [sys.executable, str(HERE / "traced.py"), stage, "--config", str(cfg),
                    "--out", str(out), "--report", str(reports / f"{stage}.json")]
        else:
            argv = [sys.executable, "-m", "ccrnn.cli", stage, "--config", str(cfg),
                    "--out", str(out)]
        rc, wall, rss, log = runner.run(argv)
        call = {"stage": stage, "rc": rc, "wall": wall, "rss": rss, "failed": rc != 0}
        calls.append(call)
        if rc != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-600:]
            print(f"{stage}: exit {rc}\n{tail}", file=sys.stderr)
            continue
        try:
            found = stage_checks[stage](trips, workload, out)
        except (OSError, ValueError, KeyError) as e:  # artifact missing or unreadable
            call["failed"] = True
            found = getattr(e, "problems", [])
            print(f"{stage}: failed, artifact unusable: {e}")
        problems += [f"{stage}: {p}" for p in found]
    return calls, problems


def stage_walls(calls, stage) -> list[float]:
    return [c["wall"] for c in calls if c["stage"] == stage and c["rc"] == 0]


def end_to_end(workload, trips, calls, setup_s) -> dict[str, float]:
    """Medians over the rounds of each stage's invocations that exited 0."""
    wall = {s: statistics.median(stage_walls(calls, s)) for s in STAGES}
    rss = {s: statistics.median(c["rss"] for c in calls if c["stage"] == s) for s in STAGES}
    return {
        "ingest_trips_per_s": trips.count / wall["ingest"],
        "build_graph_s": wall["build-graph"],
        "train_samples_per_s": workload.train_windows * workload.epochs / wall["train"],
        "evaluate_windows_per_s": workload.test_windows / wall["evaluate"],
        "predict_s": wall["predict"],
        "pipeline_s": sum(wall.values()),
        "peak_rss_mb": max(rss.values()),
        "setup_s": setup_s,
    }


def per_layer(reports: Path, untraced_s: float, traced_s: float):
    """Span totals of the traced pass over the stages."""
    spans, counts, absent = {}, {}, []
    for stage in STAGES:
        rep = json.loads((reports / f"{stage}.json").read_text(encoding="utf-8"))
        for name, values in rep["spans"].items():
            acc = spans.setdefault(name, [0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, value in rep["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        absent += rep["absent"]
    total = lambda n: spans.get(n, (0.0, 0.0, 0))[0]  # noqa: E731
    self_time = lambda n: spans.get(n, (0.0, 0.0, 0))[1]  # noqa: E731
    calls = lambda n: spans.get(n, (0.0, 0.0, 0))[2]  # noqa: E731
    count = lambda n: counts.get(n, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    steps = calls("training.adam")
    mb = 1024.0 * 1024.0
    metrics = {
        "ingest.parse_s": (total("ingest.parse"), "s"),
        "ingest.rows_per_s": (ratio(count("ingest.rows"), total("ingest.parse")), "rows/s"),
        "ingest.stations_s": (self_time("ingest.stations"), "s"),
        "ingest.bin_s": (self_time("ingest.bin"), "s"),
        "ingest.events_per_s": (ratio(count("ingest.events"), total("ingest.bin")), "events/s"),
        "dpc.cluster_s": (total("dpc.cluster"), "s"),
        "dpc.points": (count("dpc.points"), "count"),
        "dpc.peak_alloc_mb": (count("dpc.peak_alloc_bytes") / mb, "MB"),
        "geo.haversine_calls": (calls("geo.haversine"), "count"),
        "geo.haversine_s": (total("geo.haversine"), "s"),
        "graphgen.representations_s": (total("graphgen.representations"), "s"),
        "graphgen.kernel_s": (total("graphgen.kernel"), "s"),
        "graphgen.factorize_s": (total("graphgen.factorize"), "s"),
        "persist.read_s": (total("persist.read"), "s"),
        "persist.write_s": (total("persist.write"), "s"),
        "persist.bytes_written": (count("persist.bytes_written"), "bytes"),
        "cgc.propagate_s": (total("cgc.propagate"), "s"),
        "cgc.propagate_calls": (calls("cgc.propagate"), "count"),
        "cgc.aggregate_s": (total("cgc.aggregate"), "s"),
        "cgc.couple_s": (total("cgc.couple"), "s"),
        "ccgru.encode_s": (total("ccgru.encode"), "s"),
        "ccgru.decode_s": (total("ccgru.decode"), "s"),
        "ccgru.step_calls": (calls("ccgru.step"), "count"),
        "tensor.backward_s": (total("tensor.backward"), "s"),
        "tensor.ops_per_step": (ratio(count("tensor.step_ops"), steps), "ops"),
        "tensor.output_mb_per_step": (ratio(count("tensor.step_output_bytes"), steps) / mb, "MB"),
        "tensor.matmul_s": (count("tensor.matmul_s"), "s"),
        "training.forward_s": (total("training.forward"), "s"),
        "training.adam_s": (total("training.adam"), "s"),
        "training.steps": (steps, "count"),
        "training.peak_alloc_mb": (count("training.peak_alloc_bytes") / mb, "MB"),
        "training.validation_s": (total("training.validation"), "s"),
        "training.forecast_s": (total("training.forecast"), "s"),
        "training.metrics_s": (total("training.metrics"), "s"),
    }
    for stage in STAGES:
        key = stage.replace("-", "_")
        metrics[f"cli.{key}.self_s"] = (self_time(f"cli.{key}"), "s")
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics, list(dict.fromkeys(absent))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ccrnn" / "cli.py").is_file():
        print(f"error: no ccrnn sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import STAGE_CHECKS
    from workloads import WORKLOADS, set_up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        # one cold set-up: the first generation of the CSV and the config in
        # this process, the imports before it excluded
        begin = time.perf_counter()
        trips, cfg = set_up(workload, args.seed, work)
        setup_s = time.perf_counter() - begin
        measure_start = time.perf_counter()
        runner = Runner(work, deadline=measure_start + args.seconds + DEADLINE_MARGIN_S)
        calls, problems, traced_calls = [], [], []

        def one_round(reports=None):
            out = work / f"round{runner.launched}"
            found_calls, found = run_round(runner, STAGE_CHECKS, workload, trips, cfg, out,
                                           reports)
            problems.extend(found)
            return out, found_calls

        def gradient_check(out):
            rc, _, _, log = runner.run([sys.executable, str(HERE / "gradcheck.py"),
                                        "--out", str(out), "--seed", str(args.seed)])
            text = log.read_text(encoding="utf-8", errors="replace").strip()
            print(text.splitlines()[-1] if text else f"gradcheck: exit {rc}")
            if rc != 0:
                problems.append(f"gradcheck: {text[-300:]}")

        # whole rounds only, and another only while it still fits in --seconds;
        # the gradient check follows the first round, so its time is counted
        longest = 0.0
        while True:
            begin = time.perf_counter()
            out, round_calls = one_round()
            calls += round_calls
            longest = max(longest, time.perf_counter() - begin)
            if workload.gradcheck and len(calls) == len(STAGES):
                if all(c["rc"] == 0 for c in calls if c["stage"] == "train"):
                    gradient_check(out)
            if args.trace or time.perf_counter() - measure_start + longest > args.seconds:
                break
        if args.trace:
            reports = work / "reports"
            reports.mkdir()
            _, traced_calls = one_round(reports)

        everything = calls + traced_calls
        attempted = len(everything)
        failed = sum(c["failed"] for c in everything)
        rounds = attempted // len(STAGES)

        complete = all(stage_walls(calls + traced_calls, s) for s in STAGES)
        if args.trace and complete:
            untraced = sum(statistics.median(stage_walls(calls, s)) for s in STAGES)
            traced = sum(stage_walls(traced_calls, s)[0] for s in STAGES)
            metrics, absent = per_layer(reports, untraced, traced)
            for name in absent:
                print(f"absent: {name} (reported as 0)")
        elif complete:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(workload, trips, calls, setup_s).items()}
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED {p}")
    print(f"workload {workload.name} seed {args.seed}: {rounds} round(s), "
          f"{attempted} stage runs, {failed} failed")
    for stage in STAGES:
        walls = stage_walls(calls, stage)
        print(f"{stage:12s} {len(walls):3d} runs, wall s " + " ".join(f"{w:.3f}" for w in walls))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
