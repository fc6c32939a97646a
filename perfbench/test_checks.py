"""The benchmark's checks pass on the program's own artifacts and fail on
corrupted copies of them. A toy-sized pipeline runs once, in process.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gradcheck
from workloads import ModelShape, Workload, set_up

from ccrnn.cli import main as cli_main

TOY = ModelShape(rank=3, m_layers=2, k_hops=1, beta=4, xi=3)
DOCK = Workload(name="toy_dock", flavour="dock", trips=3000, stations=6, extra_docks=2,
                bin_minutes=360, train_bins=30, val_weeks=1, test_weeks=1, shape=TOY,
                batch_size=8)
COORDS = Workload(name="toy_coords", flavour="coords", trips=2000, stations=5,
                  bin_minutes=360, train_bins=30, val_weeks=1, test_weeks=1, shape=TOY,
                  batch_size=8, cluster_max_points=400)


def run_stages(workload, work: Path, stages):
    work.mkdir()
    trips, cfg = set_up(workload, seed=5, work=work)
    out = work / "out"
    for stage in stages:
        assert cli_main([stage, "--config", str(cfg), "--out", str(out)]) == 0, stage
    return trips, out


@pytest.fixture(scope="module")
def dock_run(tmp_path_factory):
    return run_stages(DOCK, tmp_path_factory.mktemp("dock") / "run",
                      ("ingest", "build-graph", "train", "evaluate", "predict"))


@pytest.fixture(scope="module")
def coords_run(tmp_path_factory):
    return run_stages(COORDS, tmp_path_factory.mktemp("coords") / "run", ("ingest",))


@pytest.fixture
def copy_of(tmp_path):
    def copy(out: Path) -> Path:
        return Path(shutil.copytree(out, tmp_path / "copy"))

    return copy


def predict_problems(trips, workload, out):
    # forecast.csv values written as `np.float64(...)` make the artifact
    # unusable; the structural problems found before that still count
    try:
        return checks.check_predict(trips, workload, out)
    except checks.Unusable as e:
        return e.problems


def write_blob(path: Path, values: np.ndarray) -> None:
    header = b"DMD1" + np.array(values.shape, dtype="<u8").tobytes()
    path.write_bytes(header + np.ascontiguousarray(values, dtype="<f8").tobytes())


def move_one_event(out: Path) -> None:
    values = checks.read_blob(out / "demand.dmd1").copy()
    b, s, c = np.argwhere(values > 0)[0]
    values[b, s, c] -= 1
    values[b, (s + 1) % values.shape[1], c] += 1
    write_blob(out / "demand.dmd1", values)


def test_clean_artifacts_pass(dock_run, coords_run):
    trips, out = dock_run
    assert checks.check_ingest(trips, DOCK, out) == []
    assert checks.check_graph(DOCK, out) == []
    assert checks.check_train(DOCK, out) == []
    assert checks.check_evaluate(DOCK, out) == []
    assert predict_problems(trips, DOCK, out) == []
    trips, out = coords_run
    assert checks.check_ingest(trips, COORDS, out) == []


def test_dock_recount_catches_a_moved_event(dock_run, copy_of):
    trips, out = dock_run
    bad = copy_of(out)
    move_one_event(bad)
    assert any("recount" in p for p in checks.check_ingest(trips, DOCK, bad))


def test_virtual_recount_catches_a_moved_event(coords_run, copy_of):
    trips, out = coords_run
    bad = copy_of(out)
    move_one_event(bad)
    assert any("recount" in p for p in checks.check_ingest(trips, COORDS, bad))


def test_graph_check_catches_a_perturbed_factor(dock_run, copy_of):
    _, out = dock_run
    bad = copy_of(out)
    raw = bytearray((bad / "graph.ckpt").read_bytes())
    payload = raw.index(b"\n", raw.index(b"\n[payload ") + 1) + 1
    first = np.frombuffer(bytes(raw[payload : payload + 8]), dtype="<f8")[0]
    raw[payload : payload + 8] = np.array([first + 0.5], dtype="<f8").tobytes()
    (bad / "graph.ckpt").write_bytes(bytes(raw))
    assert checks.check_graph(DOCK, bad)


def test_train_check_catches_a_nan_parameter(dock_run, copy_of):
    _, out = dock_run
    bad = copy_of(out)
    raw = bytearray((bad / "model.ckpt").read_bytes())
    payload = raw.index(b"\n", raw.index(b"\n[payload ") + 1) + 1
    raw[payload : payload + 8] = np.array([np.nan], dtype="<f8").tobytes()
    (bad / "model.ckpt").write_bytes(bytes(raw))
    assert any("non-finite" in p for p in checks.check_train(DOCK, bad))


def test_parameter_formula_matches_the_model():
    from ccrnn.ccgru import build_seq2seq
    from ccrnn.cgc import count_parameters
    from ccrnn.graphgen import random_init

    for coupled in (True, False):
        base = random_init(DOCK.stations, TOY.rank, np.random.default_rng(0))
        model = build_seq2seq(2, TOY.beta, TOY.m_layers, TOY.k_hops, base,
                              np.random.default_rng(0), coupled=coupled)
        want = checks.parameter_count(DOCK, coupled=coupled)
        assert count_parameters(model.named_parameters()) == want


def test_evaluate_check_catches_a_perturbed_horizon_row(dock_run, copy_of):
    _, out = dock_run
    bad = copy_of(out)
    lines = (bad / "metrics.csv").read_text().splitlines()
    cells = lines[3].split(",")  # horizon 2
    cells[2] = repr(float(cells[2]) * 1.1)
    lines[3] = ",".join(cells)
    (bad / "metrics.csv").write_text("\n".join(lines) + "\n")
    assert any("RMSE^2" in p for p in checks.check_evaluate(DOCK, bad))


def test_predict_check_catches_a_dropped_row(dock_run, copy_of):
    trips, out = dock_run
    bad = copy_of(out)
    lines = (bad / "forecast.csv").read_text().splitlines()
    del lines[5]
    (bad / "forecast.csv").write_text("\n".join(lines) + "\n")
    assert any("rows" in p for p in predict_problems(trips, DOCK, bad))


def test_gradcheck_passes_and_catches_a_wrong_gradient(dock_run, monkeypatch):
    _, out = dock_run
    error, _, _ = gradcheck.directional_error(out, seed=5)
    assert error < gradcheck.TOLERANCE

    real = gradcheck.backward

    def scaled(loss):
        return {p: type(g)(g.data * 1.01) for p, g in real(loss).items()}

    monkeypatch.setattr(gradcheck, "backward", scaled)
    error, _, _ = gradcheck.directional_error(out, seed=5)
    assert error > gradcheck.TOLERANCE


def test_refuses_to_run_without_the_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_run_prints(tmp_path):
    import json

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for stage in run.STAGES:  # reports of a pass in which no layer was reached
        (tmp_path / f"{stage}.json").write_text('{"spans": {}, "counts": {}, "absent": []}')
    printed, _ = run.per_layer(tmp_path, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in printed.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
