"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
The toy benchmark criteria (5 and 6) train real models and take a few
minutes; everything else finishes in seconds.
"""

import json
import shutil
import time
from datetime import datetime, timedelta

import numpy as np

from ccrnn.ccgru import build_cell, build_seq2seq
from ccrnn.cgc import Gate, attention_weights, count_parameters, propagate_layer
from ccrnn.cli import main
from ccrnn.dpc import dpc_cluster
from ccrnn.graphgen import (
    factorize_adjacency,
    gaussian_adjacency,
    normalize_random_walk,
    random_init,
)
from ccrnn.ingest import fit_scaler, split_by_bins
from ccrnn.synthetic import ring_demand
from ccrnn.tensor import Tensor, finite_difference_check, sigmoid, tanh
from ccrnn.training import (
    TrainConfig,
    TrainingData,
    build_variant,
    evaluate,
    evaluate_ha,
    loss,
    make_windows,
    train,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences on the toy model
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    n, rank, m_layers, k_hops, beta, d, p, q = 5, 3, 2, 2, 4, 2, 3, 3

    base = random_init(n, rank, rng)
    model = build_seq2seq(d, beta, m_layers, k_hops, base, rng)
    # nudge the zero-initialized aggregation so its gradients are informative
    for name, param in model.named_parameters().items():
        if ".agg." in name or ".bias." in name:
            param.data += rng.uniform(-0.05, 0.05, size=param.data.shape)

    window = rng.standard_normal((2, p, n, d))
    targets = rng.standard_normal((2, q, n, d))

    def forward():
        return loss(model.forward(window, horizon=q), targets)

    params = {k: v for k, v in model.named_parameters().items() if v.requires_grad}
    check = finite_difference_check(forward, params, step=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    report(
        1,
        "gradient correctness",
        check.passed and elapsed < 60.0,
        f"{len(params)} tensors, max rel err {check.max_rel_error:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: factored diffusion equals the dense-adjacency oracle
# ---------------------------------------------------------------------------


def dense_diffusion(z, e1, e2, thetas):
    adjacency = e1 @ e2.T
    out = np.zeros((z.shape[0], thetas[0].shape[1]))
    s = z
    for i, theta in enumerate(thetas):
        if i > 0:
            s = adjacency @ s
        out = out + s @ theta
    return out


def test_criterion_2_low_rank_propagation_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        rank = int(rng.integers(1, min(n, 4) + 1))
        k_hops = int(rng.integers(0, 4))
        f_in = int(rng.integers(1, 6))
        f_out = int(rng.integers(1, 6))
        z = rng.standard_normal((n, f_in))
        e1 = rng.standard_normal((n, rank))
        e2 = rng.standard_normal((n, rank))
        thetas = [rng.standard_normal((f_in, f_out)) for _ in range(k_hops + 1)]

        gate_thetas = [Tensor(theta, requires_grad=True) for theta in thetas]
        got = propagate_layer(Tensor(z[None]), Tensor(e1), Tensor(e2), [gate_thetas]).data[0]
        want = dense_diffusion(z, e1, e2, thetas)
        scale = max(np.abs(want).max(), 1.0)
        worst = max(worst, np.abs(got - want).max() / scale)
    elapsed = time.perf_counter() - start
    report(
        2,
        "low-rank propagation equivalence",
        worst < 1e-9 and elapsed < 10.0,
        f"100 instances, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: truncated-SVD factorization is the best rank-3 approximation
# ---------------------------------------------------------------------------


def test_criterion_3_eckart_young_spot_check():
    rng = np.random.default_rng(43)
    worst_gap = 0.0
    for _ in range(20):
        mx = rng.uniform(0.0, 1.0, size=(10, 10))
        pair = factorize_adjacency(mx, 3, trainable=False)
        err = np.linalg.norm(mx - pair.e1.data @ pair.e2.data.T)

        sigma = np.linalg.svd(mx, compute_uv=False)
        tail = float(np.sqrt((sigma[3:] ** 2).sum()))
        worst_gap = max(worst_gap, abs(err - tail))

        for _ in range(50):
            g1 = rng.standard_normal((10, 3))
            g2 = rng.standard_normal((10, 3))
            assert err <= np.linalg.norm(mx - g1 @ g2.T), "random factorization won"
    report(
        3,
        "Eckart-Young spot check",
        worst_gap < 1e-8,
        f"20 matrices, 50 random rivals each, worst tail gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: structural invariants
# ---------------------------------------------------------------------------


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(44)
    failures = []

    # kernel adjacency: symmetric with a unit diagonal
    adjacency = gaussian_adjacency(rng.standard_normal((9, 4)))
    if not np.array_equal(adjacency, adjacency.T):
        failures.append("adjacency not symmetric")
    if not np.all(np.diag(adjacency) == 1.0):
        failures.append("adjacency diagonal not 1")

    # random-walk normalization: rows sum to one
    row_err = np.abs(normalize_random_walk(adjacency).sum(axis=1) - 1.0).max()
    if row_err >= 1e-12:
        failures.append(f"row sums off by {row_err:.2e}")

    # attention: a point on the simplex
    zs = [Tensor(rng.standard_normal((3, 6, 4))) for _ in range(3)]
    scorer = Gate([], Tensor(rng.standard_normal((6 * 4, 1))), Tensor(np.zeros(1)), Tensor(0.0))
    alpha = attention_weights(zs, scorer)
    if np.abs(alpha.sum(axis=-1) - 1.0).max() >= 1e-10 or alpha.min() < 0.0:
        failures.append("attention weights leave the simplex")

    # gate ranges: sigmoid in (0,1), tanh in (-1,1)
    pre = rng.standard_normal((5, 6, 4)) * 4.0
    sig, hyp = sigmoid(Tensor(pre)).data, tanh(Tensor(pre)).data
    if not (np.all(sig > 0.0) and np.all(sig < 1.0)):
        failures.append("sigmoid left (0,1)")
    if not (np.all(hyp > -1.0) and np.all(hyp < 1.0)):
        failures.append("tanh left (-1,1)")

    # identity couplings: every layer sees the base factors at initialization
    n, rank, m_layers, d_in, beta, k_hops = 7, 3, 3, 2, 4, 2
    base = random_init(n, rank, rng)
    cell = build_cell(d_in, beta, m_layers, k_hops, base, True, rng, "cell")
    for e1, e2 in cell.layer_factors():
        if not (np.array_equal(e1.data, base.e1.data) and np.array_equal(e2.data, base.e2.data)):
            failures.append("identity coupling moved the factors")
            break

    # parameter census, by checkpoint name
    def census(prefix):
        return count_parameters({k: t for k, t in cell.params.items() if k.startswith(prefix)})

    want_structure = 2 * n * rank + (m_layers - 1) * rank * (rank + 1)
    got_structure = census("cell.graph.")
    if got_structure != want_structure:
        failures.append(f"structure census {got_structure} != {want_structure}")

    # a gate reads [x, h]: d_in + beta wide at layer 1
    width = d_in + beta
    want_gate = (k_hops + 1) * (width * beta + (m_layers - 1) * beta * beta) + n * beta + 1
    for gate in ("reset", "update", "candidate"):
        got_gate = census(f"cell.{gate}.")
        if got_gate != want_gate:
            failures.append(f"{gate} filter/aggregation census {got_gate} != {want_gate}")

    report(4, "structural invariants", not failures, "; ".join(failures) or "6 checks")


# ---------------------------------------------------------------------------
# criteria 5 and 6: learning on the synthetic ring beats HA; ablation direction
# ---------------------------------------------------------------------------

_TOY: dict = {}


def _toy_setup():
    if "data" not in _TOY:
        data = ring_demand()
        split = split_by_bins(data.values.shape[0], data.bins_per_day * 7,
                              p=12, q=12, val_weeks=1, test_weeks=1)
        scaler = fit_scaler(data.values, split.train)
        std = scaler.apply(data.values)
        _TOY["data"], _TOY["split"], _TOY["scaler"] = data, split, scaler
        _TOY["training"] = TrainingData.from_series(std, split)
        _TOY["test"] = make_windows(std, split.test, split.p, split.q)
    return _TOY


def _trained(variant: str):
    toy = _toy_setup()
    key = f"trained:{variant}"
    if key not in _TOY:
        model = build_variant(
            variant,
            training_demand=toy["data"].values[toy["split"].train.start:toy["split"].train.stop],
            channels=2,
            xi=20,
            rank=8,
            m_layers=2,
            k_hops=2,
            beta=16,
            seed=0,
            lons=toy["data"].lons,
            lats=toy["data"].lats,
        )
        # Fixed shared budget, no early stopping: both variants in criterion 6
        # must see exactly the same number of updates for the comparison to
        # mean anything. Run to convergence both sit at the noise floor of
        # this small dataset; mid-training is where the graph quality shows.
        config = TrainConfig(learning_rate=2e-3, epochs=12, patience=12, seed=0)
        start = time.perf_counter()
        train(model, toy["training"], config)
        elapsed = time.perf_counter() - start
        test_x, test_y = toy["test"]
        metrics = evaluate(model, test_x, test_y, toy["scaler"])
        _TOY[key] = (metrics, elapsed)
    return _TOY[key]


def test_criterion_5_toy_end_to_end_learning():
    metrics, elapsed = _trained("full")
    toy = _toy_setup()
    test_x, test_y = toy["test"]
    ha = evaluate_ha(test_x, test_y, toy["scaler"])
    margin = 1.0 - metrics.rmse / ha.rmse
    report(
        5,
        "toy end-to-end learning",
        margin >= 0.20 and elapsed < 900.0,
        f"rmse {metrics.rmse:.4f} vs HA {ha.rmse:.4f} "
        f"({100 * margin:.1f}% below, needs >=20%), {elapsed:.0f}s",
    )


def test_criterion_6_ablation_direction():
    full, _ = _trained("full")
    random_variant, _ = _trained("random_init")
    report(
        6,
        "ablation direction",
        random_variant.pcc < full.pcc,
        f"random_init pcc {random_variant.pcc:.4f} < full pcc {full.pcc:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: the command-line pipeline is bit-for-bit deterministic
# ---------------------------------------------------------------------------


def _write_trips(path, days=28, bin_minutes=720):
    rng = np.random.default_rng(99)
    docks = {"7": (-74.00, 40.70), "30": (-73.99, 40.71),
             "100": (-73.98, 40.72), "205": (-73.97, 40.73)}
    names = list(docks)
    t0 = datetime(2016, 4, 1)
    width = timedelta(minutes=bin_minutes)
    rows = ["t_pick,t_drop,pstation,dstation,plon,plat,dlon,dlat"]
    for b in range(days * 24 * 60 // bin_minutes):
        for i, dock in enumerate(names):
            for _ in range(3 + int(round(2 * np.sin(2 * np.pi * b / 14 + i)))):
                start = t0 + b * width + timedelta(
                    minutes=float(rng.uniform(0, bin_minutes - 40)))
                end = start + timedelta(minutes=float(rng.uniform(5, 30)))
                drop = names[(i + 1) % 4]
                rows.append(f"{start.isoformat(sep=' ')},{end.isoformat(sep=' ')},"
                            f"{dock},{drop},{docks[dock][0]},{docks[dock][1]},"
                            f"{docks[drop][0]},{docks[drop][1]}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_criterion_7_pipeline_determinism(tmp_path):
    trips = tmp_path / "trips.csv"
    _write_trips(trips)
    out = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "trips_csv": str(trips),
        "pickup_time_col": "t_pick", "dropoff_time_col": "t_drop",
        "pickup_station_col": "pstation", "dropoff_station_col": "dstation",
        "pickup_lon_col": "plon", "pickup_lat_col": "plat",
        "dropoff_lon_col": "dlon", "dropoff_lat_col": "dlat",
        "bin_minutes": 720, "keep_stations": 4,
        "val_weeks": 1, "test_weeks": 1,
        "p": 4, "q": 4, "xi": 2, "rank": 2, "m_layers": 2, "k_hops": 2,
        "beta": 4, "epochs": 2, "batch_size": 16, "seed": 11,
        "out_dir": str(out),
    }))

    artifacts = ("history.csv", "graph.ckpt", "model.ckpt")
    snapshots = []
    for _ in range(2):
        if out.exists():
            shutil.rmtree(out)
        for command in ("ingest", "build-graph", "train", "evaluate"):
            assert main([command, "--config", str(config_path)]) == 0, command
        snapshots.append({name: (out / name).read_bytes() for name in artifacts})

    stale = [name for name in artifacts if snapshots[0][name] != snapshots[1][name]]
    report(7, "pipeline determinism", not stale,
           "; ".join(stale) or "history + both checkpoints byte-identical")


# ---------------------------------------------------------------------------
# criterion 8: density-peak clustering recovers the two-blob geography
# ---------------------------------------------------------------------------


def test_criterion_8_dpc_recovery():
    rng = np.random.default_rng(48)
    centers = np.array([[-74.00, 40.70], [-73.80, 40.90]])
    points = np.concatenate([
        centers[0] + 0.01 * rng.standard_normal((60, 2)),
        centers[1] + 0.01 * rng.standard_normal((60, 2)),
    ])
    result = dpc_cluster(points, 2)

    # brute-force oracle: nearest true blob center
    oracle = np.argmin(
        ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    purity = 0.0
    for cluster in range(2):
        members = oracle[result.labels == cluster]
        purity += max(np.sum(members == 0), np.sum(members == 1))
    purity /= len(points)
    report(8, "DPC recovery", purity == 1.0, f"purity {purity:.3f}")
