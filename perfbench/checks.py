"""Output checks, each made apart from the program.

The artifacts are read with this file's own readers (not `ccrnn.persist`),
the demand tensor is recounted from the generator's arrays with plain numpy,
and the other artifacts are held to properties the method must have. Every
check returns a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from workloads import Trips, Workload

EARTH_RADIUS_KM = 6371.0088
TIE_KM = 1e-9  # two centroids this close to an event are a rounding-level tie


class Unusable(ValueError):
    """The artifact cannot be read as its format says, so the stage that wrote
    it failed. `problems` holds what the checks found before that point."""

    def __init__(self, reason: str, problems=()):
        super().__init__(reason)
        self.problems = list(problems)


# ---------------------------------------------------------------------------
# independent readers for the on-disk formats
# ---------------------------------------------------------------------------


def read_blob(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != b"DMD1":
        raise ValueError(f"{path.name}: bad magic {raw[:4]!r}")
    shape = tuple(int(v) for v in np.frombuffer(raw, dtype="<u8", count=3, offset=4))
    return np.frombuffer(raw, dtype="<f8", offset=28).reshape(shape)


def read_meta(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(": ", 1) for line in lines if line)


def read_checkpoint(path: Path) -> tuple[dict[str, dict[str, str]], dict[str, np.ndarray]]:
    """Text sections as {section: {key: value}} and the `param/` tensors."""
    raw = path.read_bytes()
    marker = raw.index(b"\n[payload ")
    end = raw.index(b"\n", marker + 1)
    payload = raw[end + 1 :]
    sections: dict[str, dict[str, str]] = {}
    tensors: dict[str, np.ndarray] = {}
    section = ""
    for line in raw[:marker].decode("utf-8").split("\n")[1:]:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            sections[section] = {}
        elif section == "tensors":
            name, shape, offset, nbytes = line.split(" ")
            dims = () if shape == "-" else tuple(int(s) for s in shape.split(","))
            arr = np.frombuffer(payload, dtype="<f8", count=int(nbytes) // 8, offset=int(offset))
            if name.startswith("param/"):
                tensors[name[len("param/"):]] = arr.reshape(dims)
        elif "=" in line and section in ("meta", "config", "scaler"):
            key, value = line.split("=", 1)
            sections[section][key] = value
    return sections, tensors


def read_csv(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def read_stations(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = read_csv(path)
    coords = np.array([[float(r["lon"]), float(r["lat"])] for r in rows])
    counts = np.array([int(r["member_count"]) for r in rows])
    return coords, counts


def iso(epoch_s: int) -> str:
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).replace(tzinfo=None).isoformat()


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def haversine_km(lon1, lat1, lon2, lat2) -> np.ndarray:
    lon1, lat1, lon2, lat2 = map(np.radians, (lon1, lat1, lon2, lat2))
    h = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))


def _nearest_two(lon, lat, centroids, chunk=16_384):
    """Nearest centroid per point and whether the runner-up ties with it."""
    best = np.empty(lon.size, dtype=np.int64)
    tie = np.empty(lon.size, dtype=bool)
    for i in range(0, lon.size, chunk):
        d = haversine_km(lon[i : i + chunk, None], lat[i : i + chunk, None],
                         centroids[None, :, 0], centroids[None, :, 1])
        two = np.argsort(d, axis=1, kind="stable")[:, :2]
        rows = np.arange(d.shape[0])
        best[i : i + chunk] = two[:, 0]
        tie[i : i + chunk] = d[rows, two[:, 1]] - d[rows, two[:, 0]] <= TIE_KM
    return best, tie


def _dock_to_station(trips: Trips, coords: np.ndarray) -> np.ndarray:
    """Generator dock -> station id by coordinates, -1 for docks not kept.

    stations.csv carries each dock's mean observed position; the generator
    wrote one position per dock, so they agree to rounding."""
    dist = np.hypot(trips.dock_lon[:, None] - coords[None, :, 0],
                    trips.dock_lat[:, None] - coords[None, :, 1])
    nearest = dist.argmin(axis=1)
    return np.where(dist[np.arange(dist.shape[0]), nearest] < 1e-9, nearest, -1)


def check_ingest(trips: Trips, workload: Workload, out: Path) -> list[str]:
    problems = []
    values = read_blob(out / "demand.dmd1")
    meta = read_meta(out / "demand.meta")
    coords, member_count = read_stations(out / "stations.csv")
    t_bins, n = trips.total_bins, workload.stations
    if values.shape != (t_bins, n, 2):
        return [f"demand tensor {values.shape}, expected {(t_bins, n, 2)}"]
    if meta.get("bin_start") != iso(trips.start_s):
        problems.append(f"bin_start {meta.get('bin_start')} != {iso(trips.start_s)}")
    if meta.get("bin_width_seconds") != str(trips.bin_seconds):
        problems.append(f"bin width {meta.get('bin_width_seconds')} != {trips.bin_seconds}")
    if int(meta["records_accepted"]) != trips.count:
        problems.append(f"records_accepted {meta['records_accepted']} != {trips.count}")

    recount = np.zeros(t_bins * n * 2, dtype=np.int64)
    ties = np.zeros((t_bins, 2), dtype=np.int64)
    skipped = 0
    for channel, secs, lon, lat, dock in (
        (0, trips.pickup_s, trips.pickup_lon, trips.pickup_lat, trips.pickup_dock),
        (1, trips.dropoff_s, trips.dropoff_lon, trips.dropoff_lat, trips.dropoff_dock),
    ):
        b = (secs - trips.start_s) // trips.bin_seconds
        if workload.flavour == "dock":
            station = _dock_to_station(trips, coords)[dock]
            keep = station >= 0
            skipped += int((~keep).sum())
        else:
            station, tie = _nearest_two(lon, lat, coords)
            keep = ~tie
            np.add.at(ties[:, channel], b[tie], 1)
        flat = (b[keep] * n + station[keep]) * 2 + channel
        recount += np.bincount(flat, minlength=recount.size)
    recount = recount.reshape(t_bins, n, 2)

    if workload.flavour == "dock":
        if not np.array_equal(values, recount):
            bad = np.argwhere(values != recount)
            problems.append(f"{len(bad)} demand cells differ from the recount, first at {bad[0].tolist()}")
        if not np.array_equal(member_count, recount.sum(axis=(0, 2))):
            problems.append("stations.csv member counts differ from the recount")
    else:
        residual = values - recount
        if residual.min() < 0 or not np.array_equal(residual.sum(axis=1), ties):
            bad = np.argwhere(residual != 0)
            problems.append(f"{len(bad)} demand cells differ from the recount, first at {bad[0].tolist()}")
    if int(meta["events_skipped"]) != skipped:
        problems.append(f"events_skipped {meta['events_skipped']} != recount {skipped}")
    if values.sum() + int(meta["events_skipped"]) != 2 * int(meta["records_accepted"]):
        problems.append("demand + events_skipped != 2 x records_accepted")
    return problems


# ---------------------------------------------------------------------------
# graph, training, evaluation, prediction
# ---------------------------------------------------------------------------


def check_graph(workload: Workload, out: Path) -> list[str]:
    _, tensors = read_checkpoint(out / "graph.ckpt")
    e1, e2 = tensors.get("e1"), tensors.get("e2")
    want = (workload.stations, workload.shape.rank)
    if e1 is None or e2 is None or e1.shape != want or e2.shape != want:
        return [f"graph factors missing or not {want}"]
    if not (np.isfinite(e1).all() and np.isfinite(e2).all()):
        return ["graph factors hold non-finite entries"]
    # E1 = U sqrt(S), E2 = V sqrt(S): both Gram matrices are diag(S).
    g1, g2 = e1.T @ e1, e2.T @ e2
    s = np.diag(g1)
    tol = 1e-8 * max(float(s.max()), 1e-300)
    problems = []
    for name, g in (("E1", g1), ("E2", g2)):
        off = g - np.diag(np.diag(g))
        if np.abs(off).max() > tol:
            problems.append(f"{name}^T {name} is not diagonal (off-diagonal {np.abs(off).max():.3g})")
    if np.abs(np.diag(g2) - s).max() > tol:
        problems.append("E1^T E1 and E2^T E2 disagree on the diagonal")
    if s.min() < -tol or (np.diff(s) > tol).any():
        problems.append("singular values are not descending and non-negative")
    return problems


def parameter_count(workload: Workload, channels: int = 2, coupled: bool = True) -> int:
    """Trainable scalars of the coupled CCRNN seq2seq, from its shape alone."""
    n, sh = workload.stations, workload.shape
    l, m, k, beta = sh.rank, sh.m_layers, sh.k_hops, sh.beta
    if coupled:
        graph = 2 * n * l + (m - 1) * (l * l + l)
    else:
        graph = m * 2 * n * l
    filters = (k + 1) * ((channels + beta) * beta + (m - 1) * beta * beta)
    gate = filters + n * beta + 1  # filters, attention scorer weight and bias
    cell = graph + 3 * gate + 3 * beta  # three gates and their biases
    return 2 * cell + beta * channels + channels


def check_train(workload: Workload, out: Path) -> list[str]:
    problems = []
    sections, tensors = read_checkpoint(out / "model.ckpt")
    bad = [name for name, arr in tensors.items() if not np.isfinite(arr).all()]
    if bad:
        problems.append(f"non-finite parameters: {bad[:3]}")
    count = sum(arr.size for arr in tensors.values())
    want = parameter_count(workload)
    if count != want:
        problems.append(f"{count} parameters in model.ckpt, expected {want}")
    steps = math.ceil(workload.train_windows / workload.batch_size) * workload.epochs
    if sections.get("meta", {}).get("iterations") != str(steps):
        problems.append(f"iterations {sections.get('meta', {}).get('iterations')} != {steps}")
    rows = read_csv(out / "history.csv")
    if len(rows) != workload.epochs:
        problems.append(f"history.csv has {len(rows)} epochs, expected {workload.epochs}")
    for r in rows:
        for key in ("train_loss", "val_rmse"):
            v = float(r[key])
            if not (math.isfinite(v) and v > 0):
                problems.append(f"history.csv epoch {r['epoch']} {key}={r[key]}")
    return problems


def check_evaluate(workload: Workload, out: Path) -> list[str]:
    rows = read_csv(out / "metrics.csv")
    q = workload.shape.q
    if len(rows) != q + 1 or rows[0]["horizon"] != "overall":
        return [f"metrics.csv has {len(rows)} rows, expected overall + {q}"]
    table = np.array([[float(r[k]) for k in ("rmse", "mae", "pcc")] for r in rows])
    if not np.isfinite(table).all():
        return ["metrics.csv holds non-finite values"]
    overall, per = table[0], table[1:]
    problems = []
    if [int(r["horizon"]) for r in rows[1:]] != list(range(1, q + 1)):
        problems.append("horizon rows are not 1..Q")
    hours = [float(r["hours"]) for r in rows[1:]]
    if not np.allclose(hours, np.arange(1, q + 1) * workload.bin_minutes / 60.0):
        problems.append(f"horizon hours {hours[:2]}... do not follow the bin width")
    # equal windows per horizon: overall MSE and MAE are the horizon means
    if not math.isclose(overall[0] ** 2, float(np.mean(per[:, 0] ** 2)), rel_tol=1e-8):
        problems.append("overall RMSE^2 != mean of per-horizon RMSE^2")
    if not math.isclose(overall[1], float(np.mean(per[:, 1])), rel_tol=1e-8):
        problems.append("overall MAE != mean of per-horizon MAE")
    if (table[:, 1] < 0).any() or (table[:, 1] > table[:, 0] * (1 + 1e-9)).any():
        problems.append("MAE outside [0, RMSE]")
    if (np.abs(table[:, 2]) > 1 + 1e-9).any():
        problems.append("|PCC| > 1")
    return problems


def check_predict(trips: Trips, workload: Workload, out: Path) -> list[str]:
    rows = read_csv(out / "forecast.csv")
    q, n = workload.shape.q, workload.stations
    if len(rows) != q * n:
        return [f"forecast.csv has {len(rows)} rows, expected Q*N = {q * n}"]
    stamps = [iso(trips.start_s + (trips.total_bins + step) * trips.bin_seconds)
              for step in range(q) for _ in range(n)]
    problems = []
    if [r["time_bin"] for r in rows] != stamps:
        problems.append("forecast rows are not stamped at the Q bins after the series")
    if [int(r["station_id"]) for r in rows] != list(range(n)) * q:
        problems.append("forecast rows do not cover stations 0..N-1 per step")
    try:
        vals = np.array([[float(r["pickup"]), float(r["dropoff"])] for r in rows])
    except ValueError as e:
        raise Unusable(f"forecast.csv values are not numbers: {e}", problems) from None
    if not np.isfinite(vals).all():
        problems.append("forecast holds non-finite values")
    return problems


STAGE_CHECKS = {
    "ingest": lambda trips, w, out: check_ingest(trips, w, out),
    "build-graph": lambda trips, w, out: check_graph(w, out),
    "train": lambda trips, w, out: check_train(w, out),
    "evaluate": lambda trips, w, out: check_evaluate(w, out),
    "predict": lambda trips, w, out: check_predict(trips, w, out),
}
