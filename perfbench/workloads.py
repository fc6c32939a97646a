"""Benchmark workloads and the seeded trip-CSV generator behind them.

Every workload is a fixed input size, model shape and holdout layout; only the
trip draws depend on the seed. The generator turns `synthetic.ring_demand`
rates into individual trips, writes them as a CSV in the layout the CLI
ingests, and keeps the arrays it wrote so the output checks can recount the
demand tensor without the program's help.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ccrnn.synthetic import ring_demand

# 2024-01-01T00:00:00 UTC, a Monday at midnight: aligned to every bin width
# that divides a day.
START_EPOCH_S = 1_704_067_200
WEEK_MINUTES = 7 * 24 * 60


@dataclass(frozen=True)
class ModelShape:
    rank: int
    m_layers: int
    k_hops: int
    beta: int
    xi: int
    p: int = 12
    q: int = 12


REFERENCE_SHAPE = ModelShape(rank=50, m_layers=3, k_hops=3, beta=25, xi=20)
TOY_SHAPE = ModelShape(rank=8, m_layers=2, k_hops=2, beta=16, xi=8)


@dataclass(frozen=True)
class Workload:
    name: str
    flavour: str  # "dock": station-id columns | "coords": coordinates only
    trips: int  # exact number of rows written
    stations: int  # docks kept (dock) or virtual stations (coords)
    bin_minutes: int
    train_bins: int
    val_weeks: int
    test_weeks: int
    shape: ModelShape
    batch_size: int
    epochs: int = 1
    extra_docks: int = 0  # quiet docks beyond `stations`, dropped by top-k
    cluster_max_points: int = 50_000
    gradcheck: bool = False

    @property
    def bins_per_week(self) -> int:
        return WEEK_MINUTES // self.bin_minutes

    @property
    def total_bins(self) -> int:
        return self.train_bins + (self.val_weeks + self.test_weeks) * self.bins_per_week

    def _windows(self, bins: int) -> int:
        return bins - self.shape.p - self.shape.q + 1

    @property
    def train_windows(self) -> int:
        return self._windows(self.train_bins)

    @property
    def test_windows(self) -> int:
        return self._windows(self.test_weeks * self.bins_per_week)

    def config(self, trips_csv: Path, seed: int) -> dict:
        """The run config handed to every CLI stage."""
        cfg = {
            "trips_csv": str(trips_csv),
            "bin_minutes": self.bin_minutes,
            "val_weeks": self.val_weeks,
            "test_weeks": self.test_weeks,
            "p": self.shape.p,
            "q": self.shape.q,
            "xi": self.shape.xi,
            "rank": self.shape.rank,
            "m_layers": self.shape.m_layers,
            "k_hops": self.shape.k_hops,
            "beta": self.shape.beta,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "patience": 1,
            "seed": seed,
            "variant": "full",
        }
        if self.flavour == "dock":
            cfg.update(
                station_mode="dock_based",
                keep_stations=self.stations,
                pickup_station_col="pickup_station",
                dropoff_station_col="dropoff_station",
                pickup_lon_col="pickup_lon",
                pickup_lat_col="pickup_lat",
                dropoff_lon_col="dropoff_lon",
                dropoff_lat_col="dropoff_lat",
            )
        else:
            cfg.update(
                station_mode="virtual",
                num_virtual_stations=self.stations,
                cluster_max_points=self.cluster_max_points,
                pickup_lon_col="pickup_lon",
                pickup_lat_col="pickup_lat",
                dropoff_lon_col="dropoff_lon",
                dropoff_lat_col="dropoff_lat",
            )
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # Reference model shape, 16 training windows at B=8, one holdout week
        # each of 5 windows: time goes to taped forward, backward and Adam.
        Workload(
            name="train_ref",
            flavour="dock",
            trips=20_000,
            stations=250,
            extra_docks=30,
            bin_minutes=360,
            train_bins=39,
            val_weeks=1,
            test_weeks=1,
            shape=REFERENCE_SHAPE,
            batch_size=8,
            gradcheck=True,
        ),
        # Same data shape and model, 160-minute bins: 40 windows in each
        # holdout week, so gradient-free forecasting at batch 256 dominates.
        Workload(
            name="forecast_ref",
            flavour="dock",
            trips=20_000,
            stations=250,
            extra_docks=30,
            bin_minutes=160,
            train_bins=31,
            val_weeks=1,
            test_weeks=1,
            shape=REFERENCE_SHAPE,
            batch_size=8,
        ),
        # Coordinate trips clustered into virtual stations with a toy model:
        # parsing, density-peak clustering and nearest-centroid binning.
        Workload(
            name="ingest_virtual",
            flavour="coords",
            trips=20_000,
            stations=48,
            bin_minutes=360,
            train_bins=56,
            val_weeks=1,
            test_weeks=1,
            shape=TOY_SHAPE,
            batch_size=32,
            cluster_max_points=2_000,
        ),
    )
}


# ---------------------------------------------------------------------------
# trip generator
# ---------------------------------------------------------------------------


@dataclass
class Trips:
    """The trips exactly as written to the CSV, as columns."""

    pickup_s: np.ndarray  # int64 epoch seconds
    dropoff_s: np.ndarray
    pickup_lon: np.ndarray
    pickup_lat: np.ndarray
    dropoff_lon: np.ndarray
    dropoff_lat: np.ndarray
    pickup_dock: np.ndarray | None = None  # generator dock index (dock flavour)
    dropoff_dock: np.ndarray | None = None
    dock_labels: list[str] | None = None
    dock_lon: np.ndarray | None = None
    dock_lat: np.ndarray | None = None
    start_s: int = START_EPOCH_S
    bin_seconds: int = 0
    total_bins: int = 0

    @property
    def count(self) -> int:
        return self.pickup_s.size


def _draw_trips(rates: np.ndarray, n_trips: int, bin_s: int, rng) -> tuple:
    """Pick-up (bin, zone) by a multinomial over pick-up rates, drop-off zone
    by the drop-off rates of the same bin, times uniform within the bin."""
    t_bins, zones, _ = rates.shape
    pick_w = rates[:, :, 0].ravel()
    counts = rng.multinomial(n_trips, pick_w / pick_w.sum())
    cell = np.repeat(np.arange(pick_w.size), counts)
    pick_bin, pick_zone = np.divmod(cell, zones)
    drop_cdf = np.cumsum(rates[:, :, 1], axis=1)
    drop_cdf /= drop_cdf[:, -1:]
    u = rng.random(n_trips)
    drop_zone = np.empty(n_trips, dtype=np.int64)
    for b in range(t_bins):
        sel = pick_bin == b
        drop_zone[sel] = np.minimum(np.searchsorted(drop_cdf[b], u[sel]), zones - 1)
    end_s = START_EPOCH_S + t_bins * bin_s
    pick_s = START_EPOCH_S + pick_bin * bin_s + rng.integers(0, bin_s, n_trips)
    drop_s = np.minimum(pick_s + rng.integers(120, 2400, n_trips), end_s - 1)
    return pick_s.astype(np.int64), drop_s.astype(np.int64), pick_zone, drop_zone


def generate_trips(workload: Workload, seed: int) -> Trips:
    rng = np.random.default_rng(seed)
    bin_s = workload.bin_minutes * 60
    t_bins = workload.total_bins
    bins_per_day = max(1440 // workload.bin_minutes, 2)
    if workload.flavour == "dock":
        docks = workload.stations + workload.extra_docks
        ring = ring_demand(n_stations=docks, t_bins=t_bins, bins_per_day=bins_per_day,
                           seed=int(rng.integers(2**31)))
        rates = ring.values + 0.05
        rates[:, workload.stations:] *= 0.1  # the extras are clearly quieter
        pick_s, drop_s, pz, dz = _draw_trips(rates, workload.trips, bin_s, rng)
        labels = [str(1000 + i) for i in rng.permutation(docks)]
        return Trips(
            pickup_s=pick_s, dropoff_s=drop_s,
            pickup_lon=ring.lons[pz], pickup_lat=ring.lats[pz],
            dropoff_lon=ring.lons[dz], dropoff_lat=ring.lats[dz],
            pickup_dock=pz, dropoff_dock=dz, dock_labels=labels,
            dock_lon=ring.lons, dock_lat=ring.lats,
            bin_seconds=bin_s, total_bins=t_bins,
        )
    zones = workload.stations
    ring = ring_demand(n_stations=zones, t_bins=t_bins, bins_per_day=bins_per_day,
                       seed=int(rng.integers(2**31)))
    rates = ring.values + 0.05
    # zone centres on a jittered grid, trip ends scattered around them
    side = int(np.ceil(np.sqrt(zones)))
    gx, gy = np.divmod(np.arange(zones), side)
    c_lon = -74.05 + 0.02 * gx + rng.uniform(-0.004, 0.004, zones)
    c_lat = 40.65 + 0.02 * gy + rng.uniform(-0.004, 0.004, zones)
    pick_s, drop_s, pz, dz = _draw_trips(rates, workload.trips, bin_s, rng)
    n = workload.trips
    return Trips(
        pickup_s=pick_s, dropoff_s=drop_s,
        pickup_lon=c_lon[pz] + rng.normal(0, 0.003, n),
        pickup_lat=c_lat[pz] + rng.normal(0, 0.003, n),
        dropoff_lon=c_lon[dz] + rng.normal(0, 0.003, n),
        dropoff_lat=c_lat[dz] + rng.normal(0, 0.003, n),
        bin_seconds=bin_s, total_bins=t_bins,
    )


def _iso(seconds: np.ndarray) -> np.ndarray:
    return np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")


def write_trips_csv(trips: Trips, path: Path) -> None:
    """Rows in pick-up time order; floats written with repr, so parsing them
    back gives the generator's exact doubles."""
    order = np.argsort(trips.pickup_s, kind="stable")
    pick_t, drop_t = _iso(trips.pickup_s[order]), _iso(trips.dropoff_s[order])
    cols = [trips.pickup_lon, trips.pickup_lat, trips.dropoff_lon, trips.dropoff_lat]
    text = [[repr(float(v)) for v in c[order]] for c in cols]
    if trips.dock_labels is not None:
        header = ("pickup_time,dropoff_time,pickup_station,dropoff_station,"
                  "pickup_lon,pickup_lat,dropoff_lon,dropoff_lat")
        labels = np.array(trips.dock_labels)
        pl, dl = labels[trips.pickup_dock[order]], labels[trips.dropoff_dock[order]]
        rows = map(",".join, zip(pick_t, drop_t, pl, dl, *text))
    else:
        header = "pickup_time,dropoff_time,pickup_lon,pickup_lat,dropoff_lon,dropoff_lat"
        rows = map(",".join, zip(pick_t, drop_t, *text))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")


def set_up(workload: Workload, seed: int, work: Path) -> tuple[Trips, Path]:
    """Generate the trips CSV and the config in `work`; return the config path."""
    trips = generate_trips(workload, seed)
    csv_path = work / "trips.csv"
    write_trips_csv(trips, csv_path)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(workload.config(csv_path, seed), indent=2) + "\n",
                        encoding="utf-8")
    return trips, cfg_path
