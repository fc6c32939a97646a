"""Trip-record ETL: CSV parsing, station discovery, demand binning, splits.

Ingest is columnar: the parser returns `Trips`, arrays with one row per trip
and one column per trip end, and stations are a `StationSet` of arrays.

Two station modes. Dock-based systems name their stations in the data, so the
docks become stations directly (optionally keeping only the busiest). Systems
without fixed stations get virtual ones: density peak clustering over a
subsample of pick-up coordinates, with demand assigned to the nearest
centroid by great-circle distance.

Dirty rows (bad timestamps, drop-off before pick-up, missing or non-finite
coordinates, coordinates outside the study rectangle) are dropped and
tallied, never fatal — schema problems are.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone

import numpy as np

from .dpc import dpc_cluster
from .geo import haversine_km

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
_BLOCK = 8192  # events per nearest-centroid block: bounds the distance matrix at 8192 x N


class SchemaError(ValueError):
    """The input does not match the configured column mapping."""


@dataclass(frozen=True)
class StudyRect:
    """Lon/lat bounding box; records outside it are dropped."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def contains(self, lon: float, lat: float) -> bool:
        return (
            self.min_lon <= lon <= self.max_lon
            and self.min_lat <= lat <= self.max_lat
        )


@dataclass(frozen=True)
class ColumnSchema:
    """Maps the semantic fields onto CSV column names.

    All four coordinate columns are required: docks are placed by them and
    virtual stations are clustered from them. Dock-based data also names both
    station-id columns.
    """

    pickup_time: str = "pickup_time"
    dropoff_time: str = "dropoff_time"
    pickup_lon: str | None = None
    pickup_lat: str | None = None
    dropoff_lon: str | None = None
    dropoff_lat: str | None = None
    pickup_station: str | None = None
    dropoff_station: str | None = None

    @property
    def mode(self) -> str:
        return "ids" if self.pickup_station and self.dropoff_station else "coords"

    def required_columns(self) -> list[str]:
        coords = [self.pickup_lon, self.pickup_lat, self.dropoff_lon, self.dropoff_lat]
        if not all(coords):
            raise SchemaError(
                "schema needs all four coordinate columns: docks are placed by them "
                "and virtual stations are clustered from them"
            )
        stations = [self.pickup_station, self.dropoff_station] if self.mode == "ids" else []
        return [self.pickup_time, self.dropoff_time, *stations, *coords]


@dataclass
class Trips:
    """Accepted trips as columns, in pick-up time order.

    Axis 1 is the trip end, 0 pick-up and 1 drop-off; it is also the demand
    channel.
    """

    times: np.ndarray  # (n, 2) int64 microseconds since 1970-01-01, naive UTC
    coords: np.ndarray  # (n, 2, 2) lon/lat
    labels: np.ndarray | None = None  # (n, 2) dock labels in ids mode

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass
class ParseTally:
    rows_read: int = 0
    accepted: int = 0
    bad_timestamp: int = 0
    time_reversed: int = 0
    out_of_area: int = 0
    malformed: int = 0

    @property
    def skipped(self) -> int:
        return self.rows_read - self.accepted

    def describe(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "rows: " + " ".join(parts)


def _to_naive(t: datetime) -> datetime:
    if t.tzinfo is not None:
        t = t.astimezone(timezone.utc).replace(tzinfo=None)
    return t


def parse_trip_records(
    source, schema: ColumnSchema, rect: StudyRect | None = None
) -> tuple[Trips, ParseTally]:
    """Read, validate, and time-sort trip records from a CSV path or text stream.

    Malformed rows are skipped and tallied; a schema without the four
    coordinate columns, or a header that lacks a mandatory column, is a
    SchemaError.
    """
    required = schema.required_columns()
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_trip_records(fh, schema, rect)

    reader = csv.DictReader(source)
    header = reader.fieldnames or []
    for col in required:
        if col not in header:
            raise SchemaError(f"missing column {col!r} in header {header}")

    ids = schema.mode == "ids"
    coord_cols = (schema.pickup_lon, schema.pickup_lat, schema.dropoff_lon, schema.dropoff_lat)
    tally = ParseTally()
    times: list[int] = []  # flat columns: two entries per trip, four coordinates
    coords: list[float] = []
    labels: list[str] = []
    for row in reader:
        tally.rows_read += 1
        try:
            t_pick = _to_naive(datetime.fromisoformat(row[schema.pickup_time].strip()))
            t_drop = _to_naive(datetime.fromisoformat(row[schema.dropoff_time].strip()))
        except (ValueError, AttributeError):
            tally.bad_timestamp += 1
            continue
        if t_drop < t_pick:
            tally.time_reversed += 1
            continue

        try:
            xy = [float(row[col]) for col in coord_cols]
            finite = all(map(math.isfinite, xy))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            tally.malformed += 1
            continue
        if rect is not None and not (rect.contains(*xy[:2]) and rect.contains(*xy[2:])):
            tally.out_of_area += 1
            continue

        if ids:
            pick_label = (row[schema.pickup_station] or "").strip()
            drop_label = (row[schema.dropoff_station] or "").strip()
            if not pick_label or not drop_label:
                tally.malformed += 1
                continue
            labels += (pick_label, drop_label)
        times += ((t_pick - _EPOCH) // _US, (t_drop - _EPOCH) // _US)
        coords += xy
        tally.accepted += 1

    us = np.array(times, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(us[:, 0], kind="stable")
    trips = Trips(
        times=us[order],
        coords=np.array(coords, dtype=np.float64).reshape(-1, 2, 2)[order],
        labels=np.array(labels, dtype=str).reshape(-1, 2)[order] if ids else None,
    )
    return trips, tally


# ---------------------------------------------------------------------------
# station sets
# ---------------------------------------------------------------------------


@dataclass
class StationSet:
    """Stations as columns; a station's id is its position."""

    lons: np.ndarray
    lats: np.ndarray
    member_count: np.ndarray
    kind: str  # dock_based | virtual
    labels: list[str] | None = None  # source labels for dock-based sets

    def __post_init__(self):
        if self.kind not in ("dock_based", "virtual"):
            raise ValueError(f"unknown station kind {self.kind!r}")
        self.lons = np.asarray(self.lons, dtype=np.float64)
        self.lats = np.asarray(self.lats, dtype=np.float64)
        self.member_count = np.asarray(self.member_count, dtype=np.int64)
        if not self.lons.shape == self.lats.shape == self.member_count.shape == (self.n,):
            raise ValueError("one lon, lat and member count per station required")
        if len(set(zip(self.lons.tolist(), self.lats.tolist()))) != self.n:
            raise ValueError("station centroids must be distinct")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("one label per station required")

    @property
    def n(self) -> int:
        return self.lons.size

    def to_csv(self) -> str:
        rows = zip(self.lons.tolist(), self.lats.tolist(), self.member_count.tolist())
        lines = ["id,lon,lat,member_count"]
        lines += [f"{i},{lon!r},{lat!r},{count}" for i, (lon, lat, count) in enumerate(rows)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, kind: str, labels: list[str] | None = None) -> "StationSet":
        rows = list(csv.DictReader(io.StringIO(text)))
        ids = [int(row["id"]) for row in rows]
        if ids != list(range(len(ids))):
            raise ValueError(f"station ids must be 0..{len(ids) - 1} with no gaps")
        return StationSet(
            [float(row["lon"]) for row in rows],
            [float(row["lat"]) for row in rows],
            [int(row["member_count"]) for row in rows],
            kind,
            labels,
        )


def _label_sort_key(label: str):
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def stations_from_records(trips: Trips) -> StationSet:
    """Build the dock set named by the data itself.

    Every distinct station label becomes a dock; its centroid is the mean of
    the coordinates observed at it and its member count the number of events
    (pick-ups plus drop-offs) touching it. Coordinates are summed in event
    order: trip by trip, pick-up before drop-off.
    """
    if trips.labels is None:
        raise ValueError("trips carry no dock labels to collect")
    found, inverse = np.unique(trips.labels.ravel(), return_inverse=True)
    labels = found.tolist()
    order = sorted(range(len(labels)), key=lambda u: _label_sort_key(labels[u]))
    dock = np.argsort(order)[inverse]  # argsort of a permutation inverts it
    xy = trips.coords.reshape(-1, 2)
    count = np.bincount(dock, minlength=len(labels))
    lons = np.bincount(dock, weights=xy[:, 0], minlength=len(labels)) / count
    lats = np.bincount(dock, weights=xy[:, 1], minlength=len(labels)) / count
    return StationSet(lons, lats, count, "dock_based", labels=[labels[u] for u in order])


def select_top_stations(docks: StationSet, keep: int) -> StationSet:
    """Keep the busiest docks, re-indexed by descending member count.

    Ties break toward the lower original id, so selection is deterministic.
    """
    if keep > docks.n:
        raise ValueError(f"cannot keep {keep} of {docks.n} docks")
    if docks.labels is None:
        raise ValueError("dock set carries no source labels")
    order = np.argsort(-docks.member_count, kind="stable")[:keep]
    return StationSet(
        docks.lons[order],
        docks.lats[order],
        docks.member_count[order],
        "dock_based",
        labels=[docks.labels[old] for old in order],
    )


def virtual_stations(
    trips: Trips,
    num_stations: int,
    dc_quantile: float = 0.02,
    max_points: int = 50_000,
    seed: int = 0,
) -> StationSet:
    """Cluster pick-up coordinates into virtual stations.

    Clustering runs on a uniform subsample of at most `max_points` pick-ups
    to bound the quadratic distance matrix.
    """
    points = trips.coords[:, 0]
    if points.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(points.shape[0], max_points, replace=False)
        points = points[np.sort(idx)]
    result = dpc_cluster(points, num_stations, dc_quantile)
    sizes = np.bincount(result.labels, minlength=num_stations)
    return StationSet(result.centroids[:, 0], result.centroids[:, 1], sizes, "virtual")


# ---------------------------------------------------------------------------
# demand tensor
# ---------------------------------------------------------------------------


@dataclass
class DemandSeries:
    values: np.ndarray  # (T, N, 2): channel 0 pick-ups, channel 1 drop-offs
    bin_start: datetime
    bin_width: timedelta


def build_demand_tensor(
    trips: Trips,
    stations: StationSet,
    bin_width: timedelta,
    bin_start: datetime | None = None,
    num_bins: int | None = None,
) -> tuple[DemandSeries, int]:
    """Bin pick-ups (channel 0) and drop-offs (channel 1) per station.

    Virtual stations take each event's nearest centroid by great-circle
    distance; dock-based stations require an exact label match. Events
    outside the time span or at unknown docks are skipped; the count of
    skipped events is returned alongside the series.
    """
    if stations.n == 0:
        raise ValueError("station set is empty")
    if not trips:
        raise ValueError("no records to bin")

    width = bin_width // _US
    if bin_start is None:
        bin_start = _EPOCH + timedelta(microseconds=int(trips.times.min() // width * width))
    bins = (trips.times - (bin_start - _EPOCH) // _US) // width
    if num_bins is None:
        num_bins = int(bins.max()) + 1

    if stations.kind == "virtual":
        xy = trips.coords.reshape(-1, 2)
        station = np.empty(len(xy), dtype=np.int64)
        for lo in range(0, len(xy), _BLOCK):
            block = xy[lo : lo + _BLOCK]
            dist = haversine_km(block[:, :1], block[:, 1:], stations.lons, stations.lats)
            station[lo : lo + _BLOCK] = dist.argmin(axis=1)
        station = station.reshape(bins.shape)
    else:
        index = {label: i for i, label in enumerate(stations.labels or ())}
        found, inverse = np.unique(trips.labels.ravel(), return_inverse=True)
        lookup = np.array([index.get(label, -1) for label in found.tolist()], dtype=np.int64)
        station = lookup[inverse].reshape(bins.shape)

    kept = (bins >= 0) & (bins < num_bins) & (station >= 0)
    cell = (bins * stations.n + station) * 2 + np.arange(2)
    counts = np.bincount(cell[kept], minlength=num_bins * stations.n * 2)
    values = counts.astype(np.float64).reshape(num_bins, stations.n, 2)
    skipped = kept.size - int(np.count_nonzero(kept))
    return DemandSeries(values=values, bin_start=bin_start, bin_width=bin_width), skipped


# ---------------------------------------------------------------------------
# standardization and splits
# ---------------------------------------------------------------------------


@dataclass
class Scaler:
    """Per-channel z-score fit on the training range only."""

    mean: np.ndarray  # (d,)
    std: np.ndarray  # (d,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.std + self.mean


def fit_scaler(values: np.ndarray, train_range: range) -> Scaler:
    train = np.asarray(values, dtype=np.float64)[train_range.start : train_range.stop]
    if train.size == 0:
        raise ValueError("training range is empty")
    mean = train.mean(axis=(0, 1))
    std = train.std(axis=(0, 1))
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise ValueError(f"channel(s) {flat.tolist()} have zero variance on the training range")
    return Scaler(mean=mean, std=std)


@dataclass
class DatasetSplit:
    train: range
    validation: range
    test: range
    p: int
    q: int


def bins_per_week(bin_width_seconds: int) -> int:
    """Bins in one week at the given bin width, rounded to a whole count."""
    return int(round(timedelta(weeks=1).total_seconds() / bin_width_seconds))


def split_by_bins(
    t_bins: int, bins_per_week: int, p: int, q: int, val_weeks: int, test_weeks: int
) -> DatasetSplit:
    """Hold out the last weeks for testing, the weeks before those for validation."""
    n_test = test_weeks * bins_per_week
    n_val = val_weeks * bins_per_week
    n_train = t_bins - n_val - n_test
    window = p + q
    for name, length in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if 0 < length < window:
            raise ValueError(
                f"{name} range has {length} bins, needs {window} (short by {window - length})"
            )
    if n_train < window:
        raise ValueError(
            f"train range has {n_train} bins, needs {window} "
            f"(short by {window - n_train})"
        )
    return DatasetSplit(
        train=range(0, n_train),
        validation=range(n_train, n_train + n_val),
        test=range(n_train + n_val, t_bins),
        p=p,
        q=q,
    )
