"""Trip-record ETL: CSV parsing, station discovery, demand binning, splits.

Two station modes. Dock-based systems name their stations in the data, so the
docks become stations directly (optionally keeping only the busiest). Systems
without fixed stations get virtual ones: density peak clustering over a
subsample of pick-up coordinates, with demand assigned to the nearest
centroid by great-circle distance.

Dirty rows (bad timestamps, drop-off before pick-up, coordinates outside the
study rectangle) are dropped and tallied, never fatal — schema problems are.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .dpc import dpc_cluster
from .geo import haversine_km

_EPOCH = datetime(1970, 1, 1)


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

    Either both station-id columns (dock-based data) or all four coordinate
    columns (coordinate data) must be present. Dock-based data may also carry
    coordinate columns, used to place the docks on the map.
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
        if self.pickup_station and self.dropoff_station:
            return "ids"
        if self.pickup_lon and self.pickup_lat and self.dropoff_lon and self.dropoff_lat:
            return "coords"
        raise SchemaError(
            "schema needs either both station columns or all four coordinate columns"
        )

    def required_columns(self) -> list[str]:
        mode = self.mode  # validates completeness
        cols = [self.pickup_time, self.dropoff_time]
        if mode == "ids":
            cols += [self.pickup_station, self.dropoff_station]
        has_coords = all(
            (self.pickup_lon, self.pickup_lat, self.dropoff_lon, self.dropoff_lat)
        )
        if mode == "coords" or has_coords:
            cols += [self.pickup_lon, self.pickup_lat, self.dropoff_lon, self.dropoff_lat]
        return cols


@dataclass
class TripRecord:
    pickup_time: datetime
    dropoff_time: datetime
    pickup_loc: tuple[float, float] | str  # (lon, lat) or station label
    dropoff_loc: tuple[float, float] | str
    pickup_coords: tuple[float, float] | None = None  # set when loc is a label
    dropoff_coords: tuple[float, float] | None = None


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
) -> tuple[list[TripRecord], ParseTally]:
    """Read, validate, and time-sort trip records from a CSV stream or path.

    Malformed rows are skipped and tallied; a header that lacks a mandatory
    column is a SchemaError.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_trip_records(fh, schema, rect)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(source, "read") and isinstance(source.read(0), bytes)
    ):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.DictReader(source)
    header = reader.fieldnames or []
    for col in schema.required_columns():
        if col not in header:
            raise SchemaError(f"missing column {col!r} in header {header}")

    mode = schema.mode
    has_coords = all(
        (schema.pickup_lon, schema.pickup_lat, schema.dropoff_lon, schema.dropoff_lat)
    )
    tally = ParseTally()
    records: list[TripRecord] = []
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

        pick_xy = drop_xy = None
        if has_coords:
            try:
                pick_xy = (float(row[schema.pickup_lon]), float(row[schema.pickup_lat]))
                drop_xy = (float(row[schema.dropoff_lon]), float(row[schema.dropoff_lat]))
            except (TypeError, ValueError):
                tally.malformed += 1
                continue
            if rect is not None and not (
                rect.contains(*pick_xy) and rect.contains(*drop_xy)
            ):
                tally.out_of_area += 1
                continue

        if mode == "ids":
            pick_label = (row[schema.pickup_station] or "").strip()
            drop_label = (row[schema.dropoff_station] or "").strip()
            if not pick_label or not drop_label:
                tally.malformed += 1
                continue
            records.append(
                TripRecord(t_pick, t_drop, pick_label, drop_label, pick_xy, drop_xy)
            )
        else:
            records.append(TripRecord(t_pick, t_drop, pick_xy, drop_xy))
        tally.accepted += 1

    records.sort(key=lambda r: r.pickup_time)
    return records, tally


# ---------------------------------------------------------------------------
# station sets
# ---------------------------------------------------------------------------


@dataclass
class Station:
    id: int
    lon: float
    lat: float
    member_count: int


@dataclass
class StationSet:
    stations: list[Station]
    kind: str  # dock_based | virtual
    labels: list[str] | None = None  # source labels for dock-based sets

    def __post_init__(self):
        if self.kind not in ("dock_based", "virtual"):
            raise ValueError(f"unknown station kind {self.kind!r}")
        ids = [s.id for s in self.stations]
        if ids != list(range(len(ids))):
            raise ValueError(f"station ids must be 0..{len(ids) - 1} with no gaps")
        coords = {(s.lon, s.lat) for s in self.stations}
        if len(coords) != len(self.stations):
            raise ValueError("station centroids must be distinct")
        if self.labels is not None and len(self.labels) != len(self.stations):
            raise ValueError("one label per station required")

    @property
    def n(self) -> int:
        return len(self.stations)

    @property
    def lons(self) -> np.ndarray:
        return np.array([s.lon for s in self.stations])

    @property
    def lats(self) -> np.ndarray:
        return np.array([s.lat for s in self.stations])

    def to_csv(self) -> str:
        lines = ["id,lon,lat,member_count"]
        for s in self.stations:
            lines.append(f"{s.id},{s.lon!r},{s.lat!r},{s.member_count}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, kind: str, labels: list[str] | None = None) -> "StationSet":
        reader = csv.DictReader(io.StringIO(text))
        stations = [
            Station(
                id=int(row["id"]),
                lon=float(row["lon"]),
                lat=float(row["lat"]),
                member_count=int(row["member_count"]),
            )
            for row in reader
        ]
        return StationSet(stations, kind, labels)


def _label_sort_key(label: str):
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def stations_from_records(records: list[TripRecord]) -> StationSet:
    """Build the dock set named by the data itself.

    Every distinct station label becomes a dock; its centroid is the mean of
    the coordinates observed at it and its member count the number of events
    (pick-ups plus drop-offs) touching it.
    """
    sums: dict[str, np.ndarray] = {}
    seen: dict[str, int] = {}
    counts: dict[str, int] = {}
    for rec in records:
        for label, xy in (
            (rec.pickup_loc, rec.pickup_coords),
            (rec.dropoff_loc, rec.dropoff_coords),
        ):
            if not isinstance(label, str):
                raise ValueError("records carry raw coordinates; no dock labels to collect")
            counts[label] = counts.get(label, 0) + 1
            if xy is not None:
                sums.setdefault(label, np.zeros(2))
                sums[label] += xy
                seen[label] = seen.get(label, 0) + 1
    labels = sorted(counts, key=_label_sort_key)
    missing = [lb for lb in labels if lb not in seen]
    if missing:
        raise ValueError(f"no coordinates observed for dock(s) {missing[:5]}")
    stations = []
    for i, lb in enumerate(labels):
        lon, lat = sums[lb] / seen[lb]
        stations.append(Station(id=i, lon=float(lon), lat=float(lat), member_count=counts[lb]))
    return StationSet(stations, "dock_based", labels=labels)


def select_top_stations(docks: StationSet, keep: int) -> StationSet:
    """Keep the busiest docks, re-indexed by descending member count.

    Ties break toward the lower original id, so selection is deterministic.
    """
    if keep > docks.n:
        raise ValueError(f"cannot keep {keep} of {docks.n} docks")
    if docks.labels is None:
        raise ValueError("dock set carries no source labels")
    order = sorted(range(docks.n), key=lambda i: (-docks.stations[i].member_count, i))[:keep]
    stations = [replace(docks.stations[old], id=new_id) for new_id, old in enumerate(order)]
    return StationSet(stations, "dock_based", labels=[docks.labels[old] for old in order])


def virtual_stations(
    records: list[TripRecord],
    num_stations: int,
    dc_quantile: float = 0.02,
    max_points: int = 50_000,
    seed: int = 0,
) -> StationSet:
    """Cluster pick-up coordinates into virtual stations.

    Clustering runs on a uniform subsample of at most `max_points` pick-ups
    to bound the quadratic distance matrix.
    """
    points = np.array(
        [
            rec.pickup_coords if rec.pickup_coords is not None else rec.pickup_loc
            for rec in records
            if not isinstance(rec.pickup_loc, str) or rec.pickup_coords is not None
        ],
        dtype=np.float64,
    )
    if points.ndim != 2:
        raise ValueError("no pick-up coordinates available for clustering")
    if points.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(points.shape[0], max_points, replace=False)
        points = points[np.sort(idx)]
    result = dpc_cluster(points, num_stations, dc_quantile)
    sizes = np.bincount(result.labels, minlength=num_stations)
    stations = [
        Station(id=k, lon=float(result.centroids[k, 0]), lat=float(result.centroids[k, 1]),
                member_count=int(sizes[k]))
        for k in range(num_stations)
    ]
    return StationSet(stations, "virtual")


# ---------------------------------------------------------------------------
# demand tensor
# ---------------------------------------------------------------------------


@dataclass
class DemandSeries:
    values: np.ndarray  # (T, N, 2): channel 0 pick-ups, channel 1 drop-offs
    bin_start: datetime
    bin_width: timedelta


def _floor_to_bin(t: datetime, width: timedelta) -> datetime:
    seconds = (t - _EPOCH).total_seconds()
    w = width.total_seconds()
    return _EPOCH + timedelta(seconds=(seconds // w) * w)


def build_demand_tensor(
    records: list[TripRecord],
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
    if not records:
        raise ValueError("no records to bin")

    events = []  # (time, loc, coords, channel)
    for rec in records:
        events.append((rec.pickup_time, rec.pickup_loc, rec.pickup_coords, 0))
        events.append((rec.dropoff_time, rec.dropoff_loc, rec.dropoff_coords, 1))

    if bin_start is None:
        bin_start = _floor_to_bin(min(e[0] for e in events), bin_width)
    if num_bins is None:
        last = max(e[0] for e in events)
        span = (last - bin_start).total_seconds()
        num_bins = int(span // bin_width.total_seconds()) + 1

    label_index = (
        {lb: i for i, lb in enumerate(stations.labels)} if stations.labels else {}
    )
    lons, lats = stations.lons, stations.lats
    width_s = bin_width.total_seconds()
    values = np.zeros((num_bins, stations.n, 2))
    skipped = 0
    for t, loc, coords, channel in events:
        b = int((t - bin_start).total_seconds() // width_s)
        if not 0 <= b < num_bins:
            skipped += 1
            continue
        if stations.kind == "dock_based":
            if not isinstance(loc, str) or loc not in label_index:
                skipped += 1
                continue
            s = label_index[loc]
        else:
            xy = coords if coords is not None else loc
            if isinstance(xy, str):
                skipped += 1
                continue
            s = int(np.argmin(haversine_km(xy[0], xy[1], lons, lats)))
        values[b, s, channel] += 1.0
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
