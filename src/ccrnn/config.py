"""Run configuration: JSON file plus command-line overrides, validated once.

Defaults mirror the reference experimental setup: half-hour bins, 12-step
history and horizon, 20-dimensional station features, rank-50 factors, three
convolution layers of order 3, hidden width 25.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import timedelta

from .graphgen import VARIANTS
from .ingest import ColumnSchema, StudyRect


class ConfigError(ValueError):
    """The configuration is malformed or violates an invariant."""


@dataclass
class RunConfig:
    # data source
    trips_csv: str | None = None
    pickup_time_col: str = "pickup_time"
    dropoff_time_col: str = "dropoff_time"
    pickup_lon_col: str | None = None
    pickup_lat_col: str | None = None
    dropoff_lon_col: str | None = None
    dropoff_lat_col: str | None = None
    pickup_station_col: str | None = None
    dropoff_station_col: str | None = None
    rect: list[float] | None = None  # [min_lon, min_lat, max_lon, max_lat]
    bin_minutes: int = 30

    # stations
    station_mode: str = "dock_based"  # dock_based | virtual
    keep_stations: int = 250
    num_virtual_stations: int = 266
    dc_quantile: float = 0.02
    cluster_max_points: int = 50_000

    # splits
    val_weeks: int = 2
    test_weeks: int = 2

    # model
    p: int = 12
    q: int = 12
    xi: int = 20
    rank: int = 50
    m_layers: int = 3
    k_hops: int = 3
    beta: int = 25
    epsilon: float | None = None

    # training
    learning_rate: float = 5e-4
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    patience: int = 10
    sampling_decay: float = 2000.0
    variant: str = "full"

    out_dir: str = "runs/default"

    def __post_init__(self):
        for key, value in asdict(self).items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite, got {value}")
        positive = {
            "bin_minutes": self.bin_minutes,
            "keep_stations": self.keep_stations,
            "num_virtual_stations": self.num_virtual_stations,
            "p": self.p,
            "q": self.q,
            "xi": self.xi,
            "rank": self.rank,
            "m_layers": self.m_layers,
            "k_hops": self.k_hops,
            "beta": self.beta,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "sampling_decay": self.sampling_decay,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if not 0.0 < self.dc_quantile < 1.0:
            raise ConfigError(f"dc_quantile must lie in (0, 1), got {self.dc_quantile}")
        if self.val_weeks < 0 or self.test_weeks < 0:
            raise ConfigError("holdout weeks cannot be negative")
        if self.station_mode not in ("dock_based", "virtual"):
            raise ConfigError(f"unknown station_mode {self.station_mode!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError(f"epsilon override must be positive, got {self.epsilon}")
        if self.rect is not None:
            if len(self.rect) != 4:
                raise ConfigError("rect must be [min_lon, min_lat, max_lon, max_lat]")
            min_lon, min_lat, max_lon, max_lat = self.rect
            if min_lon > max_lon or min_lat > max_lat:
                raise ConfigError(f"rect {self.rect} has a minimum above its maximum")
            coords = (self.pickup_lon_col, self.pickup_lat_col,
                      self.dropoff_lon_col, self.dropoff_lat_col)
            if not all(coords):
                raise ConfigError("rect needs all four coordinate columns to filter trips by")

    @property
    def bin_width(self) -> timedelta:
        return timedelta(minutes=self.bin_minutes)

    def column_schema(self) -> ColumnSchema:
        return ColumnSchema(
            pickup_time=self.pickup_time_col,
            dropoff_time=self.dropoff_time_col,
            pickup_lon=self.pickup_lon_col,
            pickup_lat=self.pickup_lat_col,
            dropoff_lon=self.dropoff_lon_col,
            dropoff_lat=self.dropoff_lat_col,
            pickup_station=self.pickup_station_col,
            dropoff_station=self.dropoff_station_col,
        )

    def study_rect(self) -> StudyRect | None:
        if self.rect is None:
            return None
        return StudyRect(*self.rect)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return config_from_mapping(raw, source=str(path))


def config_from_mapping(raw: dict, source: str = "<mapping>") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config {source} must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} in {source}")
    try:
        return RunConfig(**raw)
    except TypeError as e:
        raise ConfigError(f"bad config {source}: {e}") from e


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Flags win over file values; unset flags (None) leave the file value."""
    changed = {k: v for k, v in overrides.items() if v is not None}
    merged = asdict(config)
    merged.update(changed)
    return config_from_mapping(merged, source="<overrides>")
