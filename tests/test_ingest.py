"""Trip parsing, clustering, binning, standardization, and split accounting."""

import io
from datetime import datetime, timedelta

import numpy as np
import pytest

from ccrnn.dpc import dpc_cluster
from ccrnn.geo import haversine_km
from ccrnn.ingest import (
    _BLOCK,
    ColumnSchema,
    SchemaError,
    StationSet,
    StudyRect,
    Trips,
    bins_per_week,
    build_demand_tensor,
    fit_scaler,
    parse_trip_records,
    select_top_stations,
    split_by_bins,
    stations_from_records,
    virtual_stations,
)

COORD_SCHEMA = ColumnSchema(
    pickup_time="t_pick",
    dropoff_time="t_drop",
    pickup_lon="plon",
    pickup_lat="plat",
    dropoff_lon="dlon",
    dropoff_lat="dlat",
)

ID_SCHEMA = ColumnSchema(
    pickup_time="t_pick",
    dropoff_time="t_drop",
    pickup_station="pstation",
    dropoff_station="dstation",
    pickup_lon="plon",
    pickup_lat="plat",
    dropoff_lon="dlon",
    dropoff_lat="dlat",
)


def coord_csv(rows):
    out = ["t_pick,t_drop,plon,plat,dlon,dlat"]
    out += [",".join(str(v) for v in r) for r in rows]
    return io.StringIO("\n".join(out) + "\n")


def id_csv(rows):
    out = ["t_pick,t_drop,pstation,dstation,plon,plat,dlon,dlat"]
    out += [",".join(str(v) for v in r) for r in rows]
    return io.StringIO("\n".join(out) + "\n")


EPOCH = datetime(1970, 1, 1)


def us(t: datetime) -> int:
    """Microseconds since 1970-01-01, the unit of `Trips.times`."""
    return (t - EPOCH) // timedelta(microseconds=1)


def make_trips(times, coords=None, labels=None):
    """Trips from (pick-up, drop-off) datetimes, ((lon, lat), (lon, lat)) pairs
    (zeros when omitted) and (pick-up, drop-off) dock labels."""
    n = len(times)
    return Trips(
        times=np.array([[us(t) for t in pair] for pair in times], dtype=np.int64).reshape(n, 2),
        coords=np.zeros((n, 2, 2)) if coords is None else np.array(coords, dtype=float),
        labels=None if labels is None else np.array(labels, dtype=str),
    )


class TestDpc:
    def test_two_blob_recovery_against_brute_force(self):
        rng = np.random.default_rng(41)
        means = np.array([[0.0, 0.0], [10.0, 10.0]])
        pts = np.concatenate(
            [m + rng.normal(0, 0.3, size=(50, 2)) for m in means], axis=0
        )
        result = dpc_cluster(pts, 2)

        # Brute-force oracle: nearest true blob mean.
        oracle = np.argmin(
            np.linalg.norm(pts[:, None, :] - means[None], axis=-1), axis=1
        )
        # Map cluster ids to oracle ids via the cluster centroids.
        mapping = np.argmin(
            np.linalg.norm(result.centroids[:, None, :] - means[None], axis=-1), axis=1
        )
        assert sorted(mapping) == [0, 1]
        purity = np.mean(mapping[result.labels] == oracle)
        assert purity == 1.0
        for k in range(2):
            blob = means[mapping[k]]
            assert np.linalg.norm(result.centroids[k] - blob) < 0.5

    def test_every_point_its_own_cluster(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        result = dpc_cluster(pts, 4)
        assert sorted(result.labels.tolist()) == [0, 1, 2, 3]
        assert np.bincount(result.labels).tolist() == [1, 1, 1, 1]

    def test_duplicates_collapsing_below_k_rejected(self):
        pts = np.tile(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]), (40, 1))
        with pytest.raises(ValueError, match="distinct"):
            dpc_cluster(pts, 5)

    def test_partition_invariant_under_shuffling(self):
        rng = np.random.default_rng(42)
        pts = np.concatenate(
            [
                rng.normal(0, 0.2, size=(30, 2)),
                np.array([5.0, 0.0]) + rng.normal(0, 0.2, size=(30, 2)),
                np.array([0.0, 5.0]) + rng.normal(0, 0.2, size=(30, 2)),
            ]
        )

        def partition(points):
            res = dpc_cluster(points, 3)
            groups = {}
            for xy, lb in zip(points, res.labels):
                groups.setdefault(lb, set()).add(tuple(xy))
            return frozenset(frozenset(g) for g in groups.values())

        shuffled = pts[rng.permutation(len(pts))]
        assert partition(pts) == partition(shuffled)

    def test_argument_validation(self):
        pts = np.zeros((5, 2)) + np.arange(5)[:, None]
        with pytest.raises(ValueError):
            dpc_cluster(pts, 0)
        with pytest.raises(ValueError):
            dpc_cluster(pts, 6)
        with pytest.raises(ValueError):
            dpc_cluster(pts, 2, dc_quantile=1.5)


class TestParse:
    def test_well_formed_rows_sorted_by_pickup(self):
        src = coord_csv(
            [
                ("2016-04-02 10:00:00", "2016-04-02 10:20:00", -73.98, 40.75, -73.97, 40.76),
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
                ("2016-04-03 08:00:00", "2016-04-03 08:10:00", -73.97, 40.76, -73.99, 40.74),
            ]
        )
        trips, tally = parse_trip_records(src, COORD_SCHEMA)
        assert tally.rows_read == 3
        assert tally.accepted == 3
        assert len(trips) == 3
        times = trips.times[:, 0].tolist()
        assert times == sorted(times)
        assert trips.coords[0, 0].tolist() == [-73.99, 40.74]
        assert trips.labels is None

    def test_time_reversed_row_skipped_and_tallied(self):
        src = coord_csv(
            [
                ("2016-04-01 10:00:00", "2016-04-01 09:00:00", -73.98, 40.75, -73.97, 40.76),
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        trips, tally = parse_trip_records(src, COORD_SCHEMA)
        assert len(trips) == 1
        assert tally.time_reversed == 1
        assert tally.skipped == 1

    def test_out_of_rectangle_skipped(self):
        rect = StudyRect(-74.02, 40.67, -73.93, 40.80)
        src = coord_csv(
            [
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
                ("2016-04-01 10:00:00", "2016-04-01 10:30:00", -80.0, 40.74, -73.98, 40.75),
            ]
        )
        trips, tally = parse_trip_records(src, COORD_SCHEMA, rect)
        assert len(trips) == 1
        assert tally.out_of_area == 1

    def test_non_finite_coordinates_are_malformed(self):
        src = coord_csv(
            [
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", "nan", 40.74, -73.98, 40.75),
                ("2016-04-01 10:00:00", "2016-04-01 10:30:00", -73.99, 40.74, -73.98, "inf"),
                ("2016-04-01 11:00:00", "2016-04-01 11:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        trips, tally = parse_trip_records(src, COORD_SCHEMA)
        assert tally.malformed == 2
        assert tally.accepted == 1
        assert np.isfinite(trips.coords).all()

    def test_missing_column_is_schema_error(self):
        src = io.StringIO("t_pick,t_drop,plon,plat,dlon\n")
        with pytest.raises(SchemaError, match="dlat"):
            parse_trip_records(src, COORD_SCHEMA)

    def test_bad_timestamp_tallied(self):
        src = coord_csv(
            [
                ("not-a-time", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        trips, tally = parse_trip_records(src, COORD_SCHEMA)
        assert len(trips) == 1
        assert tally.bad_timestamp == 1

    def test_id_mode_keeps_labels_and_coords(self):
        src = id_csv(
            [
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", "72", "79", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        trips, tally = parse_trip_records(src, ID_SCHEMA)
        assert tally.accepted == 1
        assert trips.labels[0].tolist() == ["72", "79"]
        assert trips.coords[0, 0].tolist() == [-73.99, 40.74]
        assert trips.times[0].tolist() == [
            us(datetime(2016, 4, 1, 9, 0)), us(datetime(2016, 4, 1, 9, 30))
        ]

    def test_path_and_str_sources_agree(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(coord_csv(
            [
                ("2016-04-02 10:00:00", "2016-04-02 10:20:00", -73.98, 40.75, -73.97, 40.76),
                ("not-a-time", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        ).getvalue(), encoding="utf-8")
        from_path, path_tally = parse_trip_records(path, COORD_SCHEMA)
        from_str, str_tally = parse_trip_records(str(path), COORD_SCHEMA)
        np.testing.assert_array_equal(from_path.times, from_str.times)
        np.testing.assert_array_equal(from_path.coords, from_str.coords)
        assert from_path.labels is None and from_str.labels is None
        assert path_tally == str_tally
        assert path_tally.accepted == 1 and path_tally.bad_timestamp == 1

    def test_incomplete_schema_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema(pickup_time="a", dropoff_time="b").required_columns()
        with pytest.raises(SchemaError, match="coordinate"):
            ColumnSchema(pickup_station="s", dropoff_station="d").required_columns()


def _dock_trips():
    """Three docks: '7' with 2 trips, '30' with 1, '100' with 1 (as dropoff)."""
    t0 = datetime(2016, 4, 1, 9, 0)
    rows = [
        (0, "7", "30", (-73.99, 40.74), (-73.98, 40.75)),
        (30, "7", "100", (-73.99, 40.74), (-73.97, 40.76)),
        (60, "30", "7", (-73.98, 40.75), (-73.99, 40.74)),
    ]
    return make_trips(
        [(t0 + timedelta(minutes=m), t0 + timedelta(minutes=m + 10)) for m, *_ in rows],
        coords=[(pxy, dxy) for *_, pxy, dxy in rows],
        labels=[(pick, drop) for _, pick, drop, *_ in rows],
    )


def dock_set(counts, labels=None):
    """Docks on a line of longitudes, one per member count."""
    n = len(counts)
    return StationSet(np.arange(n, dtype=float), np.zeros(n), counts, "dock_based", labels)


class TestStations:
    def test_docks_from_records(self):
        docks = stations_from_records(_dock_trips())
        assert docks.kind == "dock_based"
        assert docks.labels == ["7", "30", "100"]  # numeric ordering
        assert docks.member_count.tolist() == [3, 2, 1]
        assert docks.lons[0] == pytest.approx(-73.99)

    def test_centroids_match_a_sequential_sum(self):
        """Centroids are event-order sums, bit for bit, not pairwise ones."""
        rng = np.random.default_rng(49)
        n = 3000
        labels = rng.choice(["3", "12", "x", "07", "40"], size=(n, 2))
        coords = rng.uniform(-74.1, -73.7, size=(n, 2, 2))
        trips = Trips(np.zeros((n, 2), dtype=np.int64), coords, labels)
        docks = stations_from_records(trips)
        for dock, label in enumerate(docks.labels):
            total, count = [0.0, 0.0], 0
            for k in range(n):
                for end in (0, 1):
                    if labels[k, end] == label:
                        total = [total[0] + coords[k, end, 0], total[1] + coords[k, end, 1]]
                        count += 1
            assert docks.member_count[dock] == count
            assert docks.lons[dock].tobytes() == np.float64(total[0] / count).tobytes()
            assert docks.lats[dock].tobytes() == np.float64(total[1] / count).tobytes()
        assert docks.labels == ["3", "07", "12", "40", "x"]

    def test_select_top_reorders_by_count(self):
        docks = dock_set([5, 9, 1], labels=["a", "b", "c"])
        top = select_top_stations(docks, 2)
        assert top.labels == ["b", "a"]
        assert top.member_count.tolist() == [9, 5]
        assert top.n == 2
        assert top.lons.tolist() == [1.0, 0.0]

    def test_select_all_is_identity_order_for_equal_counts(self):
        docks = dock_set([4, 4, 4], labels=["x", "y", "z"])
        top = select_top_stations(docks, 3)
        assert top.labels == ["x", "y", "z"]

    def test_keep_exceeding_docks_rejected(self):
        docks = dock_set([1], labels=["only"])
        with pytest.raises(ValueError):
            select_top_stations(docks, 2)

    def test_station_set_invariants(self):
        with pytest.raises(ValueError, match="0..1"):
            StationSet.from_csv(
                "id,lon,lat,member_count\n0,0.0,0.0,1\n2,1.0,1.0,1\n", "dock_based"
            )
        with pytest.raises(ValueError, match="distinct"):
            StationSet([1.0, 1.0], [2.0, 2.0], [1, 1], "virtual")
        with pytest.raises(ValueError, match="per station"):
            StationSet([1.0], [2.0, 3.0], [1, 1], "virtual")

    def test_csv_round_trip(self):
        docks = stations_from_records(_dock_trips())
        text = docks.to_csv()
        back = StationSet.from_csv(text, "dock_based", labels=docks.labels)
        assert back.to_csv() == text
        assert back.lons.tolist() == docks.lons.tolist()

    def test_virtual_stations_from_coordinates(self):
        rng = np.random.default_rng(43)
        t0 = datetime(2016, 4, 1)
        coords = []
        for center in ((-73.99, 40.74), (-73.95, 40.78)):
            for _ in range(40):
                lon = center[0] + rng.normal(0, 0.001)
                lat = center[1] + rng.normal(0, 0.001)
                coords.append(((lon, lat), (lon, lat)))
        trips = make_trips([(t0, t0)] * len(coords), coords=coords)
        stations = virtual_stations(trips, 2, seed=1)
        assert stations.kind == "virtual"
        assert stations.n == 2
        got = sorted(zip(stations.lons.round(2).tolist(), stations.lats.round(2).tolist()))
        assert got == [(-73.99, 40.74), (-73.95, 40.78)]


def per_event_oracle(trips, stations, bin_width, bin_start=None, num_bins=None):
    """The per-event loop that binned demand before the array version.

    Times are datetimes, bins come from float seconds, and every virtual
    event makes its own haversine call.
    """
    events = []
    for k in range(len(trips)):
        for end in (0, 1):
            t = EPOCH + timedelta(microseconds=int(trips.times[k, end]))
            label = None if trips.labels is None else str(trips.labels[k, end])
            events.append((t, label, trips.coords[k, end].tolist(), end))
    width_s = bin_width.total_seconds()
    if bin_start is None:
        first = (min(e[0] for e in events) - EPOCH).total_seconds()
        bin_start = EPOCH + timedelta(seconds=(first // width_s) * width_s)
    if num_bins is None:
        span = (max(e[0] for e in events) - bin_start).total_seconds()
        num_bins = int(span // width_s) + 1
    label_index = {lb: i for i, lb in enumerate(stations.labels or [])}
    values = np.zeros((num_bins, stations.n, 2))
    skipped = 0
    for t, label, xy, channel in events:
        b = int((t - bin_start).total_seconds() // width_s)
        if not 0 <= b < num_bins or (
            stations.kind == "dock_based" and label not in label_index
        ):
            skipped += 1
            continue
        if stations.kind == "dock_based":
            s = label_index[label]
        else:
            s = int(np.argmin(haversine_km(xy[0], xy[1], stations.lons, stations.lats)))
        values[b, s, channel] += 1.0
    return values, bin_start, skipped


def random_trips(rng, n, labels=None):
    """Seeded trips over three days with microsecond times."""
    t0 = us(datetime(2016, 4, 1, 0, 0, 0, 1234))
    pick = t0 + rng.integers(0, 3 * 86_400_000_000, n)
    times = np.stack([pick, pick + rng.integers(0, 5_400_000_000, n)], axis=1)
    coords = np.stack([rng.uniform(-74.05, -73.85, (n, 2)), rng.uniform(40.6, 40.9, (n, 2))], -1)
    picked = None if labels is None else rng.choice(labels, size=(n, 2))
    return Trips(times, coords, picked)


class TestDemandTensor:
    def test_single_pickup_increment(self):
        stations = dock_set([0] * 5, labels=[str(i) for i in range(5)])
        t0 = datetime(2016, 4, 1, 0, 0)
        trips = make_trips(
            [(t0 + timedelta(minutes=7 * 30 + 5), t0 + timedelta(minutes=7 * 30 + 15))],  # bin 7
            labels=[("3", "3")],
        )
        series, skipped = build_demand_tensor(
            trips, stations, timedelta(minutes=30), bin_start=t0, num_bins=10
        )
        assert skipped == 0
        assert series.values[7, 3, 0] == 1.0
        assert series.values[7, 3, 1] == 1.0
        assert series.values[:, :, 0].sum() == 1.0

    def test_two_events_same_cell_accumulate(self):
        stations = dock_set([0], labels=["s"])
        t0 = datetime(2016, 4, 1)
        trips = make_trips(
            [(t0, t0 + timedelta(hours=2)), (t0 + timedelta(minutes=5), t0 + timedelta(hours=2))],
            labels=[("s", "s"), ("s", "s")],
        )
        series, _ = build_demand_tensor(
            trips, stations, timedelta(minutes=30), bin_start=t0, num_bins=8
        )
        assert series.values[0, 0, 0] == 2.0
        assert series.values[4, 0, 1] == 2.0

    def test_count_conservation(self):
        rng = np.random.default_rng(44)
        stations = dock_set([0] * 4, labels=[str(i) for i in range(4)])
        t0 = datetime(2016, 4, 1)
        times, labels = [], []
        for _ in range(200):
            start = t0 + timedelta(minutes=float(rng.uniform(0, 60 * 24)))
            times.append((start, start + timedelta(minutes=float(rng.uniform(0, 90)))))
            labels.append((str(rng.integers(0, 4)), str(rng.integers(0, 4))))
        series, skipped = build_demand_tensor(
            make_trips(times, labels=labels), stations, timedelta(minutes=30)
        )
        accepted_events = 400 - skipped
        assert series.values.sum() == accepted_events
        assert series.values[:, :, 0].sum() == 200  # every pickup lands in span

    def test_virtual_assignment_by_nearest_centroid(self):
        stations = StationSet([-74.0, -73.9], [40.7, 40.8], [0, 0], "virtual")
        t0 = datetime(2016, 4, 1)
        trips = make_trips([(t0, t0)], coords=[((-73.999, 40.701), (-73.901, 40.799))])
        series, _ = build_demand_tensor(
            trips, stations, timedelta(minutes=30), bin_start=t0, num_bins=1
        )
        assert series.values[0, 0, 0] == 1.0
        assert series.values[0, 1, 1] == 1.0

    def test_unknown_dock_and_out_of_span_skipped(self):
        stations = dock_set([0], labels=["s"])
        t0 = datetime(2016, 4, 1)
        trips = make_trips(
            [(t0, t0), (t0 + timedelta(days=2), t0 + timedelta(days=2))],
            labels=[("mystery", "s"), ("s", "s")],
        )
        series, skipped = build_demand_tensor(
            trips, stations, timedelta(minutes=30), bin_start=t0, num_bins=4
        )
        assert skipped == 3  # unknown pickup + both out-of-span events
        assert series.values.sum() == 1.0  # only the first record's dropoff

    def test_whole_bin_count_covers_span(self):
        stations = dock_set([0], labels=["s"])
        first = datetime(2016, 4, 1, 0, 5)
        last = datetime(2016, 6, 30, 23, 45)  # 91 days later
        trips = make_trips([(first, first), (last, last)], labels=[("s", "s"), ("s", "s")])
        series, skipped = build_demand_tensor(trips, stations, timedelta(minutes=30))
        assert skipped == 0
        assert series.values.shape[0] == 91 * 48
        assert series.bin_start == datetime(2016, 4, 1, 0, 0)

    @pytest.mark.parametrize(
        "bin_start, num_bins", [(None, None), (datetime(2016, 4, 2, 1, 30), 40)]
    )
    def test_dock_binning_matches_per_event_oracle(self, bin_start, num_bins):
        rng = np.random.default_rng(50)
        labels = [str(i) for i in range(12)] + ["x"]
        stations = dock_set([0] * 9, labels=labels[3:12])  # '0', '1', '2' and 'x' unknown
        trips = random_trips(rng, 3000, labels)
        width = timedelta(minutes=30)
        series, skipped = build_demand_tensor(trips, stations, width, bin_start, num_bins)
        values, start, oracle_skipped = per_event_oracle(
            trips, stations, width, bin_start, num_bins
        )
        np.testing.assert_array_equal(series.values, values)
        assert series.bin_start == start
        assert skipped == oracle_skipped
        assert 0 < skipped < 6000

    def test_virtual_binning_matches_per_event_oracle(self):
        rng = np.random.default_rng(51)
        n = _BLOCK + _BLOCK // 8  # 2n events: more than two blocks
        trips = random_trips(rng, n)
        stations = StationSet(
            rng.uniform(-74.05, -73.85, 12), rng.uniform(40.6, 40.9, 12), [0] * 12, "virtual"
        )
        width = timedelta(minutes=45)
        series, skipped = build_demand_tensor(trips, stations, width)
        values, start, oracle_skipped = per_event_oracle(trips, stations, width)
        np.testing.assert_array_equal(series.values, values)
        assert series.bin_start == start
        assert skipped == oracle_skipped == 0


class TestScaler:
    def test_train_range_zscore(self):
        rng = np.random.default_rng(45)
        values = rng.uniform(1, 9, size=(100, 6, 2))
        scaler = fit_scaler(values, range(0, 70))
        scaled = scaler.apply(values[:70])
        np.testing.assert_allclose(scaled.mean(axis=(0, 1)), 0.0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=(0, 1)), 1.0, atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(46)
        values = rng.uniform(0, 50, size=(40, 3, 2))
        scaler = fit_scaler(values, range(0, 30))
        np.testing.assert_allclose(scaler.invert(scaler.apply(values)), values, atol=1e-10)

    def test_no_leakage_negative_control(self):
        rng = np.random.default_rng(47)
        values = np.concatenate(
            [
                rng.normal(5, 1, size=(50, 4, 2)),
                rng.normal(9, 1, size=(50, 4, 2)),  # distribution shift after train
            ]
        )
        scaler = fit_scaler(values, range(0, 50))
        test_mean = scaler.apply(values[50:]).mean()
        assert abs(test_mean) > 1.0

    def test_zero_variance_channel_rejected(self):
        values = np.zeros((20, 3, 2))
        values[:, :, 0] = np.random.default_rng(48).uniform(1, 2, size=(20, 3))
        with pytest.raises(ValueError, match=r"\[1\]"):
            fit_scaler(values, range(0, 20))


class TestSplits:
    def test_two_plus_two_weeks_holdout(self):
        split = split_by_bins(91 * 48, 336, p=12, q=12, val_weeks=2, test_weeks=2)
        assert split.train == range(0, 3024)
        assert split.validation == range(3024, 3696)
        assert split.test == range(3696, 4368)

    def test_partition_is_disjoint_and_ordered(self):
        split = split_by_bins(2000, 336, p=12, q=12, val_weeks=1, test_weeks=1)
        assert split.train.stop == split.validation.start
        assert split.validation.stop == split.test.start
        assert split.test.stop == 2000
        total = len(split.train) + len(split.validation) + len(split.test)
        assert total == 2000

    def test_zero_holdout_puts_everything_in_train(self):
        split = split_by_bins(100, 336, p=1, q=1, val_weeks=0, test_weeks=0)
        assert split.train == range(0, 100)
        assert len(split.validation) == 0
        assert len(split.test) == 0

    def test_insufficient_length_names_shortfall(self):
        with pytest.raises(ValueError, match="short by 6"):
            split_by_bins(690, 336, p=12, q=12, val_weeks=1, test_weeks=1)

    def test_split_dataset_uses_bin_width(self):
        assert bins_per_week(30 * 60) == 336
        split = split_by_bins(4368, bins_per_week(30 * 60), 12, 12, 2, 2)
        assert split.train == range(0, 3024)
