"""Trip parsing, clustering, binning, standardization, and split accounting."""

import io
from datetime import datetime, timedelta

import numpy as np
import pytest

from ccrnn.dpc import dpc_cluster
from ccrnn.ingest import (
    ColumnSchema,
    SchemaError,
    Station,
    StationSet,
    StudyRect,
    TripRecord,
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
        records, tally = parse_trip_records(src, COORD_SCHEMA)
        assert tally.rows_read == 3
        assert tally.accepted == 3
        times = [r.pickup_time for r in records]
        assert times == sorted(times)
        assert records[0].pickup_loc == (-73.99, 40.74)

    def test_time_reversed_row_skipped_and_tallied(self):
        src = coord_csv(
            [
                ("2016-04-01 10:00:00", "2016-04-01 09:00:00", -73.98, 40.75, -73.97, 40.76),
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        records, tally = parse_trip_records(src, COORD_SCHEMA)
        assert len(records) == 1
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
        records, tally = parse_trip_records(src, COORD_SCHEMA, rect)
        assert len(records) == 1
        assert tally.out_of_area == 1

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
        records, tally = parse_trip_records(src, COORD_SCHEMA)
        assert len(records) == 1
        assert tally.bad_timestamp == 1

    def test_id_mode_keeps_labels_and_coords(self):
        src = id_csv(
            [
                ("2016-04-01 09:00:00", "2016-04-01 09:30:00", "72", "79", -73.99, 40.74, -73.98, 40.75),
            ]
        )
        records, tally = parse_trip_records(src, ID_SCHEMA)
        assert tally.accepted == 1
        rec = records[0]
        assert rec.pickup_loc == "72"
        assert rec.dropoff_loc == "79"
        assert rec.pickup_coords == (-73.99, 40.74)

    def test_byte_stream_input(self):
        text = coord_csv(
            [("2016-04-01 09:00:00", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75)]
        ).getvalue()
        records, tally = parse_trip_records(text.encode(), COORD_SCHEMA)
        assert tally.accepted == 1

    def test_path_and_str_sources_agree(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text(coord_csv(
            [
                ("2016-04-02 10:00:00", "2016-04-02 10:20:00", -73.98, 40.75, -73.97, 40.76),
                ("not-a-time", "2016-04-01 09:30:00", -73.99, 40.74, -73.98, 40.75),
            ]
        ).getvalue(), encoding="utf-8")
        from_path = parse_trip_records(path, COORD_SCHEMA)
        from_str = parse_trip_records(str(path), COORD_SCHEMA)
        assert from_path == from_str
        assert from_path[1].accepted == 1 and from_path[1].bad_timestamp == 1

    def test_incomplete_schema_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema(pickup_time="a", dropoff_time="b").required_columns()


def _dock_records():
    """Three docks: '7' with 2 trips, '30' with 1, '100' with 1 (as dropoff)."""
    t0 = datetime(2016, 4, 1, 9, 0)

    def rec(minute, pick, drop, pxy, dxy):
        return TripRecord(
            t0 + timedelta(minutes=minute),
            t0 + timedelta(minutes=minute + 10),
            pick,
            drop,
            pxy,
            dxy,
        )

    return [
        rec(0, "7", "30", (-73.99, 40.74), (-73.98, 40.75)),
        rec(30, "7", "100", (-73.99, 40.74), (-73.97, 40.76)),
        rec(60, "30", "7", (-73.98, 40.75), (-73.99, 40.74)),
    ]


class TestStations:
    def test_docks_from_records(self):
        docks = stations_from_records(_dock_records())
        assert docks.kind == "dock_based"
        assert docks.labels == ["7", "30", "100"]  # numeric ordering
        assert [s.member_count for s in docks.stations] == [3, 2, 1]
        assert docks.stations[0].lon == pytest.approx(-73.99)

    def test_select_top_reorders_by_count(self):
        stations = [
            Station(id=i, lon=float(i), lat=0.0, member_count=c) for i, c in enumerate([5, 9, 1])
        ]
        docks = StationSet(stations, "dock_based", labels=["a", "b", "c"])
        top = select_top_stations(docks, 2)
        assert top.labels == ["b", "a"]
        assert [s.member_count for s in top.stations] == [9, 5]
        assert [s.id for s in top.stations] == [0, 1]
        assert [s.lon for s in top.stations] == [1.0, 0.0]

    def test_select_all_is_identity_order_for_equal_counts(self):
        stations = [Station(id=i, lon=float(i), lat=0.0, member_count=4) for i in range(3)]
        docks = StationSet(stations, "dock_based", labels=["x", "y", "z"])
        top = select_top_stations(docks, 3)
        assert top.labels == ["x", "y", "z"]

    def test_keep_exceeding_docks_rejected(self):
        docks = StationSet(
            [Station(0, 0.0, 0.0, 1)], "dock_based", labels=["only"]
        )
        with pytest.raises(ValueError):
            select_top_stations(docks, 2)

    def test_station_set_invariants(self):
        with pytest.raises(ValueError, match="0..1"):
            StationSet(
                [Station(0, 0.0, 0.0, 1), Station(2, 1.0, 1.0, 1)], "dock_based"
            )
        with pytest.raises(ValueError, match="distinct"):
            StationSet(
                [Station(0, 1.0, 2.0, 1), Station(1, 1.0, 2.0, 1)], "virtual"
            )

    def test_csv_round_trip(self):
        docks = stations_from_records(_dock_records())
        text = docks.to_csv()
        back = StationSet.from_csv(text, "dock_based", labels=docks.labels)
        assert back.to_csv() == text
        assert [s.lon for s in back.stations] == [s.lon for s in docks.stations]

    def test_virtual_stations_from_coordinates(self):
        rng = np.random.default_rng(43)
        t0 = datetime(2016, 4, 1)
        records = []
        for center in ((-73.99, 40.74), (-73.95, 40.78)):
            for _ in range(40):
                lon = center[0] + rng.normal(0, 0.001)
                lat = center[1] + rng.normal(0, 0.001)
                records.append(TripRecord(t0, t0, (lon, lat), (lon, lat)))
        stations = virtual_stations(records, 2, seed=1)
        assert stations.kind == "virtual"
        assert stations.n == 2
        got = sorted((round(s.lon, 2), round(s.lat, 2)) for s in stations.stations)
        assert got == [(-73.99, 40.74), (-73.95, 40.78)]


class TestDemandTensor:
    def test_single_pickup_increment(self):
        stations = StationSet(
            [Station(i, float(i), 0.0, 0) for i in range(5)],
            "dock_based",
            labels=[str(i) for i in range(5)],
        )
        t0 = datetime(2016, 4, 1, 0, 0)
        rec = TripRecord(
            t0 + timedelta(minutes=7 * 30 + 5),  # bin 7
            t0 + timedelta(minutes=7 * 30 + 15),
            "3",
            "3",
            None,
            None,
        )
        series, skipped = build_demand_tensor(
            [rec], stations, timedelta(minutes=30), bin_start=t0, num_bins=10
        )
        assert skipped == 0
        assert series.values[7, 3, 0] == 1.0
        assert series.values[7, 3, 1] == 1.0
        assert series.values[:, :, 0].sum() == 1.0

    def test_two_events_same_cell_accumulate(self):
        stations = StationSet([Station(0, 0.0, 0.0, 0)], "dock_based", labels=["s"])
        t0 = datetime(2016, 4, 1)
        recs = [
            TripRecord(t0, t0 + timedelta(hours=2), "s", "s", None, None),
            TripRecord(t0 + timedelta(minutes=5), t0 + timedelta(hours=2), "s", "s", None, None),
        ]
        series, _ = build_demand_tensor(
            recs, stations, timedelta(minutes=30), bin_start=t0, num_bins=8
        )
        assert series.values[0, 0, 0] == 2.0
        assert series.values[4, 0, 1] == 2.0

    def test_count_conservation(self):
        rng = np.random.default_rng(44)
        stations = StationSet(
            [Station(i, float(i), 0.0, 0) for i in range(4)],
            "dock_based",
            labels=[str(i) for i in range(4)],
        )
        t0 = datetime(2016, 4, 1)
        recs = []
        for _ in range(200):
            start = t0 + timedelta(minutes=float(rng.uniform(0, 60 * 24)))
            recs.append(
                TripRecord(
                    start,
                    start + timedelta(minutes=float(rng.uniform(0, 90))),
                    str(rng.integers(0, 4)),
                    str(rng.integers(0, 4)),
                    None,
                    None,
                )
            )
        series, skipped = build_demand_tensor(recs, stations, timedelta(minutes=30))
        accepted_events = 400 - skipped
        assert series.values.sum() == accepted_events
        assert series.values[:, :, 0].sum() == 200  # every pickup lands in span

    def test_virtual_assignment_by_nearest_centroid(self):
        stations = StationSet(
            [Station(0, -74.0, 40.7, 0), Station(1, -73.9, 40.8, 0)], "virtual"
        )
        t0 = datetime(2016, 4, 1)
        rec = TripRecord(t0, t0, (-73.999, 40.701), (-73.901, 40.799), None, None)
        series, _ = build_demand_tensor(
            [rec], stations, timedelta(minutes=30), bin_start=t0, num_bins=1
        )
        assert series.values[0, 0, 0] == 1.0
        assert series.values[0, 1, 1] == 1.0

    def test_unknown_dock_and_out_of_span_skipped(self):
        stations = StationSet([Station(0, 0.0, 0.0, 0)], "dock_based", labels=["s"])
        t0 = datetime(2016, 4, 1)
        recs = [
            TripRecord(t0, t0, "mystery", "s", None, None),
            TripRecord(t0 + timedelta(days=2), t0 + timedelta(days=2), "s", "s", None, None),
        ]
        series, skipped = build_demand_tensor(
            recs, stations, timedelta(minutes=30), bin_start=t0, num_bins=4
        )
        assert skipped == 3  # unknown pickup + both out-of-span events
        assert series.values.sum() == 1.0  # only the first record's dropoff

    def test_whole_bin_count_covers_span(self):
        stations = StationSet([Station(0, 0.0, 0.0, 0)], "dock_based", labels=["s"])
        first = datetime(2016, 4, 1, 0, 5)
        last = datetime(2016, 6, 30, 23, 45)  # 91 days later
        recs = [
            TripRecord(first, first, "s", "s", None, None),
            TripRecord(last, last, "s", "s", None, None),
        ]
        series, skipped = build_demand_tensor(recs, stations, timedelta(minutes=30))
        assert skipped == 0
        assert series.values.shape[0] == 91 * 48
        assert series.bin_start == datetime(2016, 4, 1, 0, 0)


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
