"""On-disk formats, config plumbing, and the command-line pipeline end to end."""

import errno
import json
import math
import shutil
import tempfile
from dataclasses import asdict
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ccrnn.persist
from ccrnn.cgc import count_parameters
from ccrnn.cli import _restore_run, main
from ccrnn.config import ConfigError, RunConfig, apply_overrides, load_config
from ccrnn.graphgen import VARIANTS
from ccrnn.persist import (
    CHECKPOINT_VERSION,
    Checkpoint,
    FormatError,
    VersionError,
    load_checkpoint,
    read_demand_blob,
    read_sidecar,
    save_checkpoint,
    write_demand_blob,
    write_sidecar,
)


class TestDemandBlob:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        values = rng.uniform(0, 40, size=(9, 4, 2)).round()
        path = tmp_path / "demand.dmd1"
        write_demand_blob(path, values)
        back = read_demand_blob(path)
        np.testing.assert_array_equal(back, values)

    def test_layout_is_exactly_as_documented(self, tmp_path):
        values = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
        path = tmp_path / "demand.dmd1"
        write_demand_blob(path, values)
        raw = path.read_bytes()
        assert raw[:4] == b"DMD1"
        assert np.frombuffer(raw, dtype="<u8", count=3, offset=4).tolist() == [2, 3, 2]
        assert len(raw) == 4 + 24 + 12 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.dmd1"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_demand_blob(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "short.dmd1"
        write_demand_blob(path, np.ones((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            read_demand_blob(path)


class TestSidecar:
    def test_round_trip_preserves_order(self, tmp_path):
        path = tmp_path / "meta"
        entries = {"bin_start": "2016-04-01T00:00:00", "stations": "4", "kind": "dock_based"}
        write_sidecar(path, entries)
        assert read_sidecar(path) == entries
        assert list(read_sidecar(path)) == list(entries)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "meta"
        path.write_text("no separator here\n")
        with pytest.raises(FormatError):
            read_sidecar(path)


class TestCheckpoint:
    def make(self):
        rng = np.random.default_rng(62)
        return Checkpoint(
            meta={"kind": "model", "best_val_rmse": "0.25"},
            config={"p": "12", "variant": "full"},
            scaler_mean=np.array([3.5, 4.25]),
            scaler_std=np.array([1.5, 2.0]),
            stations_csv="id,lon,lat,member_count\n0,-74.0,40.7,10\n",
            tensors={
                "encoder.graph.e1": rng.standard_normal((5, 2)),
                "proj.bias": rng.standard_normal(2),
            },
        )

    def test_round_trip_bitwise(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.meta == ckpt.meta
        assert back.config == ckpt.config
        np.testing.assert_array_equal(back.scaler_mean, ckpt.scaler_mean)
        assert back.stations_csv == ckpt.stations_csv
        for name, arr in ckpt.tensors.items():
            np.testing.assert_array_equal(back.tensors[name], arr)

        # save(load(x)) must reproduce the file byte for byte
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(path2, back)
        assert path2.read_bytes() == path.read_bytes()

    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, self.make())
        raw = path.read_bytes().replace(b"ccrnn-checkpoint v1", b"ccrnn-checkpoint v9", 1)
        path.write_bytes(raw)
        with pytest.raises(VersionError) as err:
            load_checkpoint(path)
        assert "v9" in str(err.value)
        assert CHECKPOINT_VERSION in str(err.value)

    def corrupt(self, tmp_path, line, edited):
        """A saved checkpoint with one manifest line replaced."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self.make())
        raw = path.read_bytes()
        assert raw.count(line) == 1
        path.write_bytes(raw.replace(line, edited))
        return path

    def test_entry_must_start_where_the_previous_ends(self, tmp_path):
        # proj.bias pointed back at the bytes of encoder.graph.e1
        path = self.corrupt(tmp_path, b"param/proj.bias 2 80 16", b"param/proj.bias 2 0 16")
        with pytest.raises(FormatError, match="starts at byte 0, not 80"):
            load_checkpoint(path)

    def test_entry_size_must_match_its_shape(self, tmp_path):
        path = self.corrupt(tmp_path, b"param/proj.bias 2 80 16", b"param/proj.bias 2 80 23")
        with pytest.raises(FormatError, match="has 23 bytes for shape"):
            load_checkpoint(path)

    def test_entries_must_cover_the_whole_payload(self, tmp_path):
        path = self.corrupt(tmp_path, b"param/proj.bias 2 80 16", b"param/proj.bias 1 80 8")
        with pytest.raises(FormatError, match="end at byte 88 of a 96-byte payload"):
            load_checkpoint(path)

    def test_scalar_free_sections_optional(self, tmp_path):
        ckpt = Checkpoint(meta={"kind": "graph"}, tensors={"e1": np.ones((3, 2))})
        path = tmp_path / "graph.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.scaler_mean is None
        assert back.stations_csv is None
        assert back.config == {}


class _FullDisk:
    """A file whose first write lands half its bytes, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    writers = {
        "demand.dmd1": lambda path, v: write_demand_blob(path, np.full((2, 3, 2), v)),
        "demand.meta": lambda path, v: write_sidecar(path, {"bins": str(v)}),
        "model.ckpt": lambda path, v: save_checkpoint(
            path, Checkpoint(meta={"kind": "model"}, tensors={"e1": np.full((3, 2), v)})
        ),
    }
    for name, write in writers.items():
        write(tmp_path / name, 1.0)
    before = {name: (tmp_path / name).read_bytes() for name in writers}

    monkeypatch.setattr(
        ccrnn.persist, "open", lambda path, mode="r": _FullDisk(open(path, mode)), raising=False
    )
    for name, write in writers.items():
        with pytest.raises(OSError, match="No space"):
            write(tmp_path / name, 2.0)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)  # no temp left
    for name in writers:
        assert (tmp_path / name).read_bytes() == before[name], name


def _valid_artifacts():
    """One well-formed file per reader, as (reader, bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_demand_blob(tmp / "blob", np.arange(12.0).reshape(2, 3, 2))
        write_sidecar(tmp / "meta", {"bin_start": "2016-04-01T00:00:00", "stations": "3"})
        save_checkpoint(tmp / "ckpt", TestCheckpoint().make())
        return {
            "blob": (read_demand_blob, (tmp / "blob").read_bytes()),
            "sidecar": (read_sidecar, (tmp / "meta").read_bytes()),
            "checkpoint": (load_checkpoint, (tmp / "ckpt").read_bytes()),
        }


VALID_ARTIFACTS = _valid_artifacts()

MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("replace"), st.binary(max_size=300)),
)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "truncate":
        return raw[: args[0] % (len(raw) + 1)]
    if kind == "flip":
        at = args[0] % len(raw)
        return raw[:at] + bytes([raw[at] ^ (1 << args[1])]) + raw[at + 1 :]
    return args[0]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(sorted(VALID_ARTIFACTS)), mutation=MUTATIONS)
@example(reader="blob", mutation=("truncate", 5))
@example(reader="sidecar", mutation=("replace", b"kind: \xff\n"))
@example(reader="checkpoint", mutation=("replace", b"ccrnn-checkpoint v1\n[meta]\nkind=x\n"))
@example(
    reader="checkpoint",
    mutation=("replace", b"ccrnn-checkpoint v1\n[tensors]\nadam_m/w - 0 8\n[payload 8]\n" + bytes(8)),
)
def test_readers_raise_only_format_error(tmp_path, reader, mutation):
    read, raw = VALID_ARTIFACTS[reader]
    path = tmp_path / reader
    path.write_bytes(_mutate(raw, mutation))
    try:
        read(path)
    except FormatError:
        pass


class TestRunConfig:
    def test_defaults_are_reference_setup(self):
        config = RunConfig()
        assert (config.p, config.q) == (12, 12)
        assert config.xi == 20
        assert config.rank == 50
        assert config.m_layers == 3
        assert config.k_hops == 3
        assert config.beta == 25
        assert config.bin_minutes == 30
        assert config.learning_rate == 5e-4
        assert config.batch_size == 64

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig(epochs=0)

    def test_load_and_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"p": 6, "seed": 3, "out_dir": "a"}))
        config = load_config(path)
        assert config.p == 6
        merged = apply_overrides(config, seed=9, out_dir=None)
        assert merged.seed == 9
        assert merged.out_dir == "a"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"made_up": 1}))
        with pytest.raises(ConfigError, match="made_up"):
            load_config(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", math.nan),
            ("epsilon", math.inf),
            ("sampling_decay", math.inf),
            ("dc_quantile", math.nan),
            ("p", math.inf),
            ("rect", [-75.0, 40.0, math.nan, 41.0]),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.json"
        raw = {"pickup_lon_col": "a", "pickup_lat_col": "b",
               "dropoff_lon_col": "c", "dropoff_lat_col": "d", key: value}
        path.write_text(json.dumps(raw))  # NaN and Infinity, which json.load accepts
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(path)


# ---------------------------------------------------------------------------
# pipeline fixtures: four docks, twelve-hour bins, four synthetic weeks
# ---------------------------------------------------------------------------

BIN_MINUTES = 720  # 14 bins per week keeps the held-out weeks small
DOCKS = ["7", "30", "100", "205"]
DOCK_COORDS = {
    "7": (-74.00, 40.70),
    "30": (-73.99, 40.71),
    "100": (-73.98, 40.72),
    "205": (-73.97, 40.73),
}


def write_fixture_csv(path, days=28):
    rng = np.random.default_rng(99)
    t0 = datetime(2016, 4, 1)
    width = timedelta(minutes=BIN_MINUTES)
    rows = ["t_pick,t_drop,pstation,dstation,plon,plat,dlon,dlat"]
    bins = days * 24 * 60 // BIN_MINUTES
    for b in range(bins):
        for i, dock in enumerate(DOCKS):
            trips = 3 + int(round(2 * np.sin(2 * np.pi * b / 14 + i)))
            for _ in range(trips):
                start = t0 + b * width + timedelta(minutes=float(rng.uniform(0, BIN_MINUTES - 40)))
                end = start + timedelta(minutes=float(rng.uniform(5, 30)))
                drop = DOCKS[(i + 1) % len(DOCKS)]
                plon, plat = DOCK_COORDS[dock]
                dlon, dlat = DOCK_COORDS[drop]
                rows.append(
                    f"{start.isoformat(sep=' ')},{end.isoformat(sep=' ')},"
                    f"{dock},{drop},{plon},{plat},{dlon},{dlat}"
                )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def pipeline_config(tmp_path, out_name="run"):
    trips = tmp_path / "trips.csv"
    if not trips.exists():
        write_fixture_csv(trips)
    return {
        "trips_csv": str(trips),
        "pickup_time_col": "t_pick",
        "dropoff_time_col": "t_drop",
        "pickup_station_col": "pstation",
        "dropoff_station_col": "dstation",
        "pickup_lon_col": "plon",
        "pickup_lat_col": "plat",
        "dropoff_lon_col": "dlon",
        "dropoff_lat_col": "dlat",
        "bin_minutes": BIN_MINUTES,
        "station_mode": "dock_based",
        "keep_stations": 4,
        "val_weeks": 1,
        "test_weeks": 1,
        "p": 4,
        "q": 4,
        "xi": 2,
        "rank": 2,
        "m_layers": 2,
        "k_hops": 2,
        "beta": 4,
        "learning_rate": 2e-3,
        "epochs": 2,
        "batch_size": 16,
        "seed": 11,
        "patience": 5,
        "out_dir": str(tmp_path / out_name),
    }


def write_config(tmp_path, name="config.json", **changes):
    raw = pipeline_config(tmp_path)
    raw.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path, raw


def run_pipeline(config_path, commands=("ingest", "build-graph", "train", "evaluate")):
    for command in commands:
        code = main([command, "--config", str(config_path)])
        assert code == 0, f"{command} failed"


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path, capsys):
        config_path, raw = write_config(tmp_path)
        run_pipeline(config_path)
        out = tmp_path / "run"
        for artifact in (
            "demand.dmd1",
            "demand.meta",
            "stations.csv",
            "graph.ckpt",
            "model.ckpt",
            "history.csv",
            "metrics.csv",
            "metrics.txt",
            "config.json",
        ):
            assert (out / artifact).exists(), artifact
        assert not (out / ".lock").exists()

        meta = read_sidecar(out / "demand.meta")
        assert meta["stations"] == "4"
        assert meta["kind"] == "dock_based"
        history = (out / "history.csv").read_text()
        assert history.startswith("epoch,train_loss,val_rmse")
        metrics = (out / "metrics.csv").read_text()
        assert metrics.startswith("horizon,hours,rmse,mae,pcc")
        captured = capsys.readouterr()
        assert "rows:" in captured.out  # ingest tally echoed

    def test_predict_row_count(self, tmp_path):
        config_path, raw = write_config(tmp_path)
        run_pipeline(config_path, ("ingest", "build-graph", "train", "predict"))
        lines = (tmp_path / "run" / "forecast.csv").read_text().strip().split("\n")
        assert lines[0] == "time_bin,station_id,pickup,dropoff"
        assert len(lines) == 1 + raw["q"] * 4

    def test_predict_writes_finite_numbers(self, tmp_path):
        config_path, raw = write_config(tmp_path)
        run_pipeline(config_path, ("ingest", "build-graph", "train", "predict"))
        rows = (tmp_path / "run" / "forecast.csv").read_text().strip().split("\n")[1:]
        values = [float(v) for row in rows for v in row.split(",")[2:]]
        assert len(values) == 2 * raw["q"] * 4
        assert all(math.isfinite(v) for v in values)

    def test_bin_width_comes_from_the_ingested_data(self, tmp_path):
        """Ingest at 12 h bins, run every later stage with a 6 h config."""
        ingest_path, _ = write_config(tmp_path, name="ingest.json")
        later_path, raw = write_config(tmp_path, name="later.json", bin_minutes=360)
        run_pipeline(ingest_path, ("ingest",))
        run_pipeline(later_path, ("build-graph", "train", "evaluate", "predict"))
        out = tmp_path / "run"
        horizons = (out / "metrics.csv").read_text().strip().split("\n")[2:]
        hours = [float(row.split(",")[1]) for row in horizons]
        assert hours == [12.0 * h for h in range(1, raw["q"] + 1)]
        rows = (out / "forecast.csv").read_text().strip().split("\n")[1:]
        stamps = sorted({datetime.fromisoformat(row.split(",")[0]) for row in rows})
        assert len(stamps) == raw["q"]
        assert {b - a for a, b in zip(stamps, stamps[1:])} == {timedelta(hours=12)}

    def test_rerun_is_byte_identical(self, tmp_path):
        import shutil

        config_path, _ = write_config(tmp_path)
        out = tmp_path / "run"
        artifacts = ("demand.dmd1", "stations.csv", "graph.ckpt", "model.ckpt",
                     "history.csv", "metrics.csv")
        run_pipeline(config_path)
        first = {name: (out / name).read_bytes() for name in artifacts}
        shutil.rmtree(out)
        run_pipeline(config_path)
        for name in artifacts:
            assert (out / name).read_bytes() == first[name], name

    def test_hand_binned_golden_tensor(self, tmp_path):
        """Ten hand-written rows over two docks; the expected tensor is derived by hand."""
        trips = tmp_path / "tiny.csv"
        rows = ["t_pick,t_drop,pstation,dstation,plon,plat,dlon,dlat"]
        t0 = datetime(2016, 4, 1)
        picks = [0, 0, 1, 3, 5, 7, 7, 7, 9, 11]  # bin of each pickup (30-min bins)
        for j, b in enumerate(picks):
            dock = "a" if j % 2 == 0 else "b"
            other = "b" if dock == "a" else "a"
            start = t0 + timedelta(minutes=30 * b + 5)
            end = start + timedelta(minutes=30)  # dropoff lands in bin b+1
            lon = -74.0 if dock == "a" else -73.9
            dlon = -74.0 if other == "a" else -73.9
            rows.append(
                f"{start.isoformat(sep=' ')},{end.isoformat(sep=' ')},"
                f"{dock},{other},{lon},40.7,{dlon},40.7"
            )
        trips.write_text("\n".join(rows) + "\n")

        out = tmp_path / "golden"
        config = {
            "trips_csv": str(trips),
            "pickup_time_col": "t_pick",
            "dropoff_time_col": "t_drop",
            "pickup_station_col": "pstation",
            "dropoff_station_col": "dstation",
            "pickup_lon_col": "plon",
            "pickup_lat_col": "plat",
            "dropoff_lon_col": "dlon",
            "dropoff_lat_col": "dlat",
            "bin_minutes": 30,
            "keep_stations": 2,
            "out_dir": str(out),
        }
        config_path = tmp_path / "golden.json"
        config_path.write_text(json.dumps(config))
        assert main(["ingest", "--config", str(config_path)]) == 0

        values = read_demand_blob(out / "demand.dmd1")
        want = np.zeros((13, 2, 2))
        for j, b in enumerate(picks):
            s = 0 if j % 2 == 0 else 1
            want[b, s, 0] += 1  # pickup
            want[b + 1, 1 - s, 1] += 1  # dropoff at the other dock, next bin
        np.testing.assert_array_equal(values, want)

    def test_graph_build_ignores_heldout_bins(self, tmp_path):
        """Poison validation/test bins with NaN; the factors must stay finite."""
        config_path, raw = write_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        values = read_demand_blob(out / "demand.dmd1")
        train_bins = values.shape[0] - 2 * 14  # two held-out synthetic weeks
        values[train_bins:] = np.nan
        write_demand_blob(out / "demand.dmd1", values)
        assert main(["build-graph", "--config", str(config_path)]) == 0
        graph = load_checkpoint(out / "graph.ckpt")
        assert np.isfinite(graph.tensors["e1"]).all()
        assert np.isfinite(graph.tensors["e2"]).all()

    def test_epsilon_override_is_logged(self, tmp_path, capsys):
        config_path, raw = write_config(tmp_path, epsilon=0.75)
        run_pipeline(config_path, ("ingest", "build-graph"))
        captured = capsys.readouterr()
        assert "epsilon=0.75 (override)" in captured.out
        graph = load_checkpoint(tmp_path / "run" / "graph.ckpt")
        assert graph.meta["epsilon"] == "0.75"
        assert graph.meta["epsilon_source"] == "override"

    def test_variant_flag_switches_graph_init(self, tmp_path):
        config_path, raw = write_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert (
            main(["build-graph", "--config", str(config_path), "--variant", "distance_init"])
            == 0
        )
        graph = load_checkpoint(tmp_path / "run" / "graph.ckpt")
        assert graph.meta["variant"] == "distance_init"

    def test_random_init_graph_does_not_repeat_the_weight_draws(self, tmp_path):
        """The random graph and the model's first filter come from different streams."""
        config_path, _ = write_config(tmp_path, variant="random_init")
        run_pipeline(config_path, ("ingest", "build-graph", "train"))
        out = tmp_path / "run"
        graph = load_checkpoint(out / "graph.ckpt").tensors
        draws = np.concatenate([graph["e1"].ravel(), graph["e2"].ravel()])
        weights = load_checkpoint(out / "model.ckpt").tensors["encoder.reset.layer0.theta0"]
        first = weights.ravel()[: draws.size]
        assert abs(np.corrcoef(draws, first)[0, 1]) < 0.9

    def test_ablate_rows_equal_the_per_variant_pipeline(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        run_pipeline(config_path, ("ingest", "ablate"))
        out = tmp_path / "run"
        rows = (out / "ablation.csv").read_text().strip().split("\n")
        assert rows[0] == "variant,rmse,mae,pcc,best_val_rmse,parameters"
        assert [row.split(",")[0] for row in rows[1:]] == list(VARIANTS)
        for variant, row in zip(VARIANTS, rows[1:]):
            for command in ("build-graph", "train", "evaluate"):
                assert main([command, "--config", str(config_path), "--variant", variant]) == 0
            overall = (out / "metrics.csv").read_text().split("\n")[1].split(",")[2:]
            best_val = float(load_checkpoint(out / "model.ckpt").meta["best_val_rmse"])
            params = count_parameters(_restore_run(out)[2].named_parameters())
            assert row == ",".join([variant, *overall, f"{best_val:.10g}", str(params)])


def _old_config_section(raw: dict) -> dict:
    """A `[config]` as train wrote it before it stored JSON values."""
    def text(value):
        if value is None:
            return ""
        if isinstance(value, list):
            return ",".join(repr(float(v)) for v in value)
        return str(value)

    return {key: text(value) for key, value in asdict(RunConfig(**raw)).items()}


class TestStoredConfig:
    """model.ckpt carries the RunConfig that trained it; evaluate and predict read only that."""

    def test_config_round_trips_through_the_checkpoint(self, tmp_path):
        ingest_path, _ = write_config(tmp_path)
        trained_path, _ = write_config(
            tmp_path, name="trained.json", trips_csv=None, epsilon=0.75,
            rect=[-75.0, 40.0, -73.0, 41.5],
        )
        run_pipeline(ingest_path, ("ingest",))
        run_pipeline(trained_path, ("build-graph", "train"))
        trained = load_config(trained_path)
        assert (trained.trips_csv, trained.epsilon) == (None, 0.75)
        assert _restore_run(tmp_path / "run")[1] == trained

    @pytest.mark.parametrize("damage", ["old_encoding", "beta_zero"])
    @pytest.mark.parametrize("command, output", [("evaluate", "metrics.csv"),
                                                 ("predict", "forecast.csv")])
    def test_bad_stored_config_exits_1(self, tmp_path, capsys, damage, command, output):
        config_path, raw = write_config(tmp_path)
        run_pipeline(config_path, ("ingest", "build-graph", "train"))
        path = tmp_path / "run" / "model.ckpt"
        ckpt = load_checkpoint(path)
        if damage == "old_encoding":
            ckpt.config = _old_config_section(raw)
        else:
            ckpt.config["beta"] = "0"
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "model.ckpt" in err and "rerun train" in err
        assert not (tmp_path / "run" / output).exists()

    def test_evaluate_and_predict_ignore_the_given_config(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        other_path, _ = write_config(
            tmp_path, name="other.json", p=6, q=2, beta=8, m_layers=3, k_hops=1,
            val_weeks=0, test_weeks=2, variant="no_coupling", seed=5,
        )
        out = tmp_path / "run"
        outputs = ("metrics.csv", "metrics.txt", "forecast.csv")
        run_pipeline(config_path, ("ingest", "build-graph", "train", "evaluate", "predict"))
        trained = {name: (out / name).read_bytes() for name in outputs}
        for args in (["--config", str(other_path)],
                     ["--config", str(config_path), "--variant", "no_adaptive"]):
            for name in outputs:
                (out / name).unlink()
            for command in ("evaluate", "predict"):
                assert main([command, *args]) == 0
            for name in outputs:
                assert (out / name).read_bytes() == trained[name], (args, name)


def test_every_output_is_written_atomically(tmp_path, monkeypatch):
    """No command writes a file in place: every output goes through persist."""
    config_path, _ = write_config(tmp_path)

    def refuse(path, *args, **kwargs):
        raise AssertionError(f"{path} written in place")

    monkeypatch.setattr(Path, "write_text", refuse)
    monkeypatch.setattr(Path, "write_bytes", refuse)
    run_pipeline(config_path, ("ingest", "build-graph", "train", "evaluate", "predict", "ablate"))
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert {"stations.csv", "history.csv", "metrics.csv", "metrics.txt", "forecast.csv",
            "ablation.csv", "config.json"} <= names


class TestMixedIngest:
    """demand.dmd1, demand.meta and stations.csv must come from one ingest."""

    def four_docks_with_three_stations(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        fewer_path, _ = write_config(tmp_path, name="fewer.json", keep_stations=3,
                                     out_dir=str(tmp_path / "fewer"))
        run_pipeline(config_path, ("ingest",))
        run_pipeline(fewer_path, ("ingest",))
        shutil.copy(tmp_path / "fewer" / "stations.csv", tmp_path / "run" / "stations.csv")
        return config_path

    @pytest.mark.parametrize("variant", ["full", "distance_init"])
    def test_foreign_stations_csv_exits_1(self, tmp_path, capsys, variant):
        config_path = self.four_docks_with_three_stations(tmp_path)
        for command in ("build-graph", "train", "ablate"):
            assert main([command, "--config", str(config_path), "--variant", variant]) == 1
            assert "rerun ingest" in capsys.readouterr().err
        assert not (tmp_path / "run" / "graph.ckpt").exists()

    def test_blob_of_another_ingest_exits_1(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        run_pipeline(config_path, ("ingest",))
        blob = tmp_path / "run" / "demand.dmd1"
        write_demand_blob(blob, read_demand_blob(blob)[:-14])
        assert main(["build-graph", "--config", str(config_path)]) == 1
        assert "rerun ingest" in capsys.readouterr().err


class TestCliErrors:
    def test_missing_column_exits_2(self, tmp_path, capsys):
        config_path, raw = write_config(tmp_path, pickup_station_col="nonexistent")
        assert main(["ingest", "--config", str(config_path)]) == 2
        assert "nonexistent" in capsys.readouterr().err

    def test_nan_learning_rate_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, learning_rate=math.nan)
        assert main(["train", "--config", str(config_path)]) == 2
        assert "learning_rate must be finite" in capsys.readouterr().err

    def test_zero_epochs_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(config_path)]) == 2
        assert "epochs" in capsys.readouterr().err

    def test_rect_without_coordinate_columns_exits_2(self, tmp_path, capsys):
        no_coords = dict.fromkeys(
            ("pickup_lon_col", "pickup_lat_col", "dropoff_lon_col", "dropoff_lat_col")
        )
        config_path, _ = write_config(tmp_path, rect=[0.0, 0.0, 1.0, 1.0], **no_coords)
        assert main(["ingest", "--config", str(config_path)]) == 2
        assert "coordinate columns" in capsys.readouterr().err

    def test_dock_config_without_coordinate_columns_exits_2(self, tmp_path, capsys):
        no_coords = dict.fromkeys(
            ("pickup_lon_col", "pickup_lat_col", "dropoff_lon_col", "dropoff_lat_col")
        )
        config_path, _ = write_config(tmp_path, **no_coords)
        assert main(["ingest", "--config", str(config_path)]) == 2
        assert "coordinate columns" in capsys.readouterr().err
        assert not (tmp_path / "run" / "demand.dmd1").exists()

    def test_inverted_rect_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path, rect=[1.0, 0.0, 0.0, 1.0])
        assert main(["ingest", "--config", str(config_path)]) == 2
        assert "rect" in capsys.readouterr().err

    def test_missing_artifacts_exit_1(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 1

    def test_version_mismatch_exits_1_with_versions(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        run_pipeline(config_path, ("ingest", "build-graph", "train"))
        ckpt_path = tmp_path / "run" / "model.ckpt"
        raw = ckpt_path.read_bytes().replace(
            b"ccrnn-checkpoint v1", b"ccrnn-checkpoint v0", 1
        )
        ckpt_path.write_bytes(raw)
        assert main(["evaluate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "v0" in err and "v1" in err

    def test_locked_output_dir_exits_1(self, tmp_path, capsys):
        config_path, raw = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("12345\n")
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "locked" in capsys.readouterr().err
        (out / ".lock").unlink()

    def test_graph_of_another_variant_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        run_pipeline(config_path, ("ingest",))
        assert main(["build-graph", "--config", str(config_path), "--variant", "random_init"]) == 0
        assert main(["train", "--config", str(config_path)]) == 2
        assert "random_init" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_graph_of_another_rank_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        rank3_path, _ = write_config(tmp_path, name="rank3.json", rank=3)
        run_pipeline(config_path, ("ingest", "build-graph"))
        assert main(["train", "--config", str(rank3_path)]) == 2
        assert "rank 3" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_graph_of_another_station_count_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        fewer_path, _ = write_config(tmp_path, name="fewer.json", keep_stations=3)
        run_pipeline(config_path, ("ingest", "build-graph"))
        run_pipeline(fewer_path, ("ingest",))
        assert main(["train", "--config", str(fewer_path)]) == 2
        assert "3 stations" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_unknown_variant_flag_rejected_by_argparse(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config_path), "--variant", "bogus"])
        assert exc.value.code == 2
