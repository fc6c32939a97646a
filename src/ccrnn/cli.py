"""Command-line front end tying the pipeline together.

Subcommands: ingest, build-graph, train, evaluate, predict, ablate. Every
command is a pure function of (config file, input artifacts, seed); artifacts
carry no timestamps, so reruns are byte-identical. Exit codes: 0 success,
1 runtime failure, 2 configuration or schema error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .ccgru import build_model
from .cgc import count_parameters
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .graphgen import VARIANTS, FactorPair, variant_graph
from .ingest import (
    SchemaError,
    StationSet,
    bins_per_week,
    build_demand_tensor,
    fit_scaler,
    parse_trip_records,
    select_top_stations,
    split_by_bins,
    stations_from_records,
    virtual_stations,
    Scaler,
)
from .persist import (
    Checkpoint,
    load_checkpoint,
    read_demand_blob,
    read_sidecar,
    save_checkpoint,
    write_demand_blob,
    write_sidecar,
)
from .tensor import Tensor
from .training import (
    TrainingData,
    evaluate,
    history_csv,
    make_windows,
    predict_in_batches,
    train,
)

DEMAND_BLOB = "demand.dmd1"
DEMAND_META = "demand.meta"
STATIONS_CSV = "stations.csv"
GRAPH_CKPT = "graph.ckpt"
MODEL_CKPT = "model.ckpt"


@contextmanager
def output_lock(out_dir: Path):
    """One command per output directory at a time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise RuntimeError(
            f"output directory {out_dir} is locked by another command "
            f"(remove {lock} if stale)"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def _load_demand(out: Path):
    values = read_demand_blob(out / DEMAND_BLOB)
    meta = read_sidecar(out / DEMAND_META)
    stations = StationSet.from_csv(
        (out / STATIONS_CSV).read_text(encoding="utf-8"), kind=meta["kind"]
    )
    return values, meta, stations


def _split_for(config: RunConfig, values: np.ndarray, meta: dict[str, str]):
    """The config's holdout weeks, counted in the ingested data's bins."""
    return split_by_bins(
        values.shape[0],
        bins_per_week(int(meta["bin_width_seconds"])),
        config.p,
        config.q,
        config.val_weeks,
        config.test_weeks,
    )


def _graph(config: RunConfig, train_demand: np.ndarray, stations: StationSet):
    """The variant's starting graph, its epsilon and where that came from.

    `random_init` draws from a child of the seed's stream, so its factors
    do not repeat the model's first weight draws in `_model`.
    """
    return variant_graph(
        config.variant,
        train_demand,
        stations.lons,
        stations.lats,
        xi=config.xi,
        rank=config.rank,
        epsilon=config.epsilon,
        rng=np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0]),
    )


def _model(config: RunConfig, e1: np.ndarray, e2: np.ndarray, channels: int):
    """The variant's forecaster around the graph factors, weights seeded by the config."""
    return build_model(
        config.variant,
        FactorPair(e1=Tensor(e1), e2=Tensor(e2)),
        channels=channels,
        beta=config.beta,
        m_layers=config.m_layers,
        k_hops=config.k_hops,
        rng=np.random.default_rng(config.seed),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ingest(config: RunConfig, out: Path) -> int:
    if config.trips_csv is None:
        raise ConfigError("ingest needs trips_csv in the config")
    trips, tally = parse_trip_records(
        config.trips_csv, config.column_schema(), config.study_rect()
    )
    print(tally.describe())
    if not trips:
        raise RuntimeError("no usable records after filtering")

    if config.station_mode == "dock_based":
        docks = stations_from_records(trips)
        stations = docks
        if config.keep_stations < docks.n:
            stations = select_top_stations(docks, config.keep_stations)
    else:
        stations = virtual_stations(
            trips,
            config.num_virtual_stations,
            dc_quantile=config.dc_quantile,
            max_points=config.cluster_max_points,
            seed=config.seed,
        )
    series, skipped = build_demand_tensor(trips, stations, config.bin_width)

    write_demand_blob(out / DEMAND_BLOB, series.values)
    write_sidecar(
        out / DEMAND_META,
        {
            "bin_start": series.bin_start.isoformat(),
            "bin_width_seconds": str(int(series.bin_width.total_seconds())),
            "bins": str(series.values.shape[0]),
            "stations": str(series.values.shape[1]),
            "channels": str(series.values.shape[2]),
            "kind": stations.kind,
            "records_accepted": str(tally.accepted),
            "events_skipped": str(skipped),
        },
    )
    (out / STATIONS_CSV).write_text(stations.to_csv(), encoding="utf-8")
    print(
        f"demand tensor {series.values.shape} "
        f"({tally.accepted} records, {skipped} events skipped)"
    )
    return 0


def cmd_build_graph(config: RunConfig, out: Path) -> int:
    values, meta, stations = _load_demand(out)
    split = _split_for(config, values, meta)
    train_demand = values[split.train.start : split.train.stop]

    flat = np.flatnonzero(train_demand.std(axis=0).sum(axis=1) == 0)
    if flat.size:
        print(
            f"warning: {flat.size} station(s) with zero training variance "
            f"(first few: {flat[:5].tolist()}); retained"
        )

    pair, epsilon, epsilon_source = _graph(config, train_demand, stations)
    ckpt = Checkpoint(
        meta={
            "kind": "graph",
            "variant": config.variant,
            "epsilon": repr(epsilon),
            "epsilon_source": epsilon_source,
            "xi": str(config.xi),
            "rank": str(config.rank),
            "train_bins": str(len(split.train)),
        },
        tensors={"e1": pair.e1.data, "e2": pair.e2.data},
    )
    save_checkpoint(out / GRAPH_CKPT, ckpt)
    if epsilon_source != "n/a":
        print(f"epsilon={epsilon!r} ({epsilon_source})")
    print(f"graph factors {pair.e1.data.shape} written ({config.variant})")
    return 0


def _standardized(config: RunConfig, out: Path):
    values, meta, stations = _load_demand(out)
    split = _split_for(config, values, meta)
    scaler = fit_scaler(values, split.train)
    return values, meta, stations, split, scaler, scaler.apply(values)


def cmd_train(config: RunConfig, out: Path) -> int:
    values, meta, stations, split, scaler, std_series = _standardized(config, out)
    graph = load_checkpoint(out / GRAPH_CKPT)
    e1, e2 = graph.tensors["e1"], graph.tensors["e2"]
    if graph.meta.get("variant") != config.variant or e1.shape != (stations.n, config.rank):
        raise ConfigError(
            f"{GRAPH_CKPT} holds a {graph.meta.get('variant')} graph of shape {e1.shape}, "
            f"but the config trains {config.variant} on {stations.n} stations at rank "
            f"{config.rank}; rerun build-graph"
        )
    model = _model(config, e1, e2, channels=std_series.shape[2])
    data = TrainingData.from_series(std_series, split)
    result = train(model, data, config, log=print)

    ckpt = Checkpoint(
        meta={
            "kind": "model",
            "variant": config.variant,
            "best_val_rmse": repr(result.best_val_rmse),
            "best_epoch": str(result.best_epoch),
            "iterations": str(result.iterations),
            "stations": str(stations.n),
            "bin_start": meta["bin_start"],
            "bin_width_seconds": meta["bin_width_seconds"],
        },
        config={k: _cfg_str(v) for k, v in asdict(config).items()},
        scaler_mean=scaler.mean,
        scaler_std=scaler.std,
        stations_csv=stations.to_csv(),
        tensors={name: p.data for name, p in model.named_parameters().items()},
    )
    save_checkpoint(out / MODEL_CKPT, ckpt)
    (out / "history.csv").write_text(history_csv(result.history), encoding="utf-8")
    print(
        f"best val_rmse {result.best_val_rmse:.6f} at epoch {result.best_epoch} "
        f"({result.iterations} iterations)"
    )
    return 0


def _cfg_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _restore_run(out: Path):
    """The trained model, its checkpoint and scaler, and the demand series.

    The model's shape comes from the checkpoint alone; its parameters must
    match the rebuilt model name for name and shape.
    """
    ckpt = load_checkpoint(out / MODEL_CKPT)
    cfg = ckpt.config
    zeros = np.zeros((int(ckpt.meta["stations"]), int(cfg["rank"])))
    model = build_model(
        cfg["variant"],
        FactorPair(e1=Tensor(zeros), e2=Tensor(zeros)),
        channels=len(ckpt.tensors.get("proj.bias", ())),
        beta=int(cfg["beta"]),
        m_layers=int(cfg["m_layers"]),
        k_hops=int(cfg["k_hops"]),
        rng=np.random.default_rng(0),
    )
    params = model.named_parameters()
    if set(params) != set(ckpt.tensors):
        missing = sorted(set(params) ^ set(ckpt.tensors))[:5]
        raise ValueError(f"checkpoint parameter set does not match model (e.g. {missing})")
    for name, p in params.items():
        arr = ckpt.tensors[name]
        if arr.shape != p.shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {p.shape}")
        p.data = arr.copy()
    scaler = Scaler(mean=ckpt.scaler_mean, std=ckpt.scaler_std)
    return ckpt, model, scaler, read_demand_blob(out / DEMAND_BLOB)


def cmd_evaluate(config: RunConfig, out: Path) -> int:
    ckpt, model, scaler, values = _restore_run(out)
    cfg, width_s = ckpt.config, int(ckpt.meta["bin_width_seconds"])
    split = split_by_bins(
        values.shape[0],
        bins_per_week(width_s),
        *(int(cfg[key]) for key in ("p", "q", "val_weeks", "test_weeks")),
    )
    tx, ty = make_windows(scaler.apply(values), split.test, split.p, split.q)
    report = evaluate(model, tx, ty, scaler=scaler, bin_hours=width_s / 3600.0)
    (out / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "metrics.txt").write_text(report.summary(), encoding="utf-8")
    print(report.summary(), end="")
    return 0


def cmd_predict(config: RunConfig, out: Path) -> int:
    ckpt, model, scaler, values = _restore_run(out)
    p, q = int(ckpt.config["p"]), int(ckpt.config["q"])
    window = scaler.apply(values[-p:])[None]  # (1, P, N, d)
    pred = scaler.invert(predict_in_batches(model, window, q))[0]  # (Q, N, d)

    bin_start = datetime.fromisoformat(ckpt.meta["bin_start"])
    width = timedelta(seconds=int(ckpt.meta["bin_width_seconds"]))
    t_bins = values.shape[0]
    lines = ["time_bin,station_id,pickup,dropoff"]
    for step in range(q):
        stamp = (bin_start + (t_bins + step) * width).isoformat()
        for station in range(pred.shape[1]):
            counts = ",".join(repr(v) for v in pred[step, station].tolist())
            lines.append(f"{stamp},{station},{counts}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"forecast.csv: {q * pred.shape[1]} rows")
    return 0


def cmd_ablate(config: RunConfig, out: Path) -> int:
    """Every variant through the build-graph, train and evaluate path; writes ablation.csv."""
    values, meta, stations, split, scaler, std_series = _standardized(config, out)
    data = TrainingData.from_series(std_series, split)
    tx, ty = make_windows(std_series, split.test, split.p, split.q)
    train_demand = values[split.train.start : split.train.stop]

    lines = ["variant,rmse,mae,pcc,best_val_rmse,parameters"]
    for tag in VARIANTS:
        print(f"=== variant {tag} ===")
        run = replace(config, variant=tag)
        pair, _, _ = _graph(run, train_demand, stations)
        model = _model(run, pair.e1.data, pair.e2.data, channels=std_series.shape[2])
        result = train(model, data, run, log=print)
        report = evaluate(model, tx, ty, scaler=scaler)
        params = count_parameters(model.named_parameters())
        lines.append(
            f"{tag},{report.rmse:.10g},{report.mae:.10g},{report.pcc:.10g},"
            f"{result.best_val_rmse:.10g},{params}"
        )
        print(
            f"{tag:14s} rmse={report.rmse:.6f} mae={report.mae:.6f} "
            f"pcc={report.pcc:.6f} params={params}"
        )
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": cmd_ingest,
    "build-graph": cmd_build_graph,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "ablate": cmd_ablate,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccrnn",
        description="Station-level demand forecasting over a learned coupled graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "ingest": "parse trip records into a binned demand tensor and station set",
        "build-graph": "derive adjacency factors from the training demand",
        "train": "fit the forecaster and keep the best-validation checkpoint",
        "evaluate": "score the checkpoint on the test weeks",
        "predict": "forecast the next horizon from the end of the series",
        "ablate": "train and score every graph-construction variant",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override the run seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--variant", default=None, choices=VARIANTS, help="graph-construction variant"
        )
    return parser


def _resolve(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        config, seed=args.seed, out_dir=args.out, variant=args.variant
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _resolve(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(config.out_dir)
    try:
        with output_lock(out):
            (out / "config.json").write_text(config.to_json(), encoding="utf-8")
            return _COMMANDS[args.command](config, out)
    except (ConfigError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure: missing artifacts, bad formats, ...
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
