"""Train the full model on the synthetic ring dataset and compare against HA.

The ring dataset is small enough for a single CPU core: 20 stations, 2000
half-hour bins, per-station sinusoids with neighbor spillover and noise.
A healthy run beats the historical-average baseline by well over 20% RMSE.

    python3 scripts/run_toy_benchmark.py --epochs 50
"""

import argparse
import time


from ccrnn.ingest import fit_scaler, split_by_bins
from ccrnn.synthetic import ring_demand
from ccrnn.training import (
    TrainConfig,
    TrainingData,
    build_variant,
    evaluate,
    evaluate_ha,
    make_windows,
    train,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--beta", type=int, default=16)
    ap.add_argument("--m-layers", type=int, default=2)
    ap.add_argument("--k-hops", type=int, default=2)
    ap.add_argument("--rank", type=int, default=8)
    ap.add_argument("--xi", type=int, default=20)
    ap.add_argument("--lr", type=float, default=2e-3)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--patience", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--variant", default="full")
    args = ap.parse_args()

    data = ring_demand()
    t_bins, n, d = data.values.shape
    split = split_by_bins(t_bins, data.bins_per_day * 7, p=12, q=12,
                          val_weeks=1, test_weeks=1)
    scaler = fit_scaler(data.values, split.train)
    std = scaler.apply(data.values)

    model = build_variant(
        args.variant,
        training_demand=data.values[split.train.start:split.train.stop],
        channels=d,
        xi=args.xi,
        rank=args.rank,
        m_layers=args.m_layers,
        k_hops=args.k_hops,
        beta=args.beta,
        seed=args.seed,
        lons=data.lons,
        lats=data.lats,
    )

    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        patience=args.patience,
    )

    start = time.perf_counter()
    result = train(model, TrainingData.from_series(std, split), config, log=print)
    elapsed = time.perf_counter() - start
    print(f"training took {elapsed:.1f}s "
          f"({result.iterations} iterations, best epoch {result.best_epoch})")

    test_x, test_y = make_windows(std, split.test, split.p, split.q)
    report = evaluate(model, test_x, test_y, scaler)
    baseline = evaluate_ha(test_x, test_y, scaler)
    print(report.summary())
    print(f"HA baseline rmse={baseline.rmse:.6f} mae={baseline.mae:.6f} "
          f"pcc={baseline.pcc:.6f}")
    print(f"rmse is {100.0 * (1.0 - report.rmse / baseline.rmse):.1f}% below HA")


if __name__ == "__main__":
    main()
