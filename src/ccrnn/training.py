"""Training loop, metrics, Adam, and the historical-average baseline.

The loss is RMSE on the standardized scale; reported metrics are computed on
the original count scale after inverting the scaler. Training feeds the
decoder ground truth with a probability that decays with the global iteration
count; validation and test decoding are always free-running.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ccgru import Seq2Seq, sampling_probability
from .config import RunConfig
from .tensor import GradientMap, Tensor, add, backward, mul, no_grad, sqrt, sub, tmean

LOSS_EPS = 1e-8


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _paired(pred, truth):
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    return p, t


def rmse(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(pred, truth) -> float:
    p, t = _paired(pred, truth)
    return float(np.mean(np.abs(p - t)))


def pcc(pred, truth) -> float:
    p, t = _paired(pred, truth)
    p, t = p.ravel(), t.ravel()
    pc = p - p.mean()
    tc = t - t.mean()
    denom = np.sqrt((pc * pc).sum() * (tc * tc).sum())
    if denom == 0.0:
        raise ValueError("correlation undefined: at least one series is constant")
    return float(np.dot(pc, tc) / denom)


def loss(pred: Tensor, truth) -> Tensor:
    """Differentiable RMSE with a small constant under the root.

    The constant keeps the gradient finite (zero) at a perfect fit, at the
    cost of a 1e-4 floor on the loss value.
    """
    diff = sub(pred, Tensor(np.asarray(truth, dtype=np.float64)))
    return sqrt(add(tmean(mul(diff, diff)), Tensor(LOSS_EPS)))


@dataclass
class HorizonMetrics:
    step: int
    hours: float
    rmse: float
    mae: float
    pcc: float


@dataclass
class MetricsReport:
    rmse: float
    mae: float
    pcc: float
    per_horizon: list[HorizonMetrics]
    scale: str

    def summary(self) -> str:
        lines = [
            f"scale: {self.scale}",
            f"overall rmse={self.rmse:.6f} mae={self.mae:.6f} pcc={self.pcc:.6f}",
        ]
        for h in self.per_horizon:
            lines.append(
                f"horizon {h.step:2d} ({h.hours:4.1f}h) "
                f"rmse={h.rmse:.6f} mae={h.mae:.6f} pcc={h.pcc:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("horizon,hours,rmse,mae,pcc\n")
        buf.write(f"overall,,{self.rmse:.10g},{self.mae:.10g},{self.pcc:.10g}\n")
        for h in self.per_horizon:
            buf.write(f"{h.step},{h.hours:.10g},{h.rmse:.10g},{h.mae:.10g},{h.pcc:.10g}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor], grads: GradientMap, state: AdamState, lr: float
) -> None:
    """Bias-corrected Adam update applied in place.

    Shared tensors registered under several names are updated once. A
    trainable parameter missing from `grads` indicates a broken graph and is
    an error rather than a silent skip.
    """
    state.step += 1
    t = state.step
    seen: set[int] = set()
    for name, p in params.items():
        if not p.requires_grad or id(p) in seen:
            continue
        seen.add(id(p))
        if p not in grads:
            raise KeyError(f"no gradient for trainable parameter {name!r}")
        g = grads[p].data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# window assembly
# ---------------------------------------------------------------------------


def make_windows(series: np.ndarray, time_range: range, p: int, q: int):
    """All (history, horizon) pairs whose full span lies inside `time_range`.

    Returns views into `series` (num, P, N, d) and (num, Q, N, d); batch
    indexing copies only the batch.
    """
    series = np.asarray(series, dtype=np.float64)
    segment = series[time_range.start : time_range.stop]
    num = segment.shape[0] - p - q + 1
    if num < 1:
        raise ValueError(
            f"range of {segment.shape[0]} bins too short for P={p}, Q={q} "
            f"(needs {p + q}, short by {p + q - segment.shape[0]})"
        )
    win = sliding_window_view(segment, p + q, axis=0)  # (num, N, d, P+Q)
    win = np.moveaxis(win, -1, 1)  # (num, P+Q, N, d)
    return win[:, :p], win[:, p:]


@dataclass
class TrainingData:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray

    @staticmethod
    def from_series(series_std: np.ndarray, split) -> "TrainingData":
        tx, ty = make_windows(series_std, split.train, split.p, split.q)
        vx, vy = make_windows(series_std, split.validation, split.p, split.q)
        return TrainingData(tx, ty, vx, vy)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_rmse: float
    sampling_prob: float
    improved: bool


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_val_rmse: float
    best_epoch: int
    iterations: int


def predict_in_batches(
    model: Seq2Seq, windows: np.ndarray, horizon: int, batch_size: int = 256
) -> np.ndarray:
    """Free-running forecasts for every window, gradient-free."""
    outs = []
    with no_grad():
        for i in range(0, windows.shape[0], batch_size):
            outs.append(model.forward(windows[i : i + batch_size], horizon).data)
    return np.concatenate(outs, axis=0)


def _validation_rmse(model: Seq2Seq, data: TrainingData) -> float:
    preds = predict_in_batches(model, data.val_x, data.val_y.shape[1])
    return rmse(preds, data.val_y)


def train(model: Seq2Seq, data: TrainingData, config: RunConfig, log=None) -> TrainResult:
    """Mini-batch Adam with scheduled sampling and early stopping.

    All randomness (batch order, teacher-forcing draws) comes from one
    generator seeded with config.seed, so a fixed seed reproduces the history
    bitwise. The model is left holding the best-validation parameters.
    """
    params = model.named_parameters()
    rng = np.random.default_rng(config.seed)
    state = AdamState()
    horizon = data.train_y.shape[1]
    num = data.train_x.shape[0]

    def snapshot():
        return {name: p.data.copy() for name, p in params.items()}

    best_val = np.inf
    best_epoch = 0
    best_params = snapshot()
    stale = 0
    iteration = 0
    history: list[EpochRecord] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(num)
        epoch_prob = sampling_probability(iteration, config.sampling_decay)
        losses = []
        for start in range(0, num, config.batch_size):
            batch = order[start : start + config.batch_size]
            p_teacher = sampling_probability(iteration, config.sampling_decay)
            pred = model.forward(
                data.train_x[batch],
                horizon,
                targets=data.train_y[batch],
                teacher_prob=p_teacher,
                rng=rng,
            )
            batch_loss = loss(pred, data.train_y[batch])
            value = float(batch_loss.data)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss {value} in epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            grads = backward(batch_loss)
            adam_step(params, grads, state, config.learning_rate)
            iteration += 1
            losses.append(value)

        val = _validation_rmse(model, data)
        improved = val < best_val
        if improved:
            best_val = val
            best_epoch = epoch
            best_params = snapshot()
            stale = 0
        else:
            stale += 1
        record = EpochRecord(epoch, float(np.mean(losses)), val, epoch_prob, improved)
        history.append(record)
        if log is not None:
            log(
                f"epoch {epoch:3d} loss {record.train_loss:.6f} "
                f"val_rmse {val:.6f} p_teacher {epoch_prob:.4f}"
                + (" *" if improved else "")
            )
        if stale >= config.patience:
            break

    for name, p in params.items():
        p.data = best_params[name]
    return TrainResult(history, float(best_val), best_epoch, iteration)


def history_csv(history: list[EpochRecord]) -> str:
    buf = io.StringIO()
    buf.write("epoch,train_loss,val_rmse,sampling_prob,improved\n")
    for r in history:
        buf.write(
            f"{r.epoch},{r.train_loss:.10g},{r.val_rmse:.10g},"
            f"{r.sampling_prob:.10g},{int(r.improved)}\n"
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# evaluation and the historical-average baseline
# ---------------------------------------------------------------------------


def evaluate(
    model: Seq2Seq,
    windows: np.ndarray,
    targets: np.ndarray,
    scaler=None,
    *,
    bin_hours: float,
) -> MetricsReport:
    """Free-running decode; metrics on the original scale when a scaler is given."""
    preds = predict_in_batches(model, windows, targets.shape[1])
    return report_from_predictions(preds, targets, scaler, bin_hours=bin_hours)


def report_from_predictions(
    preds: np.ndarray, targets: np.ndarray, scaler=None, *, bin_hours: float
) -> MetricsReport:
    truth = np.asarray(targets, dtype=np.float64)
    if scaler is not None:
        preds = scaler.invert(preds)
        truth = scaler.invert(truth)
        scale = "original"
    else:
        scale = "standardized"
    horizons = [
        HorizonMetrics(
            step=q + 1,
            hours=(q + 1) * bin_hours,
            rmse=rmse(preds[:, q], truth[:, q]),
            mae=mae(preds[:, q], truth[:, q]),
            pcc=pcc(preds[:, q], truth[:, q]),
        )
        for q in range(truth.shape[1])
    ]
    return MetricsReport(
        rmse=rmse(preds, truth),
        mae=mae(preds, truth),
        pcc=pcc(preds, truth),
        per_horizon=horizons,
        scale=scale,
    )


def ha_baseline(history: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast every future step as the mean of the history window."""
    arr = np.asarray(history, dtype=np.float64)
    if arr.shape[-3] < 1:
        raise ValueError("history must contain at least one step")
    mean = arr.mean(axis=-3, keepdims=True)
    reps = [1] * arr.ndim
    reps[-3] = horizon
    return np.tile(mean, reps)


def evaluate_ha(
    windows: np.ndarray, targets: np.ndarray, scaler=None, *, bin_hours: float
) -> MetricsReport:
    """The historical-average baseline scored exactly like a model."""
    preds = ha_baseline(np.asarray(windows, dtype=np.float64), targets.shape[1])
    return report_from_predictions(preds, targets, scaler, bin_hours=bin_hours)
