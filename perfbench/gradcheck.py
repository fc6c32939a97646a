"""Directional finite-difference check of `backward` at a run's model shape.

Builds the model with `build_seq2seq` around the run's `graph.ckpt` factors,
seeded, at the shape and scaler recorded in `model.ckpt`, and compares the
analytic derivative of `training.loss` on the run's first window along one
direction over all parameters with a central difference of the loss along
that direction. The direction is half the unit analytic gradient and half a
seeded random unit vector. The central difference is Richardson-extrapolated
from steps h and h/2, which cancels its h^2 error term: at the reference shape
the loss is a high-degree polynomial in the graph factors (K hops through
E1 E2^T, M coupled layers, Q decoder steps), and on some seeds the plain
difference at h = 1e-8 is off by a few 1e-6 while still converging to the
analytic value as h^2.

The initial weights are used, not the trained ones: after a few Adam steps at
the reference shape the loss can turn so rough (gradient norms near 1e9) that
no finite difference approximates it, which says nothing about `backward`.

    PYTHONPATH=src python3 perfbench/gradcheck.py --out RUN_DIR --seed 0

Exits 0 and prints the relative error when it is below the tolerance, 1
otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from checks import read_blob, read_checkpoint

from ccrnn.ccgru import build_seq2seq
from ccrnn.graphgen import FactorPair
from ccrnn.tensor import Tensor, backward, no_grad
from ccrnn.training import loss

STEP = 1e-8
TOLERANCE = 1e-6


def _unit(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    norm = np.sqrt(sum(float((a * a).sum()) for a in arrays.values()))
    return {name: a / norm for name, a in arrays.items()}


def directional_error(out: Path, seed: int) -> tuple[float, float, float]:
    sections, _ = read_checkpoint(out / "model.ckpt")
    cfg = sections["config"]
    p, q = int(cfg["p"]), int(cfg["q"])
    mean = np.array([float(v) for v in sections["scaler"]["mean"].split(",")])
    std = np.array([float(v) for v in sections["scaler"]["std"].split(",")])
    series = (read_blob(out / "demand.dmd1") - mean) / std
    x, y = series[None, :p], series[None, p : p + q]

    _, graph = read_checkpoint(out / "graph.ckpt")
    base = FactorPair(e1=Tensor(graph["e1"], requires_grad=True),
                      e2=Tensor(graph["e2"], requires_grad=True))
    model = build_seq2seq(
        channels=series.shape[2], beta=int(cfg["beta"]), m_layers=int(cfg["m_layers"]),
        k_hops=int(cfg["k_hops"]), base=base, rng=np.random.default_rng(seed),
    )
    params = model.named_parameters()

    grads = backward(loss(model.forward(x, q), y))
    grad = {name: grads[param].data for name, param in params.items()}
    # half along the analytic gradient, half random: the derivative along it
    # is never a near-zero difference of large terms
    rng = np.random.default_rng(seed)
    noise = {name: rng.normal(size=param.shape) for name, param in params.items()}
    grad_dir, noise_dir = _unit(grad), _unit(noise)
    direction = _unit({name: grad_dir[name] + noise_dir[name] for name in params})
    analytic = sum(float((grad[name] * direction[name]).sum()) for name in params)

    def loss_at(scale: float) -> float:
        originals = {name: param.data for name, param in params.items()}
        for name, param in params.items():
            param.data = originals[name] + scale * direction[name]
        with no_grad():
            value = float(loss(model.forward(x, q), y).data)
        for name, param in params.items():
            param.data = originals[name]
        return value

    def central(step: float) -> float:
        return (loss_at(step) - loss_at(-step)) / (2 * step)

    numeric = (4 * central(STEP / 2) - central(STEP)) / 3
    error = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    return error, analytic, numeric


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    error, analytic, numeric = directional_error(args.out, args.seed)
    print(f"gradcheck analytic={analytic!r} numeric={numeric!r} rel_error={error:.3e}")
    return 0 if error < TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
