"""Coupled layer-wise graph convolution with multi-level attention aggregation.

Each convolution layer diffuses the node signal through an adjacency that is
never materialized: the adjacency of layer m is the product E1^(m) E2^(m)T of
two N x L embeddings. One `tensor.diffuse` op per layer runs the K hops in
rank space, so a layer costs about N L (F + beta) + K L^2 F per sample
instead of the K N^2 F of dense powers. `layer_factors` derives every
layer's pair: with coupling, layer 1 owns the only directly trained pair and
each deeper layer applies an affine map, the same to both factors, to the
pair before it; without coupling (the ablation) each layer trains its own.
The outputs of all layers are combined by softmax attention over per-layer
scores, one taped `tensor.level_attention` op. A `Gate` holds the weights of
one gate; `ccgru.build_cell` creates and names them.

Every call runs a stack of gates over one structure, and every signal is
node-major behind a gate axis, (G, N, ..., F): the gate axis first, then
the station axis, the feature axis last and any batch axes between, so
diffusion changes no layout. A signal that all gates read has G = 1: layer 1
diffuses it once for the whole stack, and each deeper layer diffuses every
gate's own signal in the same call. A single gate (the GRU's candidate) is a
one-gate stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, add, diffuse, level_attention, level_weights, matmul


@dataclass
class Gate:
    """One gate's weights: filters per layer and hop, an attention scorer, a bias."""

    thetas: list[list[Tensor]]  # [layer][hop]: dim_in x beta at layer 1, beta x beta deeper
    score_w: Tensor  # (N*beta) x 1, scores a layer output flattened over stations
    score_b: Tensor  # (1,)
    bias: Tensor  # beta, added by the cell after aggregation


def couple_embeddings(e1: Tensor, e2: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Apply the shared affine map (w: L x L, b: L) to both embedding factors."""
    if e1.shape[1] != w.shape[0]:
        raise ShapeError(f"embedding width {e1.shape} does not match coupling {w.shape}")
    return add(matmul(e1, w), b), add(matmul(e2, w), b)


def layer_factors(
    pairs: list[tuple[Tensor, Tensor]], couplings: list[tuple[Tensor, Tensor]]
) -> list[tuple[Tensor, Tensor]]:
    """The embedding pair of every layer: the trained `pairs`, then one more per
    `(w, b)` coupling applied to the pair before it.

    A coupled structure passes its base pair and M-1 couplings, an uncoupled
    one M pairs and no couplings.
    """
    factors = list(pairs)
    for w, b in couplings:
        factors.append(couple_embeddings(*factors[-1], w, b))
    return factors


def propagate_layer(z: Tensor, e1: Tensor, e2: Tensor, thetas: list[list[Tensor]]) -> Tensor:
    """Diffuse `z` through powers of the implied adjacency and apply filters.

    Returns, per gate, sum_i S_i theta_i with S_0 = Z and S_i = (E1 E2^T)^i Z,
    as one taped `diffuse` op on the node-major signal. `thetas` holds each
    gate's K+1 filters for this layer, and the output is (gates, N, ..., beta).
    The hops run through the L x L matrix E2^T E1, so neither the N x N
    adjacency nor any S_i is formed, and a layer costs about
    N L (F + beta) + K L^2 F per sample and gate.
    """
    return diffuse(z, e1, e2, thetas)


def cgc_forward(x: Tensor, gates: list[Gate], factors: list[tuple[Tensor, Tensor]]) -> list[Tensor]:
    """Run all layers of the gates, collecting every layer's output.

    `x` is (1, N, ..., F) and read by every gate; each output is
    (gates, N, ..., beta). `factors` holds the per-layer embeddings of the
    structure the gates share, derived once by the caller.
    """
    if any(len(g.thetas) != len(factors) for g in gates):
        raise ShapeError(f"{len(factors)} factor pairs for {[len(g.thetas) for g in gates]} layers")
    outputs: list[Tensor] = []
    z = x
    for m, (e1, e2) in enumerate(factors):
        z = propagate_layer(z, e1, e2, [g.thetas[m] for g in gates])
        outputs.append(z)
    return outputs


def aggregate_levels(zs: list[Tensor], gates: list[Gate]) -> Tensor:
    """Softmax-weighted sum of the layer outputs, one taped op.

    Per gate and sample, each output (gates, N, ..., beta) is scored by the
    gate's linear map over its station*feature entries, and the scores are
    normalized across layers.
    """
    return level_attention(zs, [g.score_w for g in gates], [g.score_b for g in gates])


def attention_weights(zs: list[Tensor], gate: Gate) -> np.ndarray:
    """The normalized per-layer attention scores (for inspection and tests).

    Takes batch-major outputs (..., N, beta) and returns (batch, M).
    """
    n, beta = zs[0].shape[-2:]
    node_major = [np.moveaxis(z.data, -2, 0).reshape(1, n, -1, beta) for z in zs]
    w = gate.score_w.data.reshape(1, n, beta)
    return level_weights(node_major, w, gate.score_b.data)[0].T


def count_parameters(named: dict[str, Tensor], trainable_only: bool = True) -> int:
    """Total scalar count over distinct tensors (shared tensors counted once)."""
    seen: set[int] = set()
    total = 0
    for t in named.values():
        if id(t) in seen or (trainable_only and not t.requires_grad):
            continue
        seen.add(id(t))
        total += t.size
    return total
