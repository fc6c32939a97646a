"""Coupled layer-wise graph convolution with multi-level attention aggregation.

Each convolution layer diffuses the node signal through an adjacency that is
never materialized: the adjacency of layer m is the product E1^(m) E2^(m)T of
two N x L embeddings. One `tensor.diffuse` op per layer runs the K hops in
rank space, so a layer costs about N L (F + beta) + K L^2 F per sample
instead of the K N^2 F of dense powers. Layer 1 owns the only directly
trained embeddings; deeper layers derive theirs through a shared affine
coupling. The outputs of all layers are combined by softmax attention over
per-layer scores, one taped `tensor.level_attention` op.

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

from .graphgen import FactorPair
from .tensor import ShapeError, Tensor, add, diffuse, level_attention, level_weights, matmul


@dataclass
class CouplingParams:
    """Shared affine map deriving the next layer's embeddings from this one's."""

    w: Tensor  # L x L, identity at initialization
    b: Tensor  # L, zero at initialization

    @staticmethod
    def identity(rank: int, name: str = "coupling") -> "CouplingParams":
        return CouplingParams(
            w=Tensor(np.eye(rank), requires_grad=True, name=f"{name}.w"),
            b=Tensor(np.zeros(rank), requires_grad=True, name=f"{name}.b"),
        )


@dataclass
class CgcLayerParams:
    """Diffusion filter weights for one layer: K+1 matrices of dim_in x beta."""

    thetas: list[Tensor]

    @property
    def order(self) -> int:
        return len(self.thetas) - 1


@dataclass
class AggregationParams:
    """Scores layer outputs (flattened to N*beta) with one shared linear map."""

    w_alpha: Tensor  # (N*beta) x 1
    b_alpha: Tensor  # (1,)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape if shape is not None else (fan_in, fan_out))


class CoupledStructure:
    """Base embedding pair evolved layer to layer by affine couplings."""

    def __init__(self, base: FactorPair, couplings: list[CouplingParams]):
        self.base = base
        self.couplings = couplings

    @property
    def num_layers(self) -> int:
        return len(self.couplings) + 1

    def layer_factors(self) -> list[tuple[Tensor, Tensor]]:
        factors = [(self.base.e1, self.base.e2)]
        for coupling in self.couplings:
            e1, e2 = factors[-1]
            factors.append(couple_embeddings(e1, e2, coupling))
        return factors

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.e1": self.base.e1, f"{prefix}.e2": self.base.e2}
        for m, c in enumerate(self.couplings):
            out[f"{prefix}.coupling{m}.w"] = c.w
            out[f"{prefix}.coupling{m}.b"] = c.b
        return out


class IndependentStructure:
    """One freely trained embedding pair per layer; no coupling (ablation)."""

    def __init__(self, pairs: list[FactorPair]):
        self.pairs = pairs

    @property
    def num_layers(self) -> int:
        return len(self.pairs)

    def layer_factors(self) -> list[tuple[Tensor, Tensor]]:
        return [(p.e1, p.e2) for p in self.pairs]

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for m, p in enumerate(self.pairs):
            out[f"{prefix}.layer{m}.e1"] = p.e1
            out[f"{prefix}.layer{m}.e2"] = p.e2
        return out


@dataclass
class CgcStack:
    """One gate's M convolution layers; its cell owns the graph structure."""

    layers: list[CgcLayerParams]
    aggregation: AggregationParams

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def couple_embeddings(e1: Tensor, e2: Tensor, coupling: CouplingParams) -> tuple[Tensor, Tensor]:
    """Apply the shared affine map to both embedding factors."""
    if e1.shape[1] != coupling.w.shape[0]:
        raise ShapeError(f"embedding width {e1.shape} does not match coupling {coupling.w.shape}")
    return (
        add(matmul(e1, coupling.w), coupling.b),
        add(matmul(e2, coupling.w), coupling.b),
    )


def propagate_layer(z: Tensor, e1: Tensor, e2: Tensor, layers: list[CgcLayerParams]) -> Tensor:
    """Diffuse `z` through powers of the implied adjacency and apply filters.

    Returns, per gate, sum_i S_i theta_i with S_0 = Z and S_i = (E1 E2^T)^i Z,
    as one taped `diffuse` op on the node-major signal. `layers` holds the
    gates' parameters for this layer, and the output is (gates, N, ..., beta).
    The hops run through the L x L matrix E2^T E1, so neither the N x N
    adjacency nor any S_i is formed, and a layer costs about
    N L (F + beta) + K L^2 F per sample and gate.
    """
    return diffuse(z, e1, e2, [layer.thetas for layer in layers])


def cgc_forward(
    x: Tensor, stacks: list[CgcStack], layer_factors: list[tuple[Tensor, Tensor]]
) -> list[Tensor]:
    """Run all layers of the stacks, collecting every layer's output.

    `x` is (1, N, ..., F) and read by every gate; each output is
    (gates, N, ..., beta). `layer_factors` holds the per-layer embeddings of
    the structure the stacks share, derived once by the caller.
    """
    if any(len(layer_factors) != s.num_layers for s in stacks):
        raise ShapeError(
            f"{len(layer_factors)} factor pairs for {[s.num_layers for s in stacks]} layers"
        )
    outputs: list[Tensor] = []
    z = x
    for m, (e1, e2) in enumerate(layer_factors):
        z = propagate_layer(z, e1, e2, [s.layers[m] for s in stacks])
        outputs.append(z)
    return outputs


def aggregate_levels(zs: list[Tensor], aggs: list[AggregationParams]) -> Tensor:
    """Softmax-weighted sum of the layer outputs, one taped op.

    Per gate and sample, each output (gates, N, ..., beta) is scored by the
    gate's linear map over its station*feature entries, and the scores are
    normalized across layers.
    """
    return level_attention(zs, [a.w_alpha for a in aggs], [a.b_alpha for a in aggs])


def attention_weights(zs: list[Tensor], agg: AggregationParams) -> np.ndarray:
    """The normalized per-layer attention scores (for inspection and tests).

    Takes batch-major outputs (..., N, beta) and returns (batch, M).
    """
    n, beta = zs[0].shape[-2:]
    node_major = [np.moveaxis(z.data, -2, 0).reshape(1, n, -1, beta) for z in zs]
    w = agg.w_alpha.data.reshape(1, n, beta)
    return level_weights(node_major, w, agg.b_alpha.data)[0].T


def init_layers(
    dim_in: int, beta: int, m_layers: int, k_hops: int, rng: np.random.Generator
) -> list[CgcLayerParams]:
    """Fresh filter weights: layer 1 maps dim_in -> beta, deeper layers beta -> beta."""
    layers = []
    for m in range(m_layers):
        width = dim_in if m == 0 else beta
        thetas = [
            Tensor(glorot(rng, width, beta), requires_grad=True, name=f"layer{m}.theta{i}")
            for i in range(k_hops + 1)
        ]
        layers.append(CgcLayerParams(thetas=thetas))
    return layers


def init_aggregation(n: int, beta: int) -> AggregationParams:
    """Zero-initialized scoring: uniform attention at the first step."""
    return AggregationParams(
        w_alpha=Tensor(np.zeros((n * beta, 1)), requires_grad=True, name="agg.w"),
        b_alpha=Tensor(np.zeros(1), requires_grad=True, name="agg.b"),
    )


def stack_named_parameters(stack: CgcStack, prefix: str) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for m, layer in enumerate(stack.layers):
        for i, theta in enumerate(layer.thetas):
            out[f"{prefix}.layer{m}.theta{i}"] = theta
    out[f"{prefix}.agg.weight"] = stack.aggregation.w_alpha
    out[f"{prefix}.agg.bias"] = stack.aggregation.b_alpha
    return out


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
