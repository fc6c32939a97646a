"""Coupled layer-wise graph convolution with multi-level attention aggregation.

Each convolution layer diffuses the node signal through an adjacency that is
never materialized: the adjacency of layer m is the product E1^(m) E2^(m)T of
two N x L embeddings. One `tensor.diffuse` op per layer runs the K hops in
rank space, so a layer costs about N L (F + beta) + K L^2 F per sample
instead of the K N^2 F of dense powers. Layer 1 owns the only directly
trained embeddings; deeper layers derive theirs through a shared affine
coupling. The outputs of all layers are combined by softmax attention over
per-layer scores, one taped `tensor.level_attention` op.

Signals are node-major, (N, ..., F): the station axis first, the feature
axis last and any batch axes between, so diffusion changes no layout.
Several stacks over one structure (the GRU's reset and update gates) run as
one: their outputs carry a leading gate axis, layer 1 diffuses the shared
input once for all of them, and each deeper layer is one grouped call.
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
    """M convolution layers over a (possibly shared) graph structure."""

    structure: CoupledStructure | IndependentStructure
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


def propagate_layer(
    z: Tensor,
    e1: Tensor,
    e2: Tensor,
    layer: CgcLayerParams | list[CgcLayerParams],
    grouped: bool = False,
) -> Tensor:
    """Diffuse `z` through powers of the implied adjacency and apply filters.

    Returns sum_i S_i theta_i with S_0 = Z and S_i = (E1 E2^T)^i Z, as one
    taped `diffuse` op on the node-major signal. The hops run through the
    L x L matrix E2^T E1, so neither the N x N adjacency nor any S_i is
    formed, and a layer costs about N L (F + beta) + K L^2 F per sample.
    A list of layers (one per gate) adds a leading gate axis to the output;
    with `grouped`, `z` carries that axis too.
    """
    fused = isinstance(layer, list)
    first = layer[0] if fused else layer
    if z.shape[-1] != first.thetas[0].shape[0]:
        raise ShapeError(
            f"signal width {z.shape} does not match filter {first.thetas[0].shape}"
        )
    thetas = [lay.thetas for lay in layer] if fused else layer.thetas
    return diffuse(z, e1, e2, thetas, grouped=grouped)


def cgc_forward(
    x: Tensor,
    stack: CgcStack | list[CgcStack],
    layer_factors: list[tuple[Tensor, Tensor]] | None = None,
) -> list[Tensor]:
    """Run all layers, collecting every layer's output for aggregation.

    `x` is node-major, (N, ..., F). A list of stacks over one structure runs
    them fused: every output gains a leading gate axis, layer 1 diffuses `x`
    once for all of them, and deeper layers diffuse each gate's own signal.
    `layer_factors` lets a caller that evaluates several stacks over the same
    structure (the three GRU gates) derive the per-layer embeddings once.
    """
    fused = isinstance(stack, list)
    stacks = stack if fused else [stack]
    if layer_factors is None:
        layer_factors = stacks[0].structure.layer_factors()
    if any(len(layer_factors) != s.num_layers for s in stacks):
        raise ShapeError(
            f"{len(layer_factors)} factor pairs for {[s.num_layers for s in stacks]} layers"
        )
    outputs: list[Tensor] = []
    z = x
    for m, (e1, e2) in enumerate(layer_factors):
        layers = [s.layers[m] for s in stacks] if fused else stack.layers[m]
        z = propagate_layer(z, e1, e2, layers, grouped=fused and m > 0)
        outputs.append(z)
    return outputs


def aggregate_levels(
    zs: list[Tensor], agg: AggregationParams | list[AggregationParams]
) -> Tensor:
    """Softmax-weighted sum of the layer outputs, one taped op.

    Per sample, each node-major output is scored by the shared linear map
    over its station*feature entries, and the scores are normalized across
    layers. A list of aggregations scores gated outputs (G, N, ..., beta),
    gate g by its own map.
    """
    if isinstance(agg, list):
        return level_attention(zs, [a.w_alpha for a in agg], [a.b_alpha for a in agg])
    return level_attention(zs, agg.w_alpha, agg.b_alpha)


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


def stack_named_parameters(stack: CgcStack, prefix: str, include_structure: bool = True) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    if include_structure:
        out.update(stack.structure.named_parameters(f"{prefix}.graph"))
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
