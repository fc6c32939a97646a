"""Graph-convolutional GRU cells and the seq2seq forecaster built from them.

Every gate of the GRU replaces its dense matmul with a coupled graph
convolution stack. The three gates of one cell share a single graph
structure (base embedding pair plus couplings), which the cell owns; each
gate keeps its own filters, attention scorer and bias. `build_cell` creates
every tensor of a cell once, under its checkpoint name, in the cell's
`params` registry, which is what `Seq2Seq.named_parameters` returns.

Every gate runs through the same call (after DCRNN's DCGRUCell): the reset
and update gates convolve the same [x, h] as one two-gate stack, one
diffusion per layer for both and one attention op, and the candidate runs
as a one-gate stack.

The recurrence is node-major behind the gate axis of a one-gate stack:
inputs are (1, N, ..., d) and the state is (1, N, ..., beta), stations next
and any batch axes between, so no step changes a layout. `Seq2Seq.forward`
keeps the batch-major (B, P, N, d) -> (B, Q, N, d) contract and converts
once at each end.

Forecasting runs encoder/decoder style: the encoder folds the observation
window into a hidden state, the decoder rolls the horizon forward from a
zero GO frame, feeding back its own projections (or, during training, the
ground truth under an inverse-sigmoid schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgc import Gate, aggregate_levels, cgc_forward, layer_factors
from .graphgen import FactorPair
from .tensor import ShapeError, Tensor, add, concat, matmul, mul, sigmoid, sub, take, tanh, transpose


@dataclass
class CcgruCell:
    """One recurrent cell: a graph structure shared by three gates.

    `pairs` holds the directly trained embedding pairs, which `couplings`
    (w, b) carry from layer to layer; `params` maps each checkpoint name to
    its tensor, in checkpoint order.
    """

    pairs: list[tuple[Tensor, Tensor]]
    couplings: list[tuple[Tensor, Tensor]]
    reset: Gate
    update: Gate
    candidate: Gate
    params: dict[str, Tensor]

    @property
    def hidden_size(self) -> int:
        return self.reset.bias.shape[0]

    def layer_factors(self) -> list[tuple[Tensor, Tensor]]:
        return layer_factors(self.pairs, self.couplings)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def ccgru_step(x: Tensor, h: Tensor, cell: CcgruCell, factors) -> Tensor:
    """One GRU update: r and u gate the state, the candidate blends in.

    `x` is (1, N, ..., d) and `h` is (1, N, ..., beta). The reset and update
    gates run as one two-gate stack, the candidate as a one-gate stack, and
    all three reuse `factors`, the per-layer embeddings derived once per
    sequence.
    """
    if x.shape[:-1] != h.shape[:-1]:
        raise ShapeError(f"input {x.shape} and state {h.shape} disagree on stations")
    # xh and xc stay bound until the step returns. Without a tape nothing else
    # holds them, and freeing them mid-step shifted the allocator's heap swing:
    # a gradient-free step then took about 70% more page faults.
    xh = concat([x, h], axis=-1)
    gates = [cell.reset, cell.update]
    ru = aggregate_levels(cgc_forward(xh, gates, factors), gates)
    r = sigmoid(add(take(ru, 0), cell.reset.bias))
    u = sigmoid(add(take(ru, 1), cell.update.bias))
    xc = concat([x, mul(r, h)], axis=-1)
    cand = [cell.candidate]
    c = tanh(add(aggregate_levels(cgc_forward(xc, cand, factors), cand), cell.candidate.bias))
    return add(mul(u, h), mul(sub(Tensor(1.0), u), c))


def encode(window, cell: CcgruCell, factors) -> Tensor:
    """Fold a node-major window (P, N, ..., d) into a hidden state (1, N, ..., beta).

    The initial state is zero; the window itself carries no gradient.
    """
    arr = _array(window)
    if arr.ndim < 3:
        raise ShapeError(f"window must be at least (P, N, d), got {arr.shape}")
    h = Tensor(np.zeros((1,) + arr.shape[1:-1] + (cell.hidden_size,)))
    for t in range(arr.shape[0]):
        h = ccgru_step(Tensor(arr[t : t + 1]), h, cell, factors)
    return h


def decode(
    h: Tensor,
    horizon: int,
    cell: CcgruCell,
    projection: tuple[Tensor, Tensor],
    factors,
    targets=None,
    teacher_prob: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Roll the decoder `horizon` steps from a zero GO frame.

    `h` is (1, N, ..., beta), `projection` the readout (w: beta x d, b: d),
    `targets` (Q, N, ..., d), and the forecast is (Q, N, ..., d). At each
    step after the first, the input is the previous target frame with
    probability `teacher_prob` (one draw per step), otherwise the previous
    projection. Fed-back projections stay in the autodiff graph. Everything
    here lives in standardized space.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if teacher_prob > 0.0 and targets is None:
        raise ValueError("teacher forcing requested without targets")
    if teacher_prob > 0.0 and rng is None:
        raise ValueError("teacher forcing requires an rng for the per-step draws")
    w, b = projection
    tgt = None if targets is None else _array(targets)

    y_prev = Tensor(np.zeros(h.shape[:-1] + (w.shape[1],)))
    frames: list[Tensor] = []
    for q in range(horizon):
        h = ccgru_step(y_prev, h, cell, factors)
        y = add(matmul(h, w), b)
        frames.append(y)
        if q + 1 < horizon:
            if tgt is not None and teacher_prob > 0.0 and rng.random() < teacher_prob:
                y_prev = Tensor(tgt[q : q + 1])
            else:
                y_prev = y
    return concat(frames, axis=0)


def sampling_probability(iteration: int, decay: float) -> float:
    """Inverse-sigmoid teacher-forcing schedule: decay/(decay + exp(it/decay)).

    Starts near 1, crosses 1/2 around iteration decay*ln(decay), tends to 0.
    """
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay}")
    if iteration < 0:
        raise ValueError(f"iteration must be non-negative, got {iteration}")
    z = iteration / decay
    if z > 700.0:  # exp would overflow; the probability is already ~0
        return 0.0
    return decay / (decay + math.exp(z))


@dataclass
class Seq2Seq:
    """Encoder/decoder pair with a shared-width linear readout."""

    encoder: CcgruCell
    decoder: CcgruCell
    projection: tuple[Tensor, Tensor]  # w: beta x d, b: d

    def forward(
        self,
        window,
        horizon: int,
        targets=None,
        teacher_prob: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Forecast (..., Q, N, d) from windows (..., P, N, d).

        The window and the targets carry no gradient; they are laid out
        node-major, (P, N, ..., d), once here, and the forecast is permuted
        back by one taped op.
        """
        arr = _array(window)
        if arr.ndim < 3:
            raise ShapeError(f"window must be at least (P, N, d), got {arr.shape}")
        batch_axes = arr.ndim - 3

        def node_major(a):  # (..., T, N, d) -> (T, N, ..., d)
            return np.ascontiguousarray(np.moveaxis(a, (-3, -2), (0, 1)))

        if targets is not None:
            targets = node_major(_array(targets))
        enc_factors = self.encoder.layer_factors()
        dec_factors = self.decoder.layer_factors()
        h = encode(node_major(arr), self.encoder, enc_factors)
        out = decode(
            h,
            horizon,
            self.decoder,
            self.projection,
            dec_factors,
            targets=targets,
            teacher_prob=teacher_prob,
            rng=rng,
        )
        if not batch_axes:
            return out
        return transpose(out, tuple(range(2, 2 + batch_axes)) + (0, 1, 2 + batch_axes))

    def named_parameters(self) -> dict[str, Tensor]:
        w, b = self.projection
        return {**self.encoder.params, **self.decoder.params, "proj.weight": w, "proj.bias": b}


def build_cell(
    channels: int,
    beta: int,
    m_layers: int,
    k_hops: int,
    base: FactorPair,
    coupled: bool,
    rng: np.random.Generator,
    name: str,
) -> CcgruCell:
    """Assemble one cell around copies of the base embedding pair.

    With coupling, layer 1 owns the only embeddings and identity-initialized
    affine maps derive the rest; without it, every layer gets an independent
    copy of the base pair. Every tensor is created here under its checkpoint
    name, in checkpoint order, and the filters draw from `rng` gate by gate.
    """
    n, rank = base.e1.shape
    params: dict[str, Tensor] = {}

    def new(key: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        key = f"{name}.{key}"
        params[key] = Tensor(data, requires_grad=trainable, name=key)
        return params[key]

    def pair(key: str) -> tuple[Tensor, Tensor]:
        return (
            new(f"{key}.e1", base.e1.data.copy(), base.trainable),
            new(f"{key}.e2", base.e2.data.copy(), base.trainable),
        )

    if coupled:
        pairs = [pair("graph")]
        couplings = [
            (new(f"graph.coupling{m}.w", np.eye(rank)), new(f"graph.coupling{m}.b", np.zeros(rank)))
            for m in range(m_layers - 1)
        ]
    else:
        pairs = [pair(f"graph.layer{m}") for m in range(m_layers)]
        couplings = []

    def filters_and_scorer(g: str) -> tuple[list[list[Tensor]], Tensor, Tensor]:
        widths = [channels + beta] + [beta] * (m_layers - 1)
        thetas = [
            [new(f"{g}.layer{m}.theta{i}", glorot(rng, width, beta)) for i in range(k_hops + 1)]
            for m, width in enumerate(widths)
        ]
        score_w = new(f"{g}.agg.weight", np.zeros((n * beta, 1)))  # uniform attention at first
        return thetas, score_w, new(f"{g}.agg.bias", np.zeros(1))

    gates = ("reset", "update", "candidate")
    weights = [filters_and_scorer(g) for g in gates]  # the biases come after all of them
    reset, update, candidate = (
        Gate(*w, new(f"bias.{g}", np.zeros(beta))) for g, w in zip(gates, weights)
    )
    return CcgruCell(pairs, couplings, reset, update, candidate, params)


def build_seq2seq(
    channels: int,
    beta: int,
    m_layers: int,
    k_hops: int,
    base: FactorPair,
    rng: np.random.Generator,
    coupled: bool = True,
) -> Seq2Seq:
    """Encoder and decoder cells initialized from the same base pair, plus readout."""
    encoder = build_cell(channels, beta, m_layers, k_hops, base, coupled, rng, "encoder")
    decoder = build_cell(channels, beta, m_layers, k_hops, base, coupled, rng, "decoder")
    projection = (
        Tensor(glorot(rng, beta, channels), requires_grad=True, name="proj.weight"),
        Tensor(np.zeros(channels), requires_grad=True, name="proj.bias"),
    )
    return Seq2Seq(encoder=encoder, decoder=decoder, projection=projection)


def build_model(
    variant: str,
    base: FactorPair,
    channels: int,
    beta: int,
    m_layers: int,
    k_hops: int,
    rng: np.random.Generator,
) -> Seq2Seq:
    """The forecaster of a graph variant, built around its base factors.

    `no_adaptive` freezes the base factors and `no_coupling` gives every layer
    its own copy of them; every other variant trains one coupled pair.
    """
    trainable = variant != "no_adaptive"
    base = FactorPair(
        e1=Tensor(base.e1.data, requires_grad=trainable),
        e2=Tensor(base.e2.data, requires_grad=trainable),
    )
    return build_seq2seq(
        channels, beta, m_layers, k_hops, base, rng, coupled=variant != "no_coupling"
    )
