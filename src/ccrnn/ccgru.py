"""Graph-convolutional GRU cells and the seq2seq forecaster built from them.

Every gate of the GRU replaces its dense matmul with a coupled graph
convolution stack. The three gate stacks of one cell share a single graph
structure (base embedding pair plus couplings), which the cell owns; each
gate keeps its own filter and aggregation weights. Every gate runs through
the same call (after DCRNN's DCGRUCell): the reset and update gates convolve
the same [x, h] as one two-gate stack, one diffusion per layer for both and
one attention op, and the candidate runs as a one-gate stack.

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

from .cgc import (
    CgcStack,
    CoupledStructure,
    CouplingParams,
    IndependentStructure,
    aggregate_levels,
    cgc_forward,
    glorot,
    init_aggregation,
    init_layers,
    stack_named_parameters,
)
from .graphgen import FactorPair
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    matmul,
    mul,
    sigmoid,
    sub,
    take,
    tanh,
    transpose,
)


@dataclass
class CcgruCell:
    """One recurrent cell: shared graph structure, three gate stacks, gate biases."""

    structure: CoupledStructure | IndependentStructure
    reset: CgcStack
    update: CgcStack
    candidate: CgcStack
    b_r: Tensor
    b_u: Tensor
    b_c: Tensor

    @property
    def hidden_size(self) -> int:
        return self.b_r.shape[0]

    def layer_factors(self):
        return self.structure.layer_factors()

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.structure.named_parameters(f"{prefix}.graph")
        for gate, stack in (
            ("reset", self.reset),
            ("update", self.update),
            ("candidate", self.candidate),
        ):
            out.update(stack_named_parameters(stack, f"{prefix}.{gate}"))
        out[f"{prefix}.bias.reset"] = self.b_r
        out[f"{prefix}.bias.update"] = self.b_u
        out[f"{prefix}.bias.candidate"] = self.b_c
        return out


@dataclass
class OutputProjection:
    """Linear readout from hidden state to demand channels."""

    w: Tensor  # beta x d
    b: Tensor  # d


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
    ru = aggregate_levels(cgc_forward(xh, gates, factors), [g.aggregation for g in gates])
    r = sigmoid(add(take(ru, 0), cell.b_r))
    u = sigmoid(add(take(ru, 1), cell.b_u))
    xc = concat([x, mul(r, h)], axis=-1)
    cand = cell.candidate
    c = tanh(add(aggregate_levels(cgc_forward(xc, [cand], factors), [cand.aggregation]), cell.b_c))
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
    projection: OutputProjection,
    factors,
    targets=None,
    teacher_prob: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Roll the decoder `horizon` steps from a zero GO frame.

    `h` is (1, N, ..., beta), `targets` (Q, N, ..., d), and the forecast is
    (Q, N, ..., d). At each step after the first, the input is the previous
    target frame with probability `teacher_prob` (one draw per step),
    otherwise the previous projection. Fed-back projections stay in the
    autodiff graph. Everything here lives in standardized space.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if teacher_prob > 0.0 and targets is None:
        raise ValueError("teacher forcing requested without targets")
    if teacher_prob > 0.0 and rng is None:
        raise ValueError("teacher forcing requires an rng for the per-step draws")
    d = projection.w.shape[1]
    tgt = None if targets is None else _array(targets)

    y_prev = Tensor(np.zeros(h.shape[:-1] + (d,)))
    frames: list[Tensor] = []
    for q in range(horizon):
        h = ccgru_step(y_prev, h, cell, factors)
        y = add(matmul(h, projection.w), projection.b)
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
    projection: OutputProjection

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
        out = self.encoder.named_parameters("encoder")
        out.update(self.decoder.named_parameters("decoder"))
        out["proj.weight"] = self.projection.w
        out["proj.bias"] = self.projection.b
        return out


def _fresh_pair(base: FactorPair, name: str) -> FactorPair:
    trainable = base.trainable
    return FactorPair(
        e1=Tensor(base.e1.data.copy(), requires_grad=trainable, name=f"{name}.e1"),
        e2=Tensor(base.e2.data.copy(), requires_grad=trainable, name=f"{name}.e2"),
    )


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
    copy of the base pair.
    """
    n = base.e1.shape[0]
    rank = base.rank
    if coupled:
        structure: CoupledStructure | IndependentStructure = CoupledStructure(
            _fresh_pair(base, f"{name}.graph"),
            [CouplingParams.identity(rank, f"{name}.coupling{m}") for m in range(m_layers - 1)],
        )
    else:
        structure = IndependentStructure(
            [_fresh_pair(base, f"{name}.graph{m}") for m in range(m_layers)]
        )
    gate_width = channels + beta

    def make_stack() -> CgcStack:
        return CgcStack(
            init_layers(gate_width, beta, m_layers, k_hops, rng), init_aggregation(n, beta)
        )

    return CcgruCell(
        structure=structure,
        reset=make_stack(),
        update=make_stack(),
        candidate=make_stack(),
        b_r=Tensor(np.zeros(beta), requires_grad=True, name=f"{name}.b_r"),
        b_u=Tensor(np.zeros(beta), requires_grad=True, name=f"{name}.b_u"),
        b_c=Tensor(np.zeros(beta), requires_grad=True, name=f"{name}.b_c"),
    )


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
    projection = OutputProjection(
        w=Tensor(glorot(rng, beta, channels), requires_grad=True, name="proj.w"),
        b=Tensor(np.zeros(channels), requires_grad=True, name="proj.b"),
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
