"""Recurrent cell against a hand-unrolled numpy oracle, plus schedule and wiring."""

import math

import numpy as np
import pytest

from ccrnn.ccgru import (
    build_cell,
    build_model,
    build_seq2seq,
    ccgru_step,
    decode,
    encode,
    sampling_probability,
)
from ccrnn.cgc import count_parameters
from ccrnn.config import RunConfig
from ccrnn.graphgen import FactorPair
from ccrnn.tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    finite_difference_check,
    matmul,
    mul,
    reshape,
    softmax,
    sub,
    tanh,
    transpose,
    tsum,
)
from ccrnn.tensor import sigmoid as t_sigmoid


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def dense_diffusion(z, e1, e2, thetas):
    a = e1 @ e2.T
    out = z @ thetas[0]
    s = z
    for theta in thetas[1:]:
        s = a @ s
        out = out + s @ theta
    return out


def tiny_cell(rng, n=4, channels=2, beta=3, rank=2, m_layers=1, k_hops=1):
    base = FactorPair(
        e1=Tensor(rng.standard_normal((n, rank)) * 0.5, requires_grad=True),
        e2=Tensor(rng.standard_normal((n, rank)) * 0.5, requires_grad=True),
    )
    return build_cell(channels, beta, m_layers, k_hops, base, True, rng, "cell"), base


class TestCcgruStep:
    def test_matches_hand_rolled_gru(self):
        """M=1 collapses aggregation to the single layer output; unroll by hand."""
        rng = np.random.default_rng(71)
        cell, _ = tiny_cell(rng)
        # Non-trivial biases so the gates are exercised away from sigma(0).
        for gate in (cell.reset, cell.update, cell.candidate):
            gate.bias.data += rng.standard_normal(3) * 0.3

        x = Tensor(rng.standard_normal((1, 4, 2)))
        h = Tensor(rng.standard_normal((1, 4, 3)))
        got = ccgru_step(x, h, cell, cell.layer_factors())

        e1, e2 = (t.data for t in cell.pairs[0])

        def gate(g, z):
            return dense_diffusion(z, e1, e2, [t.data for t in g.thetas[0]]) + g.bias.data

        x0, h0 = x.data[0], h.data[0]
        xh = np.concatenate([x0, h0], axis=-1)
        r = sigmoid(gate(cell.reset, xh))
        u = sigmoid(gate(cell.update, xh))
        xc = np.concatenate([x0, r * h0], axis=-1)
        c = np.tanh(gate(cell.candidate, xc))
        want = u * h0 + (1.0 - u) * c
        assert got.shape == (1, 4, 3)
        np.testing.assert_allclose(got.data[0], want, atol=1e-10)

    def test_station_mismatch_raises(self):
        rng = np.random.default_rng(72)
        cell, _ = tiny_cell(rng)
        with pytest.raises(ShapeError):
            ccgru_step(
                Tensor(rng.standard_normal((1, 5, 2))),
                Tensor(rng.standard_normal((1, 4, 3))),
                cell,
                cell.layer_factors(),
            )

    def test_zero_input_zero_state_stays_zero(self):
        """With zero biases the cell has an exact fixed point at the origin."""
        rng = np.random.default_rng(73)
        cell, _ = tiny_cell(rng)
        h = ccgru_step(
            Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 4, 3))), cell, cell.layer_factors()
        )
        np.testing.assert_array_equal(h.data, np.zeros((1, 4, 3)))


class TestEncodeDecode:
    def test_encoder_consumes_window_stepwise(self):
        rng = np.random.default_rng(81)
        cell, _ = tiny_cell(rng)
        window = rng.standard_normal((5, 4, 2))
        factors = cell.layer_factors()
        got = encode(window, cell, factors)
        h = Tensor(np.zeros((1, 4, 3)))
        for t in range(5):
            h = ccgru_step(Tensor(window[t][None]), h, cell, factors)
        np.testing.assert_allclose(got.data, h.data, atol=1e-12)

    def test_decoder_feeds_back_own_projection(self):
        rng = np.random.default_rng(82)
        cell, _ = tiny_cell(rng)
        proj = (
            Tensor(rng.standard_normal((3, 2)), requires_grad=True),
            Tensor(rng.standard_normal(2), requires_grad=True),
        )
        h0 = Tensor(rng.standard_normal((1, 4, 3)))
        factors = cell.layer_factors()
        got = decode(h0, 3, cell, proj, factors)

        h = h0
        y = Tensor(np.zeros((1, 4, 2)))  # GO frame
        frames = []
        for _ in range(3):
            h = ccgru_step(y, h, cell, factors)
            y = Tensor(h.data @ proj[0].data + proj[1].data)
            frames.append(y.data[0])
        np.testing.assert_allclose(got.data, np.stack(frames), atol=1e-10)

    def test_full_teacher_forcing_feeds_targets(self):
        rng = np.random.default_rng(83)
        cell, _ = tiny_cell(rng)
        proj = (
            Tensor(rng.standard_normal((3, 2)), requires_grad=True),
            Tensor(rng.standard_normal(2), requires_grad=True),
        )
        h0 = Tensor(rng.standard_normal((1, 4, 3)))
        targets = rng.standard_normal((3, 4, 2))
        factors = cell.layer_factors()
        got = decode(
            h0, 3, cell, proj, factors, targets=targets, teacher_prob=1.0,
            rng=np.random.default_rng(0),
        )

        h = h0
        y = np.zeros((4, 2))
        frames = []
        for q in range(3):
            h = ccgru_step(Tensor(y[None]), h, cell, factors)
            frames.append(h.data[0] @ proj[0].data + proj[1].data)
            y = targets[q]
        np.testing.assert_allclose(got.data, np.stack(frames), atol=1e-10)

    def test_teacher_forcing_requires_targets_and_rng(self):
        rng = np.random.default_rng(84)
        cell, _ = tiny_cell(rng)
        proj = (Tensor(np.zeros((3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))
        h0 = Tensor(np.zeros((1, 4, 3)))
        factors = cell.layer_factors()
        with pytest.raises(ValueError):
            decode(h0, 2, cell, proj, factors, teacher_prob=0.5)
        with pytest.raises(ValueError):
            decode(h0, 2, cell, proj, factors, targets=np.zeros((2, 4, 2)), teacher_prob=0.5)

    def test_nonpositive_horizon_rejected(self):
        rng = np.random.default_rng(85)
        cell, _ = tiny_cell(rng)
        proj = (Tensor(np.zeros((3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True))
        with pytest.raises(ValueError):
            decode(Tensor(np.zeros((1, 4, 3))), 0, cell, proj, cell.layer_factors())


class TestSeq2Seq:
    def test_output_shapes(self):
        rng = np.random.default_rng(91)
        base = FactorPair(
            e1=Tensor(rng.standard_normal((4, 2)) * 0.5, requires_grad=True),
            e2=Tensor(rng.standard_normal((4, 2)) * 0.5, requires_grad=True),
        )
        model = build_seq2seq(2, 3, 2, 1, base, rng)
        single = model.forward(rng.standard_normal((5, 4, 2)), horizon=3)
        assert single.shape == (3, 4, 2)
        batched = model.forward(rng.standard_normal((6, 5, 4, 2)), horizon=3)
        assert batched.shape == (6, 3, 4, 2)

    def test_batched_forward_matches_per_sample(self):
        rng = np.random.default_rng(92)
        base = FactorPair(
            e1=Tensor(rng.standard_normal((4, 2)) * 0.5, requires_grad=True),
            e2=Tensor(rng.standard_normal((4, 2)) * 0.5, requires_grad=True),
        )
        model = build_seq2seq(2, 3, 2, 1, base, rng)
        windows = rng.standard_normal((3, 5, 4, 2))
        got = model.forward(windows, horizon=2)
        for b in range(3):
            single = model.forward(windows[b], horizon=2)
            np.testing.assert_allclose(got.data[b], single.data, atol=1e-10)

    def test_gradients_flow_through_whole_unroll(self):
        rng = np.random.default_rng(93)
        base = FactorPair(
            e1=Tensor(rng.standard_normal((3, 2)) * 0.5, requires_grad=True),
            e2=Tensor(rng.standard_normal((3, 2)) * 0.5, requires_grad=True),
        )
        model = build_seq2seq(1, 2, 2, 1, base, rng)
        window = rng.standard_normal((2, 3, 1))
        probe = Tensor(rng.standard_normal((2, 3, 1)))

        def forward():
            return tsum(mul(model.forward(window, horizon=2), probe))

        report = finite_difference_check(forward, model.named_parameters())
        assert report.passed, report.failures()

    def test_frozen_base_receives_no_gradient(self):
        rng = np.random.default_rng(94)
        base = FactorPair(
            e1=Tensor(rng.standard_normal((3, 2)), requires_grad=False),
            e2=Tensor(rng.standard_normal((3, 2)), requires_grad=False),
        )
        model = build_seq2seq(1, 2, 2, 1, base, rng)
        e1 = model.encoder.pairs[0][0]
        assert not e1.requires_grad
        loss = tsum(model.forward(rng.standard_normal((2, 3, 1)), horizon=2))
        grads = backward(loss)
        assert e1 not in grads
        assert model.encoder.reset.thetas[0][0] in grads


def batch_major_forward(model, window, horizon, targets, teacher_prob, rng):
    """Oracle: the batch-major recurrence op by op. Signals are (B, N, F);
    each gate runs its own loop diffusion per layer and its own attention
    chain, and the decoder stacks its frames along axis -3."""

    def diffusion(z, e1, e2, thetas):
        e2_t = transpose(e2, (1, 0))
        s, out = z, matmul(z, thetas[0])
        for theta in thetas[1:]:
            s = matmul(e1, matmul(e2_t, s))
            out = add(out, matmul(s, theta))
        return out

    def gate(z, g, factors):
        zs = []
        for (e1, e2), thetas in zip(factors, g.thetas):
            z = diffusion(z, e1, e2, thetas)
            zs.append(z)
        batch, n, beta = zs[0].shape
        flats = [reshape(z, (batch, n * beta)) for z in zs]
        alpha = softmax(concat([add(matmul(f, g.score_w), g.score_b) for f in flats], axis=1))
        stacked = concat([reshape(f, (batch, 1, n * beta)) for f in flats], axis=1)
        out = reshape(matmul(reshape(alpha, (batch, 1, len(zs))), stacked), (batch, n, beta))
        return add(out, g.bias)

    def step(x, h, cell, factors):
        xh = concat([x, h], axis=-1)
        r = t_sigmoid(gate(xh, cell.reset, factors))
        u = t_sigmoid(gate(xh, cell.update, factors))
        xc = concat([x, mul(r, h)], axis=-1)
        c = tanh(gate(xc, cell.candidate, factors))
        return add(mul(u, h), mul(sub(Tensor(1.0), u), c))

    enc, dec = model.encoder.layer_factors(), model.decoder.layer_factors()
    batch, steps, n, _ = window.shape
    h = Tensor(np.zeros((batch, n, model.encoder.hidden_size)))
    for t in range(steps):
        h = step(Tensor(window[:, t]), h, model.encoder, enc)
    w, b = model.projection
    y_prev = Tensor(np.zeros((batch, n, w.shape[1])))
    frames = []
    for q in range(horizon):
        h = step(y_prev, h, model.decoder, dec)
        y = add(matmul(h, w), b)
        frames.append(reshape(y, (batch, 1) + y.shape[1:]))
        if q + 1 < horizon:
            y_prev = Tensor(targets[:, q]) if rng.random() < teacher_prob else y
    return concat(frames, axis=1)


class TestNodeMajorRecurrence:
    @pytest.mark.parametrize("coupled", [True, False])
    def test_forward_and_gradients_match_batch_major_oracle(self, coupled):
        rng = np.random.default_rng(95 + coupled)
        n, rank, m, k, d, beta, p, q, batch = 5, 2, 3, 2, 2, 3, 3, 3, 3
        base = FactorPair(
            e1=Tensor(rng.standard_normal((n, rank)) * 0.5, requires_grad=True),
            e2=Tensor(rng.standard_normal((n, rank)) * 0.5, requires_grad=True),
        )
        model = build_seq2seq(d, beta, m, k, base, rng, coupled=coupled)
        params = model.named_parameters()
        for name, param in params.items():  # move every weight off its initial value
            param.data = param.data + rng.uniform(-0.3, 0.3, size=param.shape)
        window = rng.standard_normal((batch, p, n, d))
        targets = rng.standard_normal((batch, q, n, d))
        probe = rng.standard_normal((batch, q, n, d))

        # seed 0 draws 0.64, then 0.27: one fed-back projection, one target frame
        got = model.forward(window, q, targets=targets, teacher_prob=0.5,
                            rng=np.random.default_rng(0))
        want = batch_major_forward(model, window, q, targets, 0.5, np.random.default_rng(0))
        assert got.shape == want.shape == (batch, q, n, d)
        assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
        g_got = backward(tsum(mul(got, Tensor(probe))))
        g_want = backward(tsum(mul(want, Tensor(probe))))
        for name, param in params.items():
            a, b = g_got[param].data, g_want[param].data
            if name.endswith(".agg.bias"):
                # the softmax over layers ignores a shared offset: exactly zero
                assert np.array_equal(a, np.zeros(1)) and np.abs(b).max() < 1e-12, name
                continue
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


class TestParameterRegistry:
    def test_census_matches_closed_form(self):
        rng = np.random.default_rng(101)
        n, rank, m, k, d, beta = 7, 3, 3, 2, 2, 4
        base = FactorPair(
            e1=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
            e2=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
        )
        model = build_seq2seq(d, beta, m, k, base, rng)
        graph = 2 * n * rank + (m - 1) * rank * (rank + 1)
        per_gate = (k + 1) * ((d + beta) * beta + (m - 1) * beta * beta) + (n * beta + 1)
        cell = graph + 3 * per_gate + 3 * beta
        want = 2 * cell + beta * d + d
        assert count_parameters(model.named_parameters()) == want

    def test_gate_stacks_share_one_structure_per_cell(self):
        rng = np.random.default_rng(102)
        base = FactorPair(
            e1=Tensor(rng.standard_normal((5, 2)), requires_grad=True),
            e2=Tensor(rng.standard_normal((5, 2)), requires_grad=True),
        )
        model = build_seq2seq(1, 3, 2, 1, base, rng)
        enc, dec = model.encoder, model.decoder
        # Every gate of a cell reads the cell's one pair, through its layer factors.
        assert len(enc.pairs) == 1 and enc.layer_factors()[0] == enc.pairs[0]
        # Encoder and decoder start from the same values but train separately.
        np.testing.assert_array_equal(enc.pairs[0][0].data, dec.pairs[0][0].data)
        assert enc.pairs[0][0] is not dec.pairs[0][0]
        assert not set(map(id, enc.params.values())) & set(map(id, dec.params.values()))

    def test_uncoupled_variant_swaps_structure_kind(self):
        rng = np.random.default_rng(103)
        n, rank, m = 6, 2, 3
        base = FactorPair(
            e1=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
            e2=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
        )
        coupled = build_seq2seq(1, 3, m, 1, base, np.random.default_rng(1), coupled=True)
        uncoupled = build_seq2seq(1, 3, m, 1, base, np.random.default_rng(1), coupled=False)
        assert (len(coupled.encoder.pairs), len(coupled.encoder.couplings)) == (1, m - 1)
        assert (len(uncoupled.encoder.pairs), len(uncoupled.encoder.couplings)) == (m, 0)
        assert uncoupled.encoder.layer_factors() == uncoupled.encoder.pairs
        for e1, _ in uncoupled.encoder.pairs:
            np.testing.assert_array_equal(e1.data, base.e1.data)
        delta = count_parameters(uncoupled.named_parameters()) - count_parameters(
            coupled.named_parameters()
        )
        per_cell = (m - 1) * 2 * n * rank - (m - 1) * rank * (rank + 1)
        assert delta == 2 * per_cell

    @pytest.mark.parametrize("variant", ["full", "no_coupling"])
    def test_checkpoint_layout_is_pinned(self, variant):
        """The checkpoint names, their order and shapes at N=3, L=2, M=2, K=1."""
        config = RunConfig(variant=variant, rank=2, beta=2, m_layers=2, k_hops=1)
        model = build_model(config, np.ones((3, 2)), np.ones((3, 2)), channels=1)
        if variant == "full":
            graph = [("graph.e1", (3, 2)), ("graph.e2", (3, 2)),
                     ("graph.coupling0.w", (2, 2)), ("graph.coupling0.b", (2,))]
        else:
            graph = [("graph.layer0.e1", (3, 2)), ("graph.layer0.e2", (3, 2)),
                     ("graph.layer1.e1", (3, 2)), ("graph.layer1.e2", (3, 2))]
        gate = [("layer0.theta0", (3, 2)), ("layer0.theta1", (3, 2)),
                ("layer1.theta0", (2, 2)), ("layer1.theta1", (2, 2)),
                ("agg.weight", (6, 1)), ("agg.bias", (1,))]
        gates = ("reset", "update", "candidate")
        cell = graph + [(f"{g}.{key}", shape) for g in gates for key, shape in gate]
        cell += [(f"bias.{g}", (2,)) for g in gates]
        want = [(f"{c}.{key}", shape) for c in ("encoder", "decoder") for key, shape in cell]
        want += [("proj.weight", (2, 1)), ("proj.bias", (1,))]
        got = [(key, t.shape) for key, t in model.named_parameters().items()]
        assert got == want

    def test_every_tensor_carries_its_checkpoint_name(self):
        base = FactorPair(e1=Tensor(np.ones((3, 2))), e2=Tensor(np.ones((3, 2))))
        for coupled in (True, False):
            model = build_seq2seq(1, 2, 3, 1, base, np.random.default_rng(0), coupled=coupled)
            params = model.named_parameters()
            assert all(t.name == key for key, t in params.items())
            assert len(set(map(id, params.values()))) == len(params)


class TestSamplingSchedule:
    def test_starts_near_one(self):
        assert sampling_probability(0, 2000.0) == pytest.approx(2000.0 / 2001.0)

    def test_halfway_point(self):
        s = 2000.0
        it = round(s * math.log(s))
        assert sampling_probability(it, s) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_decreasing_to_zero(self):
        s = 50.0
        values = [sampling_probability(i, s) for i in range(0, 5000, 100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sampling_probability(10_000_000, s) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sampling_probability(0, 0.0)
        with pytest.raises(ValueError):
            sampling_probability(-1, 10.0)
