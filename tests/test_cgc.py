"""Coupled graph convolution against dense-adjacency and literal-recursion oracles."""

import numpy as np
import pytest

from ccrnn.ccgru import build_cell
from ccrnn.cgc import (
    Gate,
    aggregate_levels,
    attention_weights,
    cgc_forward,
    count_parameters,
    couple_embeddings,
    layer_factors,
    propagate_layer,
)
from ccrnn.graphgen import FactorPair
from ccrnn.tensor import (
    ShapeError,
    Tensor,
    finite_difference_check,
    mul,
    tsum,
)


def dense_diffusion(z, e1, e2, thetas):
    """Oracle: materialize A = E1 E2^T and apply explicit matrix powers."""
    a = e1 @ e2.T
    out = z @ thetas[0]
    s = z
    for theta in thetas[1:]:
        s = a @ s
        out = out + s @ theta
    return out


def make_thetas(rng, dim_in, beta, k):
    return [Tensor(rng.standard_normal((dim_in, beta)), requires_grad=True) for _ in range(k + 1)]


def make_gate(rng, n, beta, widths, k):
    """Random filters, one list per layer of input width `widths[m]`, and a zero scorer."""
    return Gate(
        thetas=[make_thetas(rng, width, beta, k) for width in widths],
        score_w=Tensor(np.zeros((n * beta, 1)), requires_grad=True),
        score_b=Tensor(np.zeros(1), requires_grad=True),
        bias=Tensor(np.zeros(beta), requires_grad=True),
    )


def scorer(w, b=None):
    """A gate that only scores levels: `w` is (N*beta) x 1."""
    b = np.zeros(1) if b is None else b
    return Gate([], Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), Tensor(0.0))


def one_gate(zs):
    """Level outputs (N, ..., beta) as a one-gate stack's (1, N, ..., beta)."""
    return [Tensor(z.data[None]) for z in zs]


def make_pair(rng, n, rank):
    return (
        Tensor(rng.standard_normal((n, rank)), requires_grad=True),
        Tensor(rng.standard_normal((n, rank)), requires_grad=True),
    )


def make_coupling(rng, rank):
    return (
        Tensor(rng.standard_normal((rank, rank)), requires_grad=True),
        Tensor(rng.standard_normal(rank), requires_grad=True),
    )


def identity_coupling(rank):
    return Tensor(np.eye(rank), requires_grad=True), Tensor(np.zeros(rank), requires_grad=True)


def census(rng, n, rank, m, coupled, trainable=True, k=1, channels=2, beta=3):
    """A cell's parameters split into its graph and its gates, by checkpoint name."""
    base = FactorPair(
        e1=Tensor(rng.standard_normal((n, rank)), requires_grad=trainable),
        e2=Tensor(rng.standard_normal((n, rank)), requires_grad=trainable),
    )
    cell = build_cell(channels, beta, m, k, base, coupled, rng, "cell")
    graph = {key: t for key, t in cell.params.items() if key.startswith("cell.graph.")}
    return graph, cell.params


class TestPropagateLayer:
    def test_matches_dense_matrix_powers(self):
        rng = np.random.default_rng(11)
        n, rank, dim_in, beta, k = 9, 3, 4, 5, 3
        e1, e2 = make_pair(rng, n, rank)
        thetas = make_thetas(rng, dim_in, beta, k)
        z = Tensor(rng.standard_normal((1, n, dim_in)))

        got = propagate_layer(z, e1, e2, [thetas])
        want = dense_diffusion(z.data[0], e1.data, e2.data, [t.data for t in thetas])
        np.testing.assert_allclose(got.data[0], want, atol=1e-9)

    def test_k_zero_is_pure_linear_map(self):
        rng = np.random.default_rng(12)
        e1, e2 = make_pair(rng, 6, 2)
        thetas = make_thetas(rng, 3, 4, 0)
        z = Tensor(rng.standard_normal((1, 6, 3)))
        got = propagate_layer(z, e1, e2, [thetas])
        np.testing.assert_allclose(got.data, z.data @ thetas[0].data, atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(13)
        e1, e2 = make_pair(rng, 7, 3)
        thetas = make_thetas(rng, 2, 4, 2)
        zb = rng.standard_normal((1, 7, 5, 2))  # node-major: gate, stations, batch, features
        got = propagate_layer(Tensor(zb), e1, e2, [thetas])
        for b in range(5):
            single = propagate_layer(Tensor(zb[:, :, b]), e1, e2, [thetas])
            np.testing.assert_allclose(got.data[:, :, b], single.data, atol=1e-12)

    def test_signal_width_mismatch_raises(self):
        rng = np.random.default_rng(14)
        e1, e2 = make_pair(rng, 5, 2)
        thetas = make_thetas(rng, 3, 4, 1)
        with pytest.raises(ShapeError):
            propagate_layer(Tensor(rng.standard_normal((1, 5, 7))), e1, e2, [thetas])


class TestCoupling:
    def test_identity_coupling_is_noop(self):
        rng = np.random.default_rng(21)
        pair = make_pair(rng, 8, 3)
        e1, e2 = couple_embeddings(*pair, *identity_coupling(3))
        np.testing.assert_array_equal(e1.data, pair[0].data)
        np.testing.assert_array_equal(e2.data, pair[1].data)

    def test_affine_map_is_shared_across_both_factors(self):
        rng = np.random.default_rng(22)
        pair = make_pair(rng, 8, 3)
        w, b = make_coupling(rng, 3)
        e1, e2 = couple_embeddings(*pair, w, b)
        np.testing.assert_allclose(e1.data, pair[0].data @ w.data + b.data)
        np.testing.assert_allclose(e2.data, pair[1].data @ w.data + b.data)

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(23)
        pair = make_pair(rng, 8, 3)
        with pytest.raises(ShapeError):
            couple_embeddings(*pair, *identity_coupling(4))


class TestCgcForward:
    def test_three_layer_literal_recursion(self):
        """Spell out the M=3 recursion by hand and compare layer by layer."""
        rng = np.random.default_rng(31)
        n, rank, dim_in, beta, k = 6, 2, 3, 4, 2
        pair = make_pair(rng, n, rank)
        couplings = [make_coupling(rng, rank) for _ in range(2)]
        gate = make_gate(rng, n, beta, [dim_in, beta, beta], k)
        x = Tensor(rng.standard_normal((1, n, dim_in)))

        outs = cgc_forward(x, [gate], layer_factors([pair], couplings))

        e1, e2 = pair[0].data, pair[1].data
        z = x.data[0]
        for m in range(3):
            if m > 0:
                w, b = couplings[m - 1][0].data, couplings[m - 1][1].data
                e1, e2 = e1 @ w + b, e2 @ w + b
            z = dense_diffusion(z, e1, e2, [t.data for t in gate.thetas[m]])
            np.testing.assert_allclose(outs[m].data[0], z, atol=1e-9)

    def test_identity_couplings_reuse_base_adjacency(self):
        rng = np.random.default_rng(32)
        pair = make_pair(rng, 5, 2)
        factors = layer_factors([pair], [identity_coupling(2)])
        np.testing.assert_array_equal(factors[1][0].data, pair[0].data)
        np.testing.assert_array_equal(factors[1][1].data, pair[1].data)

    def test_uncoupled_pairs_pass_through(self):
        rng = np.random.default_rng(33)
        pairs = [make_pair(rng, 5, 2) for _ in range(3)]
        assert layer_factors(pairs, []) == pairs

    def test_fused_stacks_match_separate_runs(self):
        """Two gates over one structure run fused: a leading gate axis, layer 1
        reading the shared input, deeper layers each gate's own signal."""
        rng = np.random.default_rng(35)
        n, rank, m, k, dim_in, beta = 6, 2, 3, 2, 3, 4
        factors = layer_factors(
            [make_pair(rng, n, rank)], [make_coupling(rng, rank) for _ in range(m - 1)]
        )
        gates = [make_gate(rng, n, beta, [dim_in] + [beta] * (m - 1), k) for _ in range(2)]
        x = Tensor(rng.standard_normal((1, n, 5, dim_in)))
        fused = cgc_forward(x, gates, factors)
        for g, gate in enumerate(gates):
            for z_fused, z_single in zip(fused, cgc_forward(x, [gate], factors)):
                assert z_single.shape[0] == 1
                assert z_fused.shape == (2,) + z_single.shape[1:]
                np.testing.assert_allclose(z_fused.data[g], z_single.data[0], atol=1e-12)

    def test_factor_count_mismatch_raises(self):
        rng = np.random.default_rng(34)
        pair = make_pair(rng, 5, 2)
        gate = make_gate(rng, 5, 4, [3], 1)
        with pytest.raises(ShapeError):
            cgc_forward(Tensor(rng.standard_normal((1, 5, 3))), [gate], [pair, pair])


class TestAggregation:
    def test_zero_init_scores_give_uniform_average(self):
        rng = np.random.default_rng(41)
        zs = [Tensor(rng.standard_normal((6, 4))) for _ in range(3)]
        gate = scorer(np.zeros((24, 1)))
        out = aggregate_levels(one_gate(zs), [gate])
        want = sum(z.data for z in zs) / 3.0
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)
        np.testing.assert_allclose(attention_weights(zs, gate), np.full((1, 3), 1 / 3))

    def test_weights_form_simplex_and_weight_the_sum(self):
        rng = np.random.default_rng(42)
        zs = [Tensor(rng.standard_normal((5, 3))) for _ in range(4)]
        gate = scorer(rng.standard_normal((15, 1)), rng.standard_normal(1))
        alpha = attention_weights(zs, gate)
        assert alpha.shape == (1, 4)
        assert np.all(alpha > 0)
        np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-12)
        out = aggregate_levels(one_gate(zs), [gate])
        want = sum(a * z.data for a, z in zip(alpha[0], zs))
        np.testing.assert_allclose(out.data[0], want, atol=1e-10)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(43)
        zb = [rng.standard_normal((1, 5, 3, 2)) for _ in range(2)]  # node-major
        gate = scorer(rng.standard_normal((10, 1)), rng.standard_normal(1))
        got = aggregate_levels([Tensor(z) for z in zb], [gate])
        for b in range(3):
            single = aggregate_levels([Tensor(z[:, :, b]) for z in zb], [gate])
            np.testing.assert_allclose(got.data[:, :, b], single.data, atol=1e-12)

    def test_gated_matches_per_gate(self):
        rng = np.random.default_rng(44)
        zs = [Tensor(rng.standard_normal((2, 5, 3, 2))) for _ in range(3)]
        gates = [scorer(rng.standard_normal((10, 1)), rng.standard_normal(1)) for _ in range(2)]
        got = aggregate_levels(zs, gates)
        for g, gate in enumerate(gates):
            single = aggregate_levels([Tensor(z.data[g : g + 1]) for z in zs], [gate])
            np.testing.assert_allclose(got.data[g], single.data[0], atol=1e-12)

    def test_attention_weights_read_batch_major_outputs(self):
        rng = np.random.default_rng(45)
        zs = [rng.standard_normal((3, 5, 2)) for _ in range(2)]
        gate = scorer(rng.standard_normal((10, 1)))
        alpha = attention_weights([Tensor(z) for z in zs], gate)
        scores = np.stack([z.reshape(3, 10) @ gate.score_w.data[:, 0] for z in zs], axis=1)
        want = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alpha, want, atol=1e-12)

    def test_shape_disagreement_raises(self):
        with pytest.raises(ShapeError):
            aggregate_levels(
                [Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 5, 2)))],
                [scorer(np.zeros((8, 1)))],
            )

    def test_empty_list_raises(self):
        with pytest.raises(ShapeError):
            aggregate_levels([], [scorer(np.zeros((8, 1)))])


class TestParameterCensus:
    def test_coupled_structure_count(self):
        """Structure parameters: 2NL for the base pair plus (M-1)L(L+1) couplings."""
        rng = np.random.default_rng(51)
        n, rank, m = 250, 50, 3
        graph, _ = census(rng, n, rank, m, coupled=True)
        count = count_parameters(graph)
        assert count == 2 * n * rank + (m - 1) * rank * (rank + 1)
        assert count == 30_100

    def test_uncoupled_delta(self):
        """Dropping the coupling trades (M-1) affine maps for (M-1) fresh pairs."""
        rng = np.random.default_rng(52)
        n, rank, m = 250, 50, 3
        coupled, _ = census(rng, n, rank, m, coupled=True)
        independent, _ = census(rng, n, rank, m, coupled=False)
        delta = count_parameters(independent) - count_parameters(coupled)
        assert delta == (m - 1) * 2 * n * rank - (m - 1) * rank * (rank + 1)

    def test_stack_census_and_sharing(self):
        rng = np.random.default_rng(53)
        n, rank, m, k, channels, beta = 12, 4, 3, 2, 2, 6
        graph, params = census(rng, n, rank, m, coupled=True, k=k, channels=channels, beta=beta)

        filters = (k + 1) * ((channels + beta) * beta + (m - 1) * beta * beta)
        agg = n * beta + 1
        for gate in ("reset", "update", "candidate"):
            named = {key: t for key, t in params.items() if key.startswith(f"cell.{gate}.")}
            assert count_parameters(named) == filters + agg
        assert count_parameters(graph) == 2 * n * rank + (m - 1) * rank * (rank + 1)
        assert count_parameters(params) == count_parameters(graph) + 3 * (filters + agg + beta)

        # A tensor registered under two names is counted once.
        aliased = {**params, **{f"alias.{key}": t for key, t in graph.items()}}
        assert count_parameters(aliased) == count_parameters(params)

    def test_frozen_tensors_excluded(self):
        rng = np.random.default_rng(54)
        graph, _ = census(rng, 5, 2, 2, coupled=True, trainable=False)
        assert count_parameters(graph) == 2 * (2 + 1)
        assert count_parameters(graph, trainable_only=False) == 2 * 5 * 2 + 2 * 3


class TestGradients:
    def test_full_stack_finite_differences(self):
        rng = np.random.default_rng(61)
        n, rank, m, k, dim_in, beta = 4, 2, 2, 2, 3, 2
        pair = make_pair(rng, n, rank)
        couplings = [identity_coupling(rank) for _ in range(m - 1)]
        gate = make_gate(rng, n, beta, [dim_in] + [beta] * (m - 1), k)
        # Zero-init aggregation has flat gradients in score_w only at the
        # symmetric point; nudge it so every parameter participates.
        gate.score_w.data += rng.standard_normal((n * beta, 1)) * 0.1
        gate.score_b.data += 0.05

        x = Tensor(rng.standard_normal((1, n, dim_in)))
        probe = Tensor(rng.standard_normal((1, n, beta)))

        def forward():
            zs = cgc_forward(x, [gate], layer_factors([pair], couplings))
            return tsum(mul(aggregate_levels(zs, [gate]), probe))

        params = {"e1": pair[0], "e2": pair[1], "score_w": gate.score_w, "score_b": gate.score_b}
        for c, (w, b) in enumerate(couplings):
            params.update({f"coupling{c}.w": w, f"coupling{c}.b": b})
        for j, thetas in enumerate(gate.thetas):
            params.update({f"layer{j}.theta{i}": t for i, t in enumerate(thetas)})
        report = finite_difference_check(forward, params)
        assert report.passed, report.failures()
