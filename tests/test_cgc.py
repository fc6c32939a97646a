"""Coupled graph convolution against dense-adjacency and literal-recursion oracles."""

import numpy as np
import pytest

from ccrnn.cgc import (
    AggregationParams,
    CgcLayerParams,
    CgcStack,
    CoupledStructure,
    CouplingParams,
    IndependentStructure,
    aggregate_levels,
    attention_weights,
    cgc_forward,
    count_parameters,
    couple_embeddings,
    init_aggregation,
    init_layers,
    propagate_layer,
    stack_named_parameters,
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


def make_layer(rng, dim_in, beta, k):
    return CgcLayerParams(
        thetas=[
            Tensor(rng.standard_normal((dim_in, beta)), requires_grad=True)
            for _ in range(k + 1)
        ]
    )


def one_gate(zs):
    """Level outputs (N, ..., beta) as a one-gate stack's (1, N, ..., beta)."""
    return [Tensor(z.data[None]) for z in zs]


def make_pair(rng, n, rank):
    return FactorPair(
        e1=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
        e2=Tensor(rng.standard_normal((n, rank)), requires_grad=True),
    )


class TestPropagateLayer:
    def test_matches_dense_matrix_powers(self):
        rng = np.random.default_rng(11)
        n, rank, dim_in, beta, k = 9, 3, 4, 5, 3
        pair = make_pair(rng, n, rank)
        layer = make_layer(rng, dim_in, beta, k)
        z = Tensor(rng.standard_normal((1, n, dim_in)))

        got = propagate_layer(z, pair.e1, pair.e2, [layer])
        want = dense_diffusion(
            z.data[0], pair.e1.data, pair.e2.data, [t.data for t in layer.thetas]
        )
        np.testing.assert_allclose(got.data[0], want, atol=1e-9)

    def test_k_zero_is_pure_linear_map(self):
        rng = np.random.default_rng(12)
        pair = make_pair(rng, 6, 2)
        layer = make_layer(rng, 3, 4, 0)
        z = Tensor(rng.standard_normal((1, 6, 3)))
        got = propagate_layer(z, pair.e1, pair.e2, [layer])
        np.testing.assert_allclose(got.data, z.data @ layer.thetas[0].data, atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(13)
        pair = make_pair(rng, 7, 3)
        layer = make_layer(rng, 2, 4, 2)
        zb = rng.standard_normal((1, 7, 5, 2))  # node-major: gate, stations, batch, features
        got = propagate_layer(Tensor(zb), pair.e1, pair.e2, [layer])
        for b in range(5):
            single = propagate_layer(Tensor(zb[:, :, b]), pair.e1, pair.e2, [layer])
            np.testing.assert_allclose(got.data[:, :, b], single.data, atol=1e-12)

    def test_signal_width_mismatch_raises(self):
        rng = np.random.default_rng(14)
        pair = make_pair(rng, 5, 2)
        layer = make_layer(rng, 3, 4, 1)
        with pytest.raises(ShapeError):
            propagate_layer(Tensor(rng.standard_normal((1, 5, 7))), pair.e1, pair.e2, [layer])


class TestCoupling:
    def test_identity_coupling_is_noop(self):
        rng = np.random.default_rng(21)
        pair = make_pair(rng, 8, 3)
        coupling = CouplingParams.identity(3)
        e1, e2 = couple_embeddings(pair.e1, pair.e2, coupling)
        np.testing.assert_array_equal(e1.data, pair.e1.data)
        np.testing.assert_array_equal(e2.data, pair.e2.data)

    def test_affine_map_is_shared_across_both_factors(self):
        rng = np.random.default_rng(22)
        pair = make_pair(rng, 8, 3)
        coupling = CouplingParams(
            w=Tensor(rng.standard_normal((3, 3)), requires_grad=True),
            b=Tensor(rng.standard_normal(3), requires_grad=True),
        )
        e1, e2 = couple_embeddings(pair.e1, pair.e2, coupling)
        np.testing.assert_allclose(e1.data, pair.e1.data @ coupling.w.data + coupling.b.data)
        np.testing.assert_allclose(e2.data, pair.e2.data @ coupling.w.data + coupling.b.data)

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(23)
        pair = make_pair(rng, 8, 3)
        with pytest.raises(ShapeError):
            couple_embeddings(pair.e1, pair.e2, CouplingParams.identity(4))


class TestCgcForward:
    def test_three_layer_literal_recursion(self):
        """Spell out the M=3 recursion by hand and compare layer by layer."""
        rng = np.random.default_rng(31)
        n, rank, dim_in, beta, k = 6, 2, 3, 4, 2
        pair = make_pair(rng, n, rank)
        couplings = [
            CouplingParams(
                w=Tensor(rng.standard_normal((rank, rank)), requires_grad=True),
                b=Tensor(rng.standard_normal(rank), requires_grad=True),
            )
            for _ in range(2)
        ]
        structure = CoupledStructure(pair, couplings)
        layers = [make_layer(rng, dim_in, beta, k)] + [
            make_layer(rng, beta, beta, k) for _ in range(2)
        ]
        stack = CgcStack(layers, init_aggregation(n, beta))
        x = Tensor(rng.standard_normal((1, n, dim_in)))

        outs = cgc_forward(x, [stack], structure.layer_factors())

        e1, e2 = pair.e1.data, pair.e2.data
        z = x.data[0]
        for m in range(3):
            if m > 0:
                w, b = couplings[m - 1].w.data, couplings[m - 1].b.data
                e1, e2 = e1 @ w + b, e2 @ w + b
            z = dense_diffusion(z, e1, e2, [t.data for t in layers[m].thetas])
            np.testing.assert_allclose(outs[m].data[0], z, atol=1e-9)

    def test_identity_couplings_reuse_base_adjacency(self):
        rng = np.random.default_rng(32)
        pair = make_pair(rng, 5, 2)
        structure = CoupledStructure(pair, [CouplingParams.identity(2)])
        factors = structure.layer_factors()
        np.testing.assert_array_equal(factors[1][0].data, pair.e1.data)
        np.testing.assert_array_equal(factors[1][1].data, pair.e2.data)

    def test_fused_stacks_match_separate_runs(self):
        """Two stacks over one structure run fused: a leading gate axis, layer 1
        reading the shared input, deeper layers each gate's own signal."""
        rng = np.random.default_rng(35)
        n, rank, m, k, dim_in, beta = 6, 2, 3, 2, 3, 4
        structure = CoupledStructure(
            make_pair(rng, n, rank),
            [
                CouplingParams(
                    w=Tensor(rng.standard_normal((rank, rank)), requires_grad=True),
                    b=Tensor(rng.standard_normal(rank), requires_grad=True),
                )
                for _ in range(m - 1)
            ],
        )
        stacks = [
            CgcStack(init_layers(dim_in, beta, m, k, rng), init_aggregation(n, beta))
            for _ in range(2)
        ]
        factors = structure.layer_factors()
        x = Tensor(rng.standard_normal((1, n, 5, dim_in)))
        fused = cgc_forward(x, stacks, factors)
        for g, stack in enumerate(stacks):
            for z_fused, z_single in zip(fused, cgc_forward(x, [stack], factors)):
                assert z_single.shape[0] == 1
                assert z_fused.shape == (2,) + z_single.shape[1:]
                np.testing.assert_allclose(z_fused.data[g], z_single.data[0], atol=1e-12)

    def test_factor_count_mismatch_raises(self):
        rng = np.random.default_rng(34)
        pair = make_pair(rng, 5, 2)
        stack = CgcStack([make_layer(rng, 3, 4, 1)], init_aggregation(5, 4))
        with pytest.raises(ShapeError):
            cgc_forward(
                Tensor(rng.standard_normal((1, 5, 3))),
                [stack],
                layer_factors=[(pair.e1, pair.e2), (pair.e1, pair.e2)],
            )


class TestAggregation:
    def test_zero_init_scores_give_uniform_average(self):
        rng = np.random.default_rng(41)
        zs = [Tensor(rng.standard_normal((6, 4))) for _ in range(3)]
        agg = init_aggregation(6, 4)
        out = aggregate_levels(one_gate(zs), [agg])
        want = sum(z.data for z in zs) / 3.0
        np.testing.assert_allclose(out.data[0], want, atol=1e-12)
        np.testing.assert_allclose(attention_weights(zs, agg), np.full((1, 3), 1 / 3))

    def test_weights_form_simplex_and_weight_the_sum(self):
        rng = np.random.default_rng(42)
        zs = [Tensor(rng.standard_normal((5, 3))) for _ in range(4)]
        agg = AggregationParams(
            w_alpha=Tensor(rng.standard_normal((15, 1)), requires_grad=True),
            b_alpha=Tensor(rng.standard_normal(1), requires_grad=True),
        )
        alpha = attention_weights(zs, agg)
        assert alpha.shape == (1, 4)
        assert np.all(alpha > 0)
        np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-12)
        out = aggregate_levels(one_gate(zs), [agg])
        want = sum(a * z.data for a, z in zip(alpha[0], zs))
        np.testing.assert_allclose(out.data[0], want, atol=1e-10)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(43)
        zb = [rng.standard_normal((1, 5, 3, 2)) for _ in range(2)]  # node-major
        agg = AggregationParams(
            w_alpha=Tensor(rng.standard_normal((10, 1)), requires_grad=True),
            b_alpha=Tensor(rng.standard_normal(1), requires_grad=True),
        )
        got = aggregate_levels([Tensor(z) for z in zb], [agg])
        for b in range(3):
            single = aggregate_levels([Tensor(z[:, :, b]) for z in zb], [agg])
            np.testing.assert_allclose(got.data[:, :, b], single.data, atol=1e-12)

    def test_gated_matches_per_gate(self):
        rng = np.random.default_rng(44)
        zs = [Tensor(rng.standard_normal((2, 5, 3, 2))) for _ in range(3)]
        aggs = [
            AggregationParams(
                w_alpha=Tensor(rng.standard_normal((10, 1)), requires_grad=True),
                b_alpha=Tensor(rng.standard_normal(1), requires_grad=True),
            )
            for _ in range(2)
        ]
        got = aggregate_levels(zs, aggs)
        for g, agg in enumerate(aggs):
            single = aggregate_levels([Tensor(z.data[g : g + 1]) for z in zs], [agg])
            np.testing.assert_allclose(got.data[g], single.data[0], atol=1e-12)

    def test_attention_weights_read_batch_major_outputs(self):
        rng = np.random.default_rng(45)
        zs = [rng.standard_normal((3, 5, 2)) for _ in range(2)]
        agg = AggregationParams(
            w_alpha=Tensor(rng.standard_normal((10, 1)), requires_grad=True),
            b_alpha=Tensor(np.zeros(1), requires_grad=True),
        )
        alpha = attention_weights([Tensor(z) for z in zs], agg)
        scores = np.stack([z.reshape(3, 10) @ agg.w_alpha.data[:, 0] for z in zs], axis=1)
        want = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alpha, want, atol=1e-12)

    def test_shape_disagreement_raises(self):
        with pytest.raises(ShapeError):
            aggregate_levels(
                [Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((1, 5, 2)))],
                [init_aggregation(4, 2)],
            )

    def test_empty_list_raises(self):
        with pytest.raises(ShapeError):
            aggregate_levels([], [init_aggregation(4, 2)])


class TestParameterCensus:
    def test_coupled_structure_count(self):
        """Structure parameters: 2NL for the base pair plus (M-1)L(L+1) couplings."""
        rng = np.random.default_rng(51)
        n, rank, m = 250, 50, 3
        pair = make_pair(rng, n, rank)
        structure = CoupledStructure(
            pair, [CouplingParams.identity(rank) for _ in range(m - 1)]
        )
        count = count_parameters(structure.named_parameters("g"))
        assert count == 2 * n * rank + (m - 1) * rank * (rank + 1)
        assert count == 30_100

    def test_uncoupled_delta(self):
        """Dropping the coupling trades (M-1) affine maps for (M-1) fresh pairs."""
        rng = np.random.default_rng(52)
        n, rank, m = 250, 50, 3
        coupled = CoupledStructure(
            make_pair(rng, n, rank),
            [CouplingParams.identity(rank) for _ in range(m - 1)],
        )
        independent = IndependentStructure([make_pair(rng, n, rank) for _ in range(m)])
        delta = count_parameters(
            independent.named_parameters("g")
        ) - count_parameters(coupled.named_parameters("g"))
        assert delta == (m - 1) * 2 * n * rank - (m - 1) * rank * (rank + 1)

    def test_stack_census_and_sharing(self):
        rng = np.random.default_rng(53)
        n, rank, m, k, dim_in, beta = 12, 4, 3, 2, 5, 6
        structure = CoupledStructure(
            make_pair(rng, n, rank),
            [CouplingParams.identity(rank) for _ in range(m - 1)],
        )
        stack_a = CgcStack(init_layers(dim_in, beta, m, k, rng), init_aggregation(n, beta))
        stack_b = CgcStack(init_layers(dim_in, beta, m, k, rng), init_aggregation(n, beta))

        filters = (k + 1) * (dim_in * beta + (m - 1) * beta * beta)
        agg = n * beta + 1
        graph = 2 * n * rank + (m - 1) * rank * (rank + 1)
        named_a = stack_named_parameters(stack_a, "a")
        assert count_parameters(named_a) == filters + agg

        # Two stacks over one structure: the graph is counted once.
        both = structure.named_parameters("graph")
        both.update(named_a)
        both.update(stack_named_parameters(stack_b, "b"))
        assert count_parameters(both) == graph + 2 * (filters + agg)

    def test_frozen_tensors_excluded(self):
        rng = np.random.default_rng(54)
        pair = FactorPair(
            e1=Tensor(rng.standard_normal((5, 2)), requires_grad=False),
            e2=Tensor(rng.standard_normal((5, 2)), requires_grad=False),
        )
        structure = CoupledStructure(pair, [CouplingParams.identity(2)])
        named = structure.named_parameters("g")
        assert count_parameters(named) == 2 * (2 + 1)
        assert count_parameters(named, trainable_only=False) == 2 * 5 * 2 + 2 * 3


class TestGradients:
    def test_full_stack_finite_differences(self):
        rng = np.random.default_rng(61)
        n, rank, m, k, dim_in, beta = 4, 2, 2, 2, 3, 2
        structure = CoupledStructure(
            make_pair(rng, n, rank),
            [CouplingParams.identity(rank) for _ in range(m - 1)],
        )
        stack = CgcStack(init_layers(dim_in, beta, m, k, rng), init_aggregation(n, beta))
        # Zero-init aggregation has flat gradients in w_alpha only at the
        # symmetric point; nudge it so every parameter participates.
        stack.aggregation.w_alpha.data += rng.standard_normal((n * beta, 1)) * 0.1
        stack.aggregation.b_alpha.data += 0.05

        x = Tensor(rng.standard_normal((1, n, dim_in)))
        probe = Tensor(rng.standard_normal((1, n, beta)))

        def forward():
            zs = cgc_forward(x, [stack], structure.layer_factors())
            return tsum(mul(aggregate_levels(zs, [stack.aggregation]), probe))

        params = structure.named_parameters("s.graph")
        params.update(stack_named_parameters(stack, "s"))
        report = finite_difference_check(forward, params)
        assert report.passed, report.failures()
