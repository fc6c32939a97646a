"""Tensor core: forward semantics, broadcasting, and reverse-mode gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrnn.tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    diffuse,
    finite_difference_check,
    level_attention,
    matmul,
    mul,
    no_grad,
    reshape,
    sigmoid,
    softmax,
    sqrt,
    sub,
    take,
    tanh,
    tmean,
    transpose,
    tsum,
)


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent reference product, no vectorized shortcuts."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_projector(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, triple_loop_matmul(a, b), atol=1e-12)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        for i in range(5):
            np.testing.assert_allclose(got[i], a[i] @ b, atol=1e-12)

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Tensor(rng.standard_normal((4, 5)))
            b = Tensor(rng.standard_normal((5, 3)))
            c = Tensor(rng.standard_normal((3, 6)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            scale = max(np.abs(left).max(), 1.0)
            assert np.abs(left - right).max() / scale < 1e-9


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)

    def test_tanh_at_zero(self):
        assert tanh(Tensor(0.0)).item() == 0.0

    def test_hadamard(self):
        out = mul(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(out.data, [4.0, 10.0, 18.0])

    def test_non_broadcastable_shapes_raise(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_trailing_axis_broadcast(self):
        out = add(Tensor(np.ones((2, 3))), Tensor([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(out.data, [[11, 21, 31], [11, 21, 31]])

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
                   1000.0, -1000.0, np.inf, -np.inf, np.nan]
        x = np.concatenate([special, np.random.default_rng(3).standard_normal(10_000) * 10])
        with np.errstate(over="raise"):
            got = sigmoid(Tensor(x)).data
        want = two_branch(x)
        # a NaN stays NaN; its sign bit carries no value and is not compared
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)

    def test_single_element(self):
        np.testing.assert_allclose(softmax(Tensor([2.7])).data, [1.0])

    def test_two_element_analytic(self):
        got = softmax(Tensor([1.0, 2.0])).data
        e1, e2 = np.exp(1.0), np.exp(2.0)
        np.testing.assert_allclose(got, [e1 / (e1 + e2), e2 / (e1 + e2)], atol=1e-12)
        np.testing.assert_allclose(got, [0.2689, 0.7311], atol=1e-4)

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((3, 0))), axis=1)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_simplex_property_even_at_large_magnitude(self, values):
        out = softmax(Tensor(values)).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grads = backward(tsum(w))
        np.testing.assert_array_equal(grads[w].data, [1.0, 1.0, 1.0])

    def test_square_gives_two_w(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        grads = backward(tsum(mul(w, w)))
        np.testing.assert_allclose(grads[w].data, [2.0, 4.0])

    def test_fanout_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        grads = backward(tsum(add(w, w)))
        np.testing.assert_array_equal(grads[w].data, [2.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(mul(w, w))

    def test_gradient_map_covers_participants_only(self):
        w = Tensor([1.0], requires_grad=True)
        unused = Tensor([1.0], requires_grad=True)
        grads = backward(tsum(mul(w, Tensor([2.0]))))
        assert w in grads and unused not in grads
        assert grads[w].shape == w.shape

    def test_no_grad_suppresses_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = mul(w, w)
        assert out._parents is None and not out.requires_grad


def loop_diffusion(z, e1, e2, thetas):
    """Oracle: the op-by-op K-hop loop on a node-major signal (N, ..., F),
    S_{i+1} = E1 (E2^T S_i) with the batch axes folded into columns, one
    filter per hop."""
    e2_t = transpose(e2, (1, 0))
    columns = (z.shape[0], z.size // z.shape[0])
    s = z
    out = matmul(s, thetas[0])
    for theta in thetas[1:]:
        s = reshape(matmul(e1, matmul(e2_t, reshape(s, columns))), z.shape)
        out = add(out, matmul(s, theta))
    return out


def _diffusion_operands(rng, lead, n, rank, f, beta, k, scale=1.0):
    """One gate: a signal (1, N, ..., F) and a single list of K+1 filters."""
    z = Tensor(scale * rng.standard_normal((1, n) + lead + (f,)), requires_grad=True)
    e1 = Tensor(scale * rng.standard_normal((n, rank)), requires_grad=True)
    e2 = Tensor(scale * rng.standard_normal((n, rank)), requires_grad=True)
    thetas = [Tensor(scale * rng.standard_normal((f, beta)), requires_grad=True)
              for _ in range(k + 1)]
    return z, e1, e2, thetas


class TestDiffuse:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_op_by_op_loop(self, k, lead):
        """Value and every gradient agree with the loop for ranks 1-4."""
        rng = np.random.default_rng(100 + 10 * k + len(lead))
        n, f, beta = 6, 3, 4
        for rank in range(1, 5):
            z, e1, e2, thetas = _diffusion_operands(rng, lead, n, rank, f, beta, k)
            weight = Tensor(rng.standard_normal((1, n) + lead + (beta,)))
            got = diffuse(z, e1, e2, [thetas])
            want = reshape(loop_diffusion(take(z, 0), e1, e2, thetas), got.shape)
            assert got.shape == want.shape
            pairs = [(got.data, want.data)]
            g_got = backward(tsum(mul(got, weight)))
            g_want = backward(tsum(mul(want, weight)))
            for t in (z, e1, e2, *thetas):
                # at K=0 the loop never reaches the factors: their gradient is zero
                pairs.append((g_got[t].data, g_want[t].data if t in g_want else np.zeros(t.shape)))
            for a, b in pairs:
                assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        z, e1, e2, thetas = _diffusion_operands(rng, (2,), 5, 3, 3, 4, 3, scale=0.4)
        weight = Tensor(rng.standard_normal((1, 5, 2, 4)))
        params = {"z": z, "e1": e1, "e2": e2}
        params.update({f"theta{i}": t for i, t in enumerate(thetas)})
        report = finite_difference_check(
            lambda: tsum(mul(diffuse(z, e1, e2, [thetas]), weight)), params,
            step=1e-5, tolerance=1e-4,
        )
        assert report.passed, str(report)

    def test_factor_shapes_must_agree(self):
        rng = np.random.default_rng(8)
        z, e1, _, thetas = _diffusion_operands(rng, (), 5, 3, 2, 4, 2)
        with pytest.raises(ShapeError):
            diffuse(z, e1, Tensor(rng.standard_normal((5, 2))), [thetas])

    def test_factor_rows_must_match_stations(self):
        rng = np.random.default_rng(9)
        z, e1, e2, thetas = _diffusion_operands(rng, (2,), 5, 3, 2, 4, 2)
        with pytest.raises(ShapeError):
            diffuse(Tensor(rng.standard_normal((1, 6, 2, 2))), e1, e2, [thetas])

    def test_hop_filters_must_agree(self):
        rng = np.random.default_rng(10)
        z, e1, e2, thetas = _diffusion_operands(rng, (), 5, 3, 2, 4, 2)
        thetas[2] = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ShapeError):
            diffuse(z, e1, e2, [thetas])


def _gated_operands(rng, gates, lead, n, rank, f, beta, k, z_per_gate, scale=1.0):
    """`gates` filter lists and a signal with a gate axis of `gates` when
    `z_per_gate`, else of 1 (read by every gate)."""
    z, e1, e2, _ = _diffusion_operands(rng, lead, n, rank, f, beta, k, scale)
    if z_per_gate:
        z = Tensor(scale * rng.standard_normal((gates,) + z.shape[1:]), requires_grad=True)
    thetas = [
        [Tensor(scale * rng.standard_normal((f, beta)), requires_grad=True) for _ in range(k + 1)]
        for _ in range(gates)
    ]
    return z, e1, e2, thetas


def gate_signal(z, g):
    """Gate g's signal (N, ..., F): its own slice, or the one every gate reads."""
    return take(z, g if z.shape[0] > 1 else 0)


def per_gate_diffusion(z, e1, e2, thetas):
    """Reference: one single-gate diffusion per gate, each output (N, ..., beta)."""
    outs = []
    for g, ts in enumerate(thetas):
        zg = gate_signal(z, g)
        outs.append(take(diffuse(reshape(zg, (1,) + zg.shape), e1, e2, [ts]), 0))
    return outs


class TestGatedDiffuse:
    @pytest.mark.parametrize("z_per_gate", [False, True])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_per_gate_calls(self, k, lead, z_per_gate):
        """Value and every gradient agree with per-gate calls, and with the loop."""
        rng = np.random.default_rng(200 + 10 * k + len(lead) + 5 * z_per_gate)
        n, rank, f, beta, gates = 6, 3, 3, 4, 3
        z, e1, e2, thetas = _gated_operands(rng, gates, lead, n, rank, f, beta, k, z_per_gate)
        weight = rng.standard_normal((gates, n) + lead + (beta,))
        got = diffuse(z, e1, e2, thetas)
        assert got.shape == (gates, n) + lead + (beta,)
        refs = per_gate_diffusion(z, e1, e2, thetas)
        loops = [loop_diffusion(gate_signal(z, g), e1, e2, ts) for g, ts in enumerate(thetas)]
        g_got = backward(tsum(mul(got, Tensor(weight))))
        for want in (refs, loops):
            total = mul(want[0], Tensor(weight[0]))
            for g in range(1, gates):
                total = add(total, mul(want[g], Tensor(weight[g])))
            g_want = backward(tsum(total))
            pairs = [(got.data[g], want[g].data) for g in range(gates)]
            for t in (z, e1, e2, *(t for ts in thetas for t in ts)):
                pairs.append((g_got[t].data, g_want[t].data if t in g_want else np.zeros(t.shape)))
            for a, b in pairs:
                assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    @pytest.mark.parametrize("z_per_gate", [False, True])
    def test_finite_differences(self, z_per_gate):
        rng = np.random.default_rng(17 + z_per_gate)
        z, e1, e2, thetas = _gated_operands(rng, 2, (2,), 5, 3, 3, 4, 2, z_per_gate, scale=0.4)
        weight = Tensor(rng.standard_normal((2, 5, 2, 4)))
        params = {"z": z, "e1": e1, "e2": e2}
        params.update(
            {f"gate{g}.theta{i}": t for g, ts in enumerate(thetas) for i, t in enumerate(ts)}
        )
        report = finite_difference_check(
            lambda: tsum(mul(diffuse(z, e1, e2, thetas), weight)), params,
            step=1e-5, tolerance=1e-4,
        )
        assert report.passed, str(report)

    def test_signal_gate_axis_must_be_one_or_gates(self):
        rng = np.random.default_rng(18)
        z, e1, e2, thetas = _gated_operands(rng, 3, (), 5, 3, 2, 4, 1, z_per_gate=True)
        with pytest.raises(ShapeError):
            diffuse(z, e1, e2, thetas[:2])
        with pytest.raises(ShapeError):
            diffuse(take(z, 0), e1, e2, thetas)  # no gate axis at all

    def test_gates_must_agree_in_hop_count(self):
        rng = np.random.default_rng(19)
        z, e1, e2, thetas = _gated_operands(rng, 2, (), 5, 3, 2, 4, 2, z_per_gate=False)
        with pytest.raises(ShapeError):
            diffuse(z, e1, e2, [thetas[0], thetas[1][:2]])


def chain_attention(zs, w, b):
    """Oracle: the op-by-op attention chain on batch-major outputs (batch, N, beta).

    Each output is flattened to (batch, N*beta), scored by the shared map,
    the scores are concatenated and normalized by a softmax over levels, and
    one batched product weights the stacked outputs.
    """
    batch, n, beta = zs[0].shape
    flats = [reshape(z, (batch, n * beta)) for z in zs]
    scores = concat([add(matmul(f, w), b) for f in flats], axis=1)
    alpha = softmax(scores, axis=-1)
    stacked = concat([reshape(f, (batch, 1, n * beta)) for f in flats], axis=1)
    h = matmul(reshape(alpha, (batch, 1, len(zs))), stacked)
    return reshape(h, (batch, n, beta))


def _attention_operands(rng, gates, levels, n, batch, beta):
    zs = [Tensor(rng.standard_normal((gates, n, batch, beta)), requires_grad=True)
          for _ in range(levels)]
    ws = [Tensor(rng.standard_normal((n * beta, 1)) * 0.3, requires_grad=True)
          for _ in range(gates)]
    bs = [Tensor(rng.standard_normal(1), requires_grad=True) for _ in range(gates)]
    return zs, ws, bs


class TestLevelAttention:
    @pytest.mark.parametrize("gates", [1, 2])
    def test_matches_op_chain(self, gates):
        """Value and gradients agree with the chain run gate by gate on the
        batch-major view; the bias gradient is exactly zero."""
        rng = np.random.default_rng(300 + gates)
        levels, n, batch, beta = 3, 5, 4, 3
        zs, ws, bs = _attention_operands(rng, gates, levels, n, batch, beta)
        weight = rng.standard_normal((gates, n, batch, beta))
        got = level_attention(zs, ws, bs)
        total = None
        for g in range(gates):
            batch_major = [transpose(take(z, g), (1, 0, 2)) for z in zs]
            out = transpose(chain_attention(batch_major, ws[g], bs[g]), (1, 0, 2))
            np.testing.assert_allclose(got.data[g], out.data, rtol=0, atol=1e-12)
            term = tsum(mul(out, Tensor(weight[g])))
            total = term if total is None else add(total, term)
        g_got = backward(tsum(mul(got, Tensor(weight))))
        g_want = backward(total)
        for t in (*zs, *ws):
            b = g_want[t].data
            assert np.abs(g_got[t].data - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)
        for t in bs:
            assert np.array_equal(g_got[t].data, np.zeros(1))
            assert np.abs(g_want[t].data).max() < 1e-12  # the chain's rounding noise

    def test_finite_differences(self):
        rng = np.random.default_rng(311)
        zs, ws, bs = _attention_operands(rng, 2, 3, 3, 2, 2)
        weight = Tensor(rng.standard_normal((2, 3, 2, 2)))
        params = {f"z{m}": z for m, z in enumerate(zs)}
        params.update({f"w{g}": w for g, w in enumerate(ws)})
        params.update({f"b{g}": b for g, b in enumerate(bs)})
        report = finite_difference_check(
            lambda: tsum(mul(level_attention(zs, ws, bs), weight)), params,
            step=1e-5, tolerance=1e-4,
        )
        assert report.passed, str(report)

    def test_scoring_map_must_fit_outputs(self):
        rng = np.random.default_rng(312)
        zs, ws, bs = _attention_operands(rng, 2, 2, 4, 3, 2)
        with pytest.raises(ShapeError):
            level_attention(zs, ws[:1], bs[:1])
        with pytest.raises(ShapeError):
            level_attention(zs, [Tensor(np.zeros((7, 1)))] * 2, bs)


def _fd_scalar(fn, arrays, step=1e-6):
    """Central-difference gradient of a scalar-valued numpy function."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = fn(*arrays)
            flat[i] = orig - step
            fm = fn(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * step)
        grads.append(g)
    return grads


class TestPrimitiveVjps:
    """Each primitive's analytic VJP against finite differences."""

    CASES = {
        "add": (lambda a, b: tsum(mul(add(a, b), add(a, b))), 2),
        "sub": (lambda a, b: tsum(mul(sub(a, b), sub(a, b))), 2),
        "mul": (lambda a, b: tsum(mul(mul(a, b), a)), 2),
        "matmul": (
            lambda a, b: tsum(
                mul(matmul(a, transpose(b, (1, 0))), matmul(a, transpose(b, (1, 0))))
            ),
            2,
        ),
        "sigmoid": (lambda a: tsum(mul(sigmoid(a), sigmoid(a))), 1),
        "tanh": (lambda a: tsum(mul(tanh(a), a)), 1),
        "sqrt": (lambda a: tsum(mul(sqrt(a), a)), 1),
        "softmax": (lambda a: tsum(mul(softmax(a, axis=-1), a)), 1),
        "mean": (lambda a: tmean(mul(a, a)), 1),
        "reshape": (lambda a: tsum(mul(reshape(a, (4, 3)), reshape(a, (4, 3)))), 1),
        "transpose": (lambda a: tsum(mul(transpose(a, (1, 0)), transpose(a, (1, 0)))), 1),
        "take": (lambda a: tsum(mul(take(a, 1), take(a, 2))), 1),
        "concat": (
            lambda a, b: tsum(mul(concat([a, b], axis=1), concat([a, b], axis=1))),
            2,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_vjp_matches_finite_differences(self, name):
        fn, arity = self.CASES[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        shape = (3, 4)
        arrays = [rng.uniform(0.2, 1.5, size=shape) for _ in range(arity)]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        grads = backward(fn(*tensors))
        with no_grad():
            numeric = _fd_scalar(lambda *arrs: fn(*[Tensor(x) for x in arrs]).item(), arrays)
        for t, n in zip(tensors, numeric):
            a = grads[t].data
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            assert (np.abs(a - n) / denom).max() < 1e-5

    def test_broadcast_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3,))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        fn = lambda x, y: tsum(mul(add(x, y), add(x, y)))
        grads = backward(fn(ta, tb))
        with no_grad():
            na, nb = _fd_scalar(lambda x, y: fn(Tensor(x), Tensor(y)).item(), [a, b])
        np.testing.assert_allclose(grads[ta].data, na, atol=1e-7)
        np.testing.assert_allclose(grads[tb].data, nb, atol=1e-7)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        w = Tensor([0.3, -1.2, 2.0], requires_grad=True)
        report = finite_difference_check(lambda: tsum(mul(w, w)), {"w": w}, step=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_sigmoid_chain(self):
        w = Tensor([[0.5, -0.4], [0.1, 0.9]], requires_grad=True)
        x = Tensor([[1.0], [2.0]])

        def forward():
            return tsum(sigmoid(matmul(sigmoid(matmul(w, x)), transpose(x, (1, 0)))))

        report = finite_difference_check(forward, {"w": w}, step=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_corrupted_rule_is_flagged_not_thrown(self):
        good = Tensor([1.0, 2.0], requires_grad=True)
        bad = Tensor([0.5, -0.5], requires_grad=True)

        def broken_scale(t):
            # deliberately wrong VJP: claims d(3t)/dt = 1
            from ccrnn.tensor import _make

            return _make(3.0 * t.data, (t,), lambda g: (g,))

        def forward():
            return tsum(add(mul(good, good), broken_scale(bad)))

        report = finite_difference_check(forward, {"good": good, "bad": bad})
        assert not report.passed
        flagged = {e.name for e in report.failures()}
        assert flagged == {"bad"}
        assert "bad" in str(report)


class TestTensorBasics:
    def test_shape_data_consistency(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3) and t.size == 6 and t.data.dtype == np.float64

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
    def test_concat_then_split_roundtrip(self, rows, cols):
        rng = np.random.default_rng(rows * 7 + cols)
        a, b = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
        joined = concat([Tensor(a), Tensor(b)], axis=0).data
        np.testing.assert_array_equal(joined[:rows], a)
        np.testing.assert_array_equal(joined[rows:], b)
