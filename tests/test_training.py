"""Metrics, Adam, the training loop, evaluation, and the variants' models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrnn.ccgru import build_model, build_seq2seq
from ccrnn.config import RunConfig
from ccrnn.graphgen import FactorPair, variant_graph
from ccrnn.synthetic import ring_demand
from ccrnn.tensor import Tensor, _topo_order, backward, finite_difference_check
from ccrnn.training import (
    AdamState,
    TrainingData,
    adam_step,
    evaluate,
    evaluate_ha,
    ha_baseline,
    history_csv,
    loss,
    mae,
    make_windows,
    pcc,
    predict_in_batches,
    report_from_predictions,
    rmse,
    train,
)

finite_arrays = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=32
).map(np.asarray)


class TestMetrics:
    def test_perfect_prediction(self):
        x = np.array([1.0, 2.0, 5.0])
        assert rmse(x, x) == 0.0
        assert mae(x, x) == 0.0
        assert pcc(x, x) == pytest.approx(1.0)

    def test_constant_offset(self):
        truth = np.array([1.0, 2.0, 5.0])
        pred = truth + 1.0
        assert rmse(pred, truth) == pytest.approx(1.0)
        assert mae(pred, truth) == pytest.approx(1.0)
        assert pcc(pred, truth) == pytest.approx(1.0)

    def test_analytic_pair(self):
        assert pcc([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)
        assert rmse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(np.sqrt(2.5))

    def test_pcc_rejects_constant_series(self):
        with pytest.raises(ValueError, match="constant"):
            pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    @given(a=finite_arrays, b=finite_arrays)
    def test_rmse_dominates_mae(self, a, b):
        n = min(len(a), len(b))
        assert rmse(a[:n], b[:n]) >= mae(a[:n], b[:n]) - 1e-12

    @given(
        scale=st.floats(0.1, 100.0),
        shift=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=50)
    def test_pcc_invariant_under_shared_affine_map(self, scale, shift):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(40)
        b = a + 0.5 * rng.standard_normal(40)
        before = pcc(a, b)
        after = pcc(scale * a + shift, scale * b + shift)
        assert after == pytest.approx(before, abs=1e-9)


class TestLoss:
    def test_zero_error_is_near_zero(self):
        pred = Tensor(np.ones((2, 3)))
        assert float(loss(pred, np.ones((2, 3))).data) == pytest.approx(0.0, abs=1e-3)

    def test_constant_residual(self):
        pred = Tensor(np.full((4, 2), 3.0))
        assert float(loss(pred, np.ones((4, 2))).data) == pytest.approx(2.0, abs=1e-6)

    def test_gradient_at_perfect_fit_is_zero(self):
        pred = Tensor(np.ones(5), requires_grad=True)
        grads = backward(loss(pred, np.ones(5)))
        np.testing.assert_allclose(grads[pred].data, np.zeros(5), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        pred = Tensor(rng.standard_normal((3, 4)), requires_grad=True, name="pred")
        truth = rng.standard_normal((3, 4))
        report = finite_difference_check(lambda: loss(pred, truth), {"pred": pred})
        assert report.passed, report.failures()


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {p: Tensor(np.zeros(2))}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_is_lr_times_sign(self):
        g = np.array([3.0, -0.5, 10.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        adam_step({"p": p}, {p: Tensor(g)}, AdamState(), lr=0.01)
        np.testing.assert_allclose(p.data, -0.01 * np.sign(g), atol=1e-8)

    def test_constant_gradient_reaches_lr_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = AdamState()
        prev = p.data.copy()
        for _ in range(300):
            prev = p.data.copy()
            adam_step({"p": p}, {p: Tensor(np.array([2.0]))}, state, lr=0.05)
        assert abs(prev[0] - p.data[0]) == pytest.approx(0.05, rel=1e-3)

    def test_missing_gradient_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(KeyError, match="w_alpha"):
            adam_step({"w_alpha": p}, {}, AdamState(), lr=0.1)

    def test_shared_tensor_updated_once(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        g = Tensor(np.array([1.0, 1.0]))
        adam_step({"a": p, "b": p}, {p: g}, AdamState(), lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01, -0.01], atol=1e-8)

    def test_frozen_parameters_skipped(self):
        p = Tensor(np.zeros(2), requires_grad=False)
        adam_step({"frozen": p}, {}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, np.zeros(2))


class TestWindows:
    def test_sliding_count(self):
        series = np.arange(4 * 2 * 1, dtype=float).reshape(4, 2, 1)
        x, y = make_windows(series, range(0, 4), 1, 1)
        assert x.shape == (3, 1, 2, 1)
        assert y.shape == (3, 1, 2, 1)

    def test_window_contents(self):
        series = np.arange(10, dtype=float).reshape(10, 1, 1)
        x, y = make_windows(series, range(2, 9), 3, 2)
        # range holds bins 2..8 (7 bins) -> 3 windows
        assert x.shape[0] == 3
        np.testing.assert_array_equal(x[0].ravel(), [2, 3, 4])
        np.testing.assert_array_equal(y[0].ravel(), [5, 6])
        np.testing.assert_array_equal(x[2].ravel(), [4, 5, 6])
        np.testing.assert_array_equal(y[2].ravel(), [7, 8])

    def test_too_short_range_names_shortfall(self):
        series = np.zeros((5, 2, 1))
        with pytest.raises(ValueError, match="short by 3"):
            make_windows(series, range(0, 5), 4, 4)


def tiny_model(seed=0, n=6, channels=2, beta=4, rank=2, m=2, k=1):
    rng = np.random.default_rng(seed)
    base = FactorPair(
        e1=Tensor(rng.uniform(-0.5, 0.5, (n, rank)), requires_grad=True),
        e2=Tensor(rng.uniform(-0.5, 0.5, (n, rank)), requires_grad=True),
    )
    return build_seq2seq(channels, beta, m, k, base, rng)


def tiny_data(seed=3, n=6, t=120, p=4, q=4):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((t, n, 2)) * 0.1
    series += np.sin(2 * np.pi * np.arange(t) / 24)[:, None, None]
    split = int(t * 0.8)
    tx, ty = make_windows(series, range(0, split), p, q)
    vx, vy = make_windows(series, range(split, t), p, q)
    return TrainingData(tx, ty, vx, vy)


class TestTrainLoop:
    def test_zero_hop_model_trains(self):
        """At K=0 the factors get a zero gradient, not none, so Adam can step."""
        config = RunConfig(epochs=1, batch_size=1000, seed=0, patience=10)
        result = train(tiny_model(k=0), tiny_data(t=40), config)
        assert result.iterations == 1

    def test_single_epoch_single_batch_accounting(self):
        data = tiny_data(t=40)
        config = RunConfig(epochs=1, batch_size=1000, seed=0, patience=10)
        result = train(tiny_model(), data, config)
        assert result.iterations == 1
        assert len(result.history) == 1
        assert result.history[0].epoch == 1

    def test_fixed_seed_reproduces_history_bitwise(self):
        config = RunConfig(epochs=3, batch_size=16, seed=11, patience=10)
        histories = []
        for _ in range(2):
            result = train(tiny_model(seed=2), tiny_data(), config)
            histories.append([(r.train_loss, r.val_rmse, r.sampling_prob) for r in result.history])
        assert histories[0] == histories[1]

    def test_loss_decreases_on_learnable_signal(self):
        data = tiny_data(t=240)
        config = RunConfig(
            learning_rate=5e-3, epochs=4, batch_size=32, seed=1, patience=10
        )
        result = train(tiny_model(seed=4), data, config)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_model_ends_holding_best_parameters(self):
        data = tiny_data(t=80)
        config = RunConfig(epochs=3, batch_size=32, seed=5, patience=10)
        model = tiny_model(seed=6)
        result = train(model, data, config)
        val = predict_in_batches(model, data.val_x, data.val_y.shape[1])
        assert rmse(val, data.val_y) == result.best_val_rmse
        assert result.best_epoch == max(
            (r.epoch for r in result.history if r.improved), default=0
        )
        assert result.best_val_rmse == min(r.val_rmse for r in result.history)

    def test_early_stop_after_patience_stale_epochs(self):
        data = tiny_data(t=80)
        config = RunConfig(epochs=60, batch_size=32, seed=7, patience=2)
        result = train(tiny_model(seed=8), data, config)
        if len(result.history) < 60:
            assert all(not r.improved for r in result.history[-2:])

    def test_nan_input_aborts_with_batch_index(self):
        data = tiny_data(t=60)
        data.train_x = np.full_like(data.train_x, np.nan)
        config = RunConfig(epochs=1, batch_size=1000, seed=0)
        with pytest.raises(RuntimeError, match="batch 0"):
            train(tiny_model(), data, config)

    def test_sampling_prob_recorded_decays(self):
        data = tiny_data(t=120)
        config = RunConfig(epochs=3, batch_size=8, seed=9, sampling_decay=10.0, patience=10)
        result = train(tiny_model(seed=10), data, config)
        probs = [r.sampling_prob for r in result.history]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > probs[-1]

    def test_history_csv_layout(self):
        data = tiny_data(t=40)
        result = train(tiny_model(), data, RunConfig(epochs=1, batch_size=64, seed=0))
        text = history_csv(result.history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_rmse,sampling_prob,improved"
        assert lines[1].startswith("1,")
        assert len(lines) == 1 + len(result.history)


class TestTapeSize:
    def test_training_forward_records_closed_form_node_count(self):
        """One taped op per graph-convolution layer, whatever K is; the reset
        and update gates share theirs."""
        m, k, p, q = 3, 3, 4, 4
        data = tiny_data(p=p, q=q)
        pred = tiny_model(m=m, k=k).forward(
            data.train_x[:3], q, targets=data.train_y[:3], teacher_prob=0.5,
            rng=np.random.default_rng(0),
        )
        # reset and update fused: M diffusions, one attention op, then per gate
        # its slice, bias and activation
        fused = m + 1 + 3 * 2
        # candidate: M diffusions, one attention op, bias and activation
        candidate = m + 1 + 2
        # per GRU step: concat, the gates, r*h and its concat, the u-blend
        step = 1 + fused + candidate + 2 + 4
        ops = (
            (p + q) * step - 1  # the first encoder step's [x, h] holds no gradient
            + 2 * q + 1 + 1  # readout per decoder step, concat of the frames, transpose
            + 2 * 4 * (m - 1)  # coupled factors, derived once per cell
            + 5  # RMSE loss
        )
        # per cell: two factors, M-1 couplings (w, b), three gates of M(K+1) filters
        # and two scoring weights, three gate biases; then the readout's w and b
        leaves = 2 * (2 + 2 * (m - 1) + 3 * (m * (k + 1) + 2) + 3) + 2
        assert len(_topo_order(loss(pred, data.train_y[:3]))) == ops + leaves


class _IdentityScaler:
    def invert(self, x):
        return x


class _AffineScaler:
    """Per-channel z-score stand-in: invert multiplies by std and adds mean."""

    def __init__(self, mean, std):
        self.mean = np.asarray(mean, float)
        self.std = np.asarray(std, float)

    def invert(self, x):
        return x * self.std + self.mean


class TestEvaluation:
    def test_perfect_predictions_score_zero(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal((5, 4, 3, 2))
        report = report_from_predictions(y.copy(), y)
        assert report.rmse == 0.0
        assert report.mae == 0.0
        assert report.pcc == pytest.approx(1.0)
        assert all(h.rmse == 0.0 for h in report.per_horizon)

    def test_per_horizon_mae_averages_to_overall(self):
        rng = np.random.default_rng(24)
        preds = rng.standard_normal((6, 4, 3, 2))
        truth = rng.standard_normal((6, 4, 3, 2))
        report = report_from_predictions(preds, truth)
        assert np.mean([h.mae for h in report.per_horizon]) == pytest.approx(
            report.mae, abs=1e-12
        )

    def test_horizon_labels_at_half_hour_bins(self):
        rng = np.random.default_rng(25)
        y = rng.standard_normal((3, 12, 2, 2))
        report = report_from_predictions(y + 0.1, y)
        hours = {h.step: h.hours for h in report.per_horizon}
        assert hours[1] == 0.5
        assert hours[5] == 2.5
        assert hours[9] == 4.5
        assert hours[12] == 6.0

    def test_scaler_moves_metrics_to_original_scale(self):
        rng = np.random.default_rng(26)
        truth = rng.standard_normal((4, 3, 2, 2))
        preds = truth + 0.5
        scaler = _AffineScaler(mean=[10.0, 20.0], std=[4.0, 4.0])
        std_report = report_from_predictions(preds, truth)
        orig_report = report_from_predictions(preds, truth, scaler=scaler)
        assert std_report.scale == "standardized"
        assert orig_report.scale == "original"
        assert orig_report.rmse == pytest.approx(4.0 * std_report.rmse)

    def test_evaluate_runs_model_free_running(self):
        model = tiny_model(seed=30)
        data = tiny_data(t=60)
        report = evaluate(model, data.val_x, data.val_y, scaler=_IdentityScaler())
        assert report.rmse >= report.mae >= 0.0
        assert -1.0 <= report.pcc <= 1.0
        assert len(report.per_horizon) == data.val_y.shape[1]

    def test_summary_and_csv_render(self):
        rng = np.random.default_rng(27)
        y = rng.standard_normal((3, 2, 2, 2))
        report = report_from_predictions(y + 0.3, y)
        assert "overall" in report.summary()
        csv = report.to_csv()
        assert csv.startswith("horizon,hours,rmse,mae,pcc\n")
        assert len(csv.strip().split("\n")) == 2 + 2  # header + overall + per-horizon


class TestHaBaseline:
    def test_constant_history(self):
        history = np.full((5, 3, 2), 7.0)
        np.testing.assert_array_equal(ha_baseline(history, 4), np.full((4, 3, 2), 7.0))

    def test_two_point_mean(self):
        history = np.zeros((2, 1, 1))
        history[1] = 2.0
        np.testing.assert_array_equal(ha_baseline(history, 3), np.ones((3, 1, 1)))

    def test_periodic_history_gives_period_mean(self):
        period = np.array([1.0, 3.0, 2.0, 6.0])
        history = np.tile(period, 3)[:, None, None]  # period 4 divides P=12
        np.testing.assert_allclose(
            ha_baseline(history, 2), np.full((2, 1, 1), period.mean()), atol=1e-12
        )

    def test_batched_windows(self):
        rng = np.random.default_rng(31)
        windows = rng.standard_normal((7, 5, 3, 2))
        out = ha_baseline(windows, 6)
        assert out.shape == (7, 6, 3, 2)
        np.testing.assert_allclose(out[2, 4], windows[2].mean(axis=0), atol=1e-12)

    def test_evaluate_ha_matches_manual(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((4, 5, 3, 2))
        y = rng.standard_normal((4, 2, 3, 2))
        report = evaluate_ha(x, y)
        manual = rmse(ha_baseline(x, 2), y)
        assert report.rmse == pytest.approx(manual)


class TestVariants:
    def setup_method(self):
        self.dataset = ring_demand(n_stations=8, t_bins=200, seed=13)

    def build(self, tag):
        rng = np.random.default_rng(21)
        data = self.dataset
        base, _, _ = variant_graph(
            tag, data.values, data.lons, data.lats, xi=4, rank=3, epsilon=None, rng=rng
        )
        return build_model(tag, base, channels=2, beta=4, m_layers=2, k_hops=1, rng=rng)

    def test_all_variants_construct(self):
        for tag in ("full", "no_adaptive", "no_coupling", "random_init", "distance_init", "pcc_init"):
            model = self.build(tag)
            out = model.forward(self.dataset.values[:4][None], horizon=2)
            assert out.shape == (1, 2, 8, 2)

    def test_no_adaptive_freezes_base_factors(self):
        model = self.build("no_adaptive")
        assert not model.encoder.pairs[0][0].requires_grad
        assert not model.decoder.pairs[0][1].requires_grad
        assert (len(model.encoder.pairs), len(model.encoder.couplings)) == (1, 1)

    def test_no_coupling_uses_independent_layers(self):
        model = self.build("no_coupling")
        assert (len(model.encoder.pairs), len(model.encoder.couplings)) == (2, 0)
        assert all(e1.requires_grad for e1, _ in model.encoder.pairs)

    def test_random_init_ignores_demand_structure(self):
        full = self.build("full")
        rand = self.build("random_init")
        assert np.abs(rand.encoder.pairs[0][0].data).max() <= 0.1
        assert not np.allclose(full.encoder.pairs[0][0].data, rand.encoder.pairs[0][0].data)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            self.build("dropout")
