"""Adjacency generation, normalization, and low-rank factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrnn.graphgen import (
    distance_kernel,
    factorize_adjacency,
    gaussian_adjacency,
    normalize_random_walk,
    pcc_kernel,
    station_representations,
    truncated_svd,
    variant_graph,
)


def singular_values_via_gram(m: np.ndarray) -> np.ndarray:
    """All singular values from an eigen-solve of M^T M (independent oracle)."""
    gram = m.T @ m
    eigvals = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigvals, 0.0, None))[::-1]


class TestTruncatedSvd:
    def test_rank_one_outer_product_exact(self):
        rng = np.random.default_rng(0)
        u_vec, v_vec = rng.standard_normal(5), rng.standard_normal(4)
        m = np.outer(u_vec, v_vec)
        u, s, v = truncated_svd(m, 1)
        np.testing.assert_allclose(u * s @ v.T, m, atol=1e-9)

    def test_diagonal_matrix(self):
        u, s, v = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(s, [3.0, 2.0])
        recon = (u * s) @ v.T
        err = np.linalg.norm(np.diag([3.0, 2.0, 1.0]) - recon)
        assert err == pytest.approx(1.0, abs=1e-10)

    def test_frobenius_error_matches_gram_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 6))
        u, s, v = truncated_svd(m, 3)
        err = np.linalg.norm(m - (u * s) @ v.T)
        all_sv = singular_values_via_gram(m)
        assert abs(err - np.sqrt((all_sv[3:] ** 2).sum())) < 1e-8

    def test_orthonormal_columns_and_descending_values(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 7))
        u, s, v = truncated_svd(m, 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-8)
        assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 5))
        first = truncated_svd(m, 3)
        second = truncated_svd(m.copy(), 3)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert all(u[np.argmax(np.abs(u[:, i])), i] >= 0 for i, u in enumerate([first[0]] * 3))

    def test_rank_exceeding_min_dimension_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            truncated_svd(np.zeros((4, 3)), 4)


class TestStationRepresentations:
    def test_identical_stations_get_identical_rows(self):
        rng = np.random.default_rng(4)
        demand = rng.uniform(0, 3, size=(40, 5, 2))
        demand[:, 3, :] = demand[:, 1, :]
        xs = station_representations(demand, 4)
        np.testing.assert_allclose(xs[3], xs[1], atol=1e-8)

    def test_full_rank_squares_to_column_gram(self):
        # Xs = V sqrt(S), so (Xs Xs^T)^2 equals the station-by-station Gram
        # of the flattened history when nothing is truncated.
        rng = np.random.default_rng(5)
        demand = rng.standard_normal((10, 6, 2))
        flat = demand.transpose(0, 2, 1).reshape(20, 6)
        xs = station_representations(demand, 6)
        kernel = xs @ xs.T
        np.testing.assert_allclose(kernel @ kernel, flat.T @ flat, atol=1e-8)

    def test_station_feature_shape(self):
        rng = np.random.default_rng(6)
        demand = rng.standard_normal((30, 250, 2))
        assert station_representations(demand, 20).shape == (250, 20)

    def test_feature_dim_larger_than_station_count_rejected(self):
        with pytest.raises(ValueError):
            station_representations(np.zeros((30, 5, 2)), 6)

    def test_permutation_equivariance_via_kernel(self):
        rng = np.random.default_rng(7)
        demand = rng.standard_normal((25, 8, 2))
        perm = rng.permutation(8)
        k_base = gaussian_adjacency(station_representations(demand, 5), epsilon=1.0)
        k_perm = gaussian_adjacency(station_representations(demand[:, perm, :], 5), epsilon=1.0)
        np.testing.assert_allclose(k_perm, k_base[np.ix_(perm, perm)], atol=1e-8)


class TestGaussianAdjacency:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(8)
        a = gaussian_adjacency(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(np.diag(a), 1.0, atol=1e-12)

    def test_distance_equal_to_epsilon_gives_inverse_e(self):
        xs = np.array([[0.0], [2.0]])
        a = gaussian_adjacency(xs, epsilon=2.0)
        assert a[0, 1] == pytest.approx(np.exp(-1.0))
        assert a[0, 1] == pytest.approx(0.3679, abs=1e-4)

    def test_large_epsilon_saturates_to_one(self):
        rng = np.random.default_rng(9)
        a = gaussian_adjacency(rng.standard_normal((5, 2)), epsilon=1e9)
        np.testing.assert_allclose(a, 1.0, atol=1e-12)

    def test_symmetric_with_entries_in_unit_interval(self):
        rng = np.random.default_rng(10)
        a = gaussian_adjacency(rng.standard_normal((7, 4)))
        np.testing.assert_allclose(a, a.T, atol=1e-14)
        assert np.all(a > 0) and np.all(a <= 1.0 + 1e-15)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            gaussian_adjacency(np.zeros((3, 2)), epsilon=0.0)


class TestNormalizeRandomWalk:
    def test_unit_degrees_unchanged(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(normalize_random_walk(a), a)

    def test_row_division(self):
        got = normalize_random_walk(np.array([[1.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_allclose(got, [[0.5, 0.5], [0.0, 1.0]])

    def test_gaussian_kernel_always_normalizable(self):
        rng = np.random.default_rng(11)
        a = gaussian_adjacency(rng.standard_normal((6, 3)))
        rows = normalize_random_walk(a).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_zero_degree_row_names_station(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\[1\]"):
            normalize_random_walk(a)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_row_stochastic_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.01, 5.0, size=(n, n))
        rows = normalize_random_walk(a).sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-12


class TestFactorizeAdjacency:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(12)
        a = normalize_random_walk(gaussian_adjacency(rng.standard_normal((5, 3))))
        pair = factorize_adjacency(a, 5)
        np.testing.assert_allclose(pair.e1.data @ pair.e2.data.T, a, atol=1e-8)

    def test_rank_one_input_exact_at_rank_one(self):
        a = np.outer([1.0, 2.0, 3.0], [0.2, 0.5, 0.3])
        pair = factorize_adjacency(a, 1)
        np.testing.assert_allclose(pair.e1.data @ pair.e2.data.T, a, atol=1e-9)

    def test_parameter_reduction_arithmetic(self):
        pair = factorize_adjacency(np.eye(266), 50)
        assert pair.e1.size + pair.e2.size == 26_600  # 2NL factored entries
        assert (pair.e1.data @ pair.e2.data.T).size == 70_756  # N^2 dense entries

    def test_factors_marked_trainable(self):
        rng = np.random.default_rng(13)
        a = normalize_random_walk(gaussian_adjacency(rng.standard_normal((4, 2))))
        assert factorize_adjacency(a, 2).trainable
        assert not factorize_adjacency(a, 2, trainable=False).trainable

    def test_rank_above_station_count_rejected(self):
        with pytest.raises(ValueError):
            factorize_adjacency(np.eye(3), 4)

    def test_eckart_young_beats_random_factorizations(self):
        rng = np.random.default_rng(14)
        m = rng.uniform(0.0, 1.0, size=(8, 8))
        a = normalize_random_walk(m)
        pair = factorize_adjacency(a, 3)
        best = np.linalg.norm(a - pair.e1.data @ pair.e2.data.T)
        for _ in range(50):
            e1 = rng.standard_normal((8, 3))
            e2 = rng.standard_normal((8, 3))
            assert np.linalg.norm(a - e1 @ e2.T) >= best - 1e-10
        tail = singular_values_via_gram(a)[3:]
        assert abs(best - np.sqrt((tail**2).sum())) < 1e-8


class TestAblationInits:
    def test_pcc_kernel_self_correlation_is_one(self):
        rng = np.random.default_rng(15)
        demand = rng.uniform(0, 4, size=(60, 5, 2))
        k = pcc_kernel(demand)
        np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)

    def test_pcc_constant_station_rejected(self):
        rng = np.random.default_rng(16)
        demand = rng.uniform(0, 4, size=(60, 5, 2))
        demand[:, 2, :] = 1.0
        with pytest.raises(ValueError, match=r"\[2\]"):
            pcc_kernel(demand)

    def test_distance_kernel_colocated_stations(self):
        lons = np.array([-73.99, -73.99, -73.95])
        lats = np.array([40.73, 40.73, 40.70])
        k = distance_kernel(lons, lats)
        assert k[0, 1] == pytest.approx(1.0)

    def test_random_init_is_seed_deterministic(self):
        demand, coords = np.zeros((10, 6, 2)), np.zeros(6)

        def build():
            pair, epsilon, source = variant_graph(
                "random_init", demand, coords, coords, xi=2, rank=3, epsilon=None,
                rng=np.random.default_rng(99),
            )
            assert (epsilon, source) == (0.0, "n/a")
            return pair

        a, b = build(), build()
        np.testing.assert_array_equal(a.e1.data, b.e1.data)
        np.testing.assert_array_equal(a.e2.data, b.e2.data)
        assert np.all(np.abs(a.e1.data) < 0.1)

    def test_dispatch_validates_inputs(self):
        rng = np.random.default_rng(17)
        demand = rng.uniform(0, 4, size=(60, 5, 2))
        lons, lats = np.full(5, -73.99), np.full(5, 40.73)
        for variant in ("bogus", "bogus_init"):
            with pytest.raises(ValueError, match="unknown variant"):
                variant_graph(variant, demand, lons, lats, xi=2, rank=2, epsilon=None, rng=rng)
        with pytest.raises(ValueError, match="co-located"):
            variant_graph("distance_init", demand, lons, lats, xi=2, rank=2, epsilon=None, rng=rng)
        demand[:, 3, :] = 1.0
        with pytest.raises(ValueError, match=r"\[3\]"):
            variant_graph("pcc_init", demand, lons, lats, xi=2, rank=2, epsilon=None, rng=rng)
