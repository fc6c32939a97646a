"""Data-driven adjacency construction and its low-rank factorization.

The demand history observed on the training range is compressed per station
with a truncated SVD, pairwise station similarity becomes a Gaussian-kernel
adjacency, the adjacency is row-normalized, and a second truncated SVD splits
it into the source/target node embeddings that the model then trains.
`variant_graph` picks the starting graph of each model variant, including
the alternative initializations that `ccrnn ablate` compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geo import pairwise_haversine_km
from .tensor import Tensor

VARIANTS = ("full", "no_adaptive", "no_coupling", "random_init", "distance_init", "pcc_init")

# kernel entries below this are zeroed in the distance-based initialization
DISTANCE_KERNEL_FLOOR = 0.1


@dataclass
class FactorPair:
    """Source/target node embeddings whose product implies an adjacency."""

    e1: Tensor
    e2: Tensor

    @property
    def trainable(self) -> bool:
        return self.e1.requires_grad


def truncated_svd(mx: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-`rank` factorization: U (R x rank), S (rank,), V (C x rank).

    Singular values are descending and nonnegative. Sign convention: the
    largest-magnitude entry of each left singular vector is nonnegative, so
    repeated runs produce identical factors.
    """
    mx = np.asarray(mx, dtype=np.float64)
    if mx.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {mx.shape}")
    if rank > min(mx.shape):
        raise ValueError(f"rank {rank} exceeds min dimension of shape {mx.shape}")
    u, s, vt = np.linalg.svd(mx, full_matrices=False)
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    for i in range(rank):
        pivot = np.argmax(np.abs(u[:, i]))
        if u[pivot, i] < 0:
            u[:, i] = -u[:, i]
            vt[i] = -vt[i]
    return u, s, vt.T


def station_representations(training_demand: np.ndarray, xi: int) -> np.ndarray:
    """Compact station features from the standardized training demand.

    The (T x N x d) history is flattened to a (T*d) x N matrix whose columns
    are stations; a rank-`xi` SVD keeps the dominant shared patterns and the
    station-side factor is scaled by sqrt of the singular values so row
    distances reflect the weight of each retained component.
    """
    demand = np.asarray(training_demand, dtype=np.float64)
    if demand.ndim != 3:
        raise ValueError(f"expected T x N x d demand, got shape {demand.shape}")
    t, n, d = demand.shape
    if xi > n:
        raise ValueError(f"station feature dimension {xi} exceeds station count {n}")
    if t * d < xi:
        raise ValueError(f"history too short: {t}*{d} rows < {xi}")
    flat = demand.transpose(0, 2, 1).reshape(t * d, n)
    _, s, v = truncated_svd(flat, xi)
    return v * np.sqrt(s)[None, :]


def _squared_distances(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[0] < 2:
        raise ValueError("need at least two stations")
    return ((xs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)


def default_epsilon(xs: np.ndarray) -> float:
    """Kernel width used when none is configured: std of distinct-pair distances."""
    dist = np.sqrt(np.maximum(_squared_distances(xs), 0.0))
    return float(np.std(dist[np.triu_indices(dist.shape[0], k=1)]))


def gaussian_adjacency(xs: np.ndarray, epsilon: float | None = None) -> np.ndarray:
    """Dense similarity matrix A[x, y] = exp(-||xs_x - xs_y||^2 / eps^2).

    `xs` holds one feature row per station. When `epsilon` is not given it
    defaults to the standard deviation of the distinct-pair distance
    population.
    """
    sq = _squared_distances(xs)
    if epsilon is None:
        epsilon = default_epsilon(xs)
    if epsilon == 0.0:
        raise ValueError("kernel width epsilon is zero")
    return np.exp(-sq / (epsilon * epsilon))


def normalize_random_walk(adjacency: np.ndarray) -> np.ndarray:
    """Row-normalize by node degree so every row sums to one."""
    a = np.asarray(adjacency, dtype=np.float64)
    degrees = a.sum(axis=1)
    dead = np.flatnonzero(degrees <= 0.0)
    if dead.size:
        raise ValueError(f"zero-degree station(s) {dead.tolist()}: random-walk normalization undefined")
    return a / degrees[:, None]


def factorize_adjacency(normalized: np.ndarray, rank: int, trainable: bool = True) -> FactorPair:
    """Split the normalized adjacency into N x L embeddings via truncated SVD.

    The singular values are shared as sqrt(S) to each side, keeping the two
    factors at comparable scale for optimization.
    """
    a = np.asarray(normalized, dtype=np.float64)
    n = a.shape[0]
    if rank > n:
        raise ValueError(f"factor rank {rank} exceeds station count {n}")
    u, s, v = truncated_svd(a, rank)
    root = np.sqrt(s)[None, :]
    return FactorPair(
        e1=Tensor(u * root, requires_grad=trainable, name="factors.e1"),
        e2=Tensor(v * root, requires_grad=trainable, name="factors.e2"),
    )


# ---------------------------------------------------------------------------
# starting graphs of the model variants, with the ablation alternatives
# ---------------------------------------------------------------------------

def distance_kernel(lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Gaussian kernel over great-circle distances, sparsified below the floor."""
    d = pairwise_haversine_km(np.asarray(lons, float), np.asarray(lats, float))
    n = d.shape[0]
    sigma = float(np.std(d[np.triu_indices(n, k=1)]))
    if sigma == 0.0:
        raise ValueError("all stations are co-located; distance kernel undefined")
    kernel = np.exp(-(d / sigma) ** 2)
    kernel[kernel < DISTANCE_KERNEL_FLOOR] = 0.0
    return kernel


def pcc_kernel(training_demand: np.ndarray) -> np.ndarray:
    """Pairwise correlation of total per-station demand, negatives clipped to 0."""
    demand = np.asarray(training_demand, dtype=np.float64)
    series = demand.sum(axis=2)  # (T x N) total demand per station
    stds = series.std(axis=0)
    flat_stations = np.flatnonzero(stds == 0.0)
    if flat_stations.size:
        raise ValueError(
            f"station(s) {flat_stations.tolist()} have constant demand; correlation undefined"
        )
    return np.clip(np.corrcoef(series, rowvar=False), 0.0, None)


def random_init(n: int, rank: int, rng: np.random.Generator) -> FactorPair:
    """Uniform(-0.1, 0.1) factors, no structural prior."""
    return FactorPair(
        e1=Tensor(rng.uniform(-0.1, 0.1, size=(n, rank)), requires_grad=True, name="factors.e1"),
        e2=Tensor(rng.uniform(-0.1, 0.1, size=(n, rank)), requires_grad=True, name="factors.e2"),
    )


def variant_graph(
    variant: str,
    training_demand: np.ndarray,
    lons: np.ndarray,
    lats: np.ndarray,
    *,
    xi: int,
    rank: int,
    epsilon: float | None,
    rng: np.random.Generator,
) -> tuple[FactorPair, float, str]:
    """The starting graph of a variant, as factors plus the kernel width used.

    `training_demand` must cover the training range only. `full`,
    `no_adaptive` and `no_coupling` share the demand-driven graph; the
    `*_init` variants swap in a random, distance or correlation graph. Returns
    the factors, the epsilon of the demand kernel (0.0 when there is none) and
    where it came from: "override", "auto" or "n/a".
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    init = variant.removesuffix("_init")
    used, source = 0.0, "n/a"
    if init == "random":
        return random_init(np.shape(training_demand)[1], rank, rng), used, source
    if init == "distance":
        adjacency = distance_kernel(lons, lats)
    elif init == "pcc":
        adjacency = pcc_kernel(training_demand)
    else:
        xs = station_representations(training_demand, xi)
        source = "auto" if epsilon is None else "override"
        used = default_epsilon(xs) if epsilon is None else float(epsilon)
        adjacency = gaussian_adjacency(xs, used)
    return factorize_adjacency(normalize_random_walk(adjacency), rank), used, source
