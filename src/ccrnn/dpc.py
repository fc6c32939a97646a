"""Density peak clustering for discovering virtual stations from trip points.

Follows the classic fast-search recipe: local density from a Gaussian kernel
at cutoff d_c, then for every point the distance delta to its nearest
higher-density neighbor. Cluster centers are the points with the largest
rho * delta product; everything else joins its nearest-higher-density
neighbor's cluster. Memory is quadratic in the number of points — callers
subsample first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DpcResult:
    centroids: np.ndarray  # (k, 2) member means, cluster order by descending rho*delta
    labels: np.ndarray  # (n,) cluster index per point


def dpc_cluster(points, num_clusters: int, dc_quantile: float = 0.02) -> DpcResult:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got {pts.shape}")
    n = pts.shape[0]
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be positive, got {num_clusters}")
    if n < num_clusters:
        raise ValueError(f"{n} points cannot form {num_clusters} clusters")
    if not 0.0 < dc_quantile < 1.0:
        raise ValueError(f"dc_quantile must lie in (0, 1), got {dc_quantile}")
    distinct = np.unique(pts, axis=0).shape[0]
    if distinct < num_clusters:
        raise ValueError(
            f"only {distinct} distinct locations among {n} points; "
            f"cannot seed {num_clusters} clusters"
        )

    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    upper = d[np.triu_indices(n, k=1)] if n > 1 else np.zeros(1)
    dc = float(np.quantile(upper, dc_quantile))
    if dc <= 0.0:
        positive = upper[upper > 0]
        dc = float(positive.min()) if positive.size else 1.0

    rho = np.exp(-((d / dc) ** 2)).sum(axis=1)

    # Descending-density scan: each point's delta is the distance to the
    # nearest point earlier in the scan; the densest point gets the global
    # maximum distance and is its own parent.
    order = np.argsort(-rho, kind="stable")
    delta = np.empty(n)
    parent = np.empty(n, dtype=np.int64)
    delta[order[0]] = d.max()
    parent[order[0]] = order[0]
    for pos in range(1, n):
        i = order[pos]
        earlier = order[:pos]
        j = earlier[np.argmin(d[i, earlier])]
        delta[i] = d[i, j]
        parent[i] = j

    score = rho * delta
    # Centers sorted by descending score; ties resolved by input index.
    centers = np.lexsort((np.arange(n), -score))[:num_clusters]

    labels = np.full(n, -1, dtype=np.int64)
    labels[centers] = np.arange(num_clusters)
    for pos in range(n):
        i = order[pos]
        if labels[i] < 0:
            labels[i] = labels[parent[i]]

    centroids = np.stack([pts[labels == k].mean(axis=0) for k in range(num_clusters)])
    return DpcResult(centroids=centroids, labels=labels)
