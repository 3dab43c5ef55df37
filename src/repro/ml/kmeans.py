"""KMeans clustering (Lloyd's algorithm with k-means++ seeding).

The Figure-7 microbenchmark maps KMeans onto match-action tables one
cluster at a time, so cluster count is the resource knob; ``merge_clusters``
implements the paper's coarsening fallback when fewer tables are available
than clusters requested.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.rng import as_generator


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation.

    Parameters
    ----------
    n_clusters:
        number of centroids (one MAT each under the IIsy mapping).
    n_init:
        independent restarts; the inertia-best run wins.
    max_iter / tol:
        convergence controls for each run.
    """

    def __init__(
        self,
        n_clusters: int = 5,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if n_clusters < 1:
            raise TrainingError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_init < 1 or max_iter < 1:
            raise TrainingError("n_init and max_iter must be >= 1")
        self.n_clusters = int(n_clusters)
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._rng = as_generator(seed)
        self.cluster_centers_: np.ndarray | None = None
        self.inertia_: float | None = None

    def _kpp_init(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = X.shape[0]
        centers = [X[rng.integers(n)]]
        for _ in range(1, self.n_clusters):
            dists = np.min(
                ((X[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(-1), axis=1
            )
            total = dists.sum()
            if total <= 0:
                centers.append(X[rng.integers(n)])
                continue
            probs = dists / total
            centers.append(X[rng.choice(n, p=probs)])
        return np.asarray(centers, dtype=float)

    def _single_run(self, X: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        centers = self._kpp_init(X, rng)
        for _ in range(self.max_iter):
            dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
            labels = dists.argmin(axis=1)
            new_centers = centers.copy()
            for k in range(self.n_clusters):
                members = X[labels == k]
                if members.shape[0]:
                    new_centers[k] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the point farthest from its center.
                    new_centers[k] = X[dists.min(axis=1).argmax()]
            shift = float(np.abs(new_centers - centers).max())
            centers = new_centers
            if shift < self.tol:
                break
        dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        inertia = float(dists.min(axis=1).sum())
        return centers, inertia

    def fit(self, X) -> "KMeans":
        """Cluster ``X``: best of ``n_init`` Lloyd runs by inertia.

        Fitted centroids land in :attr:`cluster_centers_`, their
        summed squared distances in :attr:`inertia_`.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise TrainingError("X must be 2-D")
        if X.shape[0] < self.n_clusters:
            raise TrainingError(
                f"need at least n_clusters={self.n_clusters} samples, got {X.shape[0]}"
            )
        best_centers = None
        best_inertia = np.inf
        for _ in range(self.n_init):
            centers, inertia = self._single_run(X, self._rng)
            if inertia < best_inertia:
                best_centers, best_inertia = centers, inertia
        self.cluster_centers_ = best_centers
        self.inertia_ = best_inertia
        return self

    def predict(self, X) -> np.ndarray:
        """Index of the nearest centroid for every sample."""
        if self.cluster_centers_ is None:
            raise TrainingError("KMeans used before fit()")
        X = np.asarray(X, dtype=float)
        dists = ((X[:, None, :] - self.cluster_centers_[None, :, :]) ** 2).sum(-1)
        return dists.argmin(axis=1)

    def merge_clusters(self, target: int) -> "KMeans":
        """Return a coarser model with ``target`` clusters.

        Greedily merges the closest centroid pair (weighted midpoint) until
        ``target`` remain — the paper's fallback when a switch has fewer
        MATs than requested clusters (Figure 7, K4..K1).
        """
        if self.cluster_centers_ is None:
            raise TrainingError("KMeans used before fit()")
        if target < 1:
            raise TrainingError(f"target must be >= 1, got {target}")
        if target >= self.n_clusters:
            return self
        centers = [c.copy() for c in self.cluster_centers_]
        weights = [1.0] * len(centers)
        while len(centers) > target:
            best = (0, 1)
            best_d = np.inf
            for i in range(len(centers)):
                for j in range(i + 1, len(centers)):
                    d = float(((centers[i] - centers[j]) ** 2).sum())
                    if d < best_d:
                        best_d, best = d, (i, j)
            i, j = best
            wi, wj = weights[i], weights[j]
            merged = (centers[i] * wi + centers[j] * wj) / (wi + wj)
            centers[i] = merged
            weights[i] = wi + wj
            del centers[j], weights[j]
        coarse = KMeans(
            n_clusters=target,
            n_init=self.n_init,
            max_iter=self.max_iter,
            tol=self.tol,
        )
        coarse.cluster_centers_ = np.asarray(centers)
        coarse.inertia_ = None
        return coarse

    @property
    def n_params(self) -> int:
        """Stored parameter count (centroid coordinates)."""
        if self.cluster_centers_ is None:
            return 0
        return int(self.cluster_centers_.size)
