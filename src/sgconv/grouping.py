"""Filter grouping by k-means over importance vectors.

Lloyd iterations with k-means++ seeding and ``RESTARTS`` seeded
restarts. The quality figure of a grouping is the unsquared within-group
distance sum (with group means as centroids), so the best restart under
that objective wins, and no restart runs after one whose objective is 0.
The squared Lloyd objective of the winner is kept alongside for
diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _integer


@dataclass
class Grouping:
    assignment: np.ndarray            # (C_out,) group id per filter, ids 0..g-1 all used
    centroids: np.ndarray             # (g, C_in) group means
    objective: float                  # sum of unsquared euclidean distances to centroids
    sq_objective: float               # Lloyd objective (sum of squared distances)
    iteration_objectives: list = field(default_factory=list)  # per-iteration sq objective

    @property
    def num_groups(self) -> int:
        return self.centroids.shape[0]


def group_sizes(assignment: np.ndarray, num_groups: int) -> np.ndarray:
    return np.bincount(assignment, minlength=num_groups)


def centroids_for(vectors: np.ndarray, assignment: np.ndarray, num_groups: int) -> np.ndarray:
    """Group means of the assigned vectors (groups must be non-empty)."""
    out = np.empty((num_groups, vectors.shape[1]), dtype=np.float64)
    for i in range(num_groups):
        members = vectors[assignment == i]
        if len(members) == 0:
            raise ValueError(f"group {i} has no members")
        out[i] = members.mean(axis=0)
    return out


def grouping_objective(vectors: np.ndarray, grouping: Grouping) -> float:
    """Sum over filters of the euclidean distance to their group centroid."""
    diffs = vectors - grouping.centroids[grouping.assignment]
    return float(np.sqrt((diffs ** 2).sum(axis=1)).sum())


def _sq_distances(vectors, centroids):
    # (n, g) squared euclidean distances
    return ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp_init(vectors, num_groups, rng):
    n = len(vectors)
    chosen = [int(rng.integers(n))]
    d2 = ((vectors - vectors[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(num_groups - 1):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # duplicate points: any choice is equivalent
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, ((vectors - vectors[idx]) ** 2).sum(axis=1))
    return vectors[chosen].copy()


def _repair_empty(assignment, vectors, centroids, num_groups):
    """Give each empty group the point farthest from its current centroid."""
    sizes = np.bincount(assignment, minlength=num_groups)
    for empty in np.flatnonzero(sizes == 0):
        dist = ((vectors - centroids[assignment]) ** 2).sum(axis=1)
        movable = sizes[assignment] > 1  # never empty another group
        dist = np.where(movable, dist, -1.0)
        donor = int(np.argmax(dist))
        sizes[assignment[donor]] -= 1
        assignment[donor] = empty
        sizes[empty] += 1
    return assignment


MAX_LLOYD_ITERATIONS = 300  # per restart; Lloyd stops earlier once an assignment repeats


def _lloyd(vectors, num_groups, rng):
    centroids = _kmeanspp_init(vectors, num_groups, rng)
    recent = []  # the last two assignments: ties and the repair can make Lloyd alternate
    trace = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        assignment = np.argmin(_sq_distances(vectors, centroids), axis=1)  # ties: lowest id
        assignment = _repair_empty(assignment, vectors, centroids, num_groups)
        centroids = centroids_for(vectors, assignment, num_groups)
        trace.append(float(((vectors - centroids[assignment]) ** 2).sum()))
        if any(np.array_equal(past, assignment) for past in recent):
            break
        recent = [*recent[-1:], assignment]
    return assignment, centroids, trace


RESTARTS = 8  # seeded Lloyd starts per clustering, unless one reaches objective 0


def kmeans_cluster(vectors: np.ndarray, num_groups: int, seed) -> Grouping:
    """Cluster importance vectors into num_groups groups.

    Deterministic for a given (vectors, num_groups, seed). num_groups is
    clamped to the number of vectors; a count that is not an integer >= 1
    (a bool is not one) is an error, and so is a NaN or infinite entry. Of
    the RESTARTS restarts, none runs after one whose objective is exactly 0,
    which no other can beat.
    """
    num_groups = _integer(num_groups, "num_groups", 1)
    vectors = np.asarray(vectors, dtype=np.float64)
    if not np.isfinite(vectors).all():
        raise ValueError("importance vectors must be finite (NaN or inf found)")
    num_groups = min(num_groups, len(vectors))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(RESTARTS):
        assignment, centroids, trace = _lloyd(vectors, num_groups, rng)
        objective = float(np.sqrt(((vectors - centroids[assignment]) ** 2)
                                  .sum(axis=1)).sum())
        if best is None or objective < best[0]:
            best = (objective, assignment, centroids, trace)
        if objective == 0.0:  # no later restart can be strictly lower
            break
    objective, assignment, centroids, trace = best
    return Grouping(assignment=assignment, centroids=centroids, objective=objective,
                    sq_objective=trace[-1], iteration_objectives=trace)
