"""Filter grouping by k-means over importance vectors.

Lloyd iterations with k-means++ seeding and a fixed number of seeded
restarts. The quality figure of a grouping is the unsquared within-group
distance sum (with group means as centroids), which is not quite what
Lloyd minimizes; each restart is therefore polished by a deterministic
single-point local search under the unsquared objective, and the best
restart under that objective wins. The polish caches the cost of every
candidate group with each point inserted or removed and recomputes only
what a move changed, in stacked numpy calls that sum every group exactly
as a lone cost call would, so its result does not depend on the caching.
The squared Lloyd objective is kept alongside for diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


def _lloyd(vectors, num_groups, rng, max_iter):
    centroids = _kmeanspp_init(vectors, num_groups, rng)
    prev = None
    trace = []
    for _ in range(max_iter):
        assignment = np.argmin(_sq_distances(vectors, centroids), axis=1)  # ties: lowest id
        assignment = _repair_empty(assignment, vectors, centroids, num_groups)
        centroids = centroids_for(vectors, assignment, num_groups)
        trace.append(float(((vectors - centroids[assignment]) ** 2).sum()))
        if prev is not None and np.array_equal(prev, assignment):
            break
        prev = assignment
    return assignment, centroids, trace


# Largest stacked gather (rows x members x channels) the polish builds in
# one cost call, unless a single row is larger. Rows are independent, so
# how they are split never changes a value.
CHUNK_ELEMENTS = 1 << 18


def _stacked_costs(vectors, rows):
    """Unsquared cost of each row's member set; rows is (k, m), index-sorted.

    Every row is summed as a lone group would be (members in index order,
    centroid = sum / m), so its cost does not depend on the other rows.
    """
    block = vectors[rows]  # (k, m, C)
    centroid = block.sum(axis=1) / rows.shape[1]
    return np.sqrt(((block - centroid[:, None, :]) ** 2).sum(axis=2)).sum(axis=1)


def _rows_without(own, points):
    """(k, m-1) rows: the sorted members ``own`` less each of ``points``."""
    cols = np.arange(len(own) - 1)
    return own[cols + (cols >= np.searchsorted(own, points)[:, None])]


def _rows_with(own, points):
    """(k, m+1) rows: the sorted members ``own`` plus each of ``points``, in order."""
    m = len(own)
    at = np.searchsorted(own, points)
    cols = np.arange(m + 1)
    rows = own[np.minimum(cols - (cols > at[:, None]), m - 1)]
    rows[np.arange(len(points)), at] = points
    return rows


def _refine_unsquared(vectors, assignment, num_groups, max_passes=30):
    """Greedy single-point moves that lower the unsquared objective.

    Lloyd converges to local optima of the squared objective; the two
    objectives rank partitions differently often enough to matter, so a
    deterministic polish under the reported metric follows every
    restart. Points are visited in index order and each moves at once to
    the first group of largest gain, if that gain exceeds -1e-12. Moves
    that would empty a group are skipped.

    Candidate costs are cached: ``add[d, i]`` is the cost of group d with
    point i inserted, ``rem[i]`` the cost of i's group without i. An
    entry stays valid until a move changes the group it was computed
    from. A stale entry is recomputed when its point is visited, together
    with those of the points visited next, up to CHUNK_ELEMENTS values in
    one stacked call. A pass without moves costs one length-g expression
    per point.
    """
    assignment = assignment.copy()
    n, width = vectors.shape
    if num_groups == 1 or num_groups >= n:
        return assignment  # no other group, or all singletons: no legal move
    members = [np.flatnonzero(assignment == d) for d in range(num_groups)]
    costs = np.array([_stacked_costs(vectors, own[None])[0] for own in members])
    # An entry records its group's stamp when computed; a move gives both
    # of its groups a new tick. ``checked`` holds the tick at which all of
    # a point's entries were last known valid.
    stamp = np.zeros(num_groups, dtype=np.int64)
    add, add_at = np.zeros((num_groups, n)), np.full((num_groups, n), -1)
    rem, rem_at = np.zeros(n), np.full(n, -1)
    tick = 0
    checked = [-1] * n
    cyclic = np.arange(2 * n) % n

    def upcoming(idx, gid, inside, row_len):
        order = cyclic[idx:idx + n]  # idx first, then visiting order
        picked = order[(assignment[order] == gid) == inside]
        return picked[:max(1, CHUNK_ELEMENTS // max(1, row_len * width))]

    for _ in range(max_passes):
        improved = False
        for idx in range(n):
            src = int(assignment[idx])
            own = members[src]
            if len(own) == 1:
                continue
            if checked[idx] != tick:
                if rem_at[idx] != stamp[src]:
                    points = upcoming(idx, src, True, len(own) - 1)
                    rem[points] = _stacked_costs(vectors, _rows_without(own, points))
                    rem_at[points] = stamp[src]
                for d in np.flatnonzero(add_at[:, idx] != stamp):
                    if d != src:
                        points = upcoming(idx, d, False, len(members[d]) + 1)
                        add[d, points] = _stacked_costs(vectors, _rows_with(members[d], points))
                        add_at[d, points] = stamp[d]
                checked[idx] = tick
            gains = (costs[src] + costs) - (rem[idx] + add[:, idx])
            gains[src] = -np.inf
            dst = int(gains.argmax())
            if gains[dst] > -1e-12:
                assignment[idx] = dst
                costs[src], costs[dst] = rem[idx], add[dst, idx]
                members[src] = own[own != idx]
                members[dst] = np.insert(members[dst],
                                         np.searchsorted(members[dst], idx), idx)
                tick += 1
                stamp[src] = stamp[dst] = tick
                improved = True
        if not improved:
            break
    return assignment


def kmeans_cluster(vectors: np.ndarray, num_groups: int, seed, *,
                   restarts: int = 8, max_iter: int = 300) -> Grouping:
    """Cluster importance vectors into num_groups groups.

    Deterministic for a given (vectors, num_groups, seed). num_groups is
    clamped to the number of vectors; fewer than one group, restart or
    Lloyd iteration is an error, and so is a NaN or infinite entry.
    """
    if num_groups < 1:
        raise ValueError(f"num_groups must be >= 1, got {num_groups}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    vectors = np.asarray(vectors, dtype=np.float64)
    if not np.isfinite(vectors).all():
        raise ValueError("importance vectors must be finite (NaN or inf found)")
    num_groups = min(num_groups, len(vectors))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        assignment, _, trace = _lloyd(vectors, num_groups, rng, max_iter)
        assignment = _refine_unsquared(vectors, assignment, num_groups)
        centroids = centroids_for(vectors, assignment, num_groups)
        objective = float(np.sqrt(((vectors - centroids[assignment]) ** 2)
                                  .sum(axis=1)).sum())
        if best is None or objective < best[0]:
            best = (objective, assignment, centroids, trace)
    objective, assignment, centroids, trace = best
    return Grouping(assignment=assignment, centroids=centroids,
                    objective=objective,
                    sq_objective=float(((vectors - centroids[assignment]) ** 2).sum()),
                    iteration_objectives=trace)
