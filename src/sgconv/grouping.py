"""Filter grouping by k-means over importance vectors.

Lloyd iterations with k-means++ seeding and ``RESTARTS`` seeded
restarts, cut short by a restart whose objective is 0. The quality figure
of a grouping is the unsquared within-group distance sum (with group
means as centroids), which is not quite what Lloyd minimizes; each
restart is therefore polished by a deterministic single-point local
search under the unsquared objective, and the best restart under that
objective wins. The polish bounds each move's gain by the convexity of a
group's distance sum in its centroid and costs exactly only the moves the
bound cannot rule out, each summed as a lone group would be, so its
result is that of costing every move; it stops once a pass repeats. The
squared Lloyd objective is kept alongside for diagnostics.
"""
from __future__ import annotations

import numbers
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


MAX_LLOYD_ITERATIONS = 300  # per restart; Lloyd stops earlier once an assignment repeats
MAX_POLISH_PASSES = 30  # per restart; the polish's passes repeat once a start repeats


def _lloyd(vectors, num_groups, rng):
    centroids = _kmeanspp_init(vectors, num_groups, rng)
    prev = None
    trace = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        assignment = np.argmin(_sq_distances(vectors, centroids), axis=1)  # ties: lowest id
        assignment = _repair_empty(assignment, vectors, centroids, num_groups)
        centroids = centroids_for(vectors, assignment, num_groups)
        trace.append(float(((vectors - centroids[assignment]) ** 2).sum()))
        if prev is not None and np.array_equal(prev, assignment):
            break
        prev = assignment
    return assignment, centroids, trace


# Largest temporary the polish builds in one numpy call: point-to-centroid
# differences (points x groups x channels), unless one point's are larger.
CHUNK_ELEMENTS = 1 << 18


def _cost(vectors, members):
    """Unsquared cost of the group of the sorted ``members``, summed as a lone
    group (members in index order, centroid = sum / m)."""
    block = vectors[members]
    centroid = block.sum(axis=0) / len(members)
    return np.sqrt(((block - centroid) ** 2).sum(axis=1)).sum()


def _live_moves(vectors, assignment, members):
    """(n, g) mask of the moves of each point into each group whose gain
    bound reaches -1e-12 less a margin far above the rounding error of bound
    and exact costs; False where no move is made (into the own group, or out
    of a one-member group).

    f_x(c) = sum_{j in x} |v_j - c| is convex with subgradient gamma_x =
    -sum_{j in x} (v_j - c_x) / |v_j - c_x| (zero-length terms dropped) at the
    group mean c_x. So taking v_i out of its group s of M members saves at most
    (M |v_i - c_s| + gamma_s.(v_i - c_s)) / (M - 1), and adding it to a group d
    of m costs at least (m |v_i - c_d| + gamma_d.(v_i - c_d)) / (m + 1)."""
    sizes = np.array([len(own) for own in members])
    onehot = (assignment == np.arange(len(members))[:, None]).astype(np.float64)
    centroids = onehot @ vectors / sizes[:, None]
    own = vectors - centroids[assignment]
    length = np.sqrt(np.einsum("ij,ij->i", own, own))
    gamma = -(onehot @ (own / np.where(length > 0, length, 1.0)[:, None]))
    dist, proj = np.empty((2, len(vectors), len(members)))
    step = max(1, CHUNK_ELEMENTS // centroids.size)
    for lo in range(0, len(vectors), step):
        diff = vectors[lo:lo + step, None, :] - centroids  # (step, g, C)
        dist[lo:lo + step] = np.sqrt(np.einsum("igc,igc->ig", diff, diff))
        proj[lo:lo + step] = np.einsum("igc,gc->ig", diff, gamma)
    points, m = np.arange(len(vectors)), sizes[assignment]
    saved = (m * length + proj[points, assignment]) / np.maximum(m - 1, 1)
    bounds = saved[:, None] - (sizes * dist + proj) / (sizes + 1)
    live = bounds >= -1e-12 - 1e-9 * (np.abs(vectors).sum() + 1.0)
    live[points, assignment] = live[m == 1] = False
    return live


def _first_move(vectors, assignment, members, costs, start):
    """The first point from ``start`` on whose best exact gain exceeds -1e-12,
    as (point, group, its group's cost without it, that group's with it), or
    None. Only live moves are costed."""
    live = _live_moves(vectors, assignment, members)
    for idx in np.flatnonzero(live[start:].any(axis=1)) + start:
        dsts, src = np.flatnonzero(live[idx]), assignment[idx]
        rem = _cost(vectors, members[src][members[src] != idx])
        add = np.array([_cost(vectors, np.sort(np.append(members[d], idx))) for d in dsts])
        gains = (costs[src] + costs[dsts]) - (rem + add)
        best = gains.argmax()
        if gains[best] > -1e-12:
            return idx, dsts[best], rem, add[best]
    return None


def _refine_unsquared(vectors, assignment, num_groups):
    """Greedy single-point moves that lower the unsquared objective.

    Points are visited in index order and each moves at once to the first
    group of largest gain, if that gain exceeds -1e-12. Moves that would
    empty a group are skipped. Only live moves (_live_moves) are costed:
    the others gain less than -1e-12, so the scan would not make them.

    A pass depends only on the assignment it starts from, since each
    group's cost is that member set's lone-group cost. So once a pass
    starts from an earlier pass's assignment the passes repeat with that
    period (1 after a pass without moves), and the assignment that
    MAX_POLISH_PASSES passes end on is read off the ones recorded.
    """
    assignment = assignment.copy()
    if num_groups == 1 or num_groups >= len(vectors):
        return assignment  # no other group, or all singletons: no legal move
    members = [np.flatnonzero(assignment == d) for d in range(num_groups)]
    costs = np.array([_cost(vectors, own) for own in members])
    starts, first_pass = [], {}  # start assignment of each pass; pass of each start
    for done in range(MAX_POLISH_PASSES):
        key = assignment.tobytes()
        if key in first_pass:
            first = first_pass[key]
            return starts[first + (MAX_POLISH_PASSES - first) % (done - first)]
        first_pass[key] = done
        starts.append(assignment.copy())
        start = 0
        while move := _first_move(vectors, assignment, members, costs, start):
            idx, dst, costs_src, costs_dst = move
            src, assignment[idx] = assignment[idx], dst
            costs[src], costs[dst] = costs_src, costs_dst
            members[src] = members[src][members[src] != idx]
            members[dst] = np.sort(np.append(members[dst], idx))
            start = idx + 1
    return assignment


RESTARTS = 8  # seeded Lloyd starts per clustering, unless one reaches objective 0


def kmeans_cluster(vectors: np.ndarray, num_groups: int, seed) -> Grouping:
    """Cluster importance vectors into num_groups groups.

    Deterministic for a given (vectors, num_groups, seed). num_groups is
    clamped to the number of vectors; a count that is not an integer >= 1
    (a bool is not one) is an error, and so is a NaN or infinite entry. Of
    the RESTARTS restarts, none runs after one whose objective is exactly 0,
    which no other can beat.
    """
    if not isinstance(num_groups, numbers.Integral) or isinstance(num_groups, bool):
        raise ValueError(f"num_groups must be an integer, got {num_groups!r}")
    if num_groups < 1:
        raise ValueError(f"num_groups must be >= 1, got {num_groups}")
    vectors = np.asarray(vectors, dtype=np.float64)
    if not np.isfinite(vectors).all():
        raise ValueError("importance vectors must be finite (NaN or inf found)")
    num_groups = min(num_groups, len(vectors))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(RESTARTS):
        assignment, _, trace = _lloyd(vectors, num_groups, rng)
        assignment = _refine_unsquared(vectors, assignment, num_groups)
        centroids = centroids_for(vectors, assignment, num_groups)
        objective = float(np.sqrt(((vectors - centroids[assignment]) ** 2)
                                  .sum(axis=1)).sum())
        if best is None or objective < best[0]:
            best = (objective, assignment, centroids, trace)
        if objective == 0.0:  # no later restart can be strictly lower
            break
    objective, assignment, centroids, trace = best
    return Grouping(assignment=assignment, centroids=centroids,
                    objective=objective,
                    sq_objective=float(((vectors - centroids[assignment]) ** 2).sum()),
                    iteration_objectives=trace)
