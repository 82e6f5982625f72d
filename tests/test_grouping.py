"""Clustering quality against a brute-force partition oracle."""
import itertools

import numpy as np
import pytest

from sgconv import grouping
from sgconv.grouping import (Grouping, centroids_for, grouping_objective,
                             kmeans_cluster)


# ---------------------------------------------------------------- oracles

def partition_objective(vectors, labels, num_groups):
    """Within-group sum of (unsquared) euclidean distances to group means."""
    total = 0.0
    for g in range(num_groups):
        members = vectors[labels == g]
        if len(members) == 0:
            continue
        centroid = members.mean(axis=0)
        total += np.sqrt(((members - centroid) ** 2).sum(axis=1)).sum()
    return total


def brute_force_two_groups(vectors):
    """Best objective and partition over all 2-group splits."""
    n = len(vectors)
    best = (np.inf, None)
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)  # fix vector 0 in group 0 to kill mirror splits
        if labels.max() == 0:
            continue
        obj = partition_objective(vectors, labels, 2)
        if obj < best[0]:
            best = (obj, labels)
    return best


def canonical_partition(labels):
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(idx)
    return frozenset(frozenset(s) for s in groups.values())


def tied_cases(rng, per_style=4):
    """Importance-like (vectors, num_groups) with exact ties, where the
    argmin's tie rule and the empty-group repair decide the result: rounded
    values, zero or tied columns, duplicate rows and constant rows. Some
    counts exceed the number of vectors."""
    for style in ("rounded", "zero-columns", "tied-columns", "duplicates", "constant"):
        for _ in range(per_style):
            n, width = int(rng.integers(2, 41)), int(rng.integers(1, 13))
            vectors = np.abs(rng.standard_normal((n, width)))
            if style == "rounded":
                vectors = np.round(vectors * 2) / 2
            elif style == "zero-columns":
                vectors[:, rng.random(width) < 0.5] = 0.0
            elif style == "tied-columns":
                vectors[:, :] = vectors[:, :1] * rng.integers(0, 3, width)
            elif style == "duplicates":
                vectors = vectors[rng.integers(0, max(1, n // 4), n)]
            else:
                vectors[:] = 1.5
            yield vectors, int(rng.integers(1, min(n, 8) + 3))


# ---------------------------------------------------------------- kmeans

def test_four_vector_example():
    vectors = np.array([[0, 0], [0, 1], [10, 10], [10, 11]], float)
    best_obj, best_labels = brute_force_two_groups(vectors)
    grouping = kmeans_cluster(vectors, 2, seed=0)
    assert canonical_partition(grouping.assignment) == canonical_partition(best_labels)
    assert canonical_partition(grouping.assignment) == \
        frozenset({frozenset({0, 1}), frozenset({2, 3})})
    centroids = {tuple(c) for c in grouping.centroids}
    assert centroids == {(0.0, 0.5), (10.0, 10.5)}
    assert grouping.objective == pytest.approx(best_obj)
    assert grouping.objective == pytest.approx(2.0)


def test_singleton_groups(rng):
    vectors = rng.standard_normal((5, 3))
    grouping = kmeans_cluster(vectors, 5, seed=1)
    assert sorted(grouping.assignment) == list(range(5))
    np.testing.assert_allclose(grouping.centroids[grouping.assignment], vectors, atol=1e-12)
    assert grouping.objective == pytest.approx(0.0, abs=1e-12)


def test_identical_vectors():
    vectors = np.ones((6, 4))
    grouping = kmeans_cluster(vectors, 3, seed=2)
    assert grouping.objective == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grouping.centroids, 1.0)


def counted_lloyd(monkeypatch):
    """The Lloyd starts kmeans_cluster runs: a list of their iteration counts."""
    starts, lloyd = [], grouping._lloyd

    def counted(*args):
        result = lloyd(*args)
        starts.append(len(result[2]))
        return result

    monkeypatch.setattr(grouping, "_lloyd", counted)
    return starts


def assert_same_grouping(a, b):
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert (a.objective, a.sq_objective, a.iteration_objectives) == \
        (b.objective, b.sq_objective, b.iteration_objectives)


@pytest.mark.parametrize("style", ["distinct", "duplicates"])
def test_restarts_stop_at_objective_zero(rng, monkeypatch, style):
    """All-singleton groups, or groups of identical vectors, have objective
    0: no later restart can beat the first, so only one runs. (Integer
    entries, so that the mean of three copies is the vector itself.)"""
    if style == "distinct":
        vectors, num_groups = rng.standard_normal((9, 4)), 9
    else:
        rows = rng.integers(0, 10, (3, 4)).astype(np.float64)
        vectors, num_groups = rows[[0, 1, 2, 1, 0, 2, 2, 1, 0]], 3
    starts = counted_lloyd(monkeypatch)
    monkeypatch.setattr(grouping, "RESTARTS", 8)
    many = kmeans_cluster(vectors, num_groups, seed=5)
    assert len(starts) == 1 and many.objective == 0.0
    monkeypatch.setattr(grouping, "RESTARTS", 1)
    assert_same_grouping(many, kmeans_cluster(vectors, num_groups, seed=5))


def test_restarts_run_on_while_the_objective_is_positive(rng, monkeypatch):
    starts = counted_lloyd(monkeypatch)
    monkeypatch.setattr(grouping, "RESTARTS", 8)
    kmeans_cluster(rng.standard_normal((9, 4)), 3, seed=5)
    assert len(starts) == 8


def test_lloyd_stops_when_it_cycles_with_period_two(monkeypatch):
    """16 rows drawn from 4 distinct ones, in 6 groups: each argmin leaves
    two groups empty, the repair refills them with other points, and the
    assignments alternate between two states from the second iteration on.
    Every start stops within a few iterations instead of running all
    MAX_LLOYD_ITERATIONS."""
    vectors, num_groups = list(tied_cases(np.random.default_rng(12345)))[14]
    starts = counted_lloyd(monkeypatch)
    kmeans_cluster(vectors, num_groups, seed=14)
    assert len(starts) == grouping.RESTARTS and max(starts) <= 10


def test_group_count_clamped_and_validated(rng):
    vectors = rng.standard_normal((3, 2))
    grouping = kmeans_cluster(vectors, 10, seed=0)
    assert grouping.num_groups == 3
    with pytest.raises(ValueError, match=">= 1"):
        kmeans_cluster(vectors, 0, seed=0)


def test_no_empty_groups(rng):
    for trial in range(20):
        n = int(rng.integers(2, 12))
        g = int(rng.integers(1, n + 1))
        vectors = rng.standard_normal((n, 4))
        grouping = kmeans_cluster(vectors, g, seed=trial)
        assert set(grouping.assignment) == set(range(grouping.num_groups))
    for trial, (vectors, g) in enumerate(tied_cases(rng)):
        grouping = kmeans_cluster(vectors, g, seed=trial)
        assert set(grouping.assignment) == set(range(grouping.num_groups))


def test_centroids_are_group_means(rng):
    vectors = rng.standard_normal((12, 5))
    grouping = kmeans_cluster(vectors, 4, seed=3)
    means = centroids_for(vectors, grouping.assignment, grouping.num_groups)
    np.testing.assert_allclose(grouping.centroids, means, atol=1e-6)
    for trial, (tied, g) in enumerate(tied_cases(rng)):
        result = kmeans_cluster(tied, g, seed=trial)
        means = centroids_for(tied, result.assignment, result.num_groups)
        np.testing.assert_allclose(result.centroids, means, atol=1e-6)
        assert result.objective == grouping_objective(tied, result)
        assert result.sq_objective == result.iteration_objectives[-1]
    with pytest.raises(ValueError, match="group 2 has no members"):
        centroids_for(vectors, np.array([0, 1, 3] * 4), 4)


def test_lloyd_objective_monotone(rng):
    for trial in range(10):
        vectors = rng.standard_normal((20, 6))
        grouping = kmeans_cluster(vectors, 4, seed=trial)
        trace = grouping.iteration_objectives
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9


def test_determinism(rng):
    vectors = rng.standard_normal((15, 4))
    a = kmeans_cluster(vectors, 4, seed=99)
    b = kmeans_cluster(vectors, 4, seed=99)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.objective == b.objective
    for trial, (vectors, g) in enumerate(tied_cases(rng)):
        assert_same_grouping(kmeans_cluster(vectors, g, seed=trial),
                             kmeans_cluster(vectors, g, seed=trial))


def test_permutation_stability_on_separated_data(rng):
    # well-separated blobs: the optimum is unambiguous, so the partition
    # must survive a filter permutation (up to group relabeling)
    base = np.concatenate([rng.standard_normal((5, 3)) * 0.1,
                           rng.standard_normal((6, 3)) * 0.1 + 20.0])
    grouping = kmeans_cluster(base, 2, seed=7)
    perm = rng.permutation(len(base))
    permuted = kmeans_cluster(base[perm], 2, seed=7)
    unpermuted = np.empty(len(base), dtype=int)
    unpermuted[perm] = permuted.assignment
    assert canonical_partition(grouping.assignment) == canonical_partition(unpermuted)


def test_within_five_percent_of_bruteforce(rng):
    # module-level spot check; the acceptance suite runs the full 100
    for trial in range(25):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 6))
        vectors = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        best_obj, _ = brute_force_two_groups(vectors)
        grouping = kmeans_cluster(vectors, 2, seed=trial)
        assert grouping.objective <= best_obj * 1.05 + 1e-9


# ---------------------------------------------------------------- objective

def test_objective_singletons(rng):
    vectors = rng.standard_normal((4, 3))
    grouping = kmeans_cluster(vectors, 4, seed=0)
    assert grouping_objective(vectors, grouping) == pytest.approx(0.0, abs=1e-12)


def test_objective_hand_case():
    vectors = np.array([[0.0], [2.0]])
    grouping = Grouping(assignment=np.array([0, 0]), centroids=np.array([[1.0]]),
                        objective=0.0, sq_objective=0.0)
    assert grouping_objective(vectors, grouping) == pytest.approx(2.0)


def test_objective_matches_direct_summation(rng):
    vectors = rng.standard_normal((10, 4))
    grouping = kmeans_cluster(vectors, 3, seed=5)
    direct = 0.0
    for j, vec in enumerate(vectors):
        c = grouping.centroids[grouping.assignment[j]]
        direct += np.sqrt(((vec - c) ** 2).sum())
    assert grouping_objective(vectors, grouping) == pytest.approx(direct, abs=1e-6)


def test_non_finite_vectors_rejected(rng):
    vectors = rng.standard_normal((6, 3))
    for bad in (np.nan, np.inf, -np.inf):
        broken = vectors.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans_cluster(broken, 2, seed=0)


def test_degenerate_arguments_rejected(rng):
    vectors = rng.standard_normal((6, 3))
    for num_groups in (0, -2):
        with pytest.raises(ValueError, match="num_groups must be >= 1"):
            kmeans_cluster(vectors, num_groups, 0)
    for num_groups in (2.5, True):  # before any work: range(2.5) raises a bare TypeError
        with pytest.raises(ValueError, match="num_groups must be an integer"):
            kmeans_cluster(vectors, num_groups, 0)
