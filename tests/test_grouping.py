"""Clustering quality against a brute-force partition oracle."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgconv import grouping
from sgconv.grouping import (Grouping, centroids_for, grouping_objective,
                             kmeans_cluster)
from sgconv.importance import importance_conv


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
    """The number of Lloyd starts kmeans_cluster runs, as a one-item list."""
    starts, lloyd = [0], grouping._lloyd

    def counted(*args):
        starts[0] += 1
        return lloyd(*args)

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
    assert starts == [1] and many.objective == 0.0
    monkeypatch.setattr(grouping, "RESTARTS", 1)
    assert_same_grouping(many, kmeans_cluster(vectors, num_groups, seed=5))


def test_restarts_run_on_while_the_objective_is_positive(rng, monkeypatch):
    starts = counted_lloyd(monkeypatch)
    monkeypatch.setattr(grouping, "RESTARTS", 8)
    kmeans_cluster(rng.standard_normal((9, 4)), 3, seed=5)
    assert starts == [8]


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


def test_centroids_are_group_means(rng):
    vectors = rng.standard_normal((12, 5))
    grouping = kmeans_cluster(vectors, 4, seed=3)
    means = centroids_for(vectors, grouping.assignment, grouping.num_groups)
    np.testing.assert_allclose(grouping.centroids, means, atol=1e-6)
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


# ---------------------------------------------------------------- polish reference

def group_cost_reference(vectors, assignment, gid):
    members = vectors[assignment == gid]
    if len(members) == 0:
        return 0.0
    centroid = members.mean(axis=0)
    return float(np.sqrt(((members - centroid) ** 2).sum(axis=1)).sum())


def refine_unsquared_reference(vectors, assignment, num_groups, max_passes=30):
    """The polish as a plain loop: every candidate move re-costs both groups."""
    assignment = assignment.copy()
    sizes = np.bincount(assignment, minlength=num_groups)
    costs = np.array([group_cost_reference(vectors, assignment, g)
                      for g in range(num_groups)])
    for _ in range(max_passes):
        improved = False
        for idx in range(len(vectors)):
            src = int(assignment[idx])
            if sizes[src] == 1:
                continue
            best = (-1e-12, src, None, None)  # (gain, dst, new_src_cost, new_dst_cost)
            for dst in range(num_groups):
                if dst == src:
                    continue
                assignment[idx] = dst
                new_src = group_cost_reference(vectors, assignment, src)
                new_dst = group_cost_reference(vectors, assignment, dst)
                gain = (costs[src] + costs[dst]) - (new_src + new_dst)
                if gain > best[0]:
                    best = (gain, dst, new_src, new_dst)
                assignment[idx] = src
            gain, dst, new_src, new_dst = best
            if dst != src:
                assignment[idx] = dst
                costs[src], costs[dst] = new_src, new_dst
                sizes[src] -= 1
                sizes[dst] += 1
                improved = True
        if not improved:
            break
    return assignment


@st.composite
def polish_cases(draw, styles=("normal", "rounded", "zero-columns", "tied-columns",
                                "duplicates", "constant")):
    """Importance-like vectors, a start assignment using every group, a chunk size.

    Styles cover exact ties (rounded values, duplicate rows, all-equal
    rows) and tied or zero columns, where the move order decides the result.
    """
    n = draw(st.integers(2, 80))
    width = draw(st.integers(1, 70))
    num_groups = draw(st.one_of(st.integers(2, max(2, min(8, n - 1))),
                                st.integers(1, n + 2)))
    style = draw(st.sampled_from(styles))
    chunk = draw(st.sampled_from([1, 40, 300, grouping.CHUNK_ELEMENTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = np.abs(rng.standard_normal((n, width)))
    if style == "rounded":
        vectors = np.round(vectors * 2) / 2
    elif style == "zero-columns":
        vectors[:, rng.random(width) < 0.5] = 0.0
    elif style == "tied-columns":
        vectors[:, :] = vectors[:, :1] * rng.integers(0, 3, width)
    elif style == "duplicates":
        vectors = vectors[rng.integers(0, max(1, n // 4), n)]
    elif style == "constant":
        vectors[:] = 1.5
    start = min(num_groups, n)
    assignment = np.concatenate([np.arange(start), rng.integers(0, start, n - start)])
    return vectors, assignment[rng.permutation(n)], num_groups, chunk


@settings(max_examples=100)
@given(polish_cases())
def test_candidate_costs_equal_lone_group_costs(case):
    vectors, assignment, num_groups, _ = case
    for gid in range(min(num_groups, len(vectors))):
        own = np.flatnonzero(assignment == gid)
        trial = assignment.copy()
        for point in np.flatnonzero(assignment != gid):
            added = grouping._cost(vectors, np.sort(np.append(own, point)))
            trial[point] = gid
            assert added == group_cost_reference(vectors, trial, gid)
            trial[point] = assignment[point]
        if len(own) > 1:
            for point in own:
                removed = grouping._cost(vectors, own[own != point])
                trial[point] = -1
                assert removed == group_cost_reference(vectors, trial, gid)
                trial[point] = gid


@settings(max_examples=100)
@given(polish_cases())
def test_cached_polish_is_bit_identical_to_reference(case):
    vectors, start, num_groups, chunk = case
    num_groups = min(num_groups, len(vectors))
    expected = refine_unsquared_reference(vectors, start, num_groups)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouping, "CHUNK_ELEMENTS", chunk)
        got = grouping._refine_unsquared(vectors, start, num_groups)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(start, case[1])  # the input is not modified


@settings(max_examples=15)
@given(polish_cases())
def test_kmeans_with_cached_polish_matches_reference(case):
    vectors, _, num_groups, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouping, "CHUNK_ELEMENTS", chunk)
        mp.setattr(grouping, "RESTARTS", 2)
        result = kmeans_cluster(vectors, num_groups, seed=7)
        mp.setattr(grouping, "_refine_unsquared", refine_unsquared_reference)
        reference = kmeans_cluster(vectors, num_groups, seed=7)
    np.testing.assert_array_equal(result.assignment, reference.assignment)
    np.testing.assert_array_equal(result.centroids, reference.centroids)
    assert result.objective == reference.objective
    assert result.sq_objective == reference.sq_objective
    assert result.iteration_objectives == reference.iteration_objectives


@settings(max_examples=100)
@given(polish_cases(styles=("duplicates", "constant")), st.integers(1, 9))
def test_polish_stopped_at_a_repeated_pass_matches_reference(case, max_passes):
    """On duplicate and constant rows zero-gain moves can cycle; the polish
    ends where ``max_passes`` passes of the reference end."""
    vectors, start, num_groups, _ = case
    num_groups = min(num_groups, len(vectors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouping, "MAX_POLISH_PASSES", max_passes)
        got = grouping._refine_unsquared(vectors, start, num_groups)
    np.testing.assert_array_equal(
        got, refine_unsquared_reference(vectors, start, num_groups, max_passes))


def test_polish_of_constant_rows_stops_at_the_first_repeated_pass(monkeypatch):
    """40 equal rows in 4 groups: every pass makes zero-gain moves, and the
    fourth pass would start from the second's assignment, so three passes
    (not 30) decide the result."""
    vectors = np.ones((40, 16))
    start = np.arange(40) % 4
    passes, first_move = [0], grouping._first_move

    def counted(vectors, assignment, members, costs, scan_from):
        passes[0] += scan_from == 0  # each pass scans from point 0 first
        return first_move(vectors, assignment, members, costs, scan_from)

    monkeypatch.setattr(grouping, "_first_move", counted)
    got = grouping._refine_unsquared(vectors, start, 4)
    assert passes == [3]
    np.testing.assert_array_equal(got, refine_unsquared_reference(vectors, start, 4))


# ---------------------------------------------------------------- move bound

def move_gain_reference(vectors, assignment, idx, dst):
    """Exact gain of moving point idx into group dst, as the reference polish costs it."""
    src = assignment[idx]
    moved = assignment.copy()
    moved[idx] = dst
    return ((group_cost_reference(vectors, assignment, src)
             + group_cost_reference(vectors, assignment, dst))
            - (group_cost_reference(vectors, moved, src)
               + group_cost_reference(vectors, moved, dst)))


def live_moves(vectors, assignment, num_groups):
    members = [np.flatnonzero(assignment == d) for d in range(num_groups)]
    return grouping._live_moves(vectors, assignment, members)


@settings(max_examples=100)
@given(polish_cases(), st.sampled_from([1.0, 1e3, 3.7e6]))
def test_bound_rules_out_only_moves_the_scan_would_not_make(case, scale):
    vectors, assignment, num_groups, chunk = case
    vectors = vectors * scale
    num_groups = min(num_groups, len(vectors))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouping, "CHUNK_ELEMENTS", chunk)
        live = live_moves(vectors, assignment, num_groups)
    sizes = np.bincount(assignment, minlength=num_groups)
    legal = sizes[assignment][:, None] > 1
    legal = legal & (np.arange(num_groups) != assignment[:, None])
    assert not (live & ~legal).any()  # never into the own group or out of a singleton
    for idx, dst in zip(*np.nonzero(legal & ~live)):
        assert move_gain_reference(vectors, assignment, idx, dst) < -1e-12


@settings(max_examples=50)
@given(st.floats(1e3, 1e9))
def test_bound_keeps_a_zero_gain_move_at_any_scale(scale):
    # On a line, moving 9 from {9, 11} into {0, 12} gains exactly 0, and the
    # convexity bound is tight there: only the margin keeps rounding in the
    # bound from ruling out a move the reference may make.
    vectors = np.array([[9.0], [11.0], [0.0], [12.0]]) * scale
    start = np.array([0, 0, 1, 1])
    assert live_moves(vectors, start, 2)[0, 1]
    np.testing.assert_array_equal(grouping._refine_unsquared(vectors, start, 2),
                                  refine_unsquared_reference(vectors, start, 2))


def planted_importance(seed, channels=64, groups=8, keep=0.15, weak=0.05):
    """Importance of a conv whose filters fall into planted groups, each with
    strong weights on its own ``keep`` share of input channels."""
    rng = np.random.default_rng(seed)
    member = rng.permutation(channels) % groups
    strong = np.zeros((groups, channels), dtype=bool)
    for g in range(groups):
        strong[g, rng.choice(channels, round(channels * keep), replace=False)] = True
    weight = rng.standard_normal((channels, channels, 3, 3))
    weight *= np.where(strong[member], 1.0, weak)[:, :, None, None]
    return importance_conv(weight, np.ones((channels, channels), dtype=bool))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bound_rules_out_most_moves_on_planted_groups(seed, monkeypatch):
    vectors = planted_importance(seed)
    live_count, legal_count = [], []
    live_moves_of = grouping._live_moves

    def counted(vectors, assignment, members):
        live = live_moves_of(vectors, assignment, members)
        sizes = np.array([len(own) for own in members])
        live_count.append(int(live.sum()))
        legal_count.append(int((sizes[assignment] > 1).sum()) * (len(members) - 1))
        return live

    monkeypatch.setattr(grouping, "_live_moves", counted)
    rng = np.random.default_rng(seed)
    for _ in range(8):  # the starts kmeans_cluster polishes
        start, _, _ = grouping._lloyd(vectors, 8, rng)
        np.testing.assert_array_equal(grouping._refine_unsquared(vectors, start, 8),
                                      refine_unsquared_reference(vectors, start, 8))
    assert sum(live_count) <= 0.1 * sum(legal_count)
