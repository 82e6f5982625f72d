"""Centroid ordering, ratio accounting and target selection."""
import numpy as np
import pytest

from conftest import random_group_assignment, random_group_mask
from sgconv.grouping import Grouping
from sgconv.model import FcLayer
from sgconv.pruning import (build_sorted_centroids, compression_ratio_layer,
                            compression_ratio_network, group_sizes,
                            mask_dead_fraction, minimal_truncation, partial_elements,
                            pruned_elements, select_and_prune)


def make_grouping(assignment, centroids):
    assignment = np.asarray(assignment, dtype=np.int64)
    centroids = np.asarray(centroids, dtype=np.float64)
    return Grouping(assignment=assignment, centroids=centroids,
                    objective=0.0, sq_objective=0.0)


def sort_oracle(centroids):
    """Independent ordering via numpy lexsort on (channel, group, value)."""
    g, c_in = centroids.shape
    gids, chans = np.meshgrid(np.arange(g), np.arange(c_in), indexing="ij")
    order = np.lexsort((chans.ravel(), gids.ravel(), centroids.ravel()))
    return [(float(centroids.ravel()[i]), int(gids.ravel()[i]), int(chans.ravel()[i]))
            for i in order]


# ---------------------------------------------------------------- ordering

def test_sorted_centroids_example():
    centroids = np.array([[0.1, 0.9], [0.5, 0.2]])
    entries = build_sorted_centroids(centroids).entries
    assert [e[0] for e in entries] == [0.1, 0.2, 0.5, 0.9]
    assert [(e[2], e[3]) for e in entries] == [(0, 0), (1, 1), (1, 0), (0, 1)]


def test_sorted_centroids_tie_order():
    centroids = np.full((2, 3), 0.25)
    entries = build_sorted_centroids(centroids).entries
    assert [(e[2], e[3]) for e in entries] == \
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_sorted_centroids_matches_oracle(rng):
    for _ in range(20):
        centroids = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 8))))
        entries = build_sorted_centroids(centroids).entries
        assert [(v, g, c) for v, _l, g, c in entries] == sort_oracle(centroids)


def test_layer_id_carried():
    entries = build_sorted_centroids(np.array([[1.0]]), layer_id=7).entries
    assert entries == [(1.0, 7, 0, 0)]


# ---------------------------------------------------------------- ratios

def test_ratio_formula_example():
    # |g1|=3, |g2|=1, C_in=2, n_1=1, n_2=1 -> (3+1)/(6+2) = 0.5
    assignment = np.array([0, 0, 0, 1])
    pruned = np.array([[True, False], [True, False]])
    assert compression_ratio_layer(assignment, pruned) == 0.5


def test_ratio_boundaries():
    assignment = np.array([0, 1, 1])
    nothing = np.zeros((2, 4), bool)
    everything = np.ones((2, 4), bool)
    assert compression_ratio_layer(assignment, nothing) == 0.0
    assert compression_ratio_layer(assignment, everything) == 1.0


def test_ratio_equals_mask_counting_exactly(rng):
    for _ in range(200):
        c_out = int(rng.integers(1, 20))
        c_in = int(rng.integers(1, 20))
        assignment = random_group_assignment(rng, c_out, int(rng.integers(1, 6)))
        mask = random_group_mask(rng, assignment, c_in, kill_prob=float(rng.random()))
        num_groups = int(assignment.max()) + 1
        pruned = pruned_elements(mask, assignment, num_groups)
        assert compression_ratio_layer(assignment, pruned) == mask_dead_fraction(mask)


def test_bundle_states_match_per_group_loop(rng):
    # arbitrary (not group-uniform) masks, and a group id nobody uses
    for trial in range(30):
        c_out, c_in = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        assignment = rng.integers(0, 4, c_out).astype(np.int64)
        mask = rng.random((c_out, c_in)) < rng.random()
        pruned = np.zeros((5, c_in), dtype=bool)
        partial = np.zeros((5, c_in), dtype=bool)
        for gid in range(5):
            rows = ~mask[assignment == gid]
            if len(rows):
                pruned[gid] = rows.all(axis=0)
                partial[gid] = rows.any(axis=0) & ~rows.all(axis=0)
        np.testing.assert_array_equal(pruned_elements(mask, assignment, 5), pruned)
        np.testing.assert_array_equal(partial_elements(mask, assignment, 5), partial)


def test_network_ratio_single_layer_and_pooled(rng):
    assignment = random_group_assignment(rng, 6, 3)
    mask = random_group_mask(rng, assignment, 5)
    pruned = pruned_elements(mask, assignment, 3)
    single = compression_ratio_network([(assignment, pruned)])
    assert single == compression_ratio_layer(assignment, pruned)
    assert compression_ratio_network([]) == 0.0

    items = []
    dead = 0
    total = 0
    for _ in range(4):
        a = random_group_assignment(rng, int(rng.integers(2, 10)), 3)
        m = random_group_mask(rng, a, int(rng.integers(1, 12)))
        items.append((a, pruned_elements(m, a, int(a.max()) + 1)))
        dead += int((~m).sum())
        total += m.size
    assert compression_ratio_network(items) == dead / total


def test_zero_everywhere_network():
    assignment = np.array([0, 1])
    pruned = np.zeros((2, 3), bool)
    assert compression_ratio_network([(assignment, pruned)] * 3) == 0.0


# ---------------------------------------------------------------- selection

def walkthrough_layer():
    # 4 filters, 2 channels; groups sizes (3, 1); I sorted so the smallest
    # element belongs to the 3-filter group
    weight = np.arange(1, 9, dtype=np.float32).reshape(4, 2)
    layer = FcLayer("fc", weight)
    grouping = make_grouping([0, 0, 0, 1], [[0.1, 0.9], [0.2, 0.8]])
    return layer, grouping


def test_select_and_prune_walkthrough():
    # target 0.4: n=1 gives 3/8 = 0.375 < 0.4, n=2 gives 4/8 = 0.5 -> n=2
    layer, grouping = walkthrough_layer()
    order = build_sorted_centroids(grouping.centroids)
    sizes = group_sizes(grouping.assignment, 2)
    assert minimal_truncation(order, sizes, 2, 0.4) == 2
    mask = select_and_prune(layer, grouping, t=1, s=0.4)
    assert mask_dead_fraction(mask) == 0.5
    np.testing.assert_array_equal(mask[:, 0], [False] * 4)
    assert np.all(layer.weight[:, 0] == 0)  # kernels of killed connections zeroed
    assert np.all(layer.weight[:, 1] != 0)


def test_target_zero_is_noop():
    layer, grouping = walkthrough_layer()
    before = layer.weight.copy()
    mask = select_and_prune(layer, grouping, t=1, s=1e-12)
    assert mask.all()
    np.testing.assert_array_equal(layer.weight, before)


def test_target_one_kills_everything():
    layer, grouping = walkthrough_layer()
    mask = select_and_prune(layer, grouping, t=2, s=0.5)
    assert not mask.any()
    assert not layer.weight.any()


def test_select_and_prune_validation():
    layer, grouping = walkthrough_layer()
    with pytest.raises(ValueError, match="unreachable"):
        select_and_prune(layer, grouping, t=3, s=0.5)
    with pytest.raises(ValueError, match="step"):
        select_and_prune(layer, grouping, t=1, s=0.0)
    with pytest.raises(ValueError, match="t must be"):
        select_and_prune(layer, grouping, t=0, s=0.5)


def test_minimality_of_selection(rng):
    for trial in range(50):
        g = int(rng.integers(1, 6))
        c_in = int(rng.integers(1, 10))
        c_out = int(rng.integers(g, 16))
        assignment = random_group_assignment(rng, c_out, g)
        centroids = rng.random((int(assignment.max()) + 1, c_in))
        order = build_sorted_centroids(centroids)
        sizes = group_sizes(assignment, centroids.shape[0])
        target = float(rng.uniform(0.0, 1.0))
        n = minimal_truncation(order, sizes, c_in, target)
        total = c_in * sizes.sum()

        def ratio(k):
            return sum(sizes[gid] for _v, _l, gid, _c in order.entries[:k]) / total

        assert ratio(n) >= target - 1e-9
        if n > 0:
            assert ratio(n - 1) < target - 1e-9 or ratio(n - 1) < target


def test_mask_monotone_across_iterations(rng):
    weight = rng.standard_normal((8, 6)).astype(np.float32)
    layer = FcLayer("fc", weight)
    assignment = random_group_assignment(rng, 8, 3)
    prev_dead = np.zeros_like(layer.mask)
    for t in range(1, 5):
        centroids = rng.random((3, 6))
        grouping = make_grouping(assignment, centroids)
        select_and_prune(layer, grouping, t=t, s=0.2)
        dead = ~layer.mask
        assert np.all(dead[prev_dead])  # once dead, stays dead
        prev_dead = dead
        # granularity: no partially dead bundle under this grouping
        assert not partial_elements(layer.mask, assignment, 3).any()


def test_already_dead_elements_count_toward_target():
    layer, grouping = walkthrough_layer()
    select_and_prune(layer, grouping, t=1, s=0.4)   # kills 4/8
    # recompute centroids on masked weights: dead bundles now value 0
    from sgconv.importance import layer_importance
    from sgconv.grouping import centroids_for
    vectors = layer_importance(layer)
    grouping2 = make_grouping(grouping.assignment,
                              centroids_for(vectors.astype(np.float64),
                                            grouping.assignment, 2))
    mask = select_and_prune(layer, grouping2, t=2, s=0.4)  # cumulative 0.8
    assert mask_dead_fraction(mask) >= 0.8 - 1e-9
