"""Centroid ordering, ratio accounting and target selection."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group_assignment, random_group_mask
from sgconv.grouping import Grouping
from sgconv.model import ConvLayer, FcLayer, apply_mask, mask_dead_fraction
from sgconv.pruning import (RATIO_EPS, compression_ratio_layer, compression_ratio_network,
                            group_sizes, kill_bundles, partial_elements, prune_to_ratio,
                            pruned_elements)


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


def reference_kill(layer, assignment, elements):
    """Kill (group, channel) bundles one boolean-index write per tuple."""
    for gid, ch in elements:
        layer.mask[assignment == gid, ch] = False
    apply_mask(layer)


def reference_prune(layer, grouping, target):
    """Tuple-list selection: sort (value, group, channel) tuples, walk them
    until the removal ratio reaches ``target``, kill that prefix per tuple."""
    if target > 1.0 + 1e-12:
        raise ValueError(f"target ratio {target} exceeds 1: unreachable")
    g, c_in = grouping.centroids.shape
    entries = sorted((float(grouping.centroids[i, j]), i, j)
                     for i in range(g) for j in range(c_in))
    sizes = group_sizes(grouping.assignment, g)
    total = int(c_in * sizes.sum())
    n, removed = 0, 0
    if target > RATIO_EPS:
        for n, (_value, gid, _ch) in enumerate(entries, start=1):
            removed += int(sizes[gid])
            if removed / total >= target - RATIO_EPS:
                break
    reference_kill(layer, grouping.assignment, [(gid, ch) for _v, gid, ch in entries[:n]])
    return n


def prefix_kills(centroids):
    """The bundles prune_to_ratio kills for each prefix length k. One filter
    per group makes prefix k's removal ratio exactly k / centroids.size."""
    g, c_in = centroids.shape
    grouping = make_grouping(np.arange(g), centroids)
    kills = []
    for k in range(1, centroids.size + 1):
        layer = FcLayer("fc", np.ones((g, c_in), dtype=np.float32))
        assert prune_to_ratio(layer, grouping, k / centroids.size) == k
        kills.append({(int(gid), int(ch)) for gid, ch in np.argwhere(~layer.mask)})
    return kills


def oracle_prefixes(centroids):
    order = [(gid, ch) for _v, gid, ch in sort_oracle(centroids)]
    return [set(order[:k]) for k in range(1, len(order) + 1)]


# ---------------------------------------------------------------- ordering

def test_sorted_centroids_example():
    centroids = np.array([[0.1, 0.9], [0.5, 0.2]])
    assert prefix_kills(centroids) == [
        {(0, 0)}, {(0, 0), (1, 1)}, {(0, 0), (1, 1), (1, 0)}, {(0, 0), (1, 1), (1, 0), (0, 1)}]


def test_sorted_centroids_tie_order():
    # ties fall to (group, channel)
    order = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert prefix_kills(np.full((2, 3), 0.25)) == [set(order[:k]) for k in range(1, 7)]


def test_sorted_centroids_matches_oracle(rng):
    for _ in range(20):
        centroids = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 8))))
        # coarse values add ties between groups and channels
        if rng.random() < 0.5:
            centroids = np.round(centroids * 3) / 3
        assert prefix_kills(centroids) == oracle_prefixes(centroids)


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


def test_prune_to_ratio_walkthrough():
    # target 0.4: n=1 gives 3/8 = 0.375 < 0.4, n=2 gives 4/8 = 0.5 -> n=2
    layer, grouping = walkthrough_layer()
    assert prune_to_ratio(layer, grouping, 0.4) == 2
    assert mask_dead_fraction(layer.mask) == 0.5
    np.testing.assert_array_equal(layer.mask[:, 0], [False] * 4)
    assert np.all(layer.weight[:, 0] == 0)  # kernels of killed connections zeroed
    assert np.all(layer.weight[:, 1] != 0)


def test_target_zero_is_noop():
    layer, grouping = walkthrough_layer()
    before = layer.weight.copy()
    assert prune_to_ratio(layer, grouping, 1e-12) == 0
    assert layer.mask.all()
    np.testing.assert_array_equal(layer.weight, before)


def test_target_one_kills_everything():
    layer, grouping = walkthrough_layer()
    assert prune_to_ratio(layer, grouping, 2 * 0.5) == 4
    assert not layer.mask.any()
    assert not layer.weight.any()


def test_unreachable_target_raises():
    layer, grouping = walkthrough_layer()
    with pytest.raises(ValueError, match="unreachable"):
        prune_to_ratio(layer, grouping, 3 * 0.5)


def test_minimality_of_selection(rng):
    for trial in range(50):
        g = int(rng.integers(1, 6))
        c_in = int(rng.integers(1, 10))
        c_out = int(rng.integers(g, 16))
        assignment = random_group_assignment(rng, c_out, g)
        centroids = rng.random((int(assignment.max()) + 1, c_in))
        layer = FcLayer("fc", rng.standard_normal((c_out, c_in)).astype(np.float32))
        target = float(rng.uniform(0.0, 1.0))
        n = prune_to_ratio(layer, make_grouping(assignment, centroids), target)
        order = sort_oracle(centroids)
        sizes = group_sizes(assignment, centroids.shape[0])
        total = c_in * sizes.sum()

        def ratio(k):
            return sum(sizes[gid] for _v, gid, _c in order[:k]) / total

        assert ratio(n) >= target - 1e-9
        assert mask_dead_fraction(layer.mask) == ratio(n)
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
        prune_to_ratio(layer, grouping, t * 0.2)
        dead = ~layer.mask
        assert np.all(dead[prev_dead])  # once dead, stays dead
        prev_dead = dead
        # granularity: no partially dead bundle under this grouping
        assert not partial_elements(layer.mask, assignment, 3).any()


def test_already_dead_elements_count_toward_target():
    layer, grouping = walkthrough_layer()
    prune_to_ratio(layer, grouping, 0.4)   # kills 4/8
    # recompute centroids on masked weights: dead bundles now value 0
    from sgconv.importance import layer_importance
    from sgconv.grouping import centroids_for
    vectors = layer_importance(layer)
    grouping2 = make_grouping(grouping.assignment,
                              centroids_for(vectors.astype(np.float64),
                                            grouping.assignment, 2))
    prune_to_ratio(layer, grouping2, 2 * 0.4)  # cumulative 0.8
    assert mask_dead_fraction(layer.mask) >= 0.8 - 1e-9


# ---------------------------------------------------------------- array selection vs reference

@st.composite
def prune_cases(draw):
    """A conv or fc layer, a grouping and a target. Centroids may be coarse
    (ties, zeros and negative zeros); bundles may already be dead, with
    value 0 as masked importance gives them, or dead for some filters only."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g, c_in = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    c_out = draw(st.integers(g, 14))
    assignment = random_group_assignment(rng, c_out, g)
    if draw(st.booleans()):
        centroids = rng.choice(np.array([0.0, -0.0, 0.25, 0.5]), (g, c_in))
    else:
        centroids = rng.random((g, c_in))
    kernel = draw(st.sampled_from([None, 1, 3]))
    if kernel is None:
        layer = FcLayer("fc", rng.standard_normal((c_out, c_in)).astype(np.float32))
    else:
        layer = ConvLayer("conv", rng.standard_normal(
            (c_out, c_in, kernel, kernel)).astype(np.float32))
    kill_prob = draw(st.sampled_from([0.0, 0.3, 0.8]))
    if draw(st.booleans()):
        layer.mask = random_group_mask(rng, assignment, c_in, kill_prob)
        centroids[pruned_elements(layer.mask, assignment, g)] = 0.0
    else:
        layer.mask = rng.random((c_out, c_in)) >= kill_prob
    apply_mask(layer)
    target = draw(st.sampled_from([0.0, 1e-12, "uniform", "slack", 1.0, 1.0 + 5e-13]))
    if target == "uniform":
        target = draw(st.floats(0.0, 1.0))
    elif target == "slack":  # a count ratio plus the slack: the comparison is an equality
        target = draw(st.integers(0, c_out * c_in)) / (c_out * c_in) + RATIO_EPS
    return layer, make_grouping(assignment, centroids), target


@settings(max_examples=300)
@given(prune_cases())
def test_prune_to_ratio_matches_reference(case):
    layer, grouping, target = case
    expected = copy.deepcopy(layer)
    assert prune_to_ratio(layer, grouping, target) == reference_prune(expected, grouping, target)
    np.testing.assert_array_equal(layer.mask, expected.mask)
    assert layer.weight.tobytes() == expected.weight.tobytes()


@settings(max_examples=200)
@given(prune_cases())
def test_kill_bundles_matches_reference_kill(case):
    layer, grouping, _ = case
    partial = partial_elements(layer.mask, grouping.assignment, grouping.num_groups)
    expected = copy.deepcopy(layer)
    reference_kill(expected, grouping.assignment,
                   [(int(gid), int(ch)) for gid, ch in np.argwhere(partial)])
    kill_bundles(layer, grouping.assignment, partial)
    np.testing.assert_array_equal(layer.mask, expected.mask)
    assert layer.weight.tobytes() == expected.weight.tobytes()
