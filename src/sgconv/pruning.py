"""Centroid-ranked connection pruning and compression-ratio accounting.

A centroid element (group i, channel j) stands for the bundle of
connections (f, j) over every filter f in group i. Pruning always acts
on whole bundles, so masks stay uniform within a group and the ratio
formula below agrees exactly with counting dead connections on the
mask. Elements whose bundle is already dead carry value 0 (masked
importance), which keeps cumulative targets well defined across
iterations.
"""
from __future__ import annotations

import numpy as np

from .grouping import group_sizes
from .model import apply_mask, filter_groups

# float slack when comparing achieved ratios against accumulated t*s targets
RATIO_EPS = 1e-9


def _bundle_dead_counts(mask: np.ndarray, assignment: np.ndarray, num_groups: int):
    """Dead filters of every (group, channel) bundle, and the group sizes as a column."""
    members = assignment == np.arange(num_groups)[:, None]  # (g, C_out) one-hot
    dead = members.astype(np.float64) @ ~mask  # counts of 0/1 terms: exact in float64
    return dead, members.sum(axis=1)[:, None]


def pruned_elements(mask: np.ndarray, assignment: np.ndarray, num_groups: int) -> np.ndarray:
    """(g, C_in) bool matrix: element is True when its whole bundle is dead."""
    dead, sizes = _bundle_dead_counts(mask, assignment, num_groups)
    return (dead == sizes) & (sizes > 0)


def partial_elements(mask: np.ndarray, assignment: np.ndarray, num_groups: int) -> np.ndarray:
    """(g, C_in) bool matrix: True where a bundle is dead for only some filters."""
    dead, sizes = _bundle_dead_counts(mask, assignment, num_groups)
    return (dead > 0) & (dead < sizes)


def compression_ratio_layer(assignment: np.ndarray, pruned: np.ndarray) -> float:
    """Fraction of connections removed: sum_i n_i*|g_i| / sum_i C_in*|g_i|."""
    return compression_ratio_network([(assignment, pruned)])


def compression_ratio_network(items) -> float:
    """Pooled ratio over (assignment, pruned) pairs of the compressible layers."""
    removed = 0
    total = 0
    for assignment, pruned in items:
        num_groups, c_in = pruned.shape
        sizes = group_sizes(assignment, num_groups)
        removed += int((pruned.sum(axis=1) * sizes).sum())
        total += int(c_in * sizes.sum())
    if total == 0:
        return 0.0
    return removed / total


def _counted(model, kind: str | None):
    """The layers whose connections the ratios count, optionally only those of
    one kind: compressible conv/fc layers, and group layers under the kind of
    layer they were deployed from (their masks and groupings rebuilt from
    their blocks), so a deployed model reports the ratios it was pruned to."""
    return [layer for layer in model.layers
            if layer.ratio_kind is not None and kind in (None, layer.ratio_kind)]


def model_ratio_items(model):
    """(assignment, pruned-elements) pairs feeding the pooled ratio formula,
    one per counted layer, grouped by ``filter_groups``: a layer never
    clustered still has its connections in the denominator."""
    items = []
    for layer in _counted(model, None):
        assignment = filter_groups(layer)
        num_groups = int(assignment.max(initial=0)) + 1
        items.append((assignment, pruned_elements(layer.mask, assignment, num_groups)))
    return items


def model_dead_fraction(model, kind: str | None = None) -> float:
    """Pooled dead-connection fraction over the counted layers, optionally by kind."""
    masks = [layer.mask for layer in _counted(model, kind)]
    total = sum(mask.size for mask in masks)
    if total == 0:
        return 0.0
    return sum(int((~mask).sum()) for mask in masks) / total


def model_ratios(model) -> dict:
    """The conv and fc dead-connection fractions and the pooled network ratio."""
    return {"conv_ratio": model_dead_fraction(model, "conv2d"),
            "fc_ratio": model_dead_fraction(model, "fc"),
            "network_ratio": compression_ratio_network(model_ratio_items(model))}


def kill_bundles(layer, assignment: np.ndarray, dead: np.ndarray) -> None:
    """Kill every (group, channel) bundle marked True in the (g, C_in) bool
    matrix ``dead``: one mask update, then the dead kernels are zeroed."""
    layer.mask &= ~dead[assignment]
    apply_mask(layer)


def prune_to_ratio(layer, grouping, target: float) -> int:
    """Kill the minimal ascending prefix of centroid elements whose removal
    ratio reaches ``target``; returns the prefix length.

    Elements sort by value, ties by (group, channel). Already-dead bundles
    sort first at value 0 and count toward the target. Killing zeroes the
    matching kernels in the layer weights.
    """
    if target > 1.0 + 1e-12:
        raise ValueError(f"target ratio {target} exceeds 1: unreachable")
    centroids = grouping.centroids
    c_in = centroids.shape[1]
    order = np.argsort(centroids.ravel(), kind="stable")  # row-major: ties by (group, channel)
    n = 0
    if target > RATIO_EPS:
        sizes = group_sizes(grouping.assignment, grouping.num_groups)
        removed = np.cumsum(sizes[order // c_in])  # exact integer counts; the ratio rises with n
        n = int(np.searchsorted(removed / (c_in * sizes.sum()), target - RATIO_EPS)) + 1
    dead = np.zeros(centroids.shape, dtype=bool)
    dead.flat[order[:n]] = True
    kill_bundles(layer, grouping.assignment, dead)
    return n
