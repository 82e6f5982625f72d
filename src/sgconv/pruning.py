"""Centroid-ranked connection pruning, the group rule and ratio accounting.

A centroid element (group i, channel j) stands for the bundle of
connections (f, j) over every filter f in group i. Pruning always acts
on whole bundles, so masks stay uniform within a group: the group rule,
which ``filter_groups`` alone checks, for deployment and ratio accounting
alike. Under it the ratio formula below equals the dead-connection count
integer for integer, so the reported ratios are those counts. Elements
whose bundle is already dead carry value 0 (masked importance), which
keeps cumulative targets well defined across iterations.
"""
from __future__ import annotations

import numpy as np

from .grouping import group_sizes
from .model import apply_mask

# float slack when comparing achieved ratios against accumulated t*s targets
RATIO_EPS = 1e-9


class GranularityError(Exception):
    """Mask is not uniform across the filters of a group (corrupt mask)."""


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


def filter_groups(layer) -> np.ndarray:
    """Group id per filter of a compressible layer, under the group rule.
    One never clustered counts as a single all-filter group while its mask
    keeps every connection; pruned, it has no grouping that deployment or
    the ratio formula could use, so that raises ValueError naming the layer.
    A bundle dead for only some filters of its group raises GranularityError
    naming the layer, the first such group and its filters."""
    if layer.grouping is None:
        if not layer.mask.all():
            raise ValueError(f"layer {layer.name!r} is pruned but has no grouping")
        return np.zeros(layer.mask.shape[0], dtype=np.int64)
    assignment = layer.grouping
    partial = partial_elements(layer.mask, assignment, int(assignment.max()) + 1)
    if partial.any():
        gid = int(np.flatnonzero(partial.any(axis=1))[0])
        raise GranularityError(f"layer {layer.name!r} group {gid}: filters "
                               f"{np.flatnonzero(assignment == gid).tolist()} carry "
                               f"different channel masks")
    return assignment


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


def model_dead_fraction(model, kind: str | None = None) -> float:
    """Pooled dead-connection fraction over the layers the ratios count,
    optionally only those of one kind: compressible conv/fc layers, and group
    layers under the kind of layer they were deployed from (their masks
    rebuilt from their blocks), so a deployed model reports the ratios it
    was pruned to."""
    masks = [layer.mask for layer in model.layers
             if layer.ratio_kind is not None and kind in (None, layer.ratio_kind)]
    total = sum(mask.size for mask in masks)
    if total == 0:
        return 0.0
    return sum(int((~mask).sum()) for mask in masks) / total


def model_ratios(model) -> dict:
    """The conv, fc and pooled network dead-connection fractions, once every
    compressible layer passes the group rule (``filter_groups``), under which
    they equal the ratio formula. A deployed group layer keeps the rule by
    construction, so it is not checked."""
    for layer in model.layers:
        if layer.compress:
            filter_groups(layer)
    return {"conv_ratio": model_dead_fraction(model, "conv2d"),
            "fc_ratio": model_dead_fraction(model, "fc"),
            "network_ratio": model_dead_fraction(model)}


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
