"""One layer, step by step: centroid-ranked bundles die in ratio increments.

A centroid element (group i, channel j) stands for all connections
(filter in group i, channel j) at once. Each iteration removes the
smallest-valued elements until the cumulative removal ratio reaches
t * step; elements already dead sit at value 0 and count toward the
target, which makes the schedule cumulative. Ties in value fall to the
lower group, then the lower channel.
"""
import numpy as np

from sgconv.grouping import kmeans_cluster
from sgconv.importance import layer_importance
from sgconv.model import FcLayer, mask_dead_fraction
from sgconv.pruning import (compression_ratio_layer, kill_bundles, partial_elements,
                            prune_to_ratio, pruned_elements)

rng = np.random.default_rng(3)
layer = FcLayer("demo", rng.standard_normal((12, 16)).astype(np.float32))
step = 0.2

print(f"layer: {layer.weight.shape[0]} filters x {layer.weight.shape[1]} channels, "
      f"step {step:.0%} per iteration\n")
print(f"{'t':>2} {'target':>7} {'n':>4} {'formula r':>10} {'mask dead':>10} {'objective':>10}")
for t in range(1, 5):
    vectors = layer_importance(layer)
    grouping = kmeans_cluster(vectors, 4, seed=t)
    # a new grouping can join filters whose dead channels differ: kill those
    # bundles whole and set their centroid elements to 0, as the pipeline does
    partial = partial_elements(layer.mask, grouping.assignment, grouping.num_groups)
    kill_bundles(layer, grouping.assignment, partial)
    grouping.centroids[partial] = 0.0
    n = prune_to_ratio(layer, grouping, t * step)  # length of the killed ascending prefix
    pruned = pruned_elements(layer.mask, grouping.assignment, grouping.num_groups)
    formula = compression_ratio_layer(grouping.assignment, pruned)
    counted = mask_dead_fraction(layer.mask)
    assert formula == counted  # two independent accounting paths agree exactly
    print(f"{t:>2} {t * step:>6.0%} {n:>4} {formula:>10.4f} {counted:>10.4f} "
          f"{grouping.objective:>10.3f}")

print("\nfinal sorted elements of the last grouping (value, group, channel):")
vectors = layer_importance(layer)
grouping = kmeans_cluster(vectors, 4, seed=99)
c_in = grouping.centroids.shape[1]
for flat in np.argsort(grouping.centroids.ravel(), kind="stable")[:8]:
    print(f"  {grouping.centroids.flat[flat]:8.4f}  group {flat // c_in}  channel {flat % c_in}")
print("  ... (dead bundles sort first at exactly 0)")
