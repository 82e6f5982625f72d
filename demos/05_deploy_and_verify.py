"""Turn masks into real block-diagonal group layers and prove equivalence.

Deployment rewrites each masked dense layer as per-group dense blocks:
every group gathers only its surviving input channels (channels may be
shared between groups or dropped entirely) and its outputs scatter back
to the original filter order. No sparse kernels are needed at inference.
"""
import numpy as np

from sgconv.data import make_blob_dataset
from sgconv.deploy import (convert_model, count_flops, count_params,
                           verify_equivalence)
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import GroupConvLayer, build_toy_cnn
from sgconv.pipeline import PruneSchedule, TrainConfig, run_algorithm1, sgd_finetune

train = make_blob_dataset(500, seed=21)
model = build_toy_cnn(seed=1)
sgd_finetune(model, train, TrainConfig(epochs=5, lr=0.01, seed=1))

schedule = PruneSchedule(num_groups=8, step=0.1, target_conv=0.6, target_fc=0.6,
                         finetune="global", global_epochs=8, seed=1)
pruned, _ = run_algorithm1(model, train, schedule)

deployed = convert_model(pruned)
deviation = verify_equivalence(pruned, deployed, (3, 8, 8), n_inputs=100, seed=0)
print(f"equivalence vs masked dense forward: max abs deviation {deviation:.2e}")

shape = (3, 8, 8)
print(f"\n{'model':<10} {'params':>8} {'flops':>8}")
for name, m in [("original", model), ("pruned", pruned), ("deployed", deployed)]:
    print(f"{name:<10} {count_params(m):>8} {count_flops(m, shape):>8}")

for layer in deployed.layers:
    if isinstance(layer, GroupConvLayer):
        sizes = [(len(g.filter_indices), len(g.channel_indices)) for g in layer.groups]
        print(f"\n{layer.name}: {len(layer.groups)} blocks (filters x channels): {sizes}")
        gathered = np.concatenate([g.channel_indices for g in layer.groups])
        counts = np.bincount(gathered, minlength=layer.in_channels)
        print(f"  reused channels: {np.flatnonzero(counts > 1).tolist()}, "
              f"ignored channels: {np.flatnonzero(counts == 0).tolist()}")

manifest, blob = sgm_paths("/tmp/sgconv_demo_deployed")
save_model(deployed, manifest, blob)
reloaded = load_model(manifest, blob)
x = np.random.default_rng(0).standard_normal((8, 3, 8, 8)).astype(np.float32)
print(f"\nround-trip through {manifest.name}: outputs bit-exact = "
      f"{np.array_equal(deployed.forward(x), reloaded.forward(x))}")
