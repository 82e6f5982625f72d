"""Per-filter channel-importance matrices for conv and fc layers.

Each layer yields a (C_out, C_in) non-negative matrix: row i scores how
much every input channel contributes to filter i, as the l1 norm of the
k x k kernel connecting them (an fc layer is a kernel-1 conv, so its
entries are absolute weights). Values are always computed on masked
weights, so dead connections score exactly 0.
"""
from __future__ import annotations

import numpy as np


def importance_conv(weight: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Kernel-wise l1 norms of a (C_out, C_in, k, k) conv weight."""
    masked = weight * mask[:, :, None, None]
    return np.abs(masked).sum(axis=(2, 3))


def layer_importance(layer) -> np.ndarray:
    """Importance matrix for a conv or fc layer record."""
    if not hasattr(layer, "kernels"):
        raise ValueError(f"layer {layer.name!r} of kind {layer.kind!r} has no importance matrix")
    return importance_conv(layer.kernels, layer.mask)
