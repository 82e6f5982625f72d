"""Convert masked dense layers into explicit diverse group convolutions.

Each cluster of filters becomes one dense block that sees only its
surviving input channels. The channel gather is a selection operator
(one 1 per row; a channel may feed several blocks or none), while the
output side is a true permutation back to the original filter order.
Conversion never changes what the layer computes: a converted model is
checked against the masked dense forward before it is trusted.
"""
from __future__ import annotations

import copy

import numpy as np

from .model import GroupBlock, GroupConvLayer, Model, layer_forward


class GranularityError(Exception):
    """Mask is not uniform across the filters of a group (corrupt mask)."""


class EquivalenceError(Exception):
    """Converted model disagrees with the masked dense forward."""


def convert_layer(layer):
    """Rewrite a masked conv/fc layer as an equivalent group-conv layer.

    Each group becomes one block: its filters, in ascending order, and the
    input channels their mask rows keep. Groups whose channels are all
    pruned get an empty channel list (their filters emit bias only). A
    compressible layer that was never clustered is treated as a single
    all-filter group, provided its mask is still all-keep. Raises
    GranularityError when the mask rows of a group disagree.
    """
    assignment = layer.grouping
    if assignment is None:
        if not layer.mask.all():
            raise ValueError(f"layer {layer.name!r} is pruned but has no grouping")
        assignment = np.zeros(layer.mask.shape[0], dtype=np.int64)
    blocks = []
    for gid in range(int(assignment.max()) + 1):
        filt = np.flatnonzero(assignment == gid)
        rows = layer.mask[filt]
        if len(filt) and not (rows == rows[0]).all():
            raise GranularityError(f"layer {layer.name!r} group {gid}: filters "
                                   f"{filt.tolist()} carry different channel masks")
        channels = np.flatnonzero(rows[0]) if len(filt) else np.empty(0, dtype=np.int64)
        blocks.append(GroupBlock(filt, channels, np.ascontiguousarray(
            layer.kernels[np.ix_(filt, channels)])))
    return GroupConvLayer(
        name=layer.name, groups=blocks,
        in_channels=layer.mask.shape[1], out_channels=layer.mask.shape[0],
        kernel=layer.kernel, bias=None if layer.bias is None else layer.bias.copy(),
        stride=layer.stride, padding=layer.padding,
        activation=layer.activation, source=layer.kind,
    )


def convert_model(model: Model) -> Model:
    """Deploy: replace every compressible masked layer by group-conv blocks."""
    return Model(layers=[convert_layer(layer) if layer.compress
                         else copy.deepcopy(layer) for layer in model.layers])


def count_params(model: Model) -> int:
    """Live weights plus biases (dead conv connections drop their whole kernel)."""
    return sum(layer.params() for layer in model.layers)


def count_flops(model: Model, input_shape) -> int:
    """FLOPs of one forward pass at the given input shape, as 2 x MACs.

    Dense layers are billed at their full dense cost (masks do not make
    the dense kernel cheaper); group-conv layers are billed per block at
    gathered-channel sizes. Bias adds are not counted.
    """
    shape = tuple(int(v) for v in input_shape)
    macs = 0
    for layer in model.layers:
        out_shape = layer.out_shape(shape)
        macs += layer.macs(shape)
        shape = out_shape
    return 2 * macs


def infer_input_shape(model: Model, max_size: int = 64):
    """Smallest input shape the model accepts, flat before spatial; used
    when no dataset is given."""
    if not model.layers:
        raise ValueError("a model without layers has no input shape")
    c_in = model.layers[0].in_channels
    for shape in [(c_in,), *((c_in, size, size) for size in range(1, max_size + 1))]:
        try:
            count_flops(model, shape)
        except ValueError:
            continue
        return shape
    raise ValueError(f"could not infer an input shape up to {max_size}x{max_size}")


def _random_inputs(input_shape, n_inputs, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_inputs, *input_shape)).astype(np.float32)


def max_forward_deviation(model_a: Model, model_b: Model, input_shape,
                          n_inputs: int = 100, seed=0) -> float:
    """Largest |a - b| over random standard-normal inputs."""
    x = _random_inputs(input_shape, n_inputs, seed)
    return float(np.max(np.abs(model_a.forward(x) - model_b.forward(x))))


def _first_layer_over(model_a: Model, model_b: Model, x, tol):
    """Run both models side by side, layer by layer; the name and deviation
    of the first layer whose outputs differ by more than ``tol``."""
    xa = xb = x
    for layer_a, layer_b in zip(model_a.layers, model_b.layers):
        xa, xb = layer_forward(layer_a, xa), layer_forward(layer_b, xb)
        dev = float(np.max(np.abs(xa - xb)))
        if not dev <= tol:
            return layer_b.name, dev
    return None


def verify_equivalence(original: Model, deployed: Model, input_shape,
                       n_inputs: int = 100, seed=0, tol: float = 1e-5) -> float:
    """Check deployed outputs against the masked dense forward, or raise.

    A NaN deviation fails the check: NaN outputs prove no equivalence.
    A failed check is rerun layer by layer on the same inputs, and the
    error names the first layer over tolerance.
    """
    if n_inputs < 1:
        raise ValueError(f"equivalence check needs at least 1 input, got n_inputs={n_inputs}")
    if not tol >= 0:
        raise ValueError(f"equivalence tolerance must be a number >= 0, got tol={tol}")
    dev = max_forward_deviation(original, deployed, input_shape, n_inputs, seed)
    if not dev <= tol:
        message = (f"deployed model deviates from masked dense forward: "
                   f"max abs deviation {dev:.3e} > {tol:.1e}")
        first = _first_layer_over(original, deployed,
                                  _random_inputs(input_shape, n_inputs, seed), tol)
        if first is not None:
            message += f"; first layer over tolerance: {first[0]!r} ({first[1]:.3e})"
        raise EquivalenceError(message)
    return dev
