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


def _layer_macs(model: Model, input_shape):
    """Per-sample multiply-adds of each layer, walking the sample shape through
    the model; a layer that cannot take its input raises ValueError by name."""
    shape = tuple(int(v) for v in input_shape)
    for layer in model.layers:
        out_shape = layer.out_shape(shape)
        yield layer.macs(shape)
        shape = out_shape


def count_flops(model: Model, input_shape) -> int:
    """FLOPs of one forward pass at the given input shape, as 2 x MACs.

    Dense layers are billed at their full dense cost (masks do not make
    the dense kernel cheaper); group-conv layers are billed per block at
    gathered-channel sizes. Bias adds are not counted.
    """
    return 2 * sum(_layer_macs(model, input_shape))


# Most multiply-adds any one layer may bill for a whole batch that the
# callers owning an input set (evaluate, the equivalence check) forward at
# once. A dense conv's unfolded input holds at most its MACs / C_out
# values, so at 2**27 MACs a 64-filter conv unfolds 8 MiB of float32 per
# batch: below glibc's largest mmap threshold (32 MiB), so the buffer is
# reused from the heap rather than mapped and page-faulted afresh.
BATCH_MACS = 2 ** 27
MAX_BATCH = 512


def batch_size_for(model: Model, input_shape) -> int:
    """Largest batch, at most MAX_BATCH, for which no layer's per-sample
    ``macs(input_shape)`` times the batch exceeds BATCH_MACS; 1 when a single
    sample already does. Walks the shapes as count_flops does and raises the
    same named errors."""
    largest = max(_layer_macs(model, input_shape), default=0)
    return max(1, min(MAX_BATCH, BATCH_MACS // max(largest, 1)))


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


def _batches(model_a: Model, model_b: Model, input_shape, n_inputs, seed):
    """The random inputs in batches that neither model's batch_size_for exceeds."""
    x = _random_inputs(input_shape, n_inputs, seed)
    step = min(batch_size_for(model_a, input_shape), batch_size_for(model_b, input_shape))
    return [x[lo:lo + step] for lo in range(0, n_inputs, step)]


def max_forward_deviation(model_a: Model, model_b: Model, input_shape,
                          n_inputs: int = 100, seed=0) -> float:
    """Largest |a - b| over random standard-normal inputs (NaN if any is NaN).

    Both models run on the same batches, each the largest that neither
    model's batch_size_for exceeds. Conv and affine outputs do not depend
    on the split; fc outputs may differ in the last bits from one
    whole-batch forward, since BLAS picks its kernel by matrix size.
    """
    return float(np.max([np.max(np.abs(model_a.forward(x) - model_b.forward(x)))
                         for x in _batches(model_a, model_b, input_shape, n_inputs, seed)]))


def _first_layer_over(model_a: Model, model_b: Model, batches, tol):
    """Run both models side by side, layer by layer, on each batch; the name
    and deviation of the first layer whose outputs differ by more than
    ``tol`` on any batch."""
    devs = np.zeros(len(model_b.layers))
    for x in batches:
        xa = xb = x
        for i, (layer_a, layer_b) in enumerate(zip(model_a.layers, model_b.layers)):
            xa, xb = layer_forward(layer_a, xa), layer_forward(layer_b, xb)
            devs[i] = np.maximum(devs[i], np.max(np.abs(xa - xb)))  # keeps a NaN
    for layer_b, dev in zip(model_b.layers, devs):
        if not dev <= tol:
            return layer_b.name, float(dev)
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
        first = _first_layer_over(original, deployed, _batches(
            original, deployed, input_shape, n_inputs, seed), tol)
        if first is not None:
            message += f"; first layer over tolerance: {first[0]!r} ({first[1]:.3e})"
        raise EquivalenceError(message)
    return dev
