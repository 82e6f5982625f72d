"""Model container: typed layer records and whole-model forward.

A model is an ordered list of layer records. Each layer kind is one class
with the five methods callers use instead of branching on ``kind``:
``linear(x, saved=None)`` (pre-activation output; a trainer passes a
dict in which the layer keeps what its backward can reuse; backward
takes it out of the dict again, so it lives no longer than the step),
``backward(x, dz, saved=None, need_dx=True)`` -> (dx, or None without
need_dx; (dweight, dbias) or None when frozen), ``out_shape(shape)``,
``macs(shape)`` per sample, and ``params()``. Each kind also carries
``compress`` (whether pruning and deployment rewrite it), ``ratio_kind``
(the kind whose removal ratio counts its connections, or None) and
``describe(shape)`` (its ``sgconv report`` entry). The file format stays
in io.py. Connection masks live on conv/fc layers as (C_out, C_in)
boolean arrays; an fc layer is a kernel-1 conv, and a dead conv
connection stands for the whole zeroed k x k kernel. Weights of
masked-out connections are kept at exactly zero, so the plain forward
pass IS the masked forward pass.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import ops


def _bias_size(bias) -> int:
    return 0 if bias is None else bias.size


def _check_settings(layer):
    """Reject a non-string name, a non-boolean ``compress`` and an activation,
    stride or padding no forward pass can run, naming the layer."""
    if not isinstance(layer.name, str):
        raise ValueError(f"layer name must be a string, got {layer.name!r}")
    if not isinstance(layer.compress, bool):  # a string such as "false" would be truthy
        raise ValueError(f"layer {layer.name!r}: compress must be a boolean, "
                         f"got {layer.compress!r}")
    if layer.activation not in ops.ACTIVATIONS:
        raise ValueError(f"layer {layer.name!r}: activation {layer.activation!r} is not "
                         f"one of {ops.ACTIVATIONS}")
    for key, low in (("stride", 1), ("padding", 0)):
        value = getattr(layer, key, low)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
            raise ValueError(f"layer {layer.name!r}: {key} must be an integer >= {low}, "
                             f"got {value!r}")


def mask_dead_fraction(mask: np.ndarray) -> float:
    """Independent accounting path: dead connections counted on the mask."""
    return int((~mask).sum()) / mask.size


# Most values a conv layer's padded input or its output may hold per sample:
# 2**28, 1 GiB of float32. A shape walk rejects a larger layer by name
# before any forward allocates it.
MAX_LAYER_VALUES = 2 ** 28


def _conv_out_shape(name, shape, c_in, c_out, kernel, stride, padding):
    if len(shape) != 3:
        raise ValueError(f"layer {name!r} needs a (C,H,W) input, got {shape}")
    if shape[0] != c_in:
        raise ValueError(f"layer {name!r} expects {c_in} channels, got {shape[0]}")
    ho = ops.conv_out_size(shape[1], kernel, stride, padding)
    wo = ops.conv_out_size(shape[2], kernel, stride, padding)
    if ho < 1 or wo < 1:
        raise ValueError(f"layer {name!r} output collapses on input {shape}")
    padded = (c_in, shape[1] + 2 * padding, shape[2] + 2 * padding)
    for what, dims in (("padded input", padded), ("output", (c_out, ho, wo))):
        if math.prod(dims) > MAX_LAYER_VALUES:
            raise ValueError(f"layer {name!r}: {what} {dims} holds more than "
                             f"{MAX_LAYER_VALUES} values per sample")
    return (c_out, ho, wo)


def _flat_out_shape(name, shape, c_in, c_out):
    width = int(np.prod(shape))
    if width != c_in:
        raise ValueError(f"layer {name!r} expects width {c_in}, got {width}")
    return (c_out,)


def flatten_batch(x, width, name):
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    if x.shape[1] != width:
        raise ValueError(f"{name}: input width {x.shape[1]} != expected {width}")
    return x


@dataclass
class _MaskedLayer:
    """Conv and fc: a (C_out, C_in, ...) weight whose mask defaults to all-keep."""
    name: str
    weight: np.ndarray                 # (C_out, C_in, k, k) conv, (C_out, C_in) fc; float32
    bias: np.ndarray | None = None
    activation: str = "identity"
    compress: bool = True
    mask: np.ndarray = None            # bool (C_out, C_in); all-keep by default
    grouping: np.ndarray | None = None  # int group id per filter, set by the pipeline

    def __post_init__(self):
        _check_settings(self)
        if self.mask is None:
            self.mask = np.ones(self.weight.shape[:2], dtype=bool)

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernels(self) -> np.ndarray:
        """The weight viewed as (C_out, C_in, k, k)."""
        return self.weight.reshape(*self.weight.shape[:2], self.kernel, self.kernel)

    @property
    def ratio_kind(self):
        return self.kind if self.compress else None

    def macs(self, shape):
        return self.weight.size * math.prod(self.out_shape(shape)[1:])

    def params(self):  # a dead connection drops its whole k x k kernel
        return int(self.mask.sum()) * self.kernel ** 2 + _bias_size(self.bias)

    def describe(self, shape):
        return {"dead_fraction": mask_dead_fraction(self.mask), "compress": self.compress}


@dataclass
class ConvLayer(_MaskedLayer):
    kind = "conv2d"
    stride: int = 1
    padding: int = 0

    def linear(self, x, saved=None):
        return ops.conv2d_forward(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding, name=self.name, saved=saved)

    def backward(self, x, dz, saved=None, need_dx=True):
        dx, dw, db = ops.conv2d_backward(dz, x, self.weight, stride=self.stride,
                                         padding=self.padding, name=self.name,
                                         cols=(saved or {}).pop("cols", None), need_dx=need_dx)
        return dx, (dw, db)

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def out_shape(self, shape):
        c_out, c_in, kernel, _ = self.weight.shape
        return _conv_out_shape(self.name, shape, c_in, c_out, kernel,
                               self.stride, self.padding)


@dataclass
class FcLayer(_MaskedLayer):
    kind = "fc"
    kernel, stride, padding = 1, 1, 0  # a kernel-1 conv on flat input

    def linear(self, x, saved=None):
        x = flatten_batch(x, self.weight.shape[1], self.name)
        return ops.fc_forward(x, self.weight, self.bias, name=self.name)

    def backward(self, x, dz, saved=None, need_dx=True):
        flat = flatten_batch(x, self.weight.shape[1], self.name)
        dx, dw, db = ops.fc_backward(dz, flat, self.weight, name=self.name, need_dx=need_dx)
        return None if dx is None else dx.reshape(x.shape), (dw, db)

    def out_shape(self, shape):
        return _flat_out_shape(self.name, shape, self.weight.shape[1], self.weight.shape[0])


@dataclass
class GroupBlock:
    """One deployed group: its filters, gathered input channels, weights."""
    filter_indices: np.ndarray         # ascending original filter ids
    channel_indices: np.ndarray        # surviving input channels (may be empty)
    weight: np.ndarray                 # (n_filters, n_channels, k, k)


@dataclass
class GroupConvLayer:
    kind = "groupconv"
    name: str
    groups: list[GroupBlock]
    in_channels: int
    out_channels: int
    kernel: int
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    activation: str = "identity"
    source: str = "conv2d"             # "conv2d" or "fc": fc blocks run on flat input
    plan: ops.GroupExecPlan = field(init=False, repr=False, compare=False)
    compress = False                   # deployed: pruning and deploy leave it alone

    def __post_init__(self):
        """Validate the blocks once and choose the executor; the plan views their
        weights and may snapshot them, so the blocks are fixed from here on and
        their weights are read-only (an in-place edit raises)."""
        _check_settings(self)
        if self.source not in ("conv2d", "fc") or (self.source == "fc" and self.kernel != 1):
            raise ValueError(f"layer {self.name!r}: source {self.source!r} with kernel "
                             f"{self.kernel} is neither conv2d nor a kernel-1 fc")
        self.plan = ops.GroupExecPlan(
            [(g.filter_indices, g.channel_indices, g.weight) for g in self.groups],
            self.out_channels, self.in_channels, self.kernel, self.name)

    def linear(self, x, saved=None):
        if self.source == "fc":
            x = flatten_batch(x, self.in_channels, self.name)
            return ops.group_fc_forward(x, self.plan, self.bias)
        return ops.group_conv_forward(x, self.plan, self.bias, stride=self.stride,
                                      padding=self.padding)

    def backward(self, x, dz, saved=None, need_dx=True):
        raise ValueError(f"layer {self.name!r} ({self.kind}) has no backward support; "
                         f"fine-tune before deployment, not after")

    def out_shape(self, shape):
        if self.source == "fc":
            return _flat_out_shape(self.name, shape, self.in_channels, self.out_channels)
        return _conv_out_shape(self.name, shape, self.in_channels, self.out_channels,
                               self.kernel, self.stride, self.padding)

    def macs(self, shape):
        return self.plan.block_macs * math.prod(self.out_shape(shape)[1:])

    def params(self):
        return sum(g.weight.size for g in self.groups) + _bias_size(self.bias)

    @property
    def ratio_kind(self):
        return self.source

    @property
    def mask(self) -> np.ndarray:
        """The (C_out, C_in) connection mask the blocks keep."""
        mask = np.zeros((self.out_channels, self.in_channels), dtype=bool)
        for g in self.groups:
            mask[np.ix_(g.filter_indices, g.channel_indices)] = True
        return mask

    @property
    def grouping(self) -> np.ndarray:
        """Group id per filter: the index of the block that holds it."""
        grouping = np.zeros(self.out_channels, dtype=np.int64)
        for gid, g in enumerate(self.groups):
            grouping[g.filter_indices] = gid
        return grouping

    def describe(self, shape):
        """How the plan runs on a per-sample input ``shape``: its executor, the
        block layout it chose from, and the FLOPs executed next to those billed
        by macs() (they differ when the dense GEMM runs)."""
        plan, taps = self.plan, self.kernel ** 2
        positions = math.prod(self.out_shape(shape)[1:])
        filters = [len(g.filter_indices) for g in self.groups]
        return {
            "groups": len(self.groups),
            "executor": plan.executor,
            "filters_per_block": [min(filters, default=0), max(filters, default=0)],
            "union_fraction": len(plan.union) / max(self.in_channels, 1),
            "gathered_rows_ratio": plan.gathered_rows / max(len(plan.union) * taps, 1),
            "flops_billed": 2 * self.macs(shape),
            "flops_executed": 2 * plan.executed_macs * positions,
        }


@dataclass
class AffineLayer:
    """Frozen per-channel scale/shift (stands in for folded batch norm)."""
    kind = "affine_passthrough"
    name: str
    scale: np.ndarray                  # (C,)
    shift: np.ndarray                  # (C,)
    activation: str = "identity"
    compress, ratio_kind = False, None

    def __post_init__(self):
        _check_settings(self)

    @property
    def in_channels(self) -> int:
        return self.scale.size

    def _per_channel(self, v, ndim):
        return v.reshape(1, -1, *([1] * (ndim - 2)))

    def linear(self, x, saved=None):
        return x * self._per_channel(self.scale, x.ndim) + self._per_channel(self.shift, x.ndim)

    def backward(self, x, dz, saved=None, need_dx=True):
        return (dz * self._per_channel(self.scale, dz.ndim) if need_dx else None), None

    def out_shape(self, shape):
        if shape[0] != self.scale.size:
            raise ValueError(f"layer {self.name!r} expects {self.scale.size} channels, "
                             f"got {shape[0]}")
        return tuple(shape)

    def macs(self, shape):
        return int(np.prod(shape))

    def params(self):
        return self.scale.size + self.shift.size

    def describe(self, shape):
        return {}


@dataclass
class Model:
    layers: list = field(default_factory=list)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer_forward(layer, x)
        return x

    def layer(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")


def layer_forward(layer, x):
    """Run one layer (linear part + activation) on a batch."""
    return ops.apply_activation(layer.linear(x), layer.activation)


def apply_mask(layer) -> None:
    """Zero the weights of dead connections of a conv/fc layer in place
    (the whole kernel for conv)."""
    layer.weight *= layer.mask.reshape(layer.mask.shape + (1,) * (layer.weight.ndim - 2))


def validate_first_conv_uncompressed(model: Model) -> None:
    """The first conv layer feeds raw input and is never compressed."""
    for layer in model.layers:
        if layer.kind == "conv2d":
            if layer.compress:
                raise ValueError(
                    f"first conv2d layer {layer.name!r} must have compress=false"
                )
            return


def build_toy_cnn(seed: int = 0, num_classes: int = 10) -> Model:
    """Small 8x8-image CNN: conv 3->8 k3, conv 8->8 k3, fc 128->num_classes."""
    rng = np.random.default_rng(seed)

    def he(shape, fan_in):
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)

    return Model(layers=[
        ConvLayer("conv1", he((8, 3, 3, 3), 3 * 9), np.zeros(8, np.float32),
                  activation="relu", compress=False),
        ConvLayer("conv2", he((8, 8, 3, 3), 8 * 9), np.zeros(8, np.float32),
                  activation="relu", compress=True),
        FcLayer("fc1", he((num_classes, 128), 128), np.zeros(num_classes, np.float32),
                activation="identity", compress=True),
    ])
