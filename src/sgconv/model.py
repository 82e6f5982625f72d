"""Model container: typed layer records, whole-model forward and shape walk.

A model is an ordered list of layer records. Each layer kind is one class
with the five methods callers use instead of branching on ``kind``:
``linear(x, saved=None)`` (pre-activation output; a trainer passes a
dict in which the layer keeps what its backward can reuse; backward
takes it out of the dict again, so it lives no longer than the step),
``backward(x, dz, saved=None, need_dx=True)`` -> (dx, or None without
need_dx; (dweight, dbias) or None when frozen), ``out_shape(shape)``
(raising as ``linear`` does on such samples, by one rule per kind),
``macs(shape)`` per sample, and ``params()``. Each kind also carries
``executed_macs(shape)`` (what its kernel runs per sample: macs(shape)
except for a group layer that runs one dense GEMM),
``compress`` (whether pruning and deployment rewrite it), ``ratio_kind``
(the kind whose removal ratio counts its connections, or None),
``describe(shape)`` (its ``sgconv report`` entry), and ``to_record(blob)``
and the classmethod ``from_record(rec, blob)``: its whole manifest
record, arrays, mask and grouping included, through io's blob writer
and reader. Connection masks live on conv/fc layers as
(C_out, C_in) boolean arrays; an fc layer is a kernel-1 conv, and a dead
conv connection stands for the whole zeroed k x k kernel. Weights of
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


def _record(layer, **fields):
    """A manifest record: the fields every kind has, then ``fields``."""
    return dict(name=layer.name, kind=layer.kind, activation=layer.activation, **fields)


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


def _check_bias(layer, c_out):
    """Reject a bias that is not one value per filter, naming the layer."""
    if layer.bias is not None and layer.bias.shape != (c_out,):
        raise ValueError(f"layer {layer.name!r}: bias shape {layer.bias.shape} is not "
                         f"({c_out},)")


def _check_sizes(layer, sizes):
    """Reject a channel count or kernel of 0, naming the layer; ``sizes``
    holds (record field, value) pairs."""
    for key, size in sizes:
        if size < 1:
            raise ValueError(f"layer {layer.name!r}: {key} must be >= 1, got {size}")


def _record_sizes(rec, keys):
    """The size fields ``keys`` of a manifest record, each refused unless it
    is an integer (a bool is not one), naming the layer and the field."""
    sizes = tuple(rec[key] for key in keys)
    for key, size in zip(keys, sizes):
        if not isinstance(size, numbers.Integral) or isinstance(size, bool):
            raise ValueError(f"layer {rec['name']!r}: {key} must be an integer, "
                             f"got {size!r}")
    return sizes


def mask_dead_fraction(mask: np.ndarray) -> float:
    """Independent accounting path: dead connections counted on the mask."""
    return int((~mask).sum()) / mask.size


# Most values a conv layer's padded input or its output may hold per sample:
# 2**28, 1 GiB of float32. A shape walk rejects a larger layer by name
# before any forward allocates it.
MAX_LAYER_VALUES = 2 ** 28


def _conv_out_shape(name, shape, c_in, c_out, kernel, stride, padding):
    ho, wo = ops._conv_hw(shape, c_in, kernel, stride, padding, name)
    padded = (c_in, shape[1] + 2 * padding, shape[2] + 2 * padding)
    for what, dims in (("padded input", padded), ("output", (c_out, ho, wo))):
        if math.prod(dims) > MAX_LAYER_VALUES:
            raise ValueError(f"layer {name!r}: {what} {dims} holds more than "
                             f"{MAX_LAYER_VALUES} values per sample")
    return (c_out, ho, wo)


@dataclass
class MaskedLayer:
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
        shape = self.weight.shape
        if len(shape) != len(self.shape_fields) or shape[2:] != (self.kernel,) * (len(shape) - 2):
            raise ValueError(f"layer {self.name!r}: weight shape {shape} is not "
                             f"({', '.join(self.shape_fields)})")
        _check_sizes(self, zip(self.shape_fields, shape))
        _check_bias(self, shape[0])
        if self.mask is None:
            self.mask = np.ones(shape[:2], dtype=bool)
        if self.mask.dtype != bool or self.mask.shape != shape[:2]:
            raise ValueError(f"layer {self.name!r}: mask must be a bool {shape[:2]} array, "
                             f"got {self.mask.dtype} {self.mask.shape}")

    @property
    def kernels(self) -> np.ndarray:
        """The weight viewed as (C_out, C_in, k, k)."""
        return self.weight.reshape(*self.weight.shape[:2], self.kernel, self.kernel)

    @property
    def ratio_kind(self):
        return self.kind if self.compress else None

    def macs(self, shape):
        return self.weight.size * math.prod(self.out_shape(shape)[1:])

    executed_macs = macs  # masks do not make the dense kernel cheaper

    def params(self):  # a dead connection drops its whole k x k kernel
        return int(self.mask.sum()) * self.kernel ** 2 + _bias_size(self.bias)

    def describe(self, shape):
        return {"dead_fraction": mask_dead_fraction(self.mask), "compress": self.compress}

    def to_record(self, blob):  # weights, then bias, in the blob
        offset, length = blob.add(self.weight)
        return _record(self, **dict(zip(self.shape_fields, self.weight.shape)),
                       **{key: getattr(self, key) for key in self.setting_fields},
                       compress=self.compress, blob_offset=offset, blob_length=length,
                       **blob.bias(self.bias), **blob.mask(self.name, self.mask),
                       **blob.grouping(self.name, self.grouping))

    @classmethod
    def from_record(cls, rec, blob):
        name, shape = rec["name"], _record_sizes(rec, cls.shape_fields)
        return cls(name, blob.fetch(rec, shape, name), blob.bias(rec, shape[0]),
                   activation=rec["activation"], compress=rec["compress"],
                   mask=blob.mask(rec, shape[:2]), grouping=blob.grouping(rec, shape[0]),
                   **{key: rec[key] for key in cls.setting_fields})


@dataclass
class ConvLayer(MaskedLayer):
    kind = "conv2d"
    stride: int = 1
    padding: int = 0
    # record fields: one per weight dimension (the kernel is square), then settings
    shape_fields = ("out_channels", "in_channels", "kernel_size", "kernel_size")
    setting_fields = ("stride", "padding")

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
class FcLayer(MaskedLayer):
    kind = "fc"
    kernel, stride, padding = 1, 1, 0  # a kernel-1 conv on flat input
    shape_fields, setting_fields = ("out_features", "in_features"), ()

    def linear(self, x, saved=None):
        return ops.fc_forward(x, self.weight, self.bias, name=self.name)

    def backward(self, x, dz, saved=None, need_dx=True):
        dx, dw, db = ops.fc_backward(dz, x, self.weight, name=self.name, need_dx=need_dx)
        return dx, (dw, db)

    def out_shape(self, shape):
        ops._fc_width(shape, self.weight.shape[1], self.name)
        return (self.weight.shape[0],)


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
        _check_sizes(self, (("out_channels", self.out_channels),
                            ("in_channels", self.in_channels), ("kernel_size", self.kernel)))
        _check_bias(self, self.out_channels)  # before the plan freezes the weights
        self.plan = ops.GroupExecPlan(
            [(g.filter_indices, g.channel_indices, g.weight) for g in self.groups],
            self.out_channels, self.in_channels, self.kernel, self.name)

    def linear(self, x, saved=None):
        if self.source == "fc":
            return ops.group_fc_forward(x, self.plan, self.bias)
        return ops.group_conv_forward(x, self.plan, self.bias, stride=self.stride,
                                      padding=self.padding)

    def backward(self, x, dz, saved=None, need_dx=True):
        raise ValueError(f"layer {self.name!r} ({self.kind}) has no backward support; "
                         f"fine-tune before deployment, not after")

    def out_shape(self, shape):
        if self.source == "fc":
            ops._fc_width(shape, self.in_channels, self.name)
            return (self.out_channels,)
        return _conv_out_shape(self.name, shape, self.in_channels, self.out_channels,
                               self.kernel, self.stride, self.padding)

    def to_record(self, blob):  # block weights, then bias, in the blob
        groups = []
        for block in self.groups:
            offset, length = blob.add(block.weight)
            groups.append({"filters": [int(v) for v in block.filter_indices],
                           "channels": [int(v) for v in block.channel_indices],
                           "blob_offset": offset, "blob_length": length})
        return _record(self, out_channels=self.out_channels, in_channels=self.in_channels,
                       kernel_size=self.kernel, stride=self.stride, padding=self.padding,
                       source=self.source, compress=False, groups=groups,
                       **blob.bias(self.bias))

    @classmethod
    def from_record(cls, rec, blob):
        name = rec["name"]
        c_out, c_in, k = _record_sizes(rec, ("out_channels", "in_channels", "kernel_size"))
        blocks = []
        for gi, grec in enumerate(rec["groups"]):
            filt = blob.indices(grec["filters"], f"{name}.group{gi}: filters")
            chan = blob.indices(grec["channels"], f"{name}.group{gi}: channels")
            blocks.append(GroupBlock(filt, chan, blob.fetch(
                grec, (len(filt), len(chan), k, k), f"{name}.group{gi}")))
        return cls(name, blocks, in_channels=c_in, out_channels=c_out, kernel=k,
                   bias=blob.bias(rec, c_out), stride=rec["stride"],
                   padding=rec["padding"], activation=rec["activation"], source=rec["source"])

    def macs(self, shape):
        return self.plan.block_macs * math.prod(self.out_shape(shape)[1:])

    def executed_macs(self, shape):
        return self.plan.executed_macs * math.prod(self.out_shape(shape)[1:])

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
        filters = [len(g.filter_indices) for g in self.groups]
        return {
            "groups": len(self.groups),
            "executor": plan.executor,
            "filters_per_block": [min(filters, default=0), max(filters, default=0)],
            "union_fraction": len(plan.union) / self.in_channels,
            "gathered_rows_ratio": plan.gathered_rows / max(len(plan.union) * taps, 1),
            "flops_billed": 2 * self.macs(shape),
            "flops_executed": 2 * self.executed_macs(shape),
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
        if self.scale.ndim != 1 or self.shift.shape != self.scale.shape:
            raise ValueError(f"layer {self.name!r}: scale and shift must both be (C,), "
                             f"got {self.scale.shape} and {self.shift.shape}")
        _check_sizes(self, (("channels", self.scale.size),))

    def _per_channel(self, v, ndim):
        return v.reshape(1, -1, *([1] * (ndim - 2)))

    def linear(self, x, saved=None):
        self.out_shape(x.shape[1:])
        return x * self._per_channel(self.scale, x.ndim) + self._per_channel(self.shift, x.ndim)

    def backward(self, x, dz, saved=None, need_dx=True):
        return (dz * self._per_channel(self.scale, dz.ndim) if need_dx else None), None

    def out_shape(self, shape):
        channels = shape[0] if shape else "no channel axis"
        if channels != self.scale.size:
            raise ValueError(f"layer {self.name!r} expects {self.scale.size} channels, "
                             f"got {channels}")
        return tuple(shape)

    def to_record(self, blob):  # the shift takes the bias range
        offset, length = blob.add(self.scale)
        return _record(self, channels=int(self.scale.size), blob_offset=offset,
                       blob_length=length, **blob.bias(self.shift))

    @classmethod
    def from_record(cls, rec, blob):
        name, shape = rec["name"], _record_sizes(rec, ("channels",))
        return cls(name, blob.fetch(rec, shape, name),
                   blob.fetch(rec, shape, f"{name}.shift", "bias_offset", "bias_length"),
                   activation=rec["activation"])

    def macs(self, shape):
        return int(np.prod(shape))

    executed_macs = macs

    def params(self):
        return self.scale.size + self.shift.size

    def describe(self, shape):
        return {}


@dataclass
class Model:
    layers: list = field(default_factory=list)
    input_shape: tuple | None = None   # per-sample shape the model was pruned on

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer_forward(layer, x)
        return x

    def out_shape(self, input_shape):
        """Per-sample output shape on ``input_shape``, by the walk of layer_inputs."""
        shape = tuple(int(v) for v in input_shape)
        for layer in self.layers:
            shape = layer.out_shape(shape)
        return shape

    def layer_inputs(self, input_shape):
        """Each layer with its per-sample input shape, walking ``input_shape``
        through the model; a layer that cannot take its input raises ValueError by name."""
        shape = tuple(int(v) for v in input_shape)
        for layer in self.layers:
            out_shape = layer.out_shape(shape)
            yield layer, shape
            shape = out_shape

    def layer(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")


def layer_forward(layer, x):
    """Run one layer (linear part + activation) on a batch."""
    return ops.apply_activation(layer.linear(x), layer.activation)


def filter_groups(layer) -> np.ndarray:
    """Group id per filter of a counted layer. One never clustered counts as
    a single all-filter group while its mask keeps every connection; pruned,
    it has no grouping that deployment or the ratio formula could use, so
    that raises ValueError naming the layer."""
    if layer.grouping is not None:
        return layer.grouping
    if not layer.mask.all():
        raise ValueError(f"layer {layer.name!r} is pruned but has no grouping")
    return np.zeros(layer.mask.shape[0], dtype=np.int64)


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

    return Model(input_shape=(3, 8, 8), layers=[
        ConvLayer("conv1", he((8, 3, 3, 3), 3 * 9), np.zeros(8, np.float32),
                  activation="relu", compress=False),
        ConvLayer("conv2", he((8, 8, 3, 3), 8 * 9), np.zeros(8, np.float32),
                  activation="relu", compress=True),
        FcLayer("fc1", he((num_classes, 128), 128), np.zeros(num_classes, np.float32),
                activation="identity", compress=True),
    ])
