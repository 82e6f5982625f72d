"""Dense array kernels: conv2d, fully-connected and grouped convolution.

Every function here is pure and operates on plain numpy arrays. The
grouped kernels take their layer only as a GroupExecPlan: its validated
layout and the executor its forward runs on, the grouped blocks or one
dense conv2d/fc call on the zero-filled weight rebuilt from them,
whichever a fixed cost model bills less. Model code feeds float32; the
kernels preserve whatever dtype they receive so tests can run float64
finite differences through the same code path. A conv unfolds its input
by one of two copies with the same bytes: narrow output rows by one gather
through a cached flat index, wider ones by k*k strided tap copies from a
zero-padded copy. conv2d's input gradient, which only fine-tuning
computes, is laid out tap-major so that it runs as one GEMM and k*k long
contiguous adds, bit-identical to a per-sample GEMM and col2im scatter.
"""
from __future__ import annotations

import functools
import math

import numpy as np

ACTIVATIONS = ("identity", "relu")


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def apply_activation(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return x
    if activation == "relu":
        return np.maximum(x, 0)
    raise ValueError(f"unknown activation {activation!r}")


def activation_backward(dout: np.ndarray, pre_act: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return dout
    if activation == "relu":
        return dout * (pre_act > 0)
    raise ValueError(f"unknown activation {activation!r}")


# Widest output row (Wo values) that _im2col unfolds by one gather through a
# cached flat index; wider rows take k*k strided tap copies. A tap copy's
# innermost contiguous run is one output row, so on narrow rows numpy's
# per-row overhead sets its cost, while the gather's cost is per value.
# Timed over 84 shapes (batch 1 and 32, 3-64 channels, 3x3 kernel, stride 1
# and 2; 2-vCPU VM, best of 5), the gather took 0.28-0.89x the copies' time
# on rows of 2-6 values, 0.39-1.42x on rows of 8 and 0.48-4.26x on rows of
# 14-34, where it lost on 28 of 36 shapes.
UNFOLD_GATHER_WIDTH = 8


@functools.lru_cache(maxsize=64)
def _unfold_index(c, h, w, kernel, stride, padding):
    """Read-only (C*k*k, Ho*Wo) flat indices of _im2col's columns into a
    sample's planes, each H*W pixels followed, when padded, by one +0.0
    slot that every padding position points at."""
    ho = _conv_out_size(h, kernel, stride, padding)
    wo = _conv_out_size(w, kernel, stride, padding)
    taps = np.arange(kernel)[:, None]
    rows = np.arange(ho) * stride + taps - padding  # (k, Ho) input row per tap
    cols = np.arange(wo) * stride + taps - padding  # (k, Wo) input column per tap
    inside = (((rows >= 0) & (rows < h))[:, None, :, None]
              & ((cols >= 0) & (cols < w))[None, :, None, :])
    pixel = np.where(inside, rows[:, None, :, None] * w + cols[None, :, None, :], h * w)
    plane = h * w + (padding > 0)
    index = (np.arange(c)[:, None, None, None, None] * plane + pixel).reshape(
        c * kernel * kernel, ho * wo)
    index.flags.writeable = False
    return index


def _im2col(x, kernel, stride, padding):
    """Unfold (N,C,H,W) into C-contiguous (N, C*k*k, Ho*Wo) patch columns.

    Rows of at most UNFOLD_GATHER_WIDTH values are one np.take through
    _unfold_index; wider ones are k*k strided copies from a zero-padded
    copy of x. Both are pure copies, so their bytes are the same.
    """
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kernel, stride, padding)
    wo = _conv_out_size(w, kernel, stride, padding)
    if wo <= UNFOLD_GATHER_WIDTH:
        if padding > 0:
            flat = np.empty((n, c, h * w + 1), dtype=x.dtype)
            flat[:, :, :-1].reshape(n, c, h, w)[...] = x  # a view: splits the last axis
            flat[:, :, -1] = 0
        else:
            flat = x.reshape(n, c, h * w)
        index = _unfold_index(c, h, w, kernel, stride, padding)
        return np.take(flat.reshape(n, c * flat.shape[2]), index, axis=1)
    if padding > 0:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    cols = np.empty((n, c, kernel, kernel, ho, wo), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kernel * kernel, ho * wo)


def _conv_input_grad(dout, weight, x_shape, stride, padding):
    """Gradient of conv2d_forward w.r.t. its (N,C_in,H,W) input, laid out tap-major.

    With stride s, dout is copied into a zero (C_out, N, hr + 1, wr)
    buffer, hr = ceil(H_pad / s) and wr = ceil(W_pad / s): each sample's
    plane has the rows and columns of one stride phase of the padded
    input, plus a spare row for the tap shifts to run into. One GEMM of
    the (tap, C_in)-ordered weight by that buffer gives, per tap (i, j), a
    contiguous (C_in, N, plane) slab of products. Each slab is added, in
    (i, j) order, onto the slab of its phase (i % s, j % s), shifted by
    (i // s) * wr + j // s. The phases are then interleaved and the
    padding cropped.

    dx is bit-identical to a per-sample GEMM followed by a tap-by-tap
    scatter-add of the unfolded columns onto a zero-filled gradient: every
    element gets the same products in the same (i, j) order, starting from
    +0.0, and stacking the samples along the GEMM's columns leaves each
    sum over C_out as it was. The widened columns and spare rows add only
    zero products, while the weights are finite. An infinite weight, which
    training meets only as an -inf pre-activation that ReLU maps to 0,
    already makes that scatter's dx NaN; here the NaN may spread further.
    """
    n, c_in, h, w = x_shape
    c_out, _, k, _ = weight.shape
    ho, wo = dout.shape[2:]
    s = stride
    hr, wr = -(-(h + 2 * padding) // s), -(-(w + 2 * padding) // s)
    dtype = np.result_type(dout, weight)
    if ho * wo > 1 and c_in * k * k > 1:
        wide = np.zeros((c_out, n, hr + 1, wr), dtype=dtype)
        wide[:, :, :ho, :wo] = dout.transpose(1, 0, 2, 3)
        taps = np.matmul(weight.transpose(2, 3, 1, 0).reshape(-1, c_out),
                         wide.reshape(c_out, -1))
    else:
        # numpy runs these products as matrix-vector calls, which BLAS sums
        # in an order that depends on the vector length: keep the per-sample
        # calls so that dx stays bit-identical
        dcols = np.matmul(weight.reshape(c_out, -1).T, dout.reshape(n, c_out, ho * wo))
        taps = np.zeros((k, k, c_in, n, hr + 1, wr), dtype=dtype)
        taps[..., :ho, :wo] = dcols.reshape(n, c_in, k, k, ho, wo).transpose(2, 3, 1, 0, 4, 5)
    taps = taps.reshape(k, k, -1)
    size = taps.shape[2]
    dpad = (np.zeros if k < s else np.empty)((n, c_in, s * hr, s * wr), dtype=dtype)
    for a in range(min(k, s)):
        for b in range(min(k, s)):
            acc = taps[a, b]  # the phase's first tap, shift 0
            # start each sum from +0.0: a position that only ever gets -0.0
            # products (negative weights times zero columns) must read +0.0
            acc += 0.0
            for i in range(a, k, s):
                for j in range(b, k, s):
                    shift = (i // s) * wr + j // s
                    if shift:
                        acc[shift:] += taps[i, j, :size - shift]
            dpad[:, :, a::s, b::s] = acc.reshape(c_in, n, hr + 1, wr)[:, :, :hr].transpose(1, 0, 2, 3)
    return dpad[:, :, padding:padding + h, padding:padding + w]


def _conv_hw(shape, c_in, kernel, stride, padding, name):
    """Output (Ho, Wo) of a k x k conv on samples of ``shape``; raises ValueError
    naming the layer unless they are (c_in, H, W) and the kernel fits them.
    The shape walk and every conv kernel check their input here."""
    if len(shape) != 3:
        raise ValueError(f"{name}: expected 4-d input (N,C,H,W), got samples of shape "
                         f"{tuple(shape)}")
    if shape[0] != c_in:
        raise ValueError(f"{name}: input has {shape[0]} channels, weights expect {c_in}")
    ho = _conv_out_size(shape[1], kernel, stride, padding)
    wo = _conv_out_size(shape[2], kernel, stride, padding)
    if ho < 1 or wo < 1:
        raise ValueError(f"{name}: kernel {kernel} stride {stride} pad {padding} does not fit "
                         f"input {shape[1]}x{shape[2]}")
    return ho, wo


def _fc_width(shape, c_in, name):
    """Width of a flattened sample of ``shape``; raises ValueError naming the
    layer unless it is c_in. The shape walk and every fc kernel check their
    input here, and the kernels flatten (N, ...) input to (N, width)."""
    width = math.prod(shape)
    if width != c_in:
        raise ValueError(f"layer {name!r} expects width {c_in}, got {width}")
    return width


def conv2d_forward(x, weight, bias=None, *, stride=1, padding=0, name="conv2d",
                   saved=None):
    """2-d convolution of (N,C_in,H,W) with (C_out,C_in,k,k) filters.

    Bias is added per output channel when given, otherwise treated as
    zero. Raises ValueError on any shape mismatch, naming the layer.
    When ``saved`` is a dict, the unfolded input columns are stored in it
    under "cols", for conv2d_backward to reuse instead of unfolding again.
    """
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ValueError(f"{name}: expected square (C_out,C_in,k,k) weights, got {tuple(weight.shape)}")
    c_out, c_in, kernel, _ = weight.shape
    ho, wo = _conv_hw(x.shape[1:], c_in, kernel, stride, padding, name)
    cols = _im2col(x, kernel, stride, padding)
    if saved is not None:
        saved["cols"] = cols
    out = np.matmul(weight.reshape(c_out, -1), cols)
    out = out.reshape(x.shape[0], c_out, ho, wo)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


def conv2d_backward(dout, x, weight, *, stride=1, padding=0, name="conv2d",
                    cols=None, need_dx=True):
    """Gradients of conv2d_forward w.r.t. input, weights and bias.

    Returns (dx, dweight, dbias). ``cols`` are x's unfolded columns as
    conv2d_forward saved them; x is unfolded here when they are not given.
    dx is one GEMM over the whole batch and one contiguous shifted add per
    kernel tap (see _conv_input_grad); with ``need_dx`` false it is None
    and that work is skipped.
    Masked/pruned entries are NOT zeroed here; mask enforcement belongs to
    the training loop.
    """
    c_out, c_in, kernel, _ = weight.shape
    ho = _conv_out_size(x.shape[2], kernel, stride, padding)
    wo = _conv_out_size(x.shape[3], kernel, stride, padding)
    expected = (x.shape[0], c_out, ho, wo)
    if tuple(dout.shape) != expected:
        raise ValueError(f"{name}: upstream gradient shape {tuple(dout.shape)} != {expected}")
    if cols is None:
        cols = _im2col(x, kernel, stride, padding)
    dout_flat = dout.reshape(x.shape[0], c_out, ho * wo)
    dweight = np.matmul(dout_flat, cols.transpose(0, 2, 1)).sum(axis=0)
    dweight = dweight.reshape(weight.shape)
    dbias = dout.sum(axis=(0, 2, 3))
    dx = _conv_input_grad(dout, weight, x.shape, stride, padding) if need_dx else None
    return dx, dweight, dbias


def fc_forward(x, weight, bias=None, *, name="fc"):
    """Fully-connected layer: y = x @ W.T (+ bias), weights (C_out, C_in),
    on (N, ...) input whose samples flatten to C_in values."""
    out = x.reshape(x.shape[0], _fc_width(x.shape[1:], weight.shape[1], name)) @ weight.T
    if bias is not None:
        out = out + bias
    return out


def fc_backward(dout, x, weight, *, name="fc", need_dx=True):
    """Gradients of fc_forward; returns (dx, dweight, dbias), dx in x's shape
    and None without ``need_dx``."""
    flat = x.reshape(x.shape[0], _fc_width(x.shape[1:], weight.shape[1], name))
    expected = (x.shape[0], weight.shape[0])
    if tuple(dout.shape) != expected:
        raise ValueError(f"{name}: upstream gradient shape {tuple(dout.shape)} != {expected}")
    dx = (dout @ weight).reshape(x.shape) if need_dx else None
    dweight = dout.T @ flat
    dbias = dout.sum(axis=0)
    return dx, dweight, dbias


# Largest unfolded union (chunk samples x union channels x k*k x Ho*Wo) one
# grouped conv holds at a time: 1 MiB of float32, so every group's row
# gather reads columns that are still in cache. On perfbench's
# infer-deployed net (set up at seed 3; conv2-conv4 grouped, each reading
# 59 of 64 channels) the deployed forward at batch 64 took 176 ms chunked
# and 372 ms as one chunk, and 2.7 ms both ways at batch 1 (medians of 6
# alternating rounds, BLAS on one thread, a 2-vCPU Xeon VM).
CHUNK_ELEMENTS = 1 << 18

# Cost of gathering one value of a block's rows, in block multiply-adds,
# for choosing a plan's executor. Per output position the grouped blocks
# are billed sum(n_f * K_b) + GATHER_COST * sum(K_b), with n_f a block's
# filters and K_b its channels x k*k; one dense GEMM is billed
# C_out * C_in * k*k. Derived from the per-layer table of the benchmark's
# deployed nets (one BLAS thread, batch 1 and 64): the blocks lost to
# dense on every layer whose break-even cost (dense - block MACs) / sum(K_b)
# is at most 4.3 (the toy net's conv2 and fc1 and the wide nets' fc1, all
# one-filter blocks, up to 19x slower) and beat it at batch 64 on every
# layer where it is at least 24 (the wide nets' conv2-conv4, eight
# 8-filter blocks, 1.3-1.8x faster). Timed alone, one gathered value cost
# 5-14 block MACs on those 8-filter blocks; 8 lies inside both ranges.
GATHER_COST = 8


class GroupExecPlan:
    """A grouped layer's blocks, validated once and laid out for its forward.

    Built from (filter_indices, channel_indices, weight) triples; every
    weight, an empty block's too, is (n_f, n_c, k, k), or (n_f, n_c) with
    kernel 1. The filter lists must partition 0..out_channels-1, every
    channel index must lie in 0..in_channels-1 and no block may list a
    channel twice. The plan keeps the sorted union of live channels and,
    per block with channels, its filters, its row indices into the union's
    unfolded (channel, ky, kx) columns and a 2-d view of its weight. It
    iterates as the triples it was built from. The grouped kernels take
    nothing else about the layer: they read its widths, kernel and name
    from the plan.

    ``executor`` is "dense" when one GEMM on the zero-filled
    (C_out, C_in, k, k) weight is billed less than the blocks (see
    GATHER_COST), else "grouped"; ``executed_macs`` are the multiply-adds
    per output position of the one that runs. A dense plan holds that
    weight in ``dense_weight``, a snapshot taken at build time. The plan
    makes the block weights it views read-only, so an in-place edit
    raises instead of leaving the snapshot stale; copies freeze their
    own weights.
    """

    def __init__(self, groups, out_channels, in_channels, kernel, name="groupconv"):
        self.triples = [(np.asarray(f, dtype=np.int64), np.asarray(c, dtype=np.int64), w)
                        for f, c, w in groups]
        seen = np.concatenate([f for f, _, _ in self.triples] or [np.empty(0, np.int64)])
        if len(np.unique(seen)) != len(seen):
            raise ValueError(f"{name}: overlapping filter assignment across groups")
        # the count first: out_channels may be too large to enumerate
        if len(seen) != out_channels or not np.array_equal(np.sort(seen),
                                                           np.arange(out_channels)):
            raise ValueError(f"{name}: filter indices do not partition 0..{out_channels - 1}")
        self.out_channels, self.in_channels = out_channels, in_channels
        self.kernel, self.name = kernel, name
        live = [c for f, c, _ in self.triples if len(f) and len(c)]
        self.union = np.unique(np.concatenate(live)) if live else np.empty(0, dtype=np.int64)
        if len(self.union) and (self.union[0] < 0 or self.union[-1] >= in_channels):
            raise ValueError(f"{name}: channel index out of range 0..{in_channels - 1}")
        taps = kernel * kernel
        self.blocks = []
        for gi, (f, c, w) in enumerate(self.triples):
            if w.shape[:2] != (len(f), len(c)) or w.size != len(f) * len(c) * taps:
                raise ValueError(f"{name}: group {gi} weight {tuple(w.shape)} does not fit "
                                 f"{len(f)} filters x {len(c)} channels x {kernel}x{kernel}")
            if not (len(f) and len(c)):
                continue
            if len(np.unique(c)) != len(c):
                raise ValueError(f"{name}: group {gi} lists an input channel twice")
            rows = (np.searchsorted(self.union, c)[:, None] * taps + np.arange(taps)).ravel()
            self.blocks.append((f, rows, w.reshape(len(f), len(c) * taps)))
        for _, _, w in self.triples:
            w.flags.writeable = False
        self.block_macs = sum(w2d.size for _, _, w2d in self.blocks)
        self.gathered_rows = sum(len(rows) for _, rows, _ in self.blocks)
        dense_macs = out_channels * in_channels * taps
        self.executor, self.executed_macs, self.dense_weight = "grouped", self.block_macs, None
        if dense_macs < self.block_macs + GATHER_COST * self.gathered_rows:
            self.executor, self.executed_macs = "dense", dense_macs
            dense = np.zeros((out_channels, in_channels, taps),
                             dtype=np.result_type(*(w2d for _, _, w2d in self.blocks)))
            for f, c, w in self.triples:
                if len(f) and len(c):
                    dense[np.ix_(f, c)] = w.reshape(len(f), len(c), taps)
            dense.flags.writeable = False
            self.dense_weight = dense.reshape(out_channels, in_channels, kernel, kernel)

    def __iter__(self):
        return iter(self.triples)

    def __reduce__(self):  # copies rebuild their views on the copied weights
        return GroupExecPlan, (self.triples, self.out_channels, self.in_channels,
                               self.kernel, self.name)


def _add_bias(out, bias):
    if bias is None:
        return out
    return out + np.asarray(bias).reshape(1, -1, *([1] * (out.ndim - 2)))


def group_conv_forward(x, plan, bias=None, *, stride=1, padding=0):
    """Diverse group convolution: per-group channel gather, dense conv, scatter.

    ``plan`` is the layer's GroupExecPlan. Each group convolves its input
    channels (duplicates across groups are allowed, a channel may appear
    in no group) with its own (n_f, n_c, k, k) block and scatters the
    result to the original filter positions. A group whose channel list
    is empty contributes bias only.

    A plan whose executor is "dense" runs one conv2d_forward on its
    zero-filled weight, so the output is bit-identical to the masked
    dense layer it came from. A "grouped" plan runs samples in chunks
    whose unfolded union of live channels holds at most CHUNK_ELEMENTS
    values: one gather and one unfold per chunk, then one matmul per
    group on its rows of the unfolded columns. Each sample sees the same
    GEMM shapes and summation order as a dense conv of the gathered
    channels, so outputs do not depend on the chunk size.
    """
    if plan.dense_weight is not None:
        return conv2d_forward(x, plan.dense_weight, bias, stride=stride, padding=padding,
                              name=plan.name)
    kernel, c_out = plan.kernel, plan.out_channels
    ho, wo = _conv_hw(x.shape[1:], plan.in_channels, kernel, stride, padding, plan.name)
    n = x.shape[0]
    out = np.zeros((n, c_out, ho * wo), dtype=x.dtype)
    if plan.blocks:
        step = max(1, CHUNK_ELEMENTS // (len(plan.union) * kernel * kernel * ho * wo))
        for lo in range(0, n, step):
            union = np.take(x[lo:lo + step], plan.union, axis=1)
            cols = _im2col(union, kernel, stride, padding)
            for filt, rows, w2d in plan.blocks:
                # take() returns C-contiguous rows, the layout _im2col gives a dense
                # conv; a fancy-indexed middle axis may not, and BLAS would then
                # run a different code path
                out[lo:lo + step, filt] = np.matmul(w2d, np.take(cols, rows, axis=1))
    return _add_bias(out.reshape(n, c_out, ho, wo), bias)


def group_fc_forward(x, plan, bias=None):
    """Grouped fully-connected layer on (N, ...) input flattened to (N, C_in);
    blocks are (n_f, n_c).

    Same gather/scatter contract and executor choice as group_conv_forward
    (kernel 1): a "dense" plan runs one fc_forward on its zero-filled
    weight, and each grouped block runs the fc matmul on the whole batch.
    """
    if plan.dense_weight is not None:
        return fc_forward(x, plan.dense_weight.reshape(plan.out_channels, -1), bias,
                          name=plan.name)
    x = x.reshape(x.shape[0], _fc_width(x.shape[1:], plan.in_channels, plan.name))
    out = np.zeros((x.shape[0], plan.out_channels), dtype=x.dtype)
    if plan.blocks:
        union = np.take(x, plan.union, axis=1)
        for filt, rows, w2d in plan.blocks:
            out[:, filt] = np.take(union, rows, axis=1) @ w2d.T
    return _add_bias(out, bias)
