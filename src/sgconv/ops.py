"""Dense array kernels: conv2d, fully-connected and grouped convolution.

Every function here is pure and operates on plain numpy arrays. Model
code feeds float32; the kernels preserve whatever dtype they receive so
tests can run float64 finite differences through the same code path.
"""
from __future__ import annotations

import functools

import numpy as np

ACTIVATIONS = ("identity", "relu")


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
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


def _im2col(x, kernel, stride, padding):
    """Unfold (N,C,H,W) into (N, C*k*k, Ho*Wo) patch columns."""
    n, c, h, w = x.shape
    ho = conv_out_size(h, kernel, stride, padding)
    wo = conv_out_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, ho, wo), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kernel * kernel, ho * wo)


def _col2im(dcols, x_shape, kernel, stride, padding):
    """Scatter-add patch columns back onto an (N,C,H,W) gradient."""
    n, c, h, w = x_shape
    ho = conv_out_size(h, kernel, stride, padding)
    wo = conv_out_size(w, kernel, stride, padding)
    dpad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, kernel, kernel, ho, wo)
    for i in range(kernel):
        for j in range(kernel):
            dpad[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, i, j]
    if padding > 0:
        return dpad[:, :, padding : padding + h, padding : padding + w]
    return dpad


def conv2d_forward(x, weight, bias=None, *, stride=1, padding=0, name="conv2d"):
    """2-d convolution of (N,C_in,H,W) with (C_out,C_in,k,k) filters.

    Bias is added per output channel when given, otherwise treated as
    zero. Raises ValueError on any shape mismatch, naming the layer.
    """
    if x.ndim != 4:
        raise ValueError(f"{name}: expected 4-d input (N,C,H,W), got shape {tuple(x.shape)}")
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ValueError(f"{name}: expected square (C_out,C_in,k,k) weights, got {tuple(weight.shape)}")
    c_out, c_in, kernel, _ = weight.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"{name}: input has {x.shape[1]} channels, weights expect {c_in}"
        )
    ho = conv_out_size(x.shape[2], kernel, stride, padding)
    wo = conv_out_size(x.shape[3], kernel, stride, padding)
    if ho < 1 or wo < 1:
        raise ValueError(
            f"{name}: kernel {kernel} stride {stride} pad {padding} does not fit "
            f"input {x.shape[2]}x{x.shape[3]}"
        )
    cols = _im2col(x, kernel, stride, padding)
    out = np.matmul(weight.reshape(c_out, -1), cols)
    out = out.reshape(x.shape[0], c_out, ho, wo)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


def conv2d_backward(dout, x, weight, *, stride=1, padding=0, name="conv2d"):
    """Gradients of conv2d_forward w.r.t. input, weights and bias.

    Returns (dx, dweight, dbias). Masked/pruned entries are NOT zeroed
    here; mask enforcement belongs to the training loop.
    """
    c_out, c_in, kernel, _ = weight.shape
    ho = conv_out_size(x.shape[2], kernel, stride, padding)
    wo = conv_out_size(x.shape[3], kernel, stride, padding)
    expected = (x.shape[0], c_out, ho, wo)
    if tuple(dout.shape) != expected:
        raise ValueError(f"{name}: upstream gradient shape {tuple(dout.shape)} != {expected}")
    cols = _im2col(x, kernel, stride, padding)
    dout_flat = dout.reshape(x.shape[0], c_out, ho * wo)
    dweight = np.matmul(dout_flat, cols.transpose(0, 2, 1)).sum(axis=0)
    dweight = dweight.reshape(weight.shape)
    dbias = dout.sum(axis=(0, 2, 3))
    dcols = np.matmul(weight.reshape(c_out, -1).T, dout_flat)
    dx = _col2im(dcols, x.shape, kernel, stride, padding)
    return dx, dweight, dbias


def fc_forward(x, weight, bias=None, *, name="fc"):
    """Fully-connected layer: y = x @ W.T (+ bias), weights (C_out, C_in)."""
    if x.ndim != 2:
        raise ValueError(f"{name}: expected 2-d input (N,C_in), got shape {tuple(x.shape)}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"{name}: input width {x.shape[1]} != weight C_in {weight.shape[1]}"
        )
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def fc_backward(dout, x, weight, *, name="fc"):
    """Gradients of fc_forward; returns (dx, dweight, dbias)."""
    expected = (x.shape[0], weight.shape[0])
    if tuple(dout.shape) != expected:
        raise ValueError(f"{name}: upstream gradient shape {tuple(dout.shape)} != {expected}")
    dx = dout @ weight
    dweight = dout.T @ x
    dbias = dout.sum(axis=0)
    return dx, dweight, dbias


def _check_group_partition(groups, out_channels, name):
    seen = np.concatenate([np.asarray(f, dtype=np.int64) for f, _, _ in groups]) \
        if groups else np.empty(0, dtype=np.int64)
    if len(np.unique(seen)) != len(seen):
        raise ValueError(f"{name}: overlapping filter assignment across groups")
    if len(seen) != out_channels or (len(seen) and (seen.min() < 0 or seen.max() >= out_channels)):
        raise ValueError(f"{name}: filter indices do not partition 0..{out_channels - 1}")


def _check_channel_range(chan_idx, c_in, name):
    if len(chan_idx) and (chan_idx.min() < 0 or chan_idx.max() >= c_in):
        raise ValueError(f"{name}: channel index out of range 0..{c_in - 1}")


def _group_forward(x, groups, out_shape, bias, block_forward, name):
    """Gather each group's input channels, run its block, scatter the result."""
    _check_group_partition(groups, out_shape[1], name)
    out = np.zeros(out_shape, dtype=x.dtype)
    for filt_idx, chan_idx, w_g in groups:
        filt_idx = np.asarray(filt_idx, dtype=np.int64)
        chan_idx = np.asarray(chan_idx, dtype=np.int64)
        if len(chan_idx) == 0:
            continue
        _check_channel_range(chan_idx, x.shape[1], name)
        gathered = np.ascontiguousarray(x[:, chan_idx])  # keep BLAS on one code path
        out[:, filt_idx] = block_forward(gathered, w_g, name=f"{name}.block")
    if bias is not None:
        out = out + np.asarray(bias).reshape(1, -1, *([1] * (out.ndim - 2)))
    return out


def group_conv_forward(x, groups, out_channels, kernel, bias=None, *,
                       stride=1, padding=0, name="groupconv"):
    """Diverse group convolution: per-group channel gather, dense conv, scatter.

    ``groups`` is a sequence of (filter_indices, channel_indices, weight)
    triples. Each group gathers its input channels (duplicates across
    groups are allowed, a channel may appear in no group), convolves them
    with its own (n_f, n_c, k, k) block, and scatters the result to the
    original filter positions. Filter index lists must partition
    0..out_channels-1. A group whose channel list is empty contributes
    bias only.
    """
    if x.ndim != 4:
        raise ValueError(f"{name}: expected 4-d input (N,C,H,W), got shape {tuple(x.shape)}")
    ho = conv_out_size(x.shape[2], kernel, stride, padding)
    wo = conv_out_size(x.shape[3], kernel, stride, padding)
    block = functools.partial(conv2d_forward, stride=stride, padding=padding)
    return _group_forward(x, groups, (x.shape[0], out_channels, ho, wo), bias, block, name)


def group_fc_forward(x, groups, out_features, bias=None, *, name="groupfc"):
    """Grouped fully-connected layer on (N, C_in) input; blocks are (n_f, n_c).

    Same gather/scatter contract as group_conv_forward, but each block
    runs the fc matmul, so a single all-in group reproduces fc_forward
    bit-exactly.
    """
    if x.ndim != 2:
        raise ValueError(f"{name}: expected 2-d input (N,C_in), got shape {tuple(x.shape)}")
    return _group_forward(x, groups, (x.shape[0], out_features), bias, fc_forward, name)
