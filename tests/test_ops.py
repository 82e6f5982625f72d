"""Kernel tests against naive loop oracles and finite differences."""
import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgconv import ops
from sgconv.deploy import convert_model
from sgconv.model import GroupBlock, GroupConvLayer, apply_mask, build_toy_cnn


# ---------------------------------------------------------------- oracles

def conv2d_loops(x, weight, bias=None, stride=1, padding=0):
    """Reference convolution: explicit loops over every output element."""
    n, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    for b in range(n):
        for f in range(c_out):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(c_in):
                        for u in range(k):
                            for v in range(k):
                                acc += float(weight[f, c, u, v]) * \
                                    float(xp[b, c, i * stride + u, j * stride + v])
                    out[b, f, i, j] = acc + (float(bias[f]) if bias is not None else 0.0)
    return out


def fc_loops(x, weight, bias=None):
    n, c_in = x.shape
    c_out = weight.shape[0]
    out = np.zeros((n, c_out), dtype=np.float64)
    for b in range(n):
        for f in range(c_out):
            acc = 0.0
            for c in range(c_in):
                acc += float(weight[f, c]) * float(x[b, c])
            out[b, f] = acc + (float(bias[f]) if bias is not None else 0.0)
    return out


def reference_conv_input_grad(dout, weight, x_shape, stride, padding):
    """conv2d's input gradient as one GEMM per sample and a scatter-add of
    the unfolded columns, tap by tap onto a zero-filled padded gradient."""
    n, c_in, h, w = x_shape
    c_out, _, k, _ = weight.shape
    ho, wo = dout.shape[2:]
    dcols = np.matmul(weight.reshape(c_out, -1).T, dout.reshape(n, c_out, ho * wo))
    dcols = dcols.reshape(n, c_in, k, k, ho, wo)
    dpad = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dpad[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
    return dpad[:, :, padding:padding + h, padding:padding + w]


def reference_im2col(x, kernel, stride, padding):
    """The unfold as np.pad and k*k strided tap copies."""
    n, c, h, w = x.shape
    ho = ops._conv_out_size(h, kernel, stride, padding)
    wo = ops._conv_out_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, ho, wo), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kernel * kernel, ho * wo)


def central_diff(loss_fn, arr, h=1e-3):
    """Central finite differences of a scalar loss w.r.t. every array entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def rel_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------- conv forward

def test_conv_sum_of_ones():
    x = np.ones((1, 1, 2, 2), dtype=np.float32)
    w = np.ones((1, 1, 2, 2), dtype=np.float32)
    out = ops.conv2d_forward(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0


def test_conv_zero_input(rng):
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    out = ops.conv2d_forward(np.zeros((2, 3, 5, 5), np.float32), w)
    assert np.all(out == 0)


def test_conv_matches_loop_oracle(rng):
    x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    expected = conv2d_loops(x, w, b)
    np.testing.assert_allclose(ops.conv2d_forward(x, w, b), expected, atol=1e-6)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv_stride_padding_vs_oracle(rng, stride, padding):
    x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    got = ops.conv2d_forward(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(got, conv2d_loops(x, w, stride=stride, padding=padding),
                               atol=1e-6)


def test_conv_shape_errors(rng):
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="channels"):
        ops.conv2d_forward(np.zeros((1, 2, 5, 5), np.float32), w, name="convX")
    with pytest.raises(ValueError, match="convX"):
        ops.conv2d_forward(np.zeros((1, 2, 5, 5), np.float32), w, name="convX")
    with pytest.raises(ValueError, match="does not fit"):
        ops.conv2d_forward(np.zeros((1, 3, 2, 2), np.float32), w)
    with pytest.raises(ValueError, match="4-d"):
        ops.conv2d_forward(np.zeros((3, 5, 5), np.float32), w)
    with pytest.raises(ValueError, match=r"convX: expected square \(C_out,C_in,k,k\) weights, "
                                         r"got \(4, 3, 3, 2\)"):
        ops.conv2d_forward(np.zeros((1, 3, 5, 5), np.float32), w[..., :2], name="convX")


# ---------------------------------------------------------------- fc forward

def test_fc_identity():
    out = ops.fc_forward(np.array([[1.0, 2.0, 3.0]], np.float32), np.eye(3, dtype=np.float32))
    np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])


def test_fc_hand_computed():
    w = np.array([[1.0, 1.0], [1.0, -1.0]], np.float32)
    out = ops.fc_forward(np.array([[2.0, 3.0]], np.float32), w)
    np.testing.assert_array_equal(out, [[5.0, -1.0]])


def test_fc_matches_loop_oracle(rng):
    x = rng.standard_normal((4, 16)).astype(np.float32)
    w = rng.standard_normal((8, 16)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    np.testing.assert_allclose(ops.fc_forward(x, w, b), fc_loops(x, w, b), atol=1e-6)


def test_fc_shape_error(rng):
    with pytest.raises(ValueError, match="width"):
        ops.fc_forward(np.zeros((2, 5), np.float32), np.zeros((3, 4), np.float32))


# ---------------------------------------------------------------- linearity

def test_forward_linearity(rng):
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    x1 = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    x2 = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    a, b = np.float32(1.7), np.float32(-0.4)
    lhs = ops.conv2d_forward(a * x1 + b * x2, w)
    rhs = a * ops.conv2d_forward(x1, w) + b * ops.conv2d_forward(x2, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    wf = rng.standard_normal((5, 12)).astype(np.float32)
    y1 = rng.standard_normal((3, 12)).astype(np.float32)
    y2 = rng.standard_normal((3, 12)).astype(np.float32)
    lhs = ops.fc_forward(a * y1 + b * y2, wf)
    rhs = a * ops.fc_forward(y1, wf) + b * ops.fc_forward(y2, wf)
    np.testing.assert_allclose(lhs, rhs, atol=1e-5)


# ---------------------------------------------------------------- backward

def test_fc_backward_hand_case():
    # loss = sum(y), W = 2x2 ones, x = [1, 2]
    x = np.array([[1.0, 2.0]])
    w = np.ones((2, 2))
    dout = np.ones((1, 2))
    dx, dw, db = ops.fc_backward(dout, x, w)
    np.testing.assert_array_equal(dw, [[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(dx, [[2.0, 2.0]])
    np.testing.assert_array_equal(db, [1.0, 1.0])


def test_zero_upstream_gives_zero_grads(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    dx, dw, db = ops.conv2d_backward(np.zeros((1, 3, 2, 2)), x, w)
    assert not dx.any() and not dw.any() and not db.any()


def test_conv_backward_matches_finite_differences(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((1, 3, 2, 2))  # loss = sum(proj * conv(x))

    def loss():
        return float((proj * ops.conv2d_forward(x, w, b)).sum())

    dx, dw, db = ops.conv2d_backward(proj, x, w)
    assert rel_error(dx, central_diff(loss, x)) < 1e-3
    assert rel_error(dw, central_diff(loss, w)) < 1e-3
    assert rel_error(db, central_diff(loss, b)) < 1e-3


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
def test_conv_backward_stride_padding_fd(rng, stride, padding):
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((2, 2, 3, 3))
    ho = ops._conv_out_size(5, 3, stride, padding)
    proj = rng.standard_normal((2, 2, ho, ho))

    def loss():
        return float((proj * ops.conv2d_forward(x, w, stride=stride, padding=padding)).sum())

    dx, dw, _ = ops.conv2d_backward(proj, x, w, stride=stride, padding=padding)
    assert rel_error(dx, central_diff(loss, x)) < 1e-3
    assert rel_error(dw, central_diff(loss, w)) < 1e-3


def input_grad_case(seed, n, c_in, c_out, h, w, kernel, stride, padding, dtype,
                    dead=0.5, negative_zeros=0.3):
    """A conv's upstream gradient and masked weights, with -0.0 entries in both."""
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((c_out, c_in, kernel, kernel)).astype(dtype)
    weight[rng.random((c_out, c_in)) < dead] = 0.0
    weight[rng.random(weight.shape) < 0.2] = -0.0
    ho = ops._conv_out_size(h, kernel, stride, padding)
    wo = ops._conv_out_size(w, kernel, stride, padding)
    dout = rng.standard_normal((n, c_out, ho, wo)).astype(dtype)
    dout[rng.random(dout.shape) < negative_zeros] = -0.0
    return dout, weight, (n, c_in, h, w), stride, padding


@st.composite
def input_grad_cases(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    low = max(1, kernel - 2 * padding)
    h = draw(st.integers(low, low + 5))
    w = draw(st.integers(low, low + 5).filter(lambda v: v != h))
    n, c_in, c_out = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return input_grad_case(draw(st.integers(0, 2**32 - 1)), n, c_in, c_out, h, w,
                           kernel, stride, padding,
                           draw(st.sampled_from([np.float32, np.float64])),
                           draw(st.sampled_from([0.0, 0.5, 1.0])),
                           draw(st.sampled_from([0.0, 0.3, 1.0])))


@settings(max_examples=400)
@given(input_grad_cases())
# numpy runs the per-sample products of these two as matrix-vector calls:
# a 1x1 output, and a single input channel under a 1x1 kernel
@example(input_grad_case(0, 2, 3, 4, 3, 4, 3, 2, 0, np.float64))
@example(input_grad_case(0, 5, 1, 4, 5, 7, 1, 3, 0, np.float32))
def test_conv_input_grad_is_bit_identical_to_per_sample_scatter(case):
    dout, weight, x_shape, stride, padding = case
    x = np.zeros(x_shape, dtype=weight.dtype)
    dx, _, _ = ops.conv2d_backward(dout, x, weight, stride=stride, padding=padding)
    want = reference_conv_input_grad(dout, weight, x_shape, stride, padding)
    assert dx.shape == want.shape and dx.dtype == want.dtype
    assert dx.tobytes() == want.tobytes()


@st.composite
def unfold_cases(draw):
    """An input with -0.0, NaN and inf entries, contiguous or not, and a
    kernel, stride and padding whose output rows hold 1-20 values."""
    kernel, stride = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 3))
    padding = draw(st.integers(0, 3))
    low = max(1, kernel - 2 * padding)

    def size_for(out):  # an input extent with ``out`` outputs, when one exists
        return max(low, (out - 1) * stride + kernel - 2 * padding
                   + draw(st.integers(0, stride - 1)))

    h, w = size_for(draw(st.integers(1, 6))), size_for(draw(st.integers(1, 20)))
    n, c = draw(st.integers(1, 5)), draw(st.integers(1, 16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    layout = draw(st.sampled_from(["contiguous", "strided", "channels-last"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "strided":
        x = rng.standard_normal((n, c, h, 2 * w)).astype(dtype)[..., ::2]
    elif layout == "channels-last":
        x = rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    else:
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
    special = rng.random(x.shape)
    x[special < 0.1] = -0.0
    x[special > 0.95] = np.nan
    x[special > 0.97] = np.inf
    x[special > 0.99] = -np.inf
    return x, kernel, stride, padding


@settings(max_examples=400)
@given(unfold_cases())
def test_unfold_is_byte_identical_to_pad_and_tap_copies(case):
    x, kernel, stride, padding = case
    got = ops._im2col(x, kernel, stride, padding)
    want = reference_im2col(x, kernel, stride, padding)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_unfold_paths_and_cached_index():
    """Rows of up to UNFOLD_GATHER_WIDTH values gather through one cached,
    read-only index; wider rows never build one; the cache is bounded."""
    x = np.arange(2 * 3 * 9 * 9, dtype=np.float32).reshape(2, 3, 9, 9)
    ops._unfold_index.cache_clear()
    for width in (ops.UNFOLD_GATHER_WIDTH, ops.UNFOLD_GATHER_WIDTH + 1):
        for _ in range(2):  # 3x3 kernel, padding 1: rows of ``width`` values
            ops._im2col(x[..., :width], 3, 1, 1)
        info = ops._unfold_index.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None
    index = ops._unfold_index(3, 9, 8, 3, 1, 1)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0


def test_fc_backward_matches_finite_differences(rng):
    x = rng.standard_normal((3, 6))
    w = rng.standard_normal((4, 6))
    proj = rng.standard_normal((3, 4))

    def loss():
        return float((proj * ops.fc_forward(x, w)).sum())

    dx, dw, _ = ops.fc_backward(proj, x, w)
    assert rel_error(dx, central_diff(loss, x)) < 1e-3
    assert rel_error(dw, central_diff(loss, w)) < 1e-3


def test_backward_shape_errors(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    with pytest.raises(ValueError, match="gradient shape"):
        ops.conv2d_backward(np.zeros((1, 3, 4, 4)), x, w)
    with pytest.raises(ValueError, match="gradient shape"):
        ops.fc_backward(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((3, 4)))


# ---------------------------------------------------------------- group conv

def test_group_conv_single_group_is_exact(rng):
    x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    plan = ops.GroupExecPlan([(np.arange(5), np.arange(4), w)], 5, 4, 3)
    got = ops.group_conv_forward(x, plan, b)
    np.testing.assert_array_equal(got, ops.conv2d_forward(x, w, b))


def test_group_conv_two_halves_vs_block_diagonal(rng):
    # two groups over disjoint channel halves == dense conv with zero off-blocks
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    w1 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    w2 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    dense = np.zeros((6, 4, 3, 3), np.float32)
    dense[:3, :2] = w1
    dense[3:, 2:] = w2
    plan = ops.GroupExecPlan([(np.arange(3), np.arange(2), w1),
                              (np.arange(3, 6), np.arange(2, 4), w2)], 6, 4, 3)
    got = ops.group_conv_forward(x, plan)
    np.testing.assert_allclose(got, ops.conv2d_forward(x, dense), atol=1e-6)


def test_group_conv_scatter_and_reuse(rng):
    # interleaved filters, shared channel 1, ignored channel 2, one empty group
    x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
    wa = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    wb = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    plan = ops.GroupExecPlan([(np.array([0, 2]), np.array([0, 1]), wa),
                              (np.array([1]), np.array([1]), wb),
                              (np.array([3]), np.array([], dtype=np.int64),
                               np.zeros((1, 0, 3, 3), np.float32))], 4, 3, 3)
    bias = np.array([0.0, 0.0, 0.0, 0.5], np.float32)
    out = ops.group_conv_forward(x, plan, bias)
    np.testing.assert_allclose(out[:, [0, 2]], ops.conv2d_forward(x[:, [0, 1]], wa), atol=1e-6)
    np.testing.assert_allclose(out[:, [1]], ops.conv2d_forward(x[:, [1]], wb), atol=1e-6)
    assert np.all(out[:, 3] == 0.5)  # empty group emits bias only


def test_group_conv_errors(rng):
    w = np.zeros((2, 2, 3, 3), np.float32)
    with pytest.raises(ValueError, match="overlapping"):
        ops.GroupExecPlan([(np.array([0, 1]), np.array([0, 1]), w),
                           (np.array([1, 2]), np.array([0, 1]), w)], 4, 3, 3)
    with pytest.raises(ValueError, match="partition"):
        ops.GroupExecPlan([(np.array([0, 1]), np.array([0, 1]), w)], 4, 3, 3)
    with pytest.raises(ValueError, match="out of range"):
        ops.GroupExecPlan([(np.array([0, 1]), np.array([0, 7]), w)], 2, 3, 3)
    with pytest.raises(ValueError, match="group 0 weight"):
        ops.GroupExecPlan([(np.array([0, 1]), np.array([0, 1, 2]), w)], 2, 3, 3)
    with pytest.raises(ValueError, match="group 0 lists an input channel twice"):
        ops.GroupExecPlan([(np.array([0, 1]), np.array([1, 1]), w)], 2, 3, 3)
    # a layer built for 8 input channels refuses 12, as the dense kernel does
    layer = GroupConvLayer("conv2", [GroupBlock(np.arange(8), np.arange(8),
                                                np.zeros((8, 8, 3, 3), np.float32))],
                           in_channels=8, out_channels=8, kernel=3)
    with pytest.raises(ValueError, match="conv2: input has 12 channels, weights expect 8"):
        layer.linear(np.zeros((1, 12, 8, 8), np.float32))
    big = np.zeros((2, 1, 5, 5), np.float32)
    plan = ops.GroupExecPlan([(np.arange(2), np.arange(1), big)], 2, 1, 5, name="conv2")
    with pytest.raises(ValueError, match="conv2: kernel 5 stride 1 pad 0 does not fit input 2x2"):
        ops.group_conv_forward(np.zeros((1, 1, 2, 2), np.float32), plan)


def group_forward_reference(x, groups, out_channels, bias=None, *, stride=1, padding=0):
    """The per-group loop the planned forward replaces: gather each group's
    channels, run a dense conv (4-d input) or fc (2-d input) block on them,
    scatter the block output to the group's filters, then add the bias."""
    if x.ndim == 2:
        out = np.zeros((x.shape[0], out_channels), dtype=x.dtype)
    else:
        _, _, k, _ = groups[0][2].shape
        out = np.zeros((x.shape[0], out_channels,
                        ops._conv_out_size(x.shape[2], k, stride, padding),
                        ops._conv_out_size(x.shape[3], k, stride, padding)), dtype=x.dtype)
    for filt, chan, w in groups:
        if len(chan) == 0:
            continue
        gathered = np.ascontiguousarray(x[:, chan])
        if x.ndim == 2:
            out[:, filt] = ops.fc_forward(gathered, w.reshape(w.shape[:2]))
        else:
            out[:, filt] = ops.conv2d_forward(gathered, w, stride=stride, padding=padding)
    if bias is not None:
        out = out + bias.reshape(1, -1, *([1] * (out.ndim - 2)))
    return out


@st.composite
def grouped_layers(draw):
    """A valid grouped layer, its input batch and a chunk size.

    Filters are split into non-empty groups; each group reads any subset of
    the input channels in any order (shared, unused and empty sets allowed).
    """
    fc = draw(st.booleans())
    c_in, c_out = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kernel = 1 if fc else draw(st.sampled_from([1, 3, 5]))
    stride = 1 if fc else draw(st.sampled_from([1, 2]))
    padding = 0 if fc else draw(st.integers(0, 2))
    size = max(1, kernel - 2 * padding) + draw(st.integers(0, 4))
    order = draw(st.permutations(range(c_out)))
    n_groups = draw(st.integers(1, c_out))
    cuts = sorted(draw(st.sets(st.integers(1, c_out - 1), min_size=n_groups - 1,
                               max_size=n_groups - 1))) if c_out > 1 else []
    filters = [np.array(sorted(part), dtype=np.int64)
               for part in np.split(np.array(order, dtype=np.int64), cuts)]
    channels = [np.array(draw(st.lists(st.integers(0, c_in - 1), unique=True,
                                       max_size=c_in)), dtype=np.int64) for _ in filters]
    batch = draw(st.integers(1, 9))
    chunk = draw(st.sampled_from([1, 40, 300, ops.CHUNK_ELEMENTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [GroupBlock(f, c, rng.standard_normal((len(f), len(c), kernel, kernel))
                         .astype(np.float32)) for f, c in zip(filters, channels)]
    bias = rng.standard_normal(c_out).astype(np.float32) if draw(st.booleans()) else None
    layer = GroupConvLayer("g", blocks, in_channels=c_in, out_channels=c_out, kernel=kernel,
                           bias=bias, stride=stride, padding=padding,
                           source="fc" if fc else "conv2d")
    shape = (batch, c_in) if fc else (batch, c_in, size, size)
    return layer, rng.standard_normal(shape).astype(np.float32), chunk


def zero_filled_weight(triples, out_channels, in_channels, kernel):
    """The (C_out, C_in, k, k) dense weight the blocks stand for: each block's
    weights at its (filter, channel) positions, zero elsewhere."""
    dense = np.zeros((out_channels, in_channels, kernel, kernel), np.float32)
    for filt, chan, w in triples:
        dense[np.ix_(filt, chan)] = w.reshape(len(filt), len(chan), kernel, kernel)
    return dense


def test_planned_group_forward_is_bit_identical_to_group_loop():
    """Grouped-executed layers match the per-group loop bit for bit, and
    dense-executed ones the dense kernel on the zero-filled weight; both
    executors occur among the generated layers."""
    executors = set()

    @settings(max_examples=300, deadline=None)
    @given(grouped_layers())
    def check(case):
        layer, x, chunk = case
        triples = [(g.filter_indices, g.channel_indices, g.weight) for g in layer.groups]
        executors.add(layer.plan.executor)
        if layer.plan.executor == "grouped":
            expected = group_forward_reference(x, triples, layer.out_channels, layer.bias,
                                               stride=layer.stride, padding=layer.padding)
        else:
            dense = zero_filled_weight(triples, layer.out_channels, layer.in_channels,
                                       layer.kernel)
            expected = (ops.conv2d_forward(x, dense, layer.bias, stride=layer.stride,
                                           padding=layer.padding) if x.ndim == 4 else
                        ops.fc_forward(x, dense.reshape(dense.shape[:2]), layer.bias))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "CHUNK_ELEMENTS", chunk)
            np.testing.assert_array_equal(layer.linear(x), expected)

    check()
    assert executors == {"grouped", "dense"}


def test_executor_choice_on_one_filter_and_eight_filter_blocks(rng):
    # the toy net pruned with one filter per group: both layers run dense
    model = build_toy_cnn(0)
    for layer, keep in ((model.layer("conv2"), 2), (model.layer("fc1"), 50)):
        c_out, c_in = layer.mask.shape
        layer.grouping = np.arange(c_out)
        layer.mask[:] = False
        for f in range(c_out):
            layer.mask[f, rng.choice(c_in, keep, replace=False)] = True
        apply_mask(layer)
    deployed = convert_model(model)
    assert [deployed.layer(n).plan.executor for n in ("conv2", "fc1")] == ["dense", "dense"]
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(deployed.forward(x), model.forward(x))
    # 64 channels, eight 8-filter blocks on 16 channels each: stays grouped
    blocks = [GroupBlock(np.arange(8 * g, 8 * g + 8), np.sort(rng.choice(64, 16, replace=False)),
                         rng.standard_normal((8, 16, 3, 3)).astype(np.float32))
              for g in range(8)]
    wide = GroupConvLayer("conv2", blocks, in_channels=64, out_channels=64, kernel=3)
    assert wide.plan.executor == "grouped"
    assert wide.plan.executed_macs == wide.plan.block_macs == 8 * 8 * 16 * 9


def test_group_plan_views_weights_and_copies_rebuild(rng):
    # 4 filters on 1 of 8 channels: the blocks are billed less than dense
    w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    layer = GroupConvLayer("g", [GroupBlock(np.arange(4), np.array([2]), w)],
                           in_channels=8, out_channels=4, kernel=3)
    assert layer.plan.executor == "grouped"
    assert [np.shares_memory(w2d, w) for _, _, w2d in layer.plan.blocks] == [True]
    assert [triple[2] is w for triple in layer.plan] == [True]
    with pytest.raises(ValueError, match="read-only"):
        layer.groups[0].weight += 1.0  # a dense plan's snapshot would go stale
    twin = copy.deepcopy(layer)
    assert twin.plan is not layer.plan and twin.groups[0].weight is not w
    assert [np.shares_memory(w2d, twin.groups[0].weight)
            for _, _, w2d in twin.plan.blocks] == [True]
    with pytest.raises(ValueError, match="read-only"):
        twin.groups[0].weight += 1.0
    x = rng.standard_normal((2, 8, 5, 5)).astype(np.float32)
    np.testing.assert_array_equal(twin.linear(x), layer.linear(x))
    # a plan built directly freezes the weights it views, on either executor
    executors = []
    for chan in (np.array([2]), np.arange(8)):
        raw = rng.standard_normal((4, len(chan), 3, 3)).astype(np.float32)
        plan = ops.GroupExecPlan([(np.arange(4), chan, raw)], 4, 8, 3)
        assert not raw.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            raw += 1.0
        executors.append(plan.executor)
    assert executors == ["grouped", "dense"]


def test_activations():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(ops.apply_activation(x, "relu"), [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(ops.apply_activation(x, "identity"), x)
    np.testing.assert_array_equal(
        ops.activation_backward(np.ones(3), x, "relu"), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="activation"):
        ops.apply_activation(x, "gelu")
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        ops.activation_backward(np.ones(3), x, "gelu")
