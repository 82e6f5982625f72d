"""Importance matrices against absolute-sum oracles."""
import numpy as np
import pytest

from sgconv.importance import importance_conv, layer_importance
from sgconv.model import AffineLayer, ConvLayer, FcLayer


def abs_sum_oracle(weight):
    """Per-(filter, channel) sum of absolute kernel entries, explicit loops."""
    c_out, c_in = weight.shape[:2]
    out = np.zeros((c_out, c_in))
    for i in range(c_out):
        for j in range(c_in):
            out[i, j] = np.abs(weight[i, j]).sum()
    return out


def test_conv_kernel_abs_sum():
    w = np.array([1.0, -2.0, 3.0, -4.0], np.float32).reshape(1, 1, 2, 2)
    mask = np.ones((1, 1), bool)
    assert importance_conv(w, mask)[0, 0] == 10.0


def test_pruned_connection_scores_zero(rng):
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    mask = np.ones((3, 2), bool)
    mask[1, 0] = False
    v = importance_conv(w, mask)
    assert v[1, 0] == 0.0
    assert np.all(v[mask] > 0) or np.any(w == 0)  # generic weights: alive entries positive


def test_conv_matches_loop_oracle(rng):
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    mask = np.ones((4, 3), bool)
    np.testing.assert_allclose(importance_conv(w, mask), abs_sum_oracle(w), atol=1e-6)


# an fc weight is a kernel-1 conv weight: its importance is the absolute value
def test_fc_absolute_value():
    w = np.array([[-0.5]], np.float32).reshape(1, 1, 1, 1)
    assert importance_conv(w, np.ones((1, 1), bool))[0, 0] == 0.5


def test_fc_zero_row(rng):
    w = rng.standard_normal((3, 5, 1, 1)).astype(np.float32)
    w[1] = 0
    v = importance_conv(w, np.ones((3, 5), bool))
    assert np.all(v[1] == 0)


def test_fc_matches_elementwise_oracle(rng):
    w = rng.standard_normal((10, 20)).astype(np.float32)
    mask = np.ones((10, 20), bool)
    np.testing.assert_array_equal(importance_conv(w.reshape(10, 20, 1, 1), mask), np.abs(w))
    layer = FcLayer("f", w)
    np.testing.assert_array_equal(layer_importance(layer), np.abs(w))


def test_nonnegative_and_zero_exactly_where_masked(rng):
    for _ in range(10):
        w = rng.standard_normal((6, 5, 3, 3)).astype(np.float32)
        mask = rng.random((6, 5)) > 0.4
        v = importance_conv(w, mask)
        assert np.all(v >= 0)
        assert np.all(v[~mask] == 0)


def test_scaling_homogeneity(rng):
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    mask = np.ones((4, 3), bool)
    lam = np.float32(3.5)
    np.testing.assert_allclose(importance_conv(lam * w, mask),
                               lam * importance_conv(w, mask), rtol=1e-6)


def test_layer_dispatch(rng):
    conv = ConvLayer("c", rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
    fc = FcLayer("f", rng.standard_normal((2, 4)).astype(np.float32))
    assert layer_importance(conv).shape == (2, 2)
    assert layer_importance(fc).shape == (2, 4)
    affine = AffineLayer("a", np.ones(2, np.float32), np.zeros(2, np.float32))
    with pytest.raises(ValueError, match="importance"):
        layer_importance(affine)
