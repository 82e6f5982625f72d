"""Layer records, model forward plumbing, masking."""
import numpy as np
import pytest

from sgconv import ops
from sgconv.deploy import convert_model
from sgconv.model import (AffineLayer, ConvLayer, FcLayer, Model, apply_mask,
                          layer_forward, validate_first_conv_uncompressed)


def test_toy_cnn_shapes_and_forward(rng, toy_model):
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    out = toy_model.forward(x)
    assert out.shape == (2, 10)
    assert np.all(np.isfinite(out))
    assert toy_model.layers[0].compress is False  # first conv stays dense


def test_fc_flattens_conv_output(rng):
    w = rng.standard_normal((5, 2 * 3 * 3)).astype(np.float32)
    layer = FcLayer("fc", w)
    x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    got = layer_forward(layer, x)
    np.testing.assert_array_equal(got, ops.fc_forward(x.reshape(4, -1), w))


def test_relu_applied_after_linear(rng):
    w = rng.standard_normal((3, 4)).astype(np.float32)
    layer = FcLayer("fc", w, activation="relu")
    x = rng.standard_normal((2, 4)).astype(np.float32)
    assert np.all(layer_forward(layer, x) >= 0)


def test_affine_passthrough(rng):
    layer = AffineLayer("bn", np.array([2.0, 0.5], np.float32),
                        np.array([1.0, -1.0], np.float32))
    x = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    got = layer_forward(layer, x)
    expected = x * np.array([2.0, 0.5]).reshape(1, 2, 1, 1) + \
        np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
    np.testing.assert_allclose(got, expected, atol=1e-7)


def test_apply_mask_zeroes_whole_kernels(rng):
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    layer = ConvLayer("c", w.copy())
    layer.mask[1, 0] = False
    apply_mask(layer)
    assert np.all(layer.weight[1, 0] == 0)
    np.testing.assert_array_equal(layer.weight[0], w[0])


def test_layer_lookup(toy_model):
    assert toy_model.layer("conv2").name == "conv2"
    with pytest.raises(KeyError):
        toy_model.layer("nope")


def test_is_compressible(toy_model):
    flags = [l.compress for l in toy_model.layers]
    assert flags == [False, True, True]
    # deployed group layers and affine layers are never compressed again
    assert [l.compress for l in convert_model(toy_model).layers] == [False] * 3
    assert AffineLayer("a", np.ones(2, np.float32), np.zeros(2, np.float32)).compress is False


def test_first_conv_convention_enforced(rng):
    bad = Model(layers=[ConvLayer("c0", rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
                                  compress=True)])
    with pytest.raises(ValueError, match="compress"):
        validate_first_conv_uncompressed(bad)
    fc_only = Model(layers=[FcLayer("f", rng.standard_normal((2, 4)).astype(np.float32))])
    validate_first_conv_uncompressed(fc_only)  # vacuous without conv layers


@pytest.mark.parametrize("settings, match", [
    ({"stride": 0}, "stride must be an integer >= 1"),
    ({"stride": 1.5}, "stride must be an integer >= 1"),
    ({"stride": True}, "stride must be an integer >= 1"),
    ({"padding": -1}, "padding must be an integer >= 0"),
    ({"activation": "tanh"}, "activation 'tanh'"),
])
def test_bad_layer_settings_are_rejected_naming_the_layer(rng, settings, match):
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    with pytest.raises(ValueError, match=f"layer 'c': {match}"):
        ConvLayer("c", w, **settings)
    assert ConvLayer("c", w, stride=np.int64(2), padding=np.int64(1)).stride == 2
