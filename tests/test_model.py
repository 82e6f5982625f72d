"""Layer records, model forward plumbing, masking."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group_assignment, random_group_mask
from sgconv import ops
from sgconv.deploy import convert_layer, convert_model
from sgconv.io import KINDS, load_model, save_model, sgm_paths
from sgconv.model import (MAX_LAYER_VALUES, AffineLayer, ConvLayer, FcLayer, GroupBlock,
                          GroupConvLayer, Model, apply_mask, layer_forward,
                          validate_first_conv_uncompressed)


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
    ({"stride": 0}, "stride must be >= 1, got 0"),
    ({"stride": 1.5}, "stride must be an integer >= 1"),
    ({"stride": True}, "stride must be an integer >= 1"),
    ({"padding": -1}, "padding must be >= 0, got -1"),
    ({"activation": "tanh"}, "activation 'tanh'"),
    ({"weight": np.zeros((2, 3, 3, 5), np.float32)}, r"weight shape \(2, 3, 3, 5\) is not "
     r"\(out_channels, in_channels, kernel_size, kernel_size\)"),
    ({"weight": np.zeros((2, 3, 3), np.float32)}, r"weight shape \(2, 3, 3\) is not"),
    ({"bias": np.zeros(5, np.float32)}, r"bias shape \(5,\) is not \(2,\)"),
    ({"bias": np.zeros((2, 1), np.float32)}, r"bias shape \(2, 1\) is not \(2,\)"),
    ({"mask": np.ones((2, 1), np.uint8)}, r"mask must be a bool \(2, 1\) array, got uint8"),
    ({"mask": np.ones((1, 2), bool)}, r"mask must be a bool \(2, 1\) array, got bool \(1, 2\)"),
    ({"layer": FcLayer, "weight": np.zeros((2, 1, 1, 1), np.float32)},
     r"weight shape \(2, 1, 1, 1\) is not \(out_features, in_features\)"),
    ({"layer": FcLayer, "bias": np.zeros(1, np.float32)}, r"bias shape \(1,\) is not \(2,\)"),
    ({"layer": AffineLayer, "shift": np.zeros(3, np.float32)},
     r"scale and shift must both be \(C,\), got \(2,\) and \(3,\)"),
    ({"layer": AffineLayer, "scale": np.ones((2, 1), np.float32)},
     r"scale and shift must both be \(C,\), got \(2, 1\) and \(2,\)"),
])
def test_bad_layer_settings_are_rejected_naming_the_layer(rng, settings, match):
    w = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
    settings = dict(settings)
    layer = settings.pop("layer", ConvLayer)
    arrays = {ConvLayer: {"weight": w}, FcLayer: {"weight": w[:, :, 0, 0]},
              AffineLayer: {"scale": np.ones(2, np.float32), "shift": np.zeros(2, np.float32)}}
    with pytest.raises(ValueError, match=f"layer 'c': {match}"):
        layer("c", **{**arrays[layer], **settings})
    assert ConvLayer("c", w, stride=np.int64(2), padding=np.int64(1)).stride == 2


@pytest.mark.parametrize("source", ["conv2d", "fc"])
def test_group_layer_rejects_a_bias_that_is_not_one_per_filter(rng, source):
    kernel = 3 if source == "conv2d" else 1
    block = GroupBlock(np.arange(2), np.arange(3),
                       rng.standard_normal((2, 3, kernel, kernel)).astype(np.float32))
    for bias, shown in ((np.zeros(5, np.float32), r"\(5,\)"),
                        (np.zeros((2, 1), np.float32), r"\(2, 1\)")):
        with pytest.raises(ValueError, match=rf"layer 'g': bias shape {shown} is not \(2,\)"):
            GroupConvLayer("g", [block], in_channels=3, out_channels=2, kernel=kernel,
                           bias=bias, source=source)
        assert block.weight.flags.writeable  # a failed construction freezes nothing
    GroupConvLayer("g", [block], in_channels=3, out_channels=2, kernel=kernel,
                   bias=np.zeros(2, np.float32), source=source)


def test_numpy_integer_sizes_and_settings_are_stored_as_python_ints(rng, tmp_path):
    """A numpy integer given for a size, stride or padding is stored as the
    int it equals; kept as numpy's, it ran but failed the save with JSON's
    TypeError."""
    conv = ConvLayer("c1", rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
                     stride=np.int64(1), padding=np.int64(1), compress=False)
    block = GroupBlock(np.arange(2), np.arange(2),
                       rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
    group = GroupConvLayer("g", [block], in_channels=np.int32(2), out_channels=np.int64(2),
                           kernel=np.int64(3), stride=np.uint8(1), padding=np.int64(1))
    model = Model([conv, group], input_shape=(3, 5, 5))
    x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
    manifest, blob = sgm_paths(tmp_path / "m")
    save_model(model, manifest, blob)
    loaded = load_model(manifest, blob)
    for layer in (conv, group, *loaded.layers):
        assert type(layer.stride) is int and type(layer.padding) is int, layer.name
    for layer in (group, loaded.layers[1]):
        assert {type(layer.in_channels), type(layer.out_channels), type(layer.kernel)} == {int}
    np.testing.assert_array_equal(loaded.forward(x), model.forward(x))


@pytest.mark.parametrize("key, value, field", [
    ("in_channels", 2.0, "in_channels"), ("out_channels", "2", "out_channels"),
    ("kernel", 3.0, "kernel_size"), ("kernel", True, "kernel_size"),
    ("out_channels", np.float64(2), "out_channels")])
def test_group_layer_refuses_a_size_that_is_not_an_integer(rng, key, value, field):
    """numpy's TypeError on a float size named no layer and no field."""
    block = GroupBlock(np.arange(2), np.arange(2),
                       rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
    sizes = {"in_channels": 2, "out_channels": 2, "kernel": 3, key: value}
    with pytest.raises(ValueError, match=f"layer 'g': {field} must be an integer >= 1, "
                                         f"got {re.escape(repr(value))}"):
        GroupConvLayer("g", [block], **sizes)


def test_conv_shape_walk_caps_padded_input_and_output_per_sample():
    wide = ConvLayer("wide", np.zeros((2, 1, 1, 1), np.float32))
    assert wide.out_shape((1, 11585, 11585)) == (2, 11585, 11585)  # input under the cap
    with pytest.raises(ValueError, match=rf"layer 'wide': output \(2, 11586, 11586\) holds "
                                         rf"more than {MAX_LAYER_VALUES} values"):
        wide.out_shape((1, 11586, 11586))
    padded = ConvLayer("padded", np.zeros((1, 3, 3, 3), np.float32), padding=10**4)
    with pytest.raises(ValueError, match=r"layer 'padded': padded input \(3, 20008, 20008\)"):
        padded.out_shape((3, 8, 8))


def random_layer(data, shape):
    """A layer of one of the kinds in io.KINDS, group layers converted from conv
    or fc, whose input width or channel count matches ``shape`` about half the time."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["conv2d", "fc", "affine_passthrough",
                                      "groupconv", "groupfc"]), label="kind")
    match = data.draw(st.booleans(), label="match")
    c_in = data.draw(st.integers(1, 4), label="c_in")
    if match and shape:  # no layer has 0 channels, so a 0-channel shape cannot match
        c_in = max(1, shape[0] if kind in ("conv2d", "groupconv", "affine_passthrough")
                   else int(np.prod(shape)))
    if kind == "affine_passthrough":
        return AffineLayer("l", rng.standard_normal(c_in).astype(np.float32),
                           rng.standard_normal(c_in).astype(np.float32))
    c_out = data.draw(st.integers(1, 4), label="c_out")
    bias = rng.standard_normal(c_out).astype(np.float32)
    if kind in ("conv2d", "groupconv"):
        kernel = data.draw(st.integers(1, 3), label="kernel")
        layer = ConvLayer("l", rng.standard_normal((c_out, c_in, kernel, kernel)).astype(
            np.float32), bias, stride=data.draw(st.integers(1, 2), label="stride"),
            padding=data.draw(st.integers(0, 2), label="padding"))
    else:
        layer = FcLayer("l", rng.standard_normal((c_out, c_in)).astype(np.float32), bias)
    if kind.startswith("group"):
        layer.grouping = random_group_assignment(rng, c_out, int(rng.integers(1, 4)))
        layer.mask = random_group_mask(rng, layer.grouping, c_in)
        apply_mask(layer)
        layer = convert_layer(layer)
    assert type(layer) in KINDS.values()
    return layer


def value_error(run):
    """The message of the ValueError ``run()`` raises, or None if it returns."""
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400)
@given(data=st.data())
def test_shape_walk_and_forward_refuse_the_same_samples_alike(data):
    """out_shape(shape) raises exactly when linear() does on a batch of samples
    of that shape, with the same message; when both run, they agree on the
    output shape."""
    shape = tuple(data.draw(st.lists(st.integers(0, 6), max_size=4), label="shape"))
    layer = random_layer(data, shape)
    x = np.zeros((2, *shape), np.float32)
    walk = value_error(lambda: layer.out_shape(shape))
    assert walk == value_error(lambda: layer.linear(x)), (layer.kind, shape)
    if walk is None:
        assert layer.linear(x).shape == (2, *layer.out_shape(shape))
