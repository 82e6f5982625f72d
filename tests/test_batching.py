"""Batch sizing for whole-input-set forwards: evaluate and the equivalence check.

``deploy.batch_size_for`` picks the largest batch, at most 512, for which
no layer bills more than ``deploy.BATCH_MACS`` multiply-adds. These
properties draw random conv/affine/fc chains (pruned in groups and
deployed) and datasets, and check that the split changes no accuracy and
no conv or affine output bit.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group_assignment, random_group_mask
from sgconv import deploy
from sgconv.data import Dataset
from sgconv.deploy import batch_size_for, convert_model
from sgconv.model import (AffineLayer, ConvLayer, FcLayer, Model, apply_mask,
                          build_toy_cnn, layer_forward)
from sgconv.pipeline import evaluate


def random_net(rng, num_classes):
    """A chain of 1-4 conv and affine layers on a small image, pruned in groups,
    then an fc head with ``num_classes`` outputs; and its sample shape."""
    c_in, size = int(rng.integers(1, 6)), int(rng.integers(3, 12))
    shape = (c_in, size, size)
    layers = []
    for i in range(int(rng.integers(1, 5))):
        if rng.random() < 0.25:
            scale = rng.standard_normal(shape[0]).astype(np.float32)
            layers.append(AffineLayer(f"bn{i}", scale, scale[::-1].copy(),
                                      activation=str(rng.choice(["identity", "relu"]))))
            continue
        kernel = int(rng.choice([1, 3])) if min(shape[1:]) >= 3 else 1
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        c_out = int(rng.integers(1, 17))
        weight = rng.standard_normal((c_out, shape[0], kernel, kernel)).astype(np.float32)
        layer = ConvLayer(f"conv{i}", weight, rng.standard_normal(c_out).astype(np.float32),
                          activation="relu", compress=bool(layers), stride=stride,
                          padding=padding)
        layers.append(layer)
        shape = layer.out_shape(shape)
    width = int(np.prod(shape))
    layers.append(FcLayer("fc", rng.standard_normal((num_classes, width)).astype(np.float32),
                          rng.standard_normal(num_classes).astype(np.float32)))
    model = Model(layers)
    for layer in model.layers:
        if getattr(layer, "compress", False):
            assignment = random_group_assignment(rng, layer.mask.shape[0],
                                                 int(rng.integers(1, 5)))
            layer.grouping = assignment
            layer.mask = random_group_mask(rng, assignment, layer.mask.shape[1])
            apply_mask(layer)
    return model, (c_in, size, size)


def largest_layer_macs(model, shape):
    largest = 0
    for layer in model.layers:
        largest = max(largest, layer.macs(shape))
        shape = layer.out_shape(shape)
    return largest


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40),
       num_classes=st.integers(2, 8), batch_macs=st.integers(1, 2 ** 16))
def test_split_changes_no_accuracy_and_no_conv_or_affine_bit(seed, count, num_classes,
                                                             batch_macs):
    rng = np.random.default_rng(seed)
    model, shape = random_net(rng, num_classes)
    x = rng.standard_normal((count, *shape)).astype(np.float32)
    dataset = Dataset(x, rng.integers(0, num_classes, count).astype(np.int32), num_classes)
    with mock.patch.object(deploy, "BATCH_MACS", batch_macs):
        results = [evaluate(model, dataset, batch_size=b) for b in (1, 2, 7, None, 512)]
    assert all(r == results[0] for r in results[1:]), results

    cuts = np.sort(rng.integers(0, count + 1, int(rng.integers(1, 4))))
    for net in (model, convert_model(model)):
        h = x
        for layer in net.layers[:-1]:  # every conv, affine and group-conv layer
            whole = layer_forward(layer, h)
            parts = [layer_forward(layer, p) for p in np.split(h, cuts) if len(p)]
            split = np.concatenate(parts)
            assert split.dtype == whole.dtype and split.shape == whole.shape
            assert split.tobytes() == whole.tobytes(), layer.name
            h = whole


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), batch_macs=st.integers(1, 2 ** 40))
def test_batch_is_the_largest_within_the_mac_budget(seed, batch_macs):
    rng = np.random.default_rng(seed)
    model, shape = random_net(rng, int(rng.integers(2, 9)))
    largest = largest_layer_macs(model, shape)
    with mock.patch.object(deploy, "BATCH_MACS", batch_macs):
        b = batch_size_for(model, shape)
    assert 1 <= b <= deploy.MAX_BATCH == 512
    assert b == 1 or b * largest <= batch_macs
    assert b == deploy.MAX_BATCH or (b + 1) * largest > batch_macs


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_toy_net_gets_the_whole_batch(seed):
    assert batch_size_for(build_toy_cnn(seed), (3, 8, 8)) == 512


def test_evaluate_forwards_in_batches_of_the_sized_batch(monkeypatch):
    model = build_toy_cnn(0)
    monkeypatch.setattr(deploy, "BATCH_MACS", 7 * model.layer("conv2").macs((8, 6, 6)))
    sizes = []
    real = Model.forward
    monkeypatch.setattr(Model, "forward",
                        lambda self, x: sizes.append(len(x)) or real(self, x))
    evaluate(model, Dataset(np.zeros((40, 3, 8, 8), np.float32), np.zeros(40, np.int32), 2))
    assert sizes == [7, 7, 7, 7, 7, 5]


def test_wide_convs_get_mac_bounded_batches():
    """64-channel 3x3 convs: 9.4 M MACs per sample on 16x16 and 37.7 M on
    32x32, so batches of 14 and 3, each unfolding about 8 MiB."""
    for size, batch in ((16, 14), (32, 3)):
        conv = ConvLayer("conv", np.zeros((64, 64, 3, 3), np.float32), padding=1)
        assert batch_size_for(Model([conv]), (64, size, size)) == batch
        assert batch * 64 * 9 * size * size * 4 <= 8 * 2 ** 20
