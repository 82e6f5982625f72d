"""The fine-tuner against a reference step that does all of its work.

The reference is the SGD step the fine-tuner ran before it learnt to skip
work: every conv layer unfolds its input again in its backward pass, every
layer computes its input gradient, and every epoch ends with an evaluation
of the training set. Skipping that work must not change a single bit of
the weights, biases, momentum buffers or losses.
"""
import copy
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgconv import ops, pipeline
from sgconv.data import Dataset, make_blob_dataset
from sgconv.model import AffineLayer, ConvLayer, FcLayer, Model, apply_mask, build_toy_cnn
from sgconv.pipeline import TrainConfig, _softmax_cross_entropy, evaluate, sgd_finetune


def reference_finetune(model, dataset, config, velocity):
    """The full-work SGD loop; returns (per-epoch accuracy, per-epoch mean loss)."""
    rng = np.random.default_rng(config.seed)
    accuracy, losses = [], []
    n = len(dataset)
    for epoch in range(config.epochs):
        lr = config.lr * pipeline.LR_DECAY ** sum(epoch >= m for m in config.lr_milestones)
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            h, y = dataset.features[idx], dataset.labels[idx]
            caches = []
            for layer in model.layers:
                z = layer.linear(h)  # keeps nothing for the backward pass
                caches.append((layer, h, z))
                h = ops.apply_activation(z, layer.activation)
            loss, d = _softmax_cross_entropy(h, y)
            total_loss += loss * len(idx)
            grads = []
            for layer, x_in, z in reversed(caches):
                d = ops.activation_backward(d, z, layer.activation)
                d, layer_grads = layer.backward(x_in, d)  # unfolds again, always dx
                if layer_grads is not None:
                    grads.append((layer, layer_grads))
            for layer, (dw, db) in grads:
                if layer.name not in velocity:
                    velocity[layer.name] = (
                        np.zeros_like(layer.weight),
                        None if layer.bias is None else np.zeros_like(layer.bias))
                vw, vb = velocity[layer.name]
                dw = dw + pipeline.WEIGHT_DECAY * layer.weight
                vw *= pipeline.MOMENTUM
                vw += dw
                layer.weight -= (lr * vw).astype(layer.weight.dtype, copy=False)
                if layer.bias is not None:
                    vb *= pipeline.MOMENTUM
                    vb += db
                    layer.bias -= (lr * vb).astype(layer.bias.dtype, copy=False)
                apply_mask(layer)
        accuracy.append(evaluate(model, dataset)["top1"])
        losses.append(total_loss / n)
    return accuracy, losses


@st.composite
def finetune_cases(draw):
    """A small chain (conv- or fc-first, an affine layer after the first
    layer), a dataset, and a config whose batch size may not divide it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def weights(*shape):
        fan_in = int(np.prod(shape[1:]))
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)

    def bias(c):
        return (rng.standard_normal(c) * 0.1).astype(np.float32) if draw(st.booleans()) \
            else None

    def activation():
        return draw(st.sampled_from(["relu", "identity"]))

    classes = draw(st.integers(2, 4))
    layers = []
    if draw(st.booleans()):  # conv first
        c, size = draw(st.integers(1, 3)), draw(st.integers(4, 8))
        shape = input_shape = (c, size, size)
        for i in range(draw(st.integers(1, 2))):
            stride, padding = draw(st.sampled_from([1, 2])), draw(st.integers(0, 2))
            kernel = draw(st.sampled_from([1, 3] if shape[1] + 2 * padding >= 3 else [1]))
            c_out = draw(st.integers(1, 4))
            layers.append(ConvLayer(f"conv{i}", weights(c_out, shape[0], kernel, kernel),
                                    bias(c_out), stride=stride, padding=padding,
                                    activation=activation()))
            shape = layers[-1].out_shape(shape)
            if i == 0:
                layers.append(AffineLayer("bn", rng.standard_normal(c_out).astype(np.float32),
                                          rng.standard_normal(c_out).astype(np.float32),
                                          activation=activation()))
        width = int(np.prod(shape))
    else:  # fc first
        input_shape = (draw(st.integers(2, 12)),)
        hidden = draw(st.integers(1, 6))
        layers.append(FcLayer("fc0", weights(hidden, input_shape[0]), bias(hidden),
                              activation=activation()))
        layers.append(AffineLayer("bn", rng.standard_normal(hidden).astype(np.float32),
                                  rng.standard_normal(hidden).astype(np.float32),
                                  activation=activation()))
        width = hidden
    layers.append(FcLayer("head", weights(classes, width), bias(classes)))
    model = Model(layers=layers)
    for layer in model.layers:
        if layer.kind in ("conv2d", "fc"):
            layer.mask = rng.random(layer.mask.shape) >= draw(st.sampled_from([0.0, 0.3, 0.6]))
            apply_mask(layer)

    batch_size = draw(st.integers(1, 6))
    count = batch_size * draw(st.integers(1, 3)) + draw(st.integers(0, batch_size - 1))
    dataset = Dataset(features=rng.standard_normal((count, *input_shape)).astype(np.float32),
                      labels=rng.integers(0, classes, count).astype(np.int32),
                      num_classes=classes)
    config = TrainConfig(epochs=draw(st.integers(1, 3)), batch_size=batch_size,
                         lr=draw(st.sampled_from([0.01, 0.05])),
                         lr_milestones=draw(st.sampled_from([(), (1,)])),
                         seed=draw(st.integers(0, 99)))
    return model, dataset, config


def finetune_recording_velocity(model, dataset, config):
    """sgd_finetune, plus its momentum buffers by layer name, recorded as
    np.zeros_like creates them from a layer's weight or bias."""
    created = []
    zeros_like = np.zeros_like

    def recording(a, *args, **kwargs):
        buffer = zeros_like(a, *args, **kwargs)
        created.append((a, buffer))
        return buffer

    with mock.patch.object(pipeline.np, "zeros_like", recording):
        losses = sgd_finetune(model, dataset, config)
    # weights and biases are updated in place, so each keeps its identity
    buffers = {id(a): buffer for a, buffer in created}
    velocity = {layer.name: (buffers[id(layer.weight)],
                             None if layer.bias is None else buffers[id(layer.bias)])
                for layer in model.layers if layer.kind in ("conv2d", "fc")}
    return losses, velocity


@settings(max_examples=150)
@given(finetune_cases())
def test_finetune_matches_full_work_reference(case):
    model, dataset, config = case
    reference, ref_velocity = copy.deepcopy(model), {}
    _, ref_losses = reference_finetune(reference, dataset, config, ref_velocity)
    losses, velocity = finetune_recording_velocity(model, dataset, config)
    assert losses == ref_losses
    for got, want in zip(model.layers, reference.layers):
        if got.kind == "affine_passthrough":
            continue
        np.testing.assert_array_equal(got.weight, want.weight)
        if want.bias is not None:
            np.testing.assert_array_equal(got.bias, want.bias)
    assert velocity.keys() == ref_velocity.keys()
    for name, (vw, vb) in ref_velocity.items():
        np.testing.assert_array_equal(velocity[name][0], vw)
        if vb is not None:
            np.testing.assert_array_equal(velocity[name][1], vb)


def test_one_step_unfolds_each_conv_input_once(monkeypatch):
    # toy net: conv1 (3x8x8 input), conv2 (8x6x6 input), fc1
    calls = {"_im2col": [], "_conv_input_grad": []}
    for name, shape_of in (("_im2col", lambda a: a[0].shape),
                           ("_conv_input_grad", lambda a: a[2])):
        real = getattr(ops, name)

        def counted(*args, _real=real, _calls=calls[name], _shape_of=shape_of):
            _calls.append(tuple(_shape_of(args)))
            return _real(*args)

        monkeypatch.setattr(ops, name, counted)
    train = make_blob_dataset(16, seed=0)
    sgd_finetune(build_toy_cnn(0), train, TrainConfig(epochs=1, batch_size=16, seed=0))
    assert calls == {"_im2col": [(16, 3, 8, 8), (16, 8, 6, 6)],
                     "_conv_input_grad": [(16, 8, 6, 6)]}


def test_finetune_returns_mean_epoch_loss():
    train = make_blob_dataset(50, seed=3)
    model = build_toy_cnn(3)
    # lr 0 leaves the model as it is: each epoch's loss is the dataset's mean loss
    losses = sgd_finetune(model, train, TrainConfig(epochs=2, batch_size=16, lr=0.0, seed=3))
    expected, _ = _softmax_cross_entropy(model.forward(train.features), train.labels)
    np.testing.assert_allclose(losses, [expected, expected], rtol=1e-5)
    trained = sgd_finetune(model, train, TrainConfig(epochs=4, lr=0.01, seed=3))
    assert trained[-1] < trained[0]
