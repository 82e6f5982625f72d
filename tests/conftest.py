import numpy as np
import pytest
from hypothesis import settings

from sgconv.model import ConvLayer, FcLayer, Model, apply_mask, build_toy_cnn

# Property tests draw the same examples on every run, with no per-example
# time limit, so a slow or busy machine cannot fail them by chance.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def toy_model():
    return build_toy_cnn(seed=7)


def random_group_assignment(rng, c_out, num_groups):
    """Assignment using every group id at least once."""
    num_groups = min(num_groups, c_out)
    assignment = np.concatenate([np.arange(num_groups),
                                 rng.integers(0, num_groups, c_out - num_groups)])
    return assignment[rng.permutation(c_out)].astype(np.int64)


def random_group_mask(rng, assignment, c_in, kill_prob=0.3):
    """Group-granular mask: whole (group, channel) bundles die together."""
    num_groups = int(assignment.max()) + 1
    element_dead = rng.random((num_groups, c_in)) < kill_prob
    return ~element_dead[assignment]


def random_chain_model(rng, max_layers=4, max_channels=32):
    """Random conv chain (optionally fc head) with group-granular prunings."""
    depth = int(rng.integers(1, max_layers + 1))
    c_in = int(rng.integers(1, max_channels + 1))
    size = int(rng.integers(6, 11))
    layers = []
    shape = (c_in, size, size)
    for i in range(depth):
        last = i == depth - 1
        as_fc = last and i > 0 and rng.random() < 0.4
        if as_fc:
            width = int(np.prod(shape))
            c_out = int(rng.integers(1, max_channels + 1))
            weight = (rng.standard_normal((c_out, width))
                      * np.sqrt(2.0 / width)).astype(np.float32)
            bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
            layer = FcLayer(f"fc{i}", weight, bias, activation="identity", compress=True)
        else:
            kernel = int(rng.choice([1, 3])) if shape[1] >= 3 else 1
            c_out = int(rng.integers(1, max_channels + 1))
            fan_in = shape[0] * kernel * kernel
            weight = (rng.standard_normal((c_out, shape[0], kernel, kernel))
                      * np.sqrt(2.0 / fan_in)).astype(np.float32)
            bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
            layer = ConvLayer(f"conv{i}", weight, bias, stride=1, padding=0,
                              activation="relu" if not last else "identity",
                              compress=i > 0)
            shape = (c_out, shape[1] - kernel + 1, shape[2] - kernel + 1)
        layers.append(layer)
    model = Model(layers=layers)
    for layer in model.layers:
        if layer.kind in ("conv2d", "fc") and layer.compress:
            c_out, c_in_l = layer.mask.shape
            assignment = random_group_assignment(rng, c_out, int(rng.integers(1, 5)))
            layer.grouping = assignment
            layer.mask = random_group_mask(rng, assignment, c_in_l)
            apply_mask(layer)
    return model, (c_in, size, size)
