"""Block layout, conversion equivalence, params/FLOPs accounting."""
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain_model
from sgconv import deploy
from sgconv.deploy import (GranularityError, convert_layer,
                           convert_model, count_flops, count_params,
                           layer_deviations, verify_equivalence, EquivalenceError)
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import (ConvLayer, FcLayer, GroupBlock, Model, apply_mask,
                          build_toy_cnn)
from sgconv.pruning import model_ratios


def blocks_of(assignment, mask):
    """convert_layer's blocks for an fc layer with this grouping and mask, as
    (filter_indices, channel_indices) pairs."""
    mask = np.asarray(mask)
    layer = FcLayer("fc", np.ones(mask.shape, np.float32), mask=mask.copy(),
                    grouping=np.asarray(assignment, dtype=np.int64))
    apply_mask(layer)
    return [(g.filter_indices, g.channel_indices) for g in convert_layer(layer).groups]


def test_plan_single_cluster_nothing_pruned():
    blocks = blocks_of(np.zeros(4, dtype=np.int64), np.ones((4, 3), bool))
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0][0], [0, 1, 2, 3])
    np.testing.assert_array_equal(blocks[0][1], [0, 1, 2])
    np.testing.assert_array_equal(np.concatenate([f for f, _ in blocks]), [0, 1, 2, 3])


def test_plan_fixture_with_ignored_channel():
    # clusters {0,2} keep channels {0,1}; {1} keeps {2}; channel 3 ignored
    assignment = np.array([0, 1, 0])
    mask = np.array([[True, True, False, False],
                     [False, False, True, False],
                     [True, True, False, False]])
    blocks = blocks_of(assignment, mask)
    np.testing.assert_array_equal(blocks[0][0], [0, 2])
    np.testing.assert_array_equal(blocks[0][1], [0, 1])
    np.testing.assert_array_equal(blocks[1][0], [1])
    np.testing.assert_array_equal(blocks[1][1], [2])
    gathered = np.concatenate([c for _, c in blocks])
    assert 3 not in gathered


def test_plan_shared_channel():
    assignment = np.array([0, 1])
    mask = np.array([[True, True, False],
                     [False, True, True]])
    blocks = blocks_of(assignment, mask)
    assert 1 in blocks[0][1] and 1 in blocks[1][1]  # reused channel


def test_plan_granularity_violation():
    assignment = np.array([0, 0])
    mask = np.array([[True, False], [True, True]])
    with pytest.raises(GranularityError, match="'fc' group 0: .* different channel masks"):
        blocks_of(assignment, mask)


def test_plan_empty_channel_group():
    assignment = np.array([0, 1])
    mask = np.array([[False, False], [True, True]])
    blocks = blocks_of(assignment, mask)
    assert len(blocks[0][1]) == 0
    # output side is a true permutation regardless
    np.testing.assert_array_equal(np.sort(np.concatenate([f for f, _ in blocks])), [0, 1])


def test_selection_matrix_properties(rng):
    # gather rows each pick exactly one channel; columns may repeat or vanish
    assignment = np.array([0, 1, 0, 2])
    mask = np.array([[True, True, False, False],
                     [False, True, True, False],
                     [True, True, False, False],
                     [False, True, False, False]])
    blocks = blocks_of(assignment, mask)
    gathered = np.concatenate([c for _, c in blocks])
    counts = np.bincount(gathered, minlength=4)
    assert counts[1] == 3   # reused by all three groups
    assert counts[3] == 0   # ignored everywhere
    perm = np.concatenate([f for f, _ in blocks])
    assert np.array_equal(np.sort(perm), np.arange(4))  # bijection


def test_convert_unpruned_single_group_bit_exact(rng):
    model = build_toy_cnn(2)
    deployed = convert_model(model)
    x = rng.standard_normal((100, 3, 8, 8)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x), deployed.forward(x))
    assert count_params(deployed) == count_params(model)


def test_convert_pruned_toy_matches_masked_dense(rng):
    model = build_toy_cnn(4)
    conv = model.layer("conv2")
    conv.grouping = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
    for gid, cols in [(0, [0, 5]), (1, [1, 2, 6]), (2, [3]), (3, [4, 7])]:
        conv.mask[np.ix_(conv.grouping == gid, cols)] = False
    apply_mask(conv)
    fc = model.layer("fc1")
    fc.grouping = np.array([0] * 5 + [1] * 5, dtype=np.int64)
    fc.mask[np.ix_(fc.grouping == 0, np.arange(0, 128, 2))] = False
    fc.mask[np.ix_(fc.grouping == 1, np.arange(1, 128, 2))] = False
    apply_mask(fc)
    deployed = convert_model(model)
    assert verify_equivalence(model, deployed, (3, 8, 8), seed=0) <= 1e-5


def test_convert_strided_padded_conv(rng):
    w1 = (rng.standard_normal((6, 3, 3, 3)) * 0.27).astype(np.float32)
    w2 = (rng.standard_normal((8, 6, 3, 3)) * 0.19).astype(np.float32)
    model = Model(layers=[
        ConvLayer("c1", w1, stride=2, padding=1, activation="relu", compress=False),
        ConvLayer("c2", w2, stride=2, padding=1, activation="relu", compress=True),
    ])
    c2 = model.layer("c2")
    c2.grouping = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
    c2.mask[np.ix_([0, 1], [0, 3])] = False
    c2.mask[np.ix_([4, 5], [1, 2, 5])] = False
    apply_mask(c2)
    deployed = convert_model(model)
    assert deployed.layer("c2").stride == 2 and deployed.layer("c2").padding == 1
    dev = layer_deviations(model, deployed, (3, 16, 16), n_inputs=50, seed=1)[-1]
    assert dev <= 1e-5


def test_convert_fc_same_code_path(rng):
    w = rng.standard_normal((6, 10)).astype(np.float32)
    layer = FcLayer("fc", w, bias=rng.standard_normal(6).astype(np.float32))
    layer.grouping = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    layer.mask[np.ix_(layer.grouping == 0, [1, 4])] = False
    layer.mask[np.ix_(layer.grouping == 1, [0, 2, 9])] = False
    apply_mask(layer)
    model = Model(layers=[layer])
    deployed = convert_model(model)
    assert deployed.layers[0].kind == "groupconv"
    assert deployed.layers[0].source == "fc"
    x = rng.standard_normal((20, 10)).astype(np.float32)
    assert np.abs(model.forward(x) - deployed.forward(x)).max() <= 1e-5


def test_convert_missing_grouping_on_pruned_layer(rng):
    layer = FcLayer("fc", rng.standard_normal((4, 6)).astype(np.float32))
    layer.mask[:, 0] = False
    apply_mask(layer)
    with pytest.raises(ValueError, match="grouping"):
        convert_layer(layer)


def corrupt_first_block(deployed, name, delta=0.1):
    """The deployed model with layer ``name`` rebuilt from its blocks, the
    first block's weights shifted by ``delta``: deployed block weights are
    read-only, so corruption means building a new layer."""
    layer = deployed.layer(name)
    blocks = [GroupBlock(g.filter_indices, g.channel_indices,
                         g.weight + (delta if i == 0 else 0.0))
              for i, g in enumerate(layer.groups)]
    bad = dataclasses.replace(layer, groups=blocks)
    return Model(layers=[bad if l.name == name else l for l in deployed.layers])


def test_equivalence_check_raises_on_corruption(rng):
    model = build_toy_cnn(6)
    deployed = corrupt_first_block(convert_model(model), "conv2")
    with pytest.raises(EquivalenceError, match="max abs deviation"):
        verify_equivalence(model, deployed, (3, 8, 8), seed=0)


def test_failed_equivalence_check_names_the_first_layer_over_tolerance(monkeypatch):
    model = build_toy_cnn(6)
    deployed = corrupt_first_block(convert_model(model), "conv2")
    calls = []

    def counted(layer, x, _real=deploy.layer_forward):
        calls.append(layer.name)
        return _real(layer, x)

    monkeypatch.setattr(deploy, "layer_forward", counted)
    with pytest.raises(EquivalenceError, match="first layer over tolerance: 'conv2'"):
        verify_equivalence(model, deployed, (3, 8, 8), seed=0)
    # one batch of 100 inputs, each layer run once per model: no rerun to find the layer
    assert calls == ["conv1", "conv1", "conv2", "conv2", "fc1", "fc1"]


def test_equivalence_check_needs_an_input():
    model = build_toy_cnn(6)
    for count in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match=f"n_inputs={count}"):
            verify_equivalence(model, convert_model(model), (3, 8, 8), n_inputs=count)
        with pytest.raises(ValueError, match=f"n_inputs={count}"):
            layer_deviations(model, convert_model(model), (3, 8, 8), n_inputs=count)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, [], [2, -1], np.float64(2)])
def test_equivalence_check_refuses_a_bad_seed_naming_it(seed):
    """numpy refused -1 and 1.5 without naming the seed, and took True as 1."""
    model = build_toy_cnn(6)
    for check in (verify_equivalence, layer_deviations):
        with pytest.raises(ValueError, match=r"equivalence check: seed must be an integer "
                                             r">= 0 or a non-empty sequence of them"):
            check(model, convert_model(model), (3, 8, 8), n_inputs=4, seed=seed)
    assert layer_deviations(model, convert_model(model), (3, 8, 8), n_inputs=4,
                            seed=np.int64(3))[-1] <= 1e-5


def test_models_without_layers_deviate_by_0():
    empty = Model(layers=[])
    assert layer_deviations(empty, empty, (3, 4, 4)).size == 0
    assert verify_equivalence(empty, empty, (3, 4, 4)) == 0.0


def test_equivalence_check_raises_on_nan_output():
    model = build_toy_cnn(6)
    deployed = convert_model(model)
    deployed.layer("fc1").bias[0] = np.nan
    with pytest.raises(EquivalenceError, match="deviation nan"):
        verify_equivalence(model, deployed, (3, 8, 8), seed=0)


def toy_in_batches_of_7(monkeypatch, model):
    """Lower the MAC budget so that the toy net's equivalence check runs its
    100 inputs in 15 batches of at most 7."""
    monkeypatch.setattr(deploy, "BATCH_MACS", 7 * model.layer("conv2").macs((8, 6, 6)))
    assert deploy.batch_size_for(model, (3, 8, 8)) == 7


def test_many_batch_check_names_the_first_layer_over_tolerance(monkeypatch):
    model = build_toy_cnn(6)
    toy_in_batches_of_7(monkeypatch, model)
    deployed = corrupt_first_block(convert_model(model), "conv2")
    with pytest.raises(EquivalenceError, match="first layer over tolerance: 'conv2'"):
        verify_equivalence(model, deployed, (3, 8, 8), seed=0)


def test_many_batch_check_fails_on_a_nan_in_one_middle_batch(monkeypatch):
    model = build_toy_cnn(6)
    toy_in_batches_of_7(monkeypatch, model)

    def one_nan_input(*args, _real=deploy._batches):
        for i, x in enumerate(_real(*args)):
            if i == 7:
                x[1, 0, 0, 0] = np.nan  # input 50, in batch 8 of 15
            yield x

    monkeypatch.setattr(deploy, "_batches", one_nan_input)
    with pytest.raises(EquivalenceError,
                       match=r"deviation nan .*first layer over tolerance: 'conv1' \(nan\)"):
        verify_equivalence(model, convert_model(model), (3, 8, 8), seed=0)


def test_many_batch_deviation_of_a_conv_net_equals_the_whole_batch_one(monkeypatch):
    toy = build_toy_cnn(6)
    model = Model(layers=toy.layers[:2])  # conv1 and conv2: no fc layer
    deployed = corrupt_first_block(convert_model(toy), "conv2", delta=1e-3)
    deployed = Model(layers=deployed.layers[:2])
    whole = layer_deviations(model, deployed, (3, 8, 8), n_inputs=100, seed=4)[-1]
    toy_in_batches_of_7(monkeypatch, toy)
    assert deploy.batch_size_for(model, (3, 8, 8)) == 7
    assert layer_deviations(model, deployed, (3, 8, 8), n_inputs=100, seed=4)[-1] == whole
    assert whole > 0


@settings(max_examples=60)
@given(count=st.integers(1, 300), step=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_batched_inputs_are_the_bytes_of_one_draw(count, step, seed):
    batches = list(deploy._batches(step, (3, 4, 4), count, seed))
    assert [len(x) for x in batches] == [min(step, count - lo) for lo in range(0, count, step)]
    whole = np.random.default_rng(seed).standard_normal((count, 3, 4, 4)).astype(np.float32)
    assert np.concatenate(batches).tobytes() == whole.tobytes()


def test_huge_check_draws_its_inputs_batch_by_batch(monkeypatch):
    """10**9 inputs of the toy net would take 1.4 TiB at once; drawn batch by
    batch, the check gets as far as the first layer forward of its third batch."""
    class Third(Exception):
        pass

    model = build_toy_cnn(6)
    calls, forward = [], deploy.layer_forward
    monkeypatch.setattr(deploy, "WORKERS", 1)  # one thread: the calls come in batch order

    def forward_until_third(layer, x):
        calls.append(len(x))
        if len(calls) == 13:  # 3 layers, each run by the original and deployed model
            raise Third
        return forward(layer, x)

    monkeypatch.setattr(deploy, "layer_forward", forward_until_third)
    with pytest.raises(Third):
        verify_equivalence(model, convert_model(model), (3, 8, 8), n_inputs=10**9)
    assert calls == [512] * 13


def test_threaded_check_inputs_are_the_bytes_of_one_draw(monkeypatch):
    """On the caller and two more threads, the check's 15 batches of at most 7
    are the slices of one draw of its 100 inputs, each forwarded once."""
    monkeypatch.setattr(deploy, "WORKERS", 3)
    model = build_toy_cnn(6)
    toy_in_batches_of_7(monkeypatch, model)
    deployed, seen, forward = convert_model(model), [], deploy.layer_forward

    def record_inputs(layer, x):
        if layer is model.layers[0]:
            seen.append(x.tobytes())
        return forward(layer, x)

    monkeypatch.setattr(deploy, "layer_forward", record_inputs)
    verify_equivalence(model, deployed, (3, 8, 8), seed=3)
    whole = np.random.default_rng(3).standard_normal((100, 3, 8, 8)).astype(np.float32)
    assert sorted(seen) == sorted(whole[lo:lo + 7].tobytes() for lo in range(0, 100, 7))


def test_threaded_check_fails_on_a_nan_in_one_middle_batch(monkeypatch):
    monkeypatch.setattr(deploy, "WORKERS", 3)
    test_many_batch_check_fails_on_a_nan_in_one_middle_batch(monkeypatch)


def test_threaded_huge_check_stops_drawing_past_the_failing_batch(monkeypatch):
    """10**9 toy inputs in batches of 512 on the caller and two more threads:
    the third batch fails its first layer forward, and at most WORKERS - 1
    batches are drawn after it."""
    class Third(Exception):
        pass

    monkeypatch.setattr(deploy, "WORKERS", 3)
    model, draws, real = build_toy_cnn(6), [], deploy._batches

    def mark_the_third(*args):
        for x in real(*args):
            draws.append(len(x))
            if len(draws) == 3:
                x.flat[0] = np.inf  # no standard-normal draw is infinite
            assert len(draws) < 100, "the draws did not stop"
            yield x

    def forward_until_third(layer, x, _forward=deploy.layer_forward):
        if np.isposinf(x.flat[0]):
            raise Third
        return _forward(layer, x)

    monkeypatch.setattr(deploy, "_batches", mark_the_third)
    monkeypatch.setattr(deploy, "layer_forward", forward_until_third)
    with pytest.raises(Third):
        verify_equivalence(model, convert_model(model), (3, 8, 8), n_inputs=10**9)
    assert 3 <= len(draws) <= 3 + deploy.WORKERS - 1
    assert set(draws) == {512}


# ---------------------------------------------------------------- accounting

def test_flops_closed_form_conv():
    # conv C_in=3, C_out=8, k=3 on a 6x6 input -> 4x4 output:
    # MACs = 8*3*9*16 = 3456, FLOPs = 6912
    w = np.zeros((8, 3, 3, 3), np.float32)
    model = Model(layers=[ConvLayer("c", w, compress=False)])
    assert count_flops(model, (3, 6, 6)) == 6912


def test_params_fc_with_bias():
    model = Model(layers=[FcLayer("f", np.zeros((10, 128), np.float32),
                                  np.zeros(10, np.float32))])
    assert count_params(model) == 1290


def test_pruned_params_track_live_connections(rng):
    w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
    layer = ConvLayer("c", w, compress=False)
    model = Model(layers=[layer])
    full = count_params(model)
    layer.mask[:4, :4] = False  # r = 16/64 = 0.25 at connection granularity
    apply_mask(layer)
    assert count_params(model) == int(full * (1 - 0.25))


def test_flops_converted_not_more_than_original(rng):
    for trial in range(10):
        local = np.random.default_rng(trial)
        model, shape = random_chain_model(local)
        deployed = convert_model(model)
        orig, conv = count_flops(model, shape), count_flops(deployed, shape)
        assert conv <= orig
        pruned_any = any(not l.mask.all() for l in model.layers
                         if l.kind in ("conv2d", "fc"))
        if not pruned_any:
            assert conv == orig


def test_random_models_deploy_equivalent(rng):
    # module-level spot check; the acceptance suite runs the full 20
    for trial in range(5):
        local = np.random.default_rng(100 + trial)
        model, shape = random_chain_model(local)
        deployed = convert_model(model)
        dev = layer_deviations(model, deployed, shape, n_inputs=25, seed=trial)[-1]
        assert dev <= 1e-5


def test_deployed_roundtrip_through_io(tmp_path, rng):
    model, shape = random_chain_model(np.random.default_rng(55))
    deployed = convert_model(model)
    manifest, blob = sgm_paths(tmp_path / "dep")
    save_model(deployed, manifest, blob)
    loaded = load_model(manifest, blob)
    x = rng.standard_normal((8, *shape)).astype(np.float32)
    np.testing.assert_array_equal(deployed.forward(x), loaded.forward(x))


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_conversion_properties_over_random_chains(seed):
    """On random masked conv/fc chains, the deployed model matches the masked
    dense forward, survives save -> load -> save byte for byte, and reports
    the removal ratios of the model it was deployed from."""
    model, shape = random_chain_model(np.random.default_rng(seed))
    deployed = convert_model(model)
    assert layer_deviations(model, deployed, shape, n_inputs=8, seed=seed)[-1] <= 1e-5
    with tempfile.TemporaryDirectory() as tmp:
        first, second = sgm_paths(Path(tmp) / "a"), sgm_paths(Path(tmp) / "b")
        save_model(deployed, *first)
        save_model(load_model(*first), *second)
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert model_ratios(deployed) == model_ratios(model)
