"""Compression driver, SGD trainer and evaluation metrics."""
import copy
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgconv import grouping, pipeline
from sgconv.cli import main
from sgconv.data import Dataset, make_blob_dataset, save_dataset
from sgconv.deploy import convert_model, verify_equivalence
from sgconv.grouping import centroids_for
from sgconv.importance import layer_importance
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import AffineLayer, ConvLayer, FcLayer, Model, apply_mask, build_toy_cnn
from sgconv.pipeline import (PruneSchedule, TrainConfig, _backward, _forward_cached,
                             evaluate, run_algorithm1, sgd_finetune)
from sgconv.pruning import (compression_ratio_layer, model_dead_fraction, partial_elements,
                            prune_to_ratio, pruned_elements)
from test_deploy import formula_network_ratio


def blob_split(seed, n_train=400, n_test=200):
    return (make_blob_dataset(n_train, seed=seed * 97 + 1),
            make_blob_dataset(n_test, seed=seed * 97 + 2))


# ---------------------------------------------------------------- evaluate

def test_constant_classifier_on_single_class():
    ds = Dataset(features=np.zeros((20, 4), np.float32),
                 labels=np.zeros(20, np.int32), num_classes=1)
    model = Model(layers=[FcLayer("f", np.zeros((2, 4), np.float32),
                                  np.array([1.0, 0.0], np.float32))])
    assert evaluate(model, ds)["top1"] == 1.0


def test_uniform_logits_balanced_two_class(rng):
    feats = rng.standard_normal((1000, 4)).astype(np.float32)
    labels = np.tile([0, 1], 500).astype(np.int32)
    ds = Dataset(features=feats, labels=labels, num_classes=2)
    model = Model(layers=[FcLayer("f", np.zeros((2, 4), np.float32))])
    acc = evaluate(model, ds)["top1"]  # ties -> class 0
    assert abs(acc - 0.5) <= 0.1


def test_top5_on_five_class_data(rng):
    feats = rng.standard_normal((50, 6)).astype(np.float32)
    labels = (np.arange(50) % 5).astype(np.int32)
    ds = Dataset(features=feats, labels=labels, num_classes=5)
    model = Model(layers=[FcLayer("f", rng.standard_normal((5, 6)).astype(np.float32))])
    result = evaluate(model, ds)
    assert result["top5"] == 1.0


def test_top5_absent_below_five_classes(rng):
    ds = make_blob_dataset(20, seed=0)
    assert evaluate(build_toy_cnn(0), ds)["top5"] is None


def test_width_mismatch_error(rng):
    ds = Dataset(features=rng.standard_normal((10, 4)).astype(np.float32),
                 labels=np.zeros(10, np.int32), num_classes=7)
    model = Model(layers=[FcLayer("f", np.zeros((2, 4), np.float32))])
    with pytest.raises(ValueError, match="classes"):
        evaluate(model, ds)


def test_class_scores_are_checked_once_before_any_forward(monkeypatch):
    """The check walks the sample shape: no forward runs, whatever the batch
    count, for a model whose output is not a vector of class scores."""
    forwards = []
    monkeypatch.setattr(pipeline.ops, "conv2d_forward", lambda *a, **k: forwards.append(a))
    conv = ConvLayer("conv1", np.ones((4, 3, 3, 3), np.float32), compress=False)
    ds = make_blob_dataset(40, seed=0)
    runs = [lambda: evaluate(Model([conv]), ds),
            lambda: sgd_finetune(Model([conv]), ds, TrainConfig(epochs=1, batch_size=4))]
    for run in runs:
        with pytest.raises(ValueError, match=r"dataset has 2 classes but model outputs "
                                             r"shape \(4, 6, 6\)"):
            run()
    assert forwards == []


def test_evaluate_rejects_a_conv_padded_past_the_cap_before_allocating():
    model = Model(layers=[ConvLayer("conv1", np.ones((2, 3, 3, 3), np.float32),
                                    padding=10**6, compress=False)])
    with pytest.raises(ValueError,
                       match=r"layer 'conv1': padded input \(3, 2000008, 2000008\)"):
        evaluate(model, make_blob_dataset(4, seed=0))


# ---------------------------------------------------------------- trainer

def test_zero_learning_rate_is_noop():
    train, _ = blob_split(0)
    model = build_toy_cnn(0)
    before = [l.weight.copy() for l in model.layers]
    sgd_finetune(model, train, TrainConfig(epochs=2, lr=0.0, seed=0))
    for layer, orig in zip(model.layers, before):
        np.testing.assert_array_equal(layer.weight, orig)
        assert layer.mask.all()


def test_pruned_connections_stay_exactly_zero(rng):
    train, _ = blob_split(1)
    model = build_toy_cnn(1)
    conv = model.layer("conv2")
    conv.mask[rng.random(conv.mask.shape) < 0.4] = False
    fc = model.layer("fc1")
    fc.mask[rng.random(fc.mask.shape) < 0.4] = False
    apply_mask(conv)
    apply_mask(fc)
    # 100 optimizer steps: epochs * ceil(400/32) >= 100
    sgd_finetune(model, train, TrainConfig(epochs=8, lr=0.05, batch_size=32, seed=1))
    assert np.all(conv.weight[~conv.mask] == 0)
    assert np.all(fc.weight[~fc.mask] == 0)
    assert np.any(conv.weight[conv.mask] != 0)


def two_fc_net(first, second):
    """Two 8->8 fc layers: equal shapes, so one momentum buffer would fit both."""
    rng = np.random.default_rng(7)
    return Model([FcLayer(name, rng.standard_normal((8, 8)).astype(np.float32),
                          np.zeros(8, np.float32), activation=activation)
                  for name, activation in ((first, "relu"), (second, "identity"))])


@pytest.mark.parametrize("net", ["toy", "two fc"])
def test_layers_that_share_a_name_train_like_distinct_ones(net):
    """Momentum is kept per layer, not per name: a net whose layer names
    repeat trains to the bytes of the same net with distinct names."""
    if net == "toy":  # fc1's (10, 128) weight under conv2's name
        train, _ = blob_split(0)
        distinct, shared = build_toy_cnn(0), build_toy_cnn(0)
        shared.layer("fc1").name = "conv2"
    else:
        x = np.random.default_rng(8).standard_normal((64, 8)).astype(np.float32)
        train = Dataset(x, (np.arange(64) % 8).astype(np.int32), 8)
        distinct, shared = two_fc_net("fc1", "fc2"), two_fc_net("fc", "fc")
    for model in (distinct, shared):
        sgd_finetune(model, train, TrainConfig(epochs=2, lr=0.05, seed=0))
    for a, b in zip(distinct.layers, shared.layers, strict=True):
        assert a.weight.tobytes() == b.weight.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


def test_blob_training_reaches_95_percent():
    train, _ = blob_split(2)
    model = build_toy_cnn(2)
    sgd_finetune(model, train, TrainConfig(epochs=5, lr=0.01, seed=2))
    assert evaluate(model, train)["top1"] >= 0.95


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    train, _ = blob_split(3)
    model = build_toy_cnn(3)
    with pytest.raises(RuntimeError, match="diverged"):
        sgd_finetune(model, train, TrainConfig(epochs=3, lr=1e12, seed=3))


@pytest.mark.parametrize("dataset", [None, Dataset(np.zeros((0, 3, 8, 8), np.float32),
                                                     np.zeros(0, np.int32), 10)],
                         ids=["none", "empty"])
def test_finetune_refuses_an_empty_dataset(dataset):
    with pytest.raises(ValueError, match="fine-tuning needs a non-empty dataset"):
        sgd_finetune(build_toy_cnn(0), dataset, TrainConfig(seed=0))


def test_lr_milestones_decay():
    train, _ = blob_split(4)
    model = build_toy_cnn(4)
    # smoke: milestones exercise the schedule without blowing up
    trace = sgd_finetune(model, train, TrainConfig(epochs=4, lr=0.01,
                                                   lr_milestones=(1, 3), seed=4))
    assert len(trace) == 4


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)


def test_train_config_rejects_bad_epochs_and_lr():
    for field, bad in [("epochs", -1), ("lr", -0.01), ("lr", float("nan")),
                       ("lr", float("inf")), ("lr_milestones", ("a",)),
                       ("epochs", 2.5), ("epochs", True), ("batch_size", 8.0),
                       ("batch_size", False), ("seed", -1), ("seed", 2.5), ("seed", True),
                       ("seed", [1, -2]), ("seed", [1, 2.0]), ("seed", []), ("seed", "3"),
                       ("lr", True), ("lr", "0.1"), ("lr", None), ("lr", -10**400)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: bad})
    assert TrainConfig(epochs=0, lr=0.0).epochs == 0
    assert TrainConfig(seed=(np.int64(3), 0)).seed == (3, 0)


def test_cached_forward_is_model_forward(rng):
    # conv -> affine on (N,C,H,W) -> fc -> affine on (N,C): both affine broadcasts,
    # with H = W != C so a broadcast along the wrong axis cannot go unnoticed
    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    model = Model(layers=[
        ConvLayer("conv", f32(4, 3, 3, 3), f32(4), activation="relu", compress=False),
        AffineLayer("bn4d", f32(4), f32(4)),
        FcLayer("fc", f32(5, 4 * 6 * 6), f32(5), activation="relu"),
        AffineLayer("bn2d", f32(5), f32(5)),
    ])
    x = f32(7, 3, 8, 8)
    out, caches = _forward_cached(model, x)
    np.testing.assert_array_equal(out, model.forward(x))
    assert out.dtype == np.float32
    grads = _backward(caches, np.ones_like(out))
    assert [layer.name for layer, _ in grads] == ["fc", "conv"]


def test_finetune_after_deployment_names_the_group_layer():
    train, _ = blob_split(5)
    deployed = convert_model(build_toy_cnn(5))
    with pytest.raises(ValueError, match=r"'fc1' \(groupconv\).*fine-tune before deployment"):
        sgd_finetune(deployed, train, TrainConfig(epochs=1, seed=5))


# ---------------------------------------------------------------- driver

def test_zero_targets_return_model_unchanged():
    train, _ = blob_split(5)
    model = build_toy_cnn(5)
    pruned, report = run_algorithm1(model, train,
                                    PruneSchedule(target_conv=0.0, target_fc=0.0, seed=0))
    assert report["iterations"] == []
    for orig, new in zip(model.layers, pruned.layers):
        np.testing.assert_array_equal(orig.weight, new.weight)
        if orig.kind in ("conv2d", "fc"):
            assert new.mask.all()


def test_single_iteration_when_step_equals_target():
    model = build_toy_cnn(6)
    sched = PruneSchedule(step=0.3, target_conv=0.3, target_fc=0.3,
                          finetune="none", seed=0)
    pruned, report = run_algorithm1(model, None, sched)
    assert len(report["iterations"]) == 1
    for name in ("conv2", "fc1"):
        rec = report["iterations"][0]["layers"][name]
        assert rec["ratio"] >= 0.3 - 1e-9


def test_iteration_count_and_monotone_trace():
    # ceil(0.6 / 0.05) = 12 iterations, non-decreasing ratio trace
    model = build_toy_cnn(7)
    sched = PruneSchedule(num_groups=4, step=0.05, target_conv=0.6, target_fc=0.6,
                          finetune="none", seed=0)
    pruned, report = run_algorithm1(model, None, sched)
    assert len(report["iterations"]) == 12
    for key in ("conv_ratio", "fc_ratio", "network_ratio"):
        trace = [rec[key] for rec in report["iterations"]]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert report["final"]["conv_ratio"] >= 0.6 - 1e-9
    assert report["final"]["fc_ratio"] >= 0.6 - 1e-9
    # per-iteration cumulative targets hit (ratio >= t*s at iteration t)
    for t, rec in enumerate(report["iterations"], start=1):
        assert rec["conv_ratio"] >= t * 0.05 - 1e-9
        assert rec["fc_ratio"] >= t * 0.05 - 1e-9


def test_first_conv_mask_never_touched():
    model = build_toy_cnn(8)
    sched = PruneSchedule(step=0.25, target_conv=1.0, target_fc=1.0,
                          finetune="none", seed=0)
    pruned, _ = run_algorithm1(model, None, sched)
    assert pruned.layers[0].mask.all()
    assert not pruned.layer("conv2").mask.any()  # target 1 empties the rest
    assert not pruned.layer("fc1").mask.any()


def test_ratio_formula_equals_mask_counting_each_iteration():
    model = build_toy_cnn(9)
    sched = PruneSchedule(num_groups=5, step=0.1, target_conv=0.5, target_fc=0.5,
                          finetune="none", seed=3)
    pruned, report = run_algorithm1(model, None, sched)
    assert report["final"]["network_ratio"] == report["final"]["network_dead_fraction"]
    dead = model_dead_fraction(pruned)
    assert report["final"]["network_ratio"] == dead


def scoring_at_selection():
    """A patch of the pipeline's prune_to_ratio that records, at each call,
    the centroids it is given and those of a fresh scoring of the layer."""
    seen = []

    def spy(layer, grouping, target):
        fresh = centroids_for(layer_importance(layer).astype(np.float64),
                              grouping.assignment, grouping.num_groups)
        seen.append((grouping.centroids.copy(), fresh))
        return prune_to_ratio(layer, grouping, target)

    return seen, mock.patch.object(pipeline, "prune_to_ratio", spy)


def test_synced_centroids_equal_a_fresh_scoring_bit_for_bit():
    # masks dead per connection, not per bundle, so every grouping joins
    # filters whose dead channels differ
    rng = np.random.default_rng(28)
    seen, patch = scoring_at_selection()
    synced = 0
    with patch:
        for case in range(40):
            c_out, c_in = int(rng.integers(2, 15)), int(rng.integers(1, 10))
            if case % 2:
                layer = ConvLayer("conv", rng.standard_normal((c_out, c_in, 3, 3))
                                  .astype(np.float32))
            else:
                layer = FcLayer("fc", rng.standard_normal((c_out, c_in)).astype(np.float32))
            layer.mask = rng.random((c_out, c_in)) >= rng.choice([0.2, 0.5, 0.8])
            apply_mask(layer)
            schedule = PruneSchedule(num_groups=int(rng.integers(1, 7)), step=0.2,
                                     target_conv=1.0, target_fc=1.0, finetune="none")
            record = pipeline._prune_layer(layer, schedule, int(rng.integers(1, 6)), case)
            synced += record["synced_bundles"]
            num_groups = int(layer.grouping.max()) + 1
            assert not partial_elements(layer.mask, layer.grouping, num_groups).any()
            pruned = pruned_elements(layer.mask, layer.grouping, num_groups)
            assert record["ratio"] == compression_ratio_layer(layer.grouping, pruned)
    assert synced > 0
    for given_centroids, fresh in seen:
        assert given_centroids.tobytes() == fresh.tobytes()


def test_toy_flow_syncs_bundles_at_their_fresh_centroids():
    seen, patch = scoring_at_selection()
    with patch:
        _, report = run_algorithm1(build_toy_cnn(7), None, PruneSchedule(
            num_groups=4, step=0.05, target_conv=0.6, target_fc=0.6, finetune="none"))
    assert sum(rec["synced_bundles"] for it in report["iterations"]
               for rec in it["layers"].values()) > 0
    for given_centroids, fresh in seen:
        assert given_centroids.tobytes() == fresh.tobytes()


def test_separate_conv_fc_targets():
    model = build_toy_cnn(10)
    sched = PruneSchedule(step=0.2, target_conv=0.8, target_fc=0.4,
                          finetune="none", seed=0)
    pruned, report = run_algorithm1(model, None, sched)
    assert len(report["iterations"]) == 4  # conv needs ceil(0.8/0.2)
    assert report["final"]["conv_ratio"] >= 0.8 - 1e-9
    assert 0.4 - 1e-9 <= report["final"]["fc_ratio"] < 0.8  # fc stopped early


def test_mask_enforcement_forward_bit_exact():
    train, _ = blob_split(11)
    model = build_toy_cnn(11)
    sched = PruneSchedule(step=0.2, target_conv=0.4, target_fc=0.4,
                          finetune="global", global_epochs=2, seed=1)
    pruned, _ = run_algorithm1(model, train, sched)
    reapplied = copy.deepcopy(pruned)
    for layer in reapplied.layers:
        if layer.kind in ("conv2d", "fc"):
            apply_mask(layer)
    x = train.features[:16]
    np.testing.assert_array_equal(pruned.forward(x), reapplied.forward(x))


def test_determinism_same_seed_same_weights():
    train, test = blob_split(12)
    model = build_toy_cnn(12)
    sched = PruneSchedule(step=0.2, target_conv=0.4, target_fc=0.4,
                          finetune="global", global_epochs=3, seed=7)
    a, report_a = run_algorithm1(model, train, sched, test_dataset=test)
    b, report_b = run_algorithm1(model, train, sched, test_dataset=test)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        if la.bias is not None:
            np.testing.assert_array_equal(la.bias, lb.bias)
    assert report_a["final"] == report_b["final"]
    assert report_a["accuracy_after"] == report_b["accuracy_after"]


def test_model_is_evaluated_once_per_change(monkeypatch):
    train, test = blob_split(15)
    model = build_toy_cnn(15)
    calls = []

    def counted(*args, _real=pipeline.evaluate):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(pipeline, "evaluate", counted)

    def run(**schedule):
        calls.clear()
        pruned, report = run_algorithm1(model, train, PruneSchedule(seed=0, **schedule),
                                        test_dataset=test)
        assert report["accuracy_after"] == evaluate(pruned, test)
        return report, len(calls)

    # before pruning and after each of the 2 iterations; the last one is accuracy_after
    report, count = run(step=0.2, target_conv=0.4, target_fc=0.4, finetune="none")
    assert len(report["iterations"]) == 2 and count == 3
    assert report["accuracy_after"] == report["iterations"][-1]["accuracy"]
    # global fine-tuning changes the model after the last iteration
    report, count = run(step=0.2, target_conv=0.4, target_fc=0.4, finetune="global",
                        global_epochs=1)
    assert len(report["iterations"]) == 2 and count == 4
    # no iteration runs, so nothing is fine-tuned either
    report, count = run(target_conv=0.0, target_fc=0.0)
    assert report["iterations"] == [] and count == 1
    assert report["accuracy_after"] == report["accuracy_before"]


def test_a_run_that_prunes_nothing_stops_at_the_iteration_cap(monkeypatch, tmp_path, capsys):
    """With no bundle ever killed, step 0.25 and targets 0.5 give up after
    ceil(0.5 / 0.25) + 2 = 4 iterations, each of which pruned both layers
    to its cumulative target t*s; the CLI exits 2 with the same message."""
    targets = []

    def kill_nothing(layer, grouping, target):
        targets.append((layer.name, target))
        return 0

    monkeypatch.setattr(pipeline, "prune_to_ratio", kill_nothing)
    sched = PruneSchedule(step=0.25, target_conv=0.5, target_fc=0.5, finetune="none", seed=0)
    message = "pruning did not reach its targets within 4 iterations"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        run_algorithm1(build_toy_cnn(19), None, sched)
    assert targets == [(name, t * 0.25) for t in (1, 2, 3, 4) for name in ("conv2", "fc1")]
    save_model(build_toy_cnn(19), *sgm_paths(tmp_path / "toy"))
    save_dataset(make_blob_dataset(8, seed=19), tmp_path / "d.sgd")
    assert main(["prune", "--model", str(tmp_path / "toy"), "--data", str(tmp_path / "d.sgd"),
                 "--step", "0.25", "--target-conv", "0.5", "--target-fc", "0.5",
                 "--finetune", "none", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_input_model_not_mutated():
    model = build_toy_cnn(13)
    snapshot = [l.weight.copy() for l in model.layers]
    run_algorithm1(model, None, PruneSchedule(step=0.25, target_conv=0.5,
                                              target_fc=0.5, finetune="none", seed=0))
    for layer, orig in zip(model.layers, snapshot):
        np.testing.assert_array_equal(layer.weight, orig)


def test_report_carries_metrics_and_objectives():
    train, test = blob_split(14)
    model = build_toy_cnn(14)
    sched = PruneSchedule(step=0.3, target_conv=0.3, target_fc=0.3,
                          finetune="global", global_epochs=2, seed=0)
    pruned, report = run_algorithm1(model, train, sched, test_dataset=test)
    assert report["schema_version"] == 1
    assert report["params_before"] > report["params_after"]
    assert report["flops_before"] == report["flops_after"]  # dense cost until deployment
    assert report["accuracy_before"] is not None and report["accuracy_after"] is not None
    rec = report["iterations"][0]
    for name in ("conv2", "fc1"):
        assert {"n", "ratio", "objective", "sq_objective"} <= set(rec["layers"][name])
    assert "accuracy" in rec
    timings = report["timings"]
    assert list(timings) == ["prune_s", "local_finetune_s", "global_finetune_s", "total_s"]
    assert timings["local_finetune_s"] == 0  # no local passes under "global"
    assert 0 < timings["prune_s"] + timings["global_finetune_s"] < timings["total_s"]


def test_schedule_validation():
    with pytest.raises(ValueError, match="positive"):
        PruneSchedule(step=0.0)
    with pytest.raises(ValueError, match="exceeds target"):
        PruneSchedule(step=0.5, target_conv=0.3)
    with pytest.raises(ValueError, match="finetune"):
        PruneSchedule(finetune="sometimes")
    with pytest.raises(ValueError, match="target_fc"):
        PruneSchedule(target_fc=1.5)
    with pytest.raises(ValueError, match="num_groups must be >= 1"):
        PruneSchedule(num_groups=0)
    nan = float("nan")
    for field, bad in [("local_epochs", -3), ("global_epochs", -1), ("batch_size", 0),
                       ("local_lr", -1e-3), ("local_lr", nan),
                       ("global_lr", float("inf")), ("global_lr", -0.5),
                       ("num_groups", 2.5), ("num_groups", True), ("local_epochs", 1.0),
                       ("global_epochs", False), ("batch_size", 32.0), ("seed", -1),
                       ("seed", 1.5), ("seed", True), ("step", "0.1"), ("step", True),
                       ("step", nan), ("target_conv", True), ("target_conv", -0.1),
                       ("target_fc", "0.5"), ("target_fc", nan), ("local_lr", True),
                       ("global_lr", None), ("global_lr", 1j)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PruneSchedule(**{field: bad})
    huge = PruneSchedule(step=1, target_conv=np.float32(1), target_fc=1, global_lr=10**400)
    assert huge.global_lr == 10**400  # an integer is finite at any size


def test_numpy_settings_give_a_json_report():
    """Numpy scalars pass the checks and are stored as Python numbers; stored
    as they came, they once made json.dumps of the report fail on int64."""
    sched = PruneSchedule(num_groups=np.int64(4), step=np.float32(0.25), target_conv=0.5,
                          target_fc=np.float64(0.5), finetune="none", seed=np.int64(1))
    assert (type(sched.num_groups), type(sched.step), type(sched.seed)) == (int, float, int)
    _, report = run_algorithm1(build_toy_cnn(18), None, sched)
    schedule = json.loads(json.dumps(report))["schedule"]
    assert (schedule["num_groups"], schedule["step"], schedule["seed"]) == (4, 0.25, 1)


def test_non_finite_importance_names_the_layer():
    model = build_toy_cnn(17)
    model.layer("conv2").weight[3, 2, 1, 1] = np.nan
    sched = PruneSchedule(step=0.2, target_conv=0.4, target_fc=0.4, finetune="none", seed=0)
    with pytest.raises(ValueError, match="'conv2'.*finite"):
        run_algorithm1(model, None, sched)


def test_pruned_model_records_its_sample_shape():
    sched = PruneSchedule(step=0.5, target_conv=0.5, target_fc=0.5, finetune="none", seed=0)
    model = Model([ConvLayer("conv1", np.ones((4, 3, 3, 3), np.float32), compress=False),
                   FcLayer("fc1", np.ones((2, 4 * 10 * 10), np.float32))])
    data = make_blob_dataset(8, image_size=12, seed=1)
    pruned, report = run_algorithm1(model, data, sched)
    assert model.input_shape is None and pruned.input_shape == (3, 12, 12)
    # without a dataset, the recorded shape is used; with neither, nothing is guessed
    again, again_report = run_algorithm1(pruned, None, sched)
    assert again.input_shape == (3, 12, 12)
    assert again_report["flops_before"] == report["flops_before"]
    with pytest.raises(ValueError, match="no dataset given and the model records no input shape"):
        run_algorithm1(model, None, sched)


def test_finetune_requires_dataset():
    model = build_toy_cnn(15)
    with pytest.raises(ValueError, match="dataset"):
        run_algorithm1(model, None, PruneSchedule(finetune="global", seed=0))


def test_deployable_after_pipeline():
    model = build_toy_cnn(16)
    sched = PruneSchedule(num_groups=6, step=0.15, target_conv=0.45, target_fc=0.45,
                          finetune="none", seed=2)
    pruned, _ = run_algorithm1(model, None, sched)
    deployed = convert_model(pruned)  # granularity holds by construction
    assert verify_equivalence(pruned, deployed, (3, 8, 8), n_inputs=50, seed=0) <= 1e-5


# ---------------------------------------------------------------- whole loop

@st.composite
def random_nets(draw):
    """A random chain and a sample shape: 1-3 convs (kernel 1 or 3, stride
    1-2, padding 0-1, some filters zeroed), each optionally followed by an
    affine layer, then 1-2 fc layers, every weight scaled by a factor drawn
    from [0.1, 3). The first conv stays uncompressed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def weights(*shape):
        scale = draw(st.floats(0.1, 3, exclude_max=True))
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    def bias(c):
        return weights(c) if draw(st.booleans()) else None

    shape = (draw(st.integers(1, 4)), draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    input_shape, layers = shape, []
    for i in range(draw(st.integers(1, 3))):
        padding = draw(st.integers(0, 1))
        kernel = draw(st.sampled_from([1, 3])) if min(shape[1:]) + 2 * padding >= 3 else 1
        weight = weights(draw(st.integers(1, 12)), shape[0], kernel, kernel)
        weight[rng.random(len(weight)) < 0.2] = 0  # some dead filters
        conv = ConvLayer(f"conv{i}", weight, bias(len(weight)), stride=draw(st.integers(1, 2)),
                         padding=padding, activation="relu", compress=i > 0)
        layers.append(conv)
        shape = conv.out_shape(shape)
        if draw(st.booleans()):
            layers.append(AffineLayer(f"bn{i}", weights(shape[0]), weights(shape[0])))
    width = int(np.prod(shape))
    for i in range(draw(st.integers(1, 2))):
        out = draw(st.integers(2, 12))
        layers.append(FcLayer(f"fc{i}", weights(out, width), bias(out), activation="relu"))
        width = out
    layers[-1].activation = "identity"
    return Model(layers=layers), input_shape


def saved_twice_alike(model):
    """Whether save -> load -> save writes the same bytes twice."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = sgm_paths(Path(tmp) / "a"), sgm_paths(Path(tmp) / "b")
        save_model(model, *first)
        save_model(load_model(*first), *second)
        return [p.read_bytes() for p in first] == [p.read_bytes() for p in second]


@settings(max_examples=50)
@given(net=random_nets(), groups=st.integers(1, 9), step=st.floats(0.05, 0.5),
       targets=st.tuples(*[st.integers(0, 20).map(lambda k: k / 20)] * 2),
       seed=st.integers(0, 99))
def test_whole_loop_keeps_its_invariants_on_random_nets(net, groups, step, targets, seed):
    """run_algorithm1 on random nets and schedules: masks are uniform within
    each group, the pooled ratio equals the dead-connection fraction, every
    target whose kind has compressible layers is reached, the pruned and the
    deployed model save -> load -> save byte for byte, and on float64 inputs
    the deployed model computes what the masked one does up to rounding."""
    model, shape = net
    step = min([step, *[t for t in targets if t > 0]])  # a step may not pass a target
    schedule = PruneSchedule(num_groups=groups, step=step, target_conv=targets[0],
                             target_fc=targets[1], finetune="none", seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, *shape))
    width = model.layers[-1].weight.shape[0]
    data = Dataset(x.astype(np.float32), rng.integers(0, width, 6).astype(np.int32), width)
    with mock.patch.object(grouping, "RESTARTS", 2):
        pruned, report = run_algorithm1(model, data, schedule)

    for layer in pruned.layers:
        if layer.ratio_kind is None:
            continue
        if layer.grouping is None:  # never clustered, so never pruned
            assert layer.mask.all(), layer.name
            continue
        for gid in np.unique(layer.grouping):
            rows = layer.mask[layer.grouping == gid]
            assert (rows == rows[0]).all(), (layer.name, gid)
    final = report["final"]
    assert final["network_ratio"] == final["network_dead_fraction"]
    assert final["network_ratio"] == formula_network_ratio(pruned)
    for kind, ratio, target in zip(("conv2d", "fc"), ("conv_ratio", "fc_ratio"), targets):
        if any(layer.ratio_kind == kind for layer in pruned.layers):
            assert final[ratio] >= target - 1e-9, kind

    deployed = convert_model(pruned)
    assert saved_twice_alike(pruned) and saved_twice_alike(deployed)
    masked = pruned.forward(x)
    assert masked.dtype == np.float64
    np.testing.assert_allclose(deployed.forward(x), masked, rtol=0,
                               atol=1e-9 * np.abs(masked).max())
