"""Compression driver, SGD trainer and evaluation metrics."""
import copy

import numpy as np
import pytest

from sgconv import pipeline
from sgconv.data import Dataset, make_blob_dataset
from sgconv.deploy import convert_model
from sgconv.model import AffineLayer, ConvLayer, FcLayer, Model, apply_mask, build_toy_cnn
from sgconv.pipeline import (PruneSchedule, TrainConfig, _backward, _forward_cached,
                             evaluate, run_algorithm1, sgd_finetune)
from sgconv.pruning import model_dead_fraction


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


def test_evaluate_rejects_a_conv_padded_past_the_cap_before_allocating():
    model = Model(layers=[ConvLayer("conv1", np.ones((2, 3, 3, 3), np.float32),
                                    padding=10**6, compress=False)])
    with pytest.raises(ValueError,
                       match=r"layer 'conv1': padded input \(3, 2000008, 2000008\)"):
        evaluate(model, make_blob_dataset(4, seed=0))


def test_evaluate_rejects_a_batch_size_below_1():
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        evaluate(build_toy_cnn(0), make_blob_dataset(4, seed=3), batch_size=0)


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
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=1.0)


def test_train_config_rejects_bad_epochs_and_lr():
    for field, bad in [("epochs", -1), ("lr", -0.01), ("lr", float("nan")),
                       ("lr", float("inf"))]:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: bad})
    assert TrainConfig(epochs=0, lr=0.0).epochs == 0


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
    assert report["timings"]["total_s"] > 0


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
    with pytest.raises(ValueError, match="kmeans_restarts must be >= 1"):
        PruneSchedule(kmeans_restarts=0)
    for field, bad in [("local_epochs", -3), ("global_epochs", -1), ("batch_size", 0),
                       ("local_lr", -1e-3), ("local_lr", float("nan")),
                       ("global_lr", float("inf")), ("global_lr", -0.5)]:
        with pytest.raises(ValueError, match=field):
            PruneSchedule(**{field: bad})


def test_non_finite_importance_names_the_layer():
    model = build_toy_cnn(17)
    model.layer("conv2").weight[3, 2, 1, 1] = np.nan
    sched = PruneSchedule(step=0.2, target_conv=0.4, target_fc=0.4, finetune="none", seed=0)
    with pytest.raises(ValueError, match="'conv2'.*finite"):
        run_algorithm1(model, None, sched)


def test_finetune_requires_dataset():
    model = build_toy_cnn(15)
    with pytest.raises(ValueError, match="dataset"):
        run_algorithm1(model, None, PruneSchedule(finetune="global", seed=0))


def test_deployable_after_pipeline():
    from sgconv.deploy import convert_model, max_forward_deviation
    model = build_toy_cnn(16)
    sched = PruneSchedule(num_groups=6, step=0.15, target_conv=0.45, target_fc=0.45,
                          finetune="none", seed=2)
    pruned, _ = run_algorithm1(model, None, sched)
    deployed = convert_model(pruned)  # granularity holds by construction
    assert max_forward_deviation(pruned, deployed, (3, 8, 8), n_inputs=50, seed=0) <= 1e-5
