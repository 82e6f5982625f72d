"""Batch sizing for whole-input-set forwards: evaluate and the equivalence check.

``deploy.batch_size_for`` picks the largest batch, at most 512, for which
no layer runs more than ``deploy.BATCH_MACS`` multiply-adds. These
properties draw random conv/affine/fc chains (pruned in groups and
deployed) and datasets, and check that the split changes no accuracy and
no conv or affine output bit, and that running the batches on several
threads (``deploy.map_batches``) changes no result.
"""
import _thread
import copy
import os
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_group_assignment, random_group_mask
from sgconv import deploy
from sgconv.data import Dataset
from sgconv.deploy import batch_size_for, convert_model, layer_deviations, map_batches
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


def perturbed(model, rng):
    """A copy of ``model`` whose conv and fc weights are moved by about 1e-3."""
    twin = copy.deepcopy(model)
    for layer in twin.layers:
        if hasattr(layer, "weight"):
            layer.weight += (1e-3 * rng.standard_normal(layer.weight.shape)).astype(np.float32)
    return twin


def largest_layer_macs(model, shape):
    largest = 0
    for layer in model.layers:
        largest = max(largest, layer.executed_macs(shape))
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
    # batches of 1, 2, 7, as batch_macs allows and 512: evaluate takes its
    # batch size from batch_size_for, so each comes from its own budget.
    # Each budget runs on one thread and on the caller with two more, which
    # must also give the same bits of the deviations from a perturbed copy
    largest = largest_layer_macs(model, shape)
    other = convert_model(perturbed(model, np.random.default_rng([seed, 1])))
    results = []
    for budget in (largest, 2 * largest, 7 * largest, batch_macs, 512 * largest):
        deviations = []
        for workers in (1, 3):
            with mock.patch.object(deploy, "BATCH_MACS", budget), \
                    mock.patch.object(deploy, "WORKERS", workers):
                results.append(evaluate(model, dataset))
                deviations.append(layer_deviations(model, other, shape, count, seed))
        assert deviations[0].tobytes() == deviations[1].tobytes(), deviations
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
    for net in (model, convert_model(model)):
        largest = largest_layer_macs(net, shape)
        with mock.patch.object(deploy, "BATCH_MACS", batch_macs):
            b = batch_size_for(net, shape)
        assert 1 <= b <= deploy.MAX_BATCH == 512
        assert b == 1 or b * largest <= batch_macs
        assert b == deploy.MAX_BATCH or (b + 1) * largest > batch_macs


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_toy_net_gets_the_whole_batch(seed):
    assert batch_size_for(build_toy_cnn(seed), (3, 8, 8)) == 512


def test_evaluate_forwards_in_batches_of_the_sized_batch(monkeypatch):
    model = build_toy_cnn(0)
    monkeypatch.setattr(deploy, "BATCH_MACS", 7 * model.layer("conv2").macs((8, 6, 6)))
    monkeypatch.setattr(deploy, "WORKERS", 1)  # one thread: the batches come in order
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


def test_dense_run_group_layer_is_sized_like_its_masked_source():
    """64 one-filter groups each keeping half of 64 channels run one dense
    GEMM, so the deployed layer gets the masked conv's batch (3 on 32x32),
    although it bills half the MACs."""
    rng = np.random.default_rng(0)
    conv = ConvLayer("conv", rng.standard_normal((64, 64, 3, 3)).astype(np.float32),
                     padding=1)
    conv.grouping = np.arange(64)
    conv.mask = rng.permutation(np.tile([True, False], 32 * 64).reshape(64, 64), axis=1)
    apply_mask(conv)
    masked, shape = Model([conv]), (64, 32, 32)
    deployed = convert_model(masked)
    assert deployed.layers[0].plan.executor == "dense"
    assert deploy.count_flops(deployed, shape) * 2 == deploy.count_flops(masked, shape)
    assert batch_size_for(deployed, shape) == batch_size_for(masked, shape) == 3


# ------------------------------------------------------ threaded batches

def test_threaded_results_come_back_in_batch_order(monkeypatch):
    monkeypatch.setattr(deploy, "WORKERS", 3)
    threads = set()

    def late_for_early_batches(i):
        threads.add(threading.get_ident())
        time.sleep((20 - i) / 2000)
        return i

    assert map_batches(late_for_early_batches, range(20), True) == list(range(20))
    assert len(threads) > 1
    threads.clear()
    assert list(map_batches(late_for_early_batches, range(20), False)) == list(range(20))
    assert threads == {threading.get_ident()}


def test_many_threads_switching_often_draw_each_batch_once(monkeypatch):
    """Eight workers on fewer cores, the interpreter switching threads every
    microsecond: every batch is drawn and mapped once, and in order."""
    monkeypatch.setattr(deploy, "WORKERS", 8)
    mapped, interval = [], sys.getswitchinterval()

    def square(i):
        mapped.append(i)
        return i * i

    sys.setswitchinterval(1e-6)
    try:
        results = map_batches(square, iter(range(3000)), True)
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(3000)]
    assert sorted(mapped) == list(range(3000))


class Boom(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_failing_batch_stops_the_draws_and_joins_every_thread(monkeypatch, failing):
    """From batch 5 on, a batch fails at once on the failing side (the
    calling thread or a helper), and the other side holds its first one
    until then; other batches take 20 ms. Each thread holds one batch at a
    time, so besides batches 0-4 each thread has drawn at most one."""
    monkeypatch.setattr(deploy, "WORKERS", 3)
    before, drawn, failed = threading.active_count(), [], threading.Event()

    def batches():
        for i in range(1000):
            drawn.append(i)
            yield i

    def fail_from_5(i):
        if i >= 5:
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                failed.set()
                raise Boom
            failed.wait(timeout=10)
        time.sleep(0.02)
        return i

    with pytest.raises(Boom):
        map_batches(fail_from_5, batches(), True)
    assert threading.active_count() == before
    assert len(drawn) <= 5 + deploy.WORKERS


def test_interrupted_caller_stops_the_draws_and_joins_every_thread(monkeypatch):
    monkeypatch.setattr(deploy, "WORKERS", 3)
    before, drawn = threading.active_count(), []

    def batches():
        for i in range(1000):
            drawn.append(i)
            yield i

    def interrupt_the_caller(i):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        time.sleep(0.02)
        return i

    with pytest.raises(KeyboardInterrupt):
        map_batches(interrupt_the_caller, batches(), True)
    assert threading.active_count() == before
    assert len(drawn) <= deploy.WORKERS + deploy.WORKERS - 1


def test_interrupt_during_the_join_is_raised_once_every_thread_ends(monkeypatch):
    """The helper holds batch 0 or 1 until the caller has drawn past the last
    one, then interrupts the main thread while it joins the helper."""
    monkeypatch.setattr(deploy, "WORKERS", 2)
    before, helper_busy, exhausted = threading.active_count(), threading.Event(), threading.Event()

    def batches():
        yield from range(2)
        exhausted.set()

    def interrupt_the_joining_caller(i):
        if threading.current_thread() is threading.main_thread():
            assert helper_busy.wait(5)
        else:
            helper_busy.set()
            assert exhausted.wait(5)
            time.sleep(0.05)  # the caller is in the join by now
            _thread.interrupt_main()
        return i

    with pytest.raises(KeyboardInterrupt):
        map_batches(interrupt_the_joining_caller, batches(), True)
    assert threading.active_count() == before


def test_evaluate_of_one_full_batch_starts_no_thread(monkeypatch):
    """600 toy samples in batches of 512: fewer than two full batches, so
    evaluate runs them on the calling thread even with workers to spare."""
    monkeypatch.setattr(deploy, "WORKERS", 3)
    model, sizes = build_toy_cnn(0), []
    real = Model.forward

    def forward_on_the_caller(self, x):
        assert threading.current_thread() is threading.main_thread()
        sizes.append(len(x))
        return real(self, x)

    def no_thread(self):
        raise AssertionError("evaluate started a thread")

    monkeypatch.setattr(Model, "forward", forward_on_the_caller)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    evaluate(model, Dataset(np.zeros((600, 3, 8, 8), np.float32), np.zeros(600, np.int32), 2))
    assert sizes == [512, 88]


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("environ, blas", [
    ({}, None),
    ({"OMP_NUM_THREADS": ""}, None),
    ({"OMP_NUM_THREADS": "four"}, None),
    ({"OPENBLAS_NUM_THREADS": "0"}, None),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1.5"}, None),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"VECLIB_MAXIMUM_THREADS": " 2 "}, 2),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}, 3),
    ({"BLIS_NUM_THREADS": "100000"}, 100000),
])
def test_workers_divide_the_cpus_by_the_blas_threads(environ, blas):
    """Unpinned BLAS (nothing set, or no integer >= 1) uses every CPU, so one
    worker; pinned to n threads (the largest count set), cpus // n, at least 1."""
    expected = 1 if blas is None else max(1, usable_cpus() // blas)
    assert deploy._count_workers({"PATH": "/bin", **environ}) == expected


def test_workers_are_read_from_the_environment_at_import():
    environ = {key: value for key, value in os.environ.items()
               if key not in deploy.BLAS_THREAD_VARS}
    code = "from sgconv import deploy; print(deploy.WORKERS)"
    for pin, expected in ((None, 1), ("1", usable_cpus())):
        env = environ if pin is None else {**environ, "OMP_NUM_THREADS": pin}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert int(out) == expected
