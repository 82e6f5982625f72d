"""Acceptance suite: each criterion at its stated tolerance, one line per run.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""
import time

import numpy as np
import pytest

from conftest import random_chain_model, random_group_assignment, random_group_mask
from sgconv import ops
from sgconv.data import make_blob_dataset
from sgconv.deploy import convert_model, layer_deviations
from sgconv.grouping import kmeans_cluster
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import FcLayer, build_toy_cnn, mask_dead_fraction
from sgconv.pipeline import PruneSchedule, TrainConfig, evaluate, run_algorithm1, \
    sgd_finetune
from sgconv.pruning import (compression_ratio_layer, compression_ratio_network, group_sizes,
                            prune_to_ratio, pruned_elements)
from test_grouping import brute_force_two_groups
from test_ops import central_diff, rel_error
from test_pruning import sort_oracle


def check(name, ok, detail, elapsed, budget_s):
    line = f"[{'PASS' if ok and elapsed < budget_s else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget_s, line


# ------------------------------------------------------------------ 1

def test_criterion_1_deployment_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        model, shape = random_chain_model(rng, max_layers=4, max_channels=32)
        deployed = convert_model(model)
        dev = layer_deviations(model, deployed, shape, n_inputs=100, seed=trial)[-1]
        worst = max(worst, dev)
    check("1 deployment equivalence", worst <= 1e-5,
          f"max abs deviation {worst:.2e} <= 1e-5 over 20 models x 100 inputs",
          time.perf_counter() - start, budget_s=60)


# ------------------------------------------------------------------ 2

def test_criterion_2_ratio_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    mismatches = 0
    items = []
    dead = total = 0
    for _ in range(1000):
        c_out = int(rng.integers(1, 24))
        c_in = int(rng.integers(1, 24))
        assignment = random_group_assignment(rng, c_out, int(rng.integers(1, 7)))
        mask = random_group_mask(rng, assignment, c_in, kill_prob=float(rng.random()))
        num_groups = int(assignment.max()) + 1
        pruned = pruned_elements(mask, assignment, num_groups)
        if compression_ratio_layer(assignment, pruned) != mask_dead_fraction(mask):
            mismatches += 1
        items.append((assignment, pruned))
        dead += int((~mask).sum())
        total += mask.size
    if compression_ratio_network(items) != dead / total:
        mismatches += 1
    check("2 ratio oracle", mismatches == 0,
          f"{mismatches} mismatches in 1000 layer instances + pooled network ratio",
          time.perf_counter() - start, budget_s=60)


# ------------------------------------------------------------------ 3

def test_criterion_3_minimal_truncation():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    violations = 0
    for trial in range(200):
        g = int(rng.integers(1, 7))
        c_in = int(rng.integers(1, 12))
        c_out = int(rng.integers(g, 20))
        assignment = random_group_assignment(rng, c_out, g)
        num_groups = int(assignment.max()) + 1
        centroids = rng.random((num_groups, c_in))
        t = int(rng.integers(1, 4))
        s = float(rng.uniform(0.01, 1.0 / t))
        layer = FcLayer(f"l{trial}", rng.standard_normal((c_out, c_in)).astype(np.float32))
        from sgconv.grouping import Grouping
        grouping = Grouping(assignment=assignment, centroids=centroids,
                            objective=0.0, sq_objective=0.0)
        target = t * s
        n = prune_to_ratio(layer, grouping, target)
        order = sort_oracle(centroids)
        sizes = group_sizes(assignment, num_groups)
        totalc = c_in * sizes.sum()
        achieved = mask_dead_fraction(layer.mask)
        if achieved < target - 1e-9:
            violations += 1
        if n > 0:
            one_less = sum(sizes[gid] for _v, gid, _c in order[:n - 1]) / totalc
            if one_less >= target - 1e-9:
                violations += 1
    check("3 minimal-n schedule", violations == 0,
          f"{violations} violations over 200 instances with random (t, s)",
          time.perf_counter() - start, budget_s=60)


# ------------------------------------------------------------------ 4

def test_criterion_4_clustering_quality():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = 0
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))          # C_out <= 8
        dim = int(rng.integers(1, 8))
        vectors = rng.standard_normal((n, dim)) * float(rng.uniform(0.3, 3.0))
        best_obj, _ = brute_force_two_groups(vectors)
        grouping = kmeans_cluster(vectors, 2, seed=trial)
        if best_obj > 1e-12:
            worst = max(worst, grouping.objective / best_obj)
        if grouping.objective > best_obj * 1.05 + 1e-9:
            failures += 1
    check("4 clustering quality", failures == 0,
          f"{failures} instances beyond 5% of brute-force optimum (worst ratio {worst:.3f})",
          time.perf_counter() - start, budget_s=60)


# ------------------------------------------------------------------ 5

def test_criterion_5_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(111)
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = int(rng.choice([0, 1]))
            size = int(rng.integers(k + 1, 6))
            x = rng.standard_normal((2, c_in, size, size))
            w = rng.standard_normal((c_out, c_in, k, k))
            ho = ops._conv_out_size(size, k, stride, padding)
            if ho < 1:
                padding, stride = 1, 1
                ho = ops._conv_out_size(size, k, stride, padding)
            proj = rng.standard_normal((2, c_out, ho, ho))

            def loss():
                return float((proj * ops.conv2d_forward(
                    x, w, stride=stride, padding=padding)).sum())

            dx, dw, _ = ops.conv2d_backward(proj, x, w, stride=stride, padding=padding)
        else:
            n, c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 9)), \
                int(rng.integers(1, 9))
            x = rng.standard_normal((n, c_in))
            w = rng.standard_normal((c_out, c_in))
            proj = rng.standard_normal((n, c_out))

            def loss():
                return float((proj * ops.fc_forward(x, w)).sum())

            dx, dw, _ = ops.fc_backward(proj, x, w)
        worst = max(worst, rel_error(dx, central_diff(loss, x, h=1e-3)))
        worst = max(worst, rel_error(dw, central_diff(loss, w, h=1e-3)))
    check("5 gradient checks", worst <= 1e-3,
          f"worst relative error {worst:.2e} <= 1e-3 over 50 instances",
          time.perf_counter() - start, budget_s=60)


# ------------------------------------------------------------------ toy task

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def toy_task():
    """Per-seed trained baselines and cached pipeline runs on the blob task."""
    state = {}
    for seed in SEEDS:
        train = make_blob_dataset(600, seed=seed * 1000 + 1)
        test = make_blob_dataset(300, seed=seed * 1000 + 2)
        model = build_toy_cnn(seed)
        sgd_finetune(model, train, TrainConfig(epochs=6, lr=0.01, seed=seed))
        state[seed] = {
            "train": train, "test": test, "model": model,
            "baseline": evaluate(model, test)["top1"], "runs": {},
        }

    def run(seed, groups, step, finetune):
        key = (groups, step, finetune)
        entry = state[seed]
        if key not in entry["runs"]:
            schedule = PruneSchedule(num_groups=groups, step=step, target_conv=0.6,
                                     target_fc=0.6, finetune=finetune, seed=seed)
            pruned, _ = run_algorithm1(entry["model"], entry["train"], schedule,
                                       test_dataset=entry["test"])
            entry["runs"][key] = evaluate(pruned, entry["test"])["top1"]
        return entry["runs"][key]

    state["run"] = run
    return state


def test_criterion_6_end_to_end_recovery(toy_task):
    start = time.perf_counter()
    baselines = [toy_task[s]["baseline"] for s in SEEDS]
    recovered = [toy_task["run"](s, 8, 0.05, "global") for s in SEEDS]
    base_med = float(np.median(baselines))
    rec_med = float(np.median(recovered))
    ok = base_med >= 0.95 and rec_med >= base_med - 0.02
    check("6 end-to-end toy recovery", ok,
          f"baseline median {base_med:.3f} (>=0.95), global-only recovery {rec_med:.3f} "
          f"(within 2 points)", time.perf_counter() - start, budget_s=600)


def test_criterion_7_finetune_scheme_parity(toy_task):
    start = time.perf_counter()
    global_only = float(np.median([toy_task["run"](s, 8, 0.05, "global") for s in SEEDS]))
    local_global = float(np.median([toy_task["run"](s, 8, 0.05, "local+global")
                                    for s in SEEDS]))
    gap = abs(global_only - local_global)
    check("7 fine-tuning scheme parity", gap <= 0.03,
          f"|global-only {global_only:.3f} - local+global {local_global:.3f}| = "
          f"{gap:.3f} <= 0.03", time.perf_counter() - start, budget_s=1200)


def test_criterion_8_ablation_directions(toy_task):
    start = time.perf_counter()
    acc_g8 = float(np.median([toy_task["run"](s, 8, 0.05, "global") for s in SEEDS]))
    acc_g2 = float(np.median([toy_task["run"](s, 2, 0.05, "global") for s in SEEDS]))
    acc_s005 = acc_g8
    acc_s030 = float(np.median([toy_task["run"](s, 8, 0.30, "global") for s in SEEDS]))
    ok = acc_g8 >= acc_g2 - 0.01 and acc_s005 >= acc_s030 - 0.01
    check("8 ablation directions", ok,
          f"groups: g8 {acc_g8:.3f} >= g2 {acc_g2:.3f} - 1pt; "
          f"step: s.05 {acc_s005:.3f} >= s.30 {acc_s030:.3f} - 1pt",
          time.perf_counter() - start, budget_s=1800)


# ------------------------------------------------------------------ 9

def test_criterion_9_persistence(tmp_path):
    start = time.perf_counter()
    model = build_toy_cnn(17)
    schedule = PruneSchedule(num_groups=6, step=0.2, target_conv=0.6, target_fc=0.6,
                             finetune="none", seed=5)
    pruned, _ = run_algorithm1(model, None, schedule)
    m1, b1 = sgm_paths(tmp_path / "a")
    save_model(pruned, m1, b1)
    loaded = load_model(m1, b1)
    m2, b2 = sgm_paths(tmp_path / "b")
    save_model(loaded, m2, b2)
    byte_identical = m1.read_bytes() == m2.read_bytes() and \
        b1.read_bytes() == b2.read_bytes()
    x = np.random.default_rng(0).standard_normal((16, 3, 8, 8)).astype(np.float32)
    bit_exact = np.array_equal(pruned.forward(x), loaded.forward(x))
    check("9 persistence", byte_identical and bit_exact,
          f"save-load-save byte-identical: {byte_identical}; "
          f"reload forward bit-exact: {bit_exact}",
          time.perf_counter() - start, budget_s=60)
