"""Iterative compression driver with a desk-scale SGD fine-tuner.

One compression iteration re-scores importance on the masked weights,
re-clusters every compressible layer, and prunes each layer's weakest
centroid elements until the cumulative per-layer removal target t*s is
reached. Iterations repeat (optionally interleaved with short local
fine-tuning) until the pooled removal ratios of the conv and fc layers
reach their configured targets, after which a longer global fine-tuning
pass recovers accuracy. Everything is deterministic for a fixed seed.
"""
from __future__ import annotations

import copy
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .data import Dataset
from .deploy import batch_size_for, count_flops, count_params, infer_input_shape
from .grouping import Grouping, centroids_for, kmeans_cluster
from .importance import layer_importance
from .model import Model, apply_mask, validate_first_conv_uncompressed
from .pruning import (RATIO_EPS, compression_ratio_layer, kill_bundles, model_dead_fraction,
                      model_ratios, partial_elements, prune_to_ratio, pruned_elements)

REPORT_SCHEMA_VERSION = 1
FINETUNE_MODES = ("none", "global", "local+global")


@dataclass
class TrainConfig:
    epochs: int = 4
    batch_size: int = 32
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_milestones: tuple = ()          # epochs at which lr is multiplied by lr_decay
    lr_decay: float = 0.1
    seed: object = 0                   # int or sequence of ints
    shuffle: bool = True

    def __post_init__(self):
        _check_finetune_settings({"epochs": self.epochs}, {"lr": self.lr}, self.batch_size)
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class PruneSchedule:
    num_groups: int = 8
    step: float = 0.05
    target_conv: float = 0.6
    target_fc: float = 0.6
    finetune: str = "global"           # "none" | "global" | "local+global"
    local_epochs: int = 4
    local_lr: float = 1e-3
    global_epochs: int = 20
    global_lr: float = 0.01
    global_milestones: tuple = (10, 16)
    lr_decay: float = 0.1
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    kmeans_restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.num_groups < 1:
            raise ValueError(f"num_groups must be >= 1, got {self.num_groups}")
        if self.kmeans_restarts < 1:
            raise ValueError(f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}: "
                             "targets are unreachable otherwise")
        for kind, target in (("conv", self.target_conv), ("fc", self.target_fc)):
            if not 0 <= target <= 1:
                raise ValueError(f"target_{kind} must be in [0, 1], got {target}")
            if target > 0 and self.step > target + RATIO_EPS:
                raise ValueError(
                    f"step {self.step} exceeds target_{kind} {target}; use step <= target"
                )
        if self.finetune not in FINETUNE_MODES:
            raise ValueError(f"finetune must be one of {FINETUNE_MODES}, got {self.finetune!r}")
        _check_finetune_settings(
            {"local_epochs": self.local_epochs, "global_epochs": self.global_epochs},
            {"local_lr": self.local_lr, "global_lr": self.global_lr}, self.batch_size)


def _check_finetune_settings(epochs: dict, lrs: dict, batch_size: int) -> None:
    """Reject negative epoch counts, negative or non-finite learning rates
    and batch sizes below 1, naming the setting."""
    for key, value in epochs.items():
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    for key, value in lrs.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{key} must be finite and >= 0, got {value}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def _softmax_cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsum
    n = len(labels)
    loss = float(-logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype, copy=False)


def _forward_cached(model, x):
    """Model output and, per layer, (layer, input, pre-activation, saved):
    what _backward needs, including the conv layers' unfolded inputs."""
    caches = []
    for layer in model.layers:
        saved = {}
        z = layer.linear(x, saved)
        caches.append((layer, x, z, saved))
        x = ops.apply_activation(z, layer.activation)
    return x, caches


def _backward(caches, dlogits):
    """(layer, (dweight, dbias)) for every trainable layer, last layer first.

    Nothing reads the gradient of the model's input, so the first layer
    does not compute it.
    """
    grads = []
    d = dlogits
    for depth in reversed(range(len(caches))):
        layer, x_in, z, saved = caches[depth]
        d = ops.activation_backward(d, z, layer.activation)
        d, layer_grads = layer.backward(x_in, d, saved, need_dx=depth > 0)
        if layer_grads is not None:
            grads.append((layer, layer_grads))
    return grads


def sgd_finetune(model: Model, dataset: Dataset, config: TrainConfig) -> list:
    """SGD with momentum and weight decay; trains the model in place.

    Pruned connections are re-zeroed after every update, so dead
    connections never revive. Returns each epoch's mean training loss
    over its samples, each batch's loss taken before that batch's update;
    call evaluate for accuracy. Raises RuntimeError if the loss stops
    being finite, and ValueError for a deployed model, whose group layers
    have no backward pass.
    """
    if dataset is None or len(dataset) == 0:
        raise ValueError("fine-tuning needs a non-empty dataset")
    rng = np.random.default_rng(config.seed)
    velocity = {}
    losses = []
    n = len(dataset)
    for epoch in range(config.epochs):
        total_loss = 0.0
        lr = config.lr * config.lr_decay ** sum(epoch >= m for m in config.lr_milestones)
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x, y = dataset.features[idx], dataset.labels[idx]
            logits, caches = _forward_cached(model, x)
            if dataset.num_classes > logits.shape[1]:
                raise ValueError(f"dataset has {dataset.num_classes} classes but "
                                 f"model outputs width {logits.shape[1]}")
            loss, dlogits = _softmax_cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: loss={loss} at epoch {epoch}, batch {start // config.batch_size}"
                )
            total_loss += loss * len(idx)
            for layer, (dw, db) in _backward(caches, dlogits):
                if layer.name not in velocity:
                    velocity[layer.name] = (
                        np.zeros_like(layer.weight),
                        None if layer.bias is None else np.zeros_like(layer.bias))
                vw, vb = velocity[layer.name]
                dw = dw + config.weight_decay * layer.weight
                vw *= config.momentum
                vw += dw
                layer.weight -= (lr * vw).astype(layer.weight.dtype, copy=False)
                if layer.bias is not None:
                    vb *= config.momentum
                    vb += db
                    layer.bias -= (lr * vb).astype(layer.bias.dtype, copy=False)
                apply_mask(layer)
        losses.append(total_loss / n)
    return losses


def evaluate(model: Model, dataset: Dataset, batch_size: int | None = None) -> dict:
    """Top-1 accuracy, plus top-5 when the label space has >= 5 classes.

    Argmax ties resolve to the lowest class index. The dataset is forwarded
    ``batch_size`` samples at a time; None sizes the batches by
    ``batch_size_for``: the largest, at most 512, for which no layer bills
    more than ``deploy.BATCH_MACS`` multiply-adds per batch. Conv and affine
    outputs do not depend on the batch size, fc logits only in their last
    bits.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    # walk the sample shape through every layer first: a sample the model cannot
    # take fails here by the layer's name, not inside a forward or its allocation
    sized = batch_size_for(model, dataset.features.shape[1:])
    batch_size = batch_size or sized
    top1 = 0
    top5 = 0
    want_top5 = dataset.num_classes >= 5
    width = None
    for start in range(0, n, batch_size):
        x = dataset.features[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        logits = model.forward(x)
        width = logits.shape[1]
        if dataset.num_classes > width:
            raise ValueError(f"dataset has {dataset.num_classes} classes but "
                             f"model outputs width {width}")
        top1 += int((np.argmax(logits, axis=1) == y).sum())
        if want_top5:
            ranked = np.argsort(-logits, axis=1, kind="stable")[:, :5]
            top5 += int((ranked == y[:, None]).any(axis=1).sum())
    result = {"top1": top1 / n}
    result["top5"] = top5 / n if want_top5 else None
    return result


def _sync_bundles(layer, grouping: Grouping) -> int:
    """Promote partially-dead (group, channel) bundles to fully dead.

    Re-clustering can put filters with different historic masks into one
    group; bundle-level accounting and deployment both require masks to
    be uniform within a group, so any bundle with at least one dead
    member is killed outright. Returns the number of promoted bundles.
    """
    partial = partial_elements(layer.mask, grouping.assignment, grouping.num_groups)
    kill_bundles(layer, grouping.assignment, partial)
    return int(partial.sum())


def _prune_layer(layer, schedule: PruneSchedule, t: int, layer_index: int) -> dict:
    """One compression step on one layer; returns its report record."""
    vectors = layer_importance(layer)
    try:
        grouping = kmeans_cluster(vectors, schedule.num_groups,
                                  seed=[schedule.seed, 11, t, layer_index],
                                  restarts=schedule.kmeans_restarts)
    except ValueError as exc:
        raise ValueError(f"layer {layer.name!r}: {exc}") from exc
    synced = _sync_bundles(layer, grouping)
    if synced:
        # killed bundles changed the masked weights: refresh the centroid values
        vectors = layer_importance(layer)
        grouping.centroids = centroids_for(np.asarray(vectors, dtype=np.float64),
                                           grouping.assignment, grouping.num_groups)
    n = prune_to_ratio(layer, grouping, min(t * schedule.step, 1.0))
    layer.grouping = grouping.assignment
    pruned = pruned_elements(layer.mask, grouping.assignment, grouping.num_groups)
    return {
        "n": n,
        "ratio": compression_ratio_layer(grouping.assignment, pruned),
        "objective": grouping.objective,
        "sq_objective": grouping.sq_objective,
        "synced_bundles": synced,
    }


def run_algorithm1(model: Model, dataset: Dataset | None, schedule: PruneSchedule,
                   test_dataset: Dataset | None = None) -> tuple[Model, dict]:
    """Compress a model to the scheduled removal targets; returns (model, report).

    The input model is not modified. When the targets require no pruning
    at all, the model comes back unchanged (fine-tuning is skipped too).
    """
    schedule = copy.deepcopy(schedule)
    model = copy.deepcopy(model)
    validate_first_conv_uncompressed(model)
    if schedule.finetune != "none" and (dataset is None or len(dataset) == 0):
        raise ValueError("fine-tuning enabled but no dataset given")

    targets = {"conv2d": schedule.target_conv, "fc": schedule.target_fc}
    compressible = [l for l in model.layers if l.compress]
    eval_set = test_dataset if test_dataset is not None else dataset

    t_start = time.perf_counter()
    input_shape = dataset.features.shape[1:] if dataset is not None \
        else infer_input_shape(model)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "schedule": asdict(schedule),
        "params_before": count_params(model),
        "flops_before": count_flops(model, input_shape),
        "accuracy_before": evaluate(model, eval_set) if eval_set is not None else None,
        "iterations": [],
        "timings": {},
    }
    # the model's latest accuracy, reported as accuracy_after: only the
    # model's changes call for evaluating it again
    accuracy = report["accuracy_before"]

    def kinds_pending():
        return [kind for kind, target in targets.items()
                if target > 0 and any(l.kind == kind for l in compressible)
                and model_dead_fraction(model, kind) < target - RATIO_EPS]

    prune_seconds = 0.0
    local_seconds = 0.0
    t = 1
    max_t = math.ceil(max(targets.values(), default=0) / schedule.step) + 2
    while True:
        pending = kinds_pending()
        if not pending:
            break
        if t > max_t:
            raise RuntimeError(f"pruning did not reach its targets within {max_t} iterations")
        tick = time.perf_counter()
        record = {"t": t, "layers": {}}
        for index, layer in enumerate(compressible):
            if layer.kind in pending:
                record["layers"][layer.name] = _prune_layer(layer, schedule, t, index)
        prune_seconds += time.perf_counter() - tick
        record.update(model_ratios(model))
        if schedule.finetune == "local+global":
            tick = time.perf_counter()
            local_cfg = TrainConfig(epochs=schedule.local_epochs, lr=schedule.local_lr,
                                    batch_size=schedule.batch_size,
                                    momentum=schedule.momentum,
                                    weight_decay=schedule.weight_decay,
                                    seed=[schedule.seed, 22, t])
            sgd_finetune(model, dataset, local_cfg)
            local_seconds += time.perf_counter() - tick
        if eval_set is not None:
            record["accuracy"] = accuracy = evaluate(model, eval_set)
        report["iterations"].append(record)
        t += 1

    global_seconds = 0.0
    if schedule.finetune != "none" and report["iterations"]:
        tick = time.perf_counter()
        global_cfg = TrainConfig(epochs=schedule.global_epochs, lr=schedule.global_lr,
                                 batch_size=schedule.batch_size,
                                 momentum=schedule.momentum,
                                 weight_decay=schedule.weight_decay,
                                 lr_milestones=schedule.global_milestones,
                                 lr_decay=schedule.lr_decay,
                                 seed=[schedule.seed, 33])
        sgd_finetune(model, dataset, global_cfg)
        global_seconds = time.perf_counter() - tick
        accuracy = evaluate(model, eval_set) if eval_set is not None else None

    report["final"] = {**model_ratios(model),
                       "network_dead_fraction": model_dead_fraction(model)}
    report["params_after"] = count_params(model)
    report["flops_after"] = count_flops(model, input_shape)
    report["accuracy_after"] = accuracy
    report["timings"] = {
        "prune_s": prune_seconds,
        "local_finetune_s": local_seconds,
        "global_finetune_s": global_seconds,
        "total_s": time.perf_counter() - t_start,
    }
    return model, report
