"""Iterative compression (the paper's Algorithm 1) with a desk-scale SGD
fine-tuner.

``run_algorithm1`` is one loop over iterations t = 1, 2, ...: while the
pooled removal ratio of the conv or fc layers is short of its target, it
re-scores importance on the masked weights, re-clusters every layer of
that kind, kills the bundles a new group left partially dead, and prunes
each layer's weakest centroid elements until the cumulative per-layer
removal target t*s is reached; with local+global fine-tuning a short local
pass follows each iteration. A run that has not reached its targets after
ceil(max target / s) + 2 iterations raises RuntimeError. A longer global
fine-tuning pass then recovers accuracy. The report times the pruning and
both fine-tuning phases. Everything is deterministic for a fixed seed.
"""
from __future__ import annotations

import contextlib
import copy
import itertools
import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import ops
from .data import Dataset
from .deploy import batch_size_for, count_flops, count_params, map_batches
from .grouping import kmeans_cluster
from .importance import layer_importance
from .model import (Model, _check_seed, _integer, _is_integer, apply_mask, mask_dead_fraction,
                    validate_first_conv_uncompressed)
from .pruning import (RATIO_EPS, kill_bundles, model_dead_fraction, model_ratios,
                      partial_elements, prune_to_ratio)

REPORT_SCHEMA_VERSION = 1
FINETUNE_MODES = ("none", "global", "local+global")

# The SGD recipe every fine-tuning pass shares: momentum, weight decay, and
# the factor the learning rate is multiplied by at each of its milestones.
# The global pass decays at GLOBAL_MILESTONES; the local passes never do.
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
LR_DECAY = 0.1
GLOBAL_MILESTONES = (10, 16)


@dataclass
class TrainConfig:
    epochs: int = 4
    batch_size: int = 32
    lr: float = 1e-3
    lr_milestones: tuple = ()          # epochs at which lr is multiplied by LR_DECAY
    seed: object = 0                   # int or sequence of ints

    def __post_init__(self):
        _check_fields(self, {"epochs": 0, "batch_size": 1}, {"lr": ">= 0"})
        steps = self.lr_milestones
        if not (isinstance(steps, (tuple, list))
                and all(_is_integer(v) and v >= 0 for v in steps)):
            raise ValueError(f"lr_milestones must be a sequence of integers >= 0, got {steps!r}")
        _check_seed(self.seed)


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
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, {"num_groups": 1, "local_epochs": 0, "global_epochs": 0,
                             "batch_size": 1, "seed": 0},
                      {"step": "positive", "target_conv": "in [0, 1]", "target_fc": "in [0, 1]",
                       "local_lr": ">= 0", "global_lr": ">= 0"})
        for kind, target in (("conv", self.target_conv), ("fc", self.target_fc)):
            if target > 0 and self.step > target + RATIO_EPS:
                raise ValueError(
                    f"step {self.step} exceeds target_{kind} {target}; use step <= target"
                )
        if self.finetune not in FINETUNE_MODES:
            raise ValueError(f"finetune must be one of {FINETUNE_MODES}, got {self.finetune!r}")


# The range of each real-valued setting, by the words its error uses.
REAL_RANGES = {"positive": lambda v: v > 0, ">= 0": lambda v: v >= 0,
               "in [0, 1]": lambda v: 0 <= v <= 1}


def _check_fields(config, minimums: dict, reals: dict) -> None:
    """Reject a setting of ``config`` that no run can use, naming its field:
    a ``minimums`` field that is not an integer (a bool is not one) or is
    below its minimum; a ``reals`` field that is not a finite real number
    (a bool is not one) in its REAL_RANGES range. A numpy scalar is stored
    as the Python number it equals, so that a report can hold the config."""
    for key, low in minimums.items():
        setattr(config, key, _integer(getattr(config, key), key, low))
    for key, bounds in reals.items():
        value = getattr(config, key)
        if isinstance(value, np.generic):
            value = value.item()
            setattr(config, key, value)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        # every integer is finite, and math.isfinite overflows on a huge one
        if not (real and (_is_integer(value) or math.isfinite(value))
                and REAL_RANGES[bounds](value)):
            raise ValueError(f"{key} must be finite and {bounds}, got {value!r}")


def _check_class_scores(model, dataset) -> None:
    """Walk the dataset's sample shape through the model, which raises by the
    layer's name where one cannot take its input (before any forward or its
    allocation), and require class scores: a 1-d output at least as wide as
    the dataset has classes."""
    shape = model.out_shape(dataset.features.shape[1:])
    if len(shape) != 1 or shape[0] < dataset.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes but model outputs "
                         f"shape {shape}, not a vector at least that wide")


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
    """SGD with MOMENTUM and WEIGHT_DECAY, the learning rate multiplied by
    LR_DECAY at each of the config's milestones; trains the model in place.

    Pruned connections are re-zeroed after every update, so dead
    connections never revive. Returns each epoch's mean training loss
    over its samples, each batch's loss taken before that batch's update;
    call evaluate for accuracy. Raises RuntimeError if the loss stops
    being finite, and ValueError, before any forward, for a model whose
    output is not class scores, or once a deployed model's group layers
    are asked for the backward pass they do not have.
    """
    if dataset is None or len(dataset) == 0:
        raise ValueError("fine-tuning needs a non-empty dataset")
    _check_class_scores(model, dataset)
    rng = np.random.default_rng(config.seed)
    velocity = {}
    losses = []
    n = len(dataset)
    for epoch in range(config.epochs):
        total_loss = 0.0
        lr = config.lr * LR_DECAY ** sum(epoch >= m for m in config.lr_milestones)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x, y = dataset.features[idx], dataset.labels[idx]
            logits, caches = _forward_cached(model, x)
            loss, dlogits = _softmax_cross_entropy(logits, y)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: loss={loss} at epoch {epoch}, batch {start // config.batch_size}"
                )
            total_loss += loss * len(idx)
            for layer, (dw, db) in _backward(caches, dlogits):
                if id(layer) not in velocity:  # by layer, since names may repeat
                    velocity[id(layer)] = (
                        np.zeros_like(layer.weight),
                        None if layer.bias is None else np.zeros_like(layer.bias))
                vw, vb = velocity[id(layer)]
                dw = dw + WEIGHT_DECAY * layer.weight
                vw *= MOMENTUM
                vw += dw
                layer.weight -= (lr * vw).astype(layer.weight.dtype, copy=False)
                if layer.bias is not None:
                    vb *= MOMENTUM
                    vb += db
                    layer.bias -= (lr * vb).astype(layer.bias.dtype, copy=False)
                apply_mask(layer)
        losses.append(total_loss / n)
    return losses


def evaluate(model: Model, dataset: Dataset) -> dict:
    """Top-1 accuracy, plus top-5 when the label space has >= 5 classes.

    Argmax ties resolve to the lowest class index. A model whose output
    is not class scores raises ValueError before any forward. The dataset
    is forwarded in batches sized by ``batch_size_for``: the largest, at
    most 512, for which no layer runs more than ``deploy.BATCH_MACS``
    multiply-adds per batch, by ``deploy.map_batches``: in parallel when
    there are at least two full batches, since the counts do not depend on
    the order. Conv and affine outputs do not depend on the batch size, fc
    logits only in their last bits.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_class_scores(model, dataset)
    batch_size = batch_size_for(model, dataset.features.shape[1:])
    want_top5 = dataset.num_classes >= 5

    def hits(start):
        """Top-1 and top-5 hits of the batch at ``start`` (0 top-5 without top-5)."""
        x = dataset.features[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        logits = model.forward(x)
        top1 = int((np.argmax(logits, axis=1) == y).sum())
        if not want_top5:
            return top1, 0
        ranked = np.argsort(-logits, axis=1, kind="stable")[:, :5]
        return top1, int((ranked == y[:, None]).any(axis=1).sum())

    counts = map_batches(hits, range(0, n, batch_size), n >= 2 * batch_size)
    top1, top5 = (sum(column) for column in zip(*counts))
    result = {"top1": top1 / n}
    result["top5"] = top5 / n if want_top5 else None
    return result


def _prune_layer(layer, schedule: PruneSchedule, t: int, layer_index: int) -> dict:
    """One compression step on one layer; returns its report record."""
    vectors = layer_importance(layer)
    try:
        grouping = kmeans_cluster(vectors, schedule.num_groups,
                                  seed=[schedule.seed, 11, t, layer_index])
    except ValueError as exc:
        raise ValueError(f"layer {layer.name!r}: {exc}") from exc
    # Masks must be uniform within groups: kill the bundles re-clustering left partially
    # dead. Their importances become 0, so only their centroid elements change, each to 0.
    partial = partial_elements(layer.mask, grouping.assignment, grouping.num_groups)
    kill_bundles(layer, grouping.assignment, partial)
    grouping.centroids[partial] = 0.0
    n = prune_to_ratio(layer, grouping, min(t * schedule.step, 1.0))
    layer.grouping = grouping.assignment
    return {
        "n": n,
        "ratio": mask_dead_fraction(layer.mask),  # the mask is uniform within each group
        "objective": grouping.objective,
        "sq_objective": grouping.sq_objective,
        "synced_bundles": int(partial.sum()),
    }


def run_algorithm1(model: Model, dataset: Dataset | None, schedule: PruneSchedule,
                   test_dataset: Dataset | None = None) -> tuple[Model, dict]:
    """Compress a model to the scheduled removal targets; returns (model, report).

    The input model is not modified; the returned one records the dataset's
    sample shape, or without a dataset keeps its own (ValueError if none).
    When the targets require no pruning at all, the weights come back
    unchanged (fine-tuning is skipped too).
    """
    model = copy.deepcopy(model)
    validate_first_conv_uncompressed(model)
    if schedule.finetune != "none" and (dataset is None or len(dataset) == 0):
        raise ValueError("fine-tuning enabled but no dataset given")
    if dataset is not None:
        model.input_shape = tuple(int(v) for v in dataset.features.shape[1:])
    elif model.input_shape is None:
        raise ValueError("no dataset given and the model records no input shape")

    targets = {"conv2d": schedule.target_conv, "fc": schedule.target_fc}
    compressible = [l for l in model.layers if l.compress]
    eval_set = test_dataset if test_dataset is not None else dataset
    timings = dict.fromkeys(("prune_s", "local_finetune_s", "global_finetune_s"), 0.0)

    @contextlib.contextmanager
    def timed(phase):
        """Add the wall time of the ``with`` body to ``timings[phase]``."""
        tick = time.perf_counter()
        yield
        timings[phase] += time.perf_counter() - tick

    def finetune(epochs, lr, milestones, seed):
        sgd_finetune(model, dataset, TrainConfig(epochs=epochs, batch_size=schedule.batch_size,
                                                 lr=lr, lr_milestones=milestones, seed=seed))

    def accuracy():
        return evaluate(model, eval_set) if eval_set is not None else None

    t_start = time.perf_counter()
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "schedule": asdict(schedule),
        "params_before": count_params(model),
        "flops_before": count_flops(model, model.input_shape),
        "accuracy_before": accuracy(),
        "iterations": [],
    }
    # accuracy_after is the latest model's: only a change to the model calls
    # for evaluating it again
    report["accuracy_after"] = report["accuracy_before"]

    max_t = math.ceil(max(targets.values(), default=0) / schedule.step) + 2
    for t in itertools.count(1):
        pending = [kind for kind, target in targets.items()
                   if target > 0 and any(l.ratio_kind == kind for l in compressible)
                   and model_dead_fraction(model, kind) < target - RATIO_EPS]
        if not pending:
            break
        if t > max_t:
            raise RuntimeError(f"pruning did not reach its targets within {max_t} iterations")
        record = {"t": t, "layers": {}}
        with timed("prune_s"):
            for index, layer in enumerate(compressible):
                if layer.ratio_kind in pending:
                    record["layers"][layer.name] = _prune_layer(layer, schedule, t, index)
        record.update(model_ratios(model))
        if schedule.finetune == "local+global":
            with timed("local_finetune_s"):
                finetune(schedule.local_epochs, schedule.local_lr, (), [schedule.seed, 22, t])
        if eval_set is not None:
            record["accuracy"] = report["accuracy_after"] = accuracy()
        report["iterations"].append(record)

    if schedule.finetune != "none" and report["iterations"]:
        with timed("global_finetune_s"):
            finetune(schedule.global_epochs, schedule.global_lr, GLOBAL_MILESTONES,
                     [schedule.seed, 33])
        report["accuracy_after"] = accuracy()

    report["final"] = {**model_ratios(model),
                       "network_dead_fraction": model_dead_fraction(model)}
    report["params_after"] = count_params(model)
    report["flops_after"] = count_flops(model, model.input_shape)
    report["timings"] = {**timings, "total_s": time.perf_counter() - t_start}
    return model, report
