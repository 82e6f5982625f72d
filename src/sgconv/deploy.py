"""Convert masked dense layers into explicit diverse group convolutions.

Each cluster of filters becomes one dense block that sees only its
surviving input channels. The channel gather is a selection operator
(one 1 per row; a channel may feed several blocks or none), while the
output side is a true permutation back to the original filter order.
Conversion never changes what the layer computes: a converted model is
checked against the masked dense forward before it is trusted.
"""
from __future__ import annotations

import copy
import functools
import os
import threading

import numpy as np

from .model import GroupBlock, GroupConvLayer, Model, _check_seed, _is_integer, layer_forward
from .pruning import GranularityError, filter_groups


class EquivalenceError(Exception):
    """Converted model disagrees with the masked dense forward."""


def convert_layer(layer):
    """Rewrite a masked conv/fc layer as an equivalent group-conv layer.

    Each group of ``filter_groups`` becomes one block: its filters, in
    ascending order, and the input channels the mask row of its first
    filter keeps, which the group rule makes those of every filter in it.
    Groups whose channels are all pruned get an empty channel list (their
    filters emit bias only). Raises GranularityError, from the rule, when
    the mask rows of a group disagree.
    """
    assignment = filter_groups(layer)
    blocks = []
    for gid in range(int(assignment.max()) + 1):
        filt = np.flatnonzero(assignment == gid)
        channels = np.flatnonzero(layer.mask[filt[0]]) if len(filt) else np.empty(0, np.int64)
        blocks.append(GroupBlock(filt, channels, np.ascontiguousarray(
            layer.kernels[np.ix_(filt, channels)])))
    return GroupConvLayer(
        name=layer.name, groups=blocks,
        in_channels=layer.mask.shape[1], out_channels=layer.mask.shape[0],
        kernel=layer.kernel, bias=None if layer.bias is None else layer.bias.copy(),
        stride=layer.stride, padding=layer.padding,
        activation=layer.activation, source=layer.kind,
    )


def convert_model(model: Model) -> Model:
    """Deploy: replace every compressible masked layer by group-conv blocks."""
    return Model(layers=[convert_layer(layer) if layer.compress
                         else copy.deepcopy(layer) for layer in model.layers],
                 input_shape=model.input_shape)


def count_params(model: Model) -> int:
    """Live weights plus biases (dead conv connections drop their whole kernel)."""
    return sum(layer.params() for layer in model.layers)


def count_flops(model: Model, input_shape) -> int:
    """FLOPs of one forward pass at the given input shape, as 2 x MACs.

    Dense layers are billed at their full dense cost (masks do not make
    the dense kernel cheaper); group-conv layers are billed per block at
    gathered-channel sizes. Bias adds are not counted.
    """
    return 2 * sum(layer.macs(shape) for layer, shape in model.layer_inputs(input_shape))


# Most multiply-adds any one layer may run for a whole batch that the
# callers owning an input set (evaluate, the equivalence check) forward at
# once. A dense conv's unfolded input holds at most its MACs / C_out
# values, so at 2**27 MACs a 64-filter conv unfolds 8 MiB of float32 per
# batch: below glibc's largest mmap threshold (32 MiB), so the buffer is
# reused from the heap rather than mapped and page-faulted afresh. Up to
# WORKERS batches are in flight at once (map_batches): two on two CPUs
# with BLAS pinned to one thread.
BATCH_MACS = 2 ** 27
MAX_BATCH = 512

# The variables that set BLAS's thread count in OpenBLAS, OpenMP, MKL, BLIS
# and Accelerate.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _count_workers(environ) -> int:
    """The usable CPUs divided by BLAS's thread count, at least 1. BLAS is
    taken to run the largest count that ``environ`` sets in BLAS_THREAD_VARS,
    and every CPU when none is set or one holds no integer >= 1: threads
    that each call a BLAS which already uses every core only slow it down."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    pins = [environ[var].strip() for var in BLAS_THREAD_VARS if environ.get(var, "").strip()]
    if not pins or not all(pin.isdigit() and int(pin) >= 1 for pin in pins):
        return 1
    return max(1, cpus // max(map(int, pins)))


# Threads that map_batches runs a parallel call's batches on, the caller's
# included; fixed at import, from the environment BLAS itself reads then.
WORKERS = _count_workers(os.environ)


def map_batches(fn, batches, parallel: bool):
    """``fn`` of each of ``batches``, in batch order.

    With ``parallel`` and WORKERS > 1, the calling thread and WORKERS - 1
    helpers each take the next batch from the one iterator, drawn in order
    under a lock, so each thread holds one batch at a time; the results
    come back as a list. A failure in any thread, or an interrupt before
    the caller's draws are over, is recorded under the lock, which stops
    the draws; every started helper is joined and the first failure is
    re-raised. An interrupt during that join propagates at once, while the
    helpers finish the batches they hold. Otherwise the batches run one
    after another on the calling thread as the returned iterator is
    consumed, so no result is held that the caller does not keep.
    """
    if not parallel or WORKERS < 2:
        return map(fn, batches)
    numbered, lock, results, failures = enumerate(batches), threading.Lock(), {}, []

    def work():
        while True:
            with lock:
                item = None if failures else next(numbered, None)
            if item is None:
                return
            results[item[0]] = fn(item[1])

    def helper():
        try:
            work()
        except BaseException as exc:  # the caller re-raises it
            with lock:
                failures.append(exc)

    threads = [threading.Thread(target=helper, daemon=True) for _ in range(WORKERS - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    except BaseException as exc:  # the caller's own failure, or an interrupt
        with lock:
            failures.append(exc)
    finally:  # the draws are over: the batches ran out or a failure is recorded
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if failures:
        raise failures[0]
    return [results[i] for i in range(len(results))]


def batch_size_for(model: Model, input_shape) -> int:
    """Largest batch, at most MAX_BATCH, for which no layer's per-sample
    ``executed_macs(input_shape)`` times the batch exceeds BATCH_MACS; 1 when
    a single sample already does. A group layer whose plan runs one dense
    GEMM is sized by that GEMM, as its masked source is. Walks the shapes as
    count_flops does and raises the same named errors."""
    largest = max((layer.executed_macs(shape)
                   for layer, shape in model.layer_inputs(input_shape)), default=0)
    return max(1, min(MAX_BATCH, BATCH_MACS // max(largest, 1)))


def _batches(step: int, input_shape, n_inputs, seed):
    """Standard-normal float32 inputs in batches of ``step``, each drawn as
    it is used from one generator: the same values as one draw of all the
    inputs, without holding them."""
    rng = np.random.default_rng(seed)
    for lo in range(0, n_inputs, step):
        yield rng.standard_normal((min(step, n_inputs - lo), *input_shape)).astype(np.float32)


# the equivalence check's inputs, their seed and its tolerance, unless a
# caller gives them; `sgconv deploy` takes its defaults from here
CHECK_INPUTS, CHECK_SEED, CHECK_TOLERANCE = 100, 0, 1e-5


def layer_deviations(model_a: Model, model_b: Model, input_shape,
                     n_inputs: int = CHECK_INPUTS, seed=CHECK_SEED) -> np.ndarray:
    """Largest |a - b| of each layer's outputs (NaN if any is NaN), running
    the two models side by side, layer by layer, on random standard-normal
    inputs; the last entry is the output deviation. The models must have
    as many layers.

    Both models run on the same batches, each the largest that neither
    model's batch_size_for exceeds, by map_batches, in parallel when there
    are at least two full batches; the maxima do not depend on the order.
    Conv and affine outputs do not depend on the split; fc outputs may
    differ in the last bits from one whole-batch forward, since BLAS picks
    its kernel by matrix size.
    """
    if not _is_integer(n_inputs) or n_inputs < 1:
        raise ValueError(f"equivalence check needs an integer number of inputs >= 1, "
                         f"got n_inputs={n_inputs!r}")
    _check_seed(seed, "equivalence check: ")

    def deviations(x):
        devs = np.zeros(len(model_b.layers))
        xa = xb = x
        for i, (layer_a, layer_b) in enumerate(zip(model_a.layers, model_b.layers,
                                                   strict=True)):
            xa, xb = layer_forward(layer_a, xa), layer_forward(layer_b, xb)
            devs[i] = np.max(np.abs(xa - xb))
        return devs

    step = min(batch_size_for(model_a, input_shape), batch_size_for(model_b, input_shape))
    per_batch = map_batches(deviations, _batches(step, input_shape, n_inputs, seed),
                            n_inputs >= 2 * step)
    return functools.reduce(np.maximum, per_batch,  # np.maximum keeps a NaN
                            np.zeros(len(model_b.layers)))


def verify_equivalence(original: Model, deployed: Model, input_shape,
                       n_inputs: int = CHECK_INPUTS, seed=CHECK_SEED,
                       tol: float = CHECK_TOLERANCE) -> float:
    """Check deployed outputs against the masked dense forward, or raise;
    returns the output deviation of layer_deviations (0 without layers).

    A NaN deviation fails the check: NaN outputs prove no equivalence.
    The models run side by side once, so a failed check's error names
    the first layer over tolerance.
    """
    if not tol >= 0:
        raise ValueError(f"equivalence tolerance must be a number >= 0, got tol={tol}")
    devs = layer_deviations(original, deployed, input_shape, n_inputs, seed)
    dev = float(devs[-1]) if len(devs) else 0.0
    if not dev <= tol:  # then the output layer, at least, is over tolerance
        name, first = next((layer.name, d) for layer, d in zip(deployed.layers, devs)
                           if not d <= tol)
        raise EquivalenceError(f"deployed model deviates from masked dense forward: "
                               f"max abs deviation {dev:.3e} > {tol:.1e}; first layer "
                               f"over tolerance: {name!r} ({first:.3e})")
    return dev
