"""Workload definitions: generated inputs, the compress operation, serving.

Every workload compresses a network with the real CLI (``sgconv prune``,
``deploy`` and ``eval``, called in-process through ``sgconv.cli.main``)
and serves the deployed network through ``Model.forward``. The workloads
differ in where the measured time goes:

* ``compress-toy`` repeats the compress operation on the pre-trained toy
  CNN with ``local+global`` fine-tuning, so its time is SGD through the
  dense conv/fc kernels on 8x8 inputs. A fifth of the window serves.
* ``cluster-wide`` repeats it on a 64-channel net without fine-tuning, so
  its time is k-means over 64x64 importance matrices and pruning selection.
  A fifth of the window serves.
* ``infer-deployed`` compresses once per set-up and spends the measured
  time serving batch-1 and batch-64 requests, deployed and dense-masked.

All inputs come from the workload seed. The package sees only the files
and arrays generated here.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sgconv import cli, data, io, model, pipeline

# deploy's own default equivalence tolerance; responses are held to it too
RESPONSE_TOL = 1e-5
# set-up repeats: at least 3, more while they add up to under 1.5 s
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 10, 1.5
B1_PER_CYCLE = 8
# 100 batch-1 samples leave at least 10 beyond the reported p90
MIN_B1_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    net: str                  # "toy" (pre-trained build_toy_cnn) or "wide"
    image_size: int
    channels: int             # width of the wide net; unused for "toy"
    train_count: int
    test_count: int
    prune_flags: tuple        # CLI flags of `sgconv prune` besides paths and seed
    compress_share: float     # share of --seconds spent repeating the compress op;
    #                           0 means one compress op per set-up, then serving only
    b1_pool: int = 32
    b64_pool: int = 2         # batches of 64

    def tiny(self) -> "Workload":
        """The same workload at a size that runs in a few seconds (smoke tests)."""
        flags = list(self.prune_flags)
        for flag, value in (("--local-epochs", "1"), ("--global-epochs", "1")):
            flags += [flag, value]
        if self.compress_share:
            flags += ["--step", "0.25", "--target-conv", "0.5", "--target-fc", "0.25"]
        return replace(self, image_size=min(self.image_size, 16),
                       channels=min(self.channels, 16), train_count=64,
                       test_count=32, prune_flags=tuple(flags), b1_pool=8, b64_pool=1)


WORKLOADS = {w.name: w for w in (
    Workload("compress-toy",
             net="toy", image_size=8, channels=8, train_count=600, test_count=300,
             prune_flags=("--groups", "8", "--step", "0.05", "--target-conv", "0.8",
                          "--target-fc", "0.6", "--finetune", "local+global"),
             compress_share=0.8),
    Workload("cluster-wide",
             net="wide", image_size=16, channels=64, train_count=128, test_count=128,
             prune_flags=("--groups", "8", "--step", "0.1", "--target-conv", "0.75",
                          "--target-fc", "0.5", "--finetune", "none"),
             compress_share=0.8),
    Workload("infer-deployed",
             net="wide", image_size=32, channels=64, train_count=128, test_count=128,
             prune_flags=("--groups", "8", "--step", "0.75", "--target-conv", "0.75",
                          "--target-fc", "0.75", "--finetune", "none"),
             compress_share=0.0),
)}


def build_wide_net(seed, channels, train, groups=8, keep=0.15, weak=0.05):
    """4-conv net (first conv uncompressed) plus an fc head fitted to ``train``.

    Stands in for a trained network whose filters share important input
    channels: the filters of each compressible conv fall into ``groups``
    planted groups, and each group has strong weights on its own random
    ``keep`` share of input channels and weights scaled by ``weak``
    elsewhere. The fc head is a ridge-regression fit on the conv features,
    so the dense net classifies the blobs and pruning has an accuracy to keep.
    ``keep`` stays below 1 - 0.8, so even the last step of a 0.1-step
    schedule to 0.75 (cumulative target 0.8) can prune only weak bundles.
    """
    rng = np.random.default_rng(seed)
    layers = []
    c_in = train.features.shape[1]
    for i, stride in enumerate((1, 1, 2, 2)):
        compress = i > 0
        fan_in = c_in * 9 * (keep if compress else 1.0)
        weight = rng.standard_normal((channels, c_in, 3, 3)) * np.sqrt(2.0 / fan_in)
        if compress:
            member = rng.permutation(channels) % groups
            strong = np.zeros((groups, c_in), dtype=bool)
            for g in range(groups):
                strong[g, rng.choice(c_in, max(1, round(c_in * keep)), replace=False)] = True
            weight *= np.where(strong[member], 1.0, weak)[:, :, None, None]
        layers.append(model.ConvLayer(f"conv{i + 1}", weight.astype(np.float32),
                                      np.zeros(channels, np.float32), stride=stride,
                                      padding=1, activation="relu", compress=compress))
        c_in = channels
    feats = model.Model(layers).forward(train.features)
    feats = feats.reshape(len(train), -1).astype(np.float64)
    mean, scale = feats.mean(axis=0), feats.std() + 1e-6
    z = (feats - mean) / scale
    targets = np.eye(train.num_classes)[train.labels] - 1.0 / train.num_classes
    # dual-form ridge regression: fewer samples than features
    weight = (z.T @ np.linalg.solve(z @ z.T + np.eye(len(z)), targets)).T / scale
    layers.append(model.FcLayer("fc1", weight.astype(np.float32),
                                (-(weight @ mean)).astype(np.float32), compress=True))
    return model.Model(layers)


def run_cli(argv, workdir):
    """Run one CLI command in-process; returns (exit code, captured output)."""
    out = _io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raw traceback breaks the CLI's exit-code contract
        code = -1
        out.write(traceback.format_exc())
    return code, out.getvalue().replace(str(workdir), "<work>")


@dataclass
class OpResult:
    seconds: float
    ok: bool
    error: str
    traced: bool = False
    digest: str = ""
    top1: float = 0.0
    network_ratio: float = 0.0
    report: dict | None = None


class Files:
    """Paths of one set-up's generated inputs and the CLI's outputs."""

    def __init__(self, root: Path):
        self.root = root
        self.train = root / "train.sgd"
        self.test = root / "test.sgd"
        self.dense = root / "dense"
        self.pruned = root / "pruned"
        self.deployed = root / "deployed"
        self.report = root / "pruned.report.json"

    def model_bytes(self, prefix) -> bytes:
        manifest, blob = io.sgm_paths(prefix)
        return manifest.read_bytes() + blob.read_bytes()


def compress_op(w: Workload, files: Files, seed: int) -> OpResult:
    """prune -> deploy -> eval through the CLI, timed as one operation."""
    for prefix in (files.pruned, files.deployed):
        for path in io.sgm_paths(prefix):
            path.unlink(missing_ok=True)
    files.report.unlink(missing_ok=True)
    commands = [
        ["prune", "--model", files.dense, "--data", files.train, "--out", files.pruned,
         "--seed", seed, *w.prune_flags],
        ["deploy", "--model", files.pruned, "--out", files.deployed, "--seed", seed],
        ["eval", "--model", files.deployed, "--data", files.test],
    ]
    outputs = []
    tick = time.perf_counter()
    for argv in commands:
        code, text = run_cli(argv, files.root)
        outputs.append(text)
        if code != 0:
            return OpResult(time.perf_counter() - tick, False,
                            f"`sgconv {argv[0]}` exited {code}: {text.strip()[-300:]}")
    elapsed = time.perf_counter() - tick
    report = json.loads(files.report.read_text(encoding="utf-8"))
    stable = {k: v for k, v in report.items() if k != "timings"}  # wall times vary
    digest = hashlib.sha256()
    digest.update(files.model_bytes(files.pruned))
    digest.update(files.model_bytes(files.deployed))
    digest.update(json.dumps(stable, sort_keys=True).encode())
    digest.update("".join(outputs).encode())
    top1 = float(outputs[2].split()[1])
    return OpResult(elapsed, True, "", digest=digest.hexdigest(), top1=top1,
                    network_ratio=report["final"]["network_ratio"], report=report)


@dataclass
class Setup:
    files: Files
    seconds: float
    inputs_digest: str
    pools: dict                       # "b1": (1,C,H,W) arrays, "b64": (64,C,H,W) arrays
    op: OpResult | None = None        # serving-only workloads compress in set-up
    server: "Server | None" = None


def setup(w: Workload, seed: int, root: Path) -> Setup:
    """Generate the inputs from the seed and write them; compress once if serving-only."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    files = Files(root)
    tick = time.perf_counter()
    kw = dict(num_classes=8, image_size=w.image_size)
    train = data.make_blob_dataset(w.train_count, seed=[seed, 1], **kw)
    test = data.make_blob_dataset(w.test_count, seed=[seed, 2], **kw)
    pool = data.make_blob_dataset(w.b1_pool + 64 * w.b64_pool, seed=[seed, 3], **kw).features
    if w.net == "toy":
        net = model.build_toy_cnn(seed=[seed, 4], num_classes=8)
        pipeline.sgd_finetune(net, train, pipeline.TrainConfig(epochs=6, lr=0.01,
                                                               seed=[seed, 5]))
    else:
        net = build_wide_net([seed, 4], w.channels, train)
    data.save_dataset(train, files.train)
    data.save_dataset(test, files.test)
    io.save_model(net, *io.sgm_paths(files.dense))
    pools = {"b1": [pool[i:i + 1] for i in range(w.b1_pool)],
             "b64": [pool[w.b1_pool + 64 * i: w.b1_pool + 64 * (i + 1)]
                     for i in range(w.b64_pool)]}
    op = server = None
    if not w.compress_share:
        op = compress_op(w, files, seed)
        server = Server(files, pools) if op.ok else None
    elapsed = time.perf_counter() - tick
    digest = hashlib.sha256(files.train.read_bytes() + files.test.read_bytes()
                            + files.model_bytes(files.dense) + pool.tobytes()).hexdigest()
    return Setup(files, elapsed, digest, pools, op, server)


class Server:
    """Closed loop, one client: each request is sent after the previous returns.

    A cycle is B1_PER_CYCLE batch-1 requests and one batch-64 request from
    the pre-generated pool. Every request runs on the deployed model and
    on the dense-masked model it was converted from; which goes first
    alternates from request to request. Responses are checked against the dense-masked reference
    output of the same pooled input at deploy's tolerance, and must repeat
    bit for bit each time the input comes round again.
    """

    def __init__(self, files: Files, pools: dict):
        self.models = {"deployed": io.load_model(*io.sgm_paths(files.deployed)),
                       "dense": io.load_model(*io.sgm_paths(files.pruned))}
        self.pools = pools
        dense = self.models["dense"]
        self.reference = {(kind, i): dense.forward(x)
                          for kind, xs in pools.items() for i, x in enumerate(xs)}
        self.first = {}           # (mode, kind, index) -> bytes of the first response
        self.samples = {(kind, mode, traced): [] for kind in pools
                        for mode in self.models for traced in (False, True)}
        self.ratios = {(kind, traced): [] for kind in pools for traced in (False, True)}
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.cycles = 0

    def request(self, kind, index, tracer):
        x = self.pools[kind][index]
        traced = tracer.active
        times = {}
        ok = True
        order = ("deployed", "dense") if self.attempted % 2 == 0 else ("dense", "deployed")
        for mode in order:
            net = self.models[mode]
            with (tracer.span("request", {"mode": mode, "batch": len(x)})
                  if traced else contextlib.nullcontext()):
                tick = time.perf_counter()
                y = net.forward(x)
                times[mode] = time.perf_counter() - tick
            dev = float(np.max(np.abs(y - self.reference[kind, index])))
            first = self.first.setdefault((mode, kind, index), y.tobytes())
            if not dev <= RESPONSE_TOL or first != y.tobytes():
                ok = False
                self.errors.append(f"{mode} {kind}[{index}]: deviation {dev:.3e}"
                                   + ("" if first == y.tobytes() else ", not repeatable"))
            self.samples[kind, mode, traced].append(times[mode])
        self.ratios[kind, traced].append(times["dense"] / times["deployed"])
        self.attempted += 1
        self.failed += not ok

    def cycle(self, tracer):
        for j in range(B1_PER_CYCLE):
            self.request("b1", (self.cycles * B1_PER_CYCLE + j) % len(self.pools["b1"]),
                         tracer)
        self.request("b64", self.cycles % len(self.pools["b64"]), tracer)
        self.cycles += 1

    def outputs_digest(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self.first):
            digest.update(repr(key).encode() + self.first[key])
        return digest.hexdigest()
