"""Print one sha256 per artifact of a fixed-seed CLI flow.

A change that should not alter behaviour can prove its output bytes
unchanged by running this script before and after it and comparing the
two listings:

    python tools/flow_digest.py

It builds four models in a temporary directory: the toy CNN and a net
that holds every layer record kind (the toy CNN with a frozen affine
layer after conv1 and no conv2 bias, so its pruned fc is deployed as a
group layer), each fine-tuned first, and perfbench's planted 64-channel
net (``build_wide_net``) at 16x16 and 32x32. The toy net is pruned with
``--finetune local+global``, the every-kind net with ``--finetune
global``, the wide nets with ``--finetune none``. Each pruned model is
then reported with ``--json`` (the ratios of masked layers, which pass
the group rule) and deployed, and the deployed model is reported with
``--json`` and evaluated; each net also runs a two-cell sweep. Every
command runs in-process through ``sgconv.cli.main`` on relative paths,
so no temporary path reaches an output. The listing
digests the model manifests and blobs, each prune report's ``schedule``
block and, apart from it, the rest of the report without its ``timings``
(wall times vary), both report JSONs, the sweep CSVs and each command's
stdout. A change to the schedule's settings thus differs in one line per
net and leaves the rest of the report provably unchanged. BLAS is pinned
to one thread, since its kernel choice may depend on the thread count.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before anything imports numpy

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sgconv import cli, data, model, pipeline  # noqa: E402
from sgconv.io import save_model, sgm_paths  # noqa: E402
from workloads import build_wide_net  # noqa: E402

# (net, image size, fine-tune flags that prune and sweep share, prune's other flags)
FLOWS = (
    ("toy", 8, ["--finetune", "local+global", "--local-epochs", "1", "--global-epochs", "3"],
     ["--seed", "42"]),
    ("kinds", 8, ["--finetune", "global", "--global-epochs", "2"],
     ["--groups", "4", "--seed", "5"]),
    ("wide16", 16, ["--finetune", "none"],
     ["--step", "0.1", "--target-conv", "0.75", "--target-fc", "0.5", "--seed", "3"]),
    ("wide32", 32, ["--finetune", "none"],
     ["--step", "0.75", "--target-conv", "0.75", "--target-fc", "0.75", "--seed", "3"]),
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    """One CLI command; returns its stdout, or exits naming the command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"`sgconv {' '.join(argv)}` exited {code}")
    return out.getvalue()


def build(net: str, size: int) -> None:
    """Write ``<net>.sgm.*``, ``<net>-train.sgd`` and ``<net>-test.sgd``."""
    wide = net.startswith("wide")
    kw = dict(num_classes=8, image_size=size) if wide else {}
    train = data.make_blob_dataset(128 if wide else 300, seed=[size, 1], **kw)
    test = data.make_blob_dataset(128 if wide else 150, seed=[size, 2], **kw)
    if wide:
        dense = build_wide_net([size, 4], 64, train)
    else:
        dense = model.build_toy_cnn(seed=0)
        if net == "kinds":
            rng = np.random.default_rng(5)
            dense.layer("conv2").bias = None
            dense.layers.insert(1, model.AffineLayer(
                "bn1", rng.uniform(0.5, 1.5, 8).astype(np.float32),
                rng.uniform(-0.1, 0.1, 8).astype(np.float32)))
        pipeline.sgd_finetune(dense, train, pipeline.TrainConfig(epochs=4, lr=0.01, seed=0))
    data.save_dataset(train, f"{net}-train.sgd")
    data.save_dataset(test, f"{net}-test.sgd")
    save_model(dense, *sgm_paths(net))


def flow(net: str, size: int, train_flags: list, prune_flags: list) -> dict:
    """The digests of one net's artifacts, by name."""
    build(net, size)
    pruned, deployed = f"{net}-pruned", f"{net}-deployed"
    stdout = {
        "prune": run(["prune", "--model", net, "--data", f"{net}-train.sgd",
                      "--out", pruned, *train_flags, *prune_flags]),
        "pruned report": run(["report", "--model", pruned, "--json",
                              f"{pruned}-report.json"]),
        "deploy": run(["deploy", "--model", pruned, "--out", deployed]),
        "report": run(["report", "--model", deployed, "--json", f"{net}-report.json"]),
        "eval": run(["eval", "--model", deployed, "--data", f"{net}-test.sgd"]),
        "sweep": run(["sweep", "--model", net, "--data", f"{net}-train.sgd",
                      "--test-data", f"{net}-test.sgd", "--steps", "0.25",
                      "--out", f"{net}-sweep.csv", *train_flags]),
    }
    report = json.loads(Path(f"{pruned}.report.json").read_text(encoding="utf-8"))
    report.pop("timings")
    schedule = report.pop("schedule")
    digests = {path.name: sha(path.read_bytes())
               for prefix in (pruned, deployed) for path in sgm_paths(prefix)}
    digests.update({
        f"{pruned}.report schedule": sha(json.dumps(schedule, sort_keys=True).encode()),
        f"{pruned}.report (no schedule, timings)":
            sha(json.dumps(report, sort_keys=True).encode()),
        **{name: sha(Path(name).read_bytes())
           for name in (f"{pruned}-report.json", f"{net}-report.json")},
        f"{net}-sweep.csv": sha(Path(f"{net}-sweep.csv").read_bytes()),
    })
    digests.update({f"{net} {command} stdout": sha(text.encode())
                    for command, text in stdout.items()})
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for net, size, train_flags, prune_flags in FLOWS:
                for name, digest in flow(net, size, train_flags, prune_flags).items():
                    print(f"{digest}  {name}")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
