"""sgconv benchmark: compress time, deployed inference speed, per-module timings.

    python3 perfbench/run.py --workload compress-toy --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and BENCHMARK.json) in this process
against the package in ``src/`` of the checkout, checks its outputs and
prints every metric by name and unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced. With ``--trace 1`` they are the per-layer ones: every
other operation (or serving cycle) runs with spans around each call into
a public function of the sgconv modules, and the untraced ones give the
tracing overhead. A result file with the environment, every sample count
and the per-function table goes to ``perfbench/results/``; a traced run
also writes its spans there, as gzipped JSON lines.

Per-layer ``_s`` and ``_calls`` metrics are per operation of the traced
run: per compress operation on the compress workloads, per serving cycle
on infer-deployed. Kernel metrics (``ops.*_s``, ``pipeline.sgd_finetune_s``,
``cli.self_s``) are self time: span minus its direct child spans. Phase
metrics (k-means, importance, pruning selection, deploy, io, data) are
inclusive: the outermost spans of the named functions.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAYER_NAMES = ("conv1", "conv2", "conv3", "conv4", "fc1")
MODES = ("dense", "deployed")
KERNEL_SELF = (  # functions whose self time (and call count) is reported
    "ops.conv2d_forward", "ops.conv2d_backward", "ops.fc_forward", "ops.fc_backward",
    "ops.group_conv_forward", "ops.group_fc_forward", "pipeline.sgd_finetune",
)
PHASE_INCL = {  # metric -> function whose outermost spans it sums
    "grouping.kmeans_cluster_s": "grouping.kmeans_cluster",
    "importance.layer_importance_s": "importance.layer_importance",
    "deploy.convert_model_s": "deploy.convert_model",
    "deploy.verify_equivalence_s": "deploy.verify_equivalence",
    "io.save_model_s": "io.save_model",
    "io.load_model_s": "io.load_model",
    "data.load_dataset_s": "data.load_dataset",
}
# (name, unit) of every end-to-end and per-layer metric; BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s"), ("compress_s", "s"), ("top1_after", "fraction"),
    ("network_ratio", "fraction"), ("flops_kept", "fraction"),
    ("latency_b1_ms_p50", "ms"), ("latency_b1_ms_p90", "ms"),
    ("throughput_b64_img_s", "img/s"), ("speedup_b1", "x"), ("speedup_b64", "x"),
    ("ok_frac", "fraction"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *[(f"{stem}_s", "s") for stem in KERNEL_SELF],
    *[(f"{stem}_calls", "count") for stem in KERNEL_SELF],
    *[(name, "s") for name in PHASE_INCL],
    ("grouping.kmeans_cluster_calls", "count"), ("grouping.kmeans_points", "count"),
    ("pruning.select_s", "s"), ("cli.self_s", "s"), ("io.bytes_written", "bytes"),
    ("pipeline.iterations", "count"), ("pruning.bundles_killed", "count"),
    ("pruning.bundles_synced", "count"),
    ("ops.group_conv_forward_gflop_s", "GFLOP/s"), ("ops.conv2d_forward_gflop_s", "GFLOP/s"),
    *[(f"model.layer_forward_ms.{m}.{l}", "ms") for m in MODES for l in LAYER_NAMES],
    *[(f"model.layer_mflop.{m}.{l}", "MFLOP") for m in MODES for l in LAYER_NAMES],
    ("trace.overhead_compress", "x"), ("trace.overhead_latency_b1", "x"),
)
NO_WAIT_NOTE = ("one process, one client and no queue: no layer has waiting time, "
                "so none is reported")


def environment(seed) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown: checkout is not a git repository"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "sgconv").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its configuration
        blas = "unavailable"
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_thread_pin": {v: os.environ.get(v) for v in PIN_VARS},
        "seed": seed, "git_commit": commit, "src_sha256": src.hexdigest(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def check(setups, ops, server) -> tuple[int, int, list]:
    """(attempted, failed, error messages) over compress ops and served requests.

    An op fails when a CLI command exits non-zero or when it does not
    reproduce the first op of the run; a request fails when a response
    deviates from its reference or does not repeat.
    """
    errors = [op.error for op in ops if not op.ok]
    good = [op for op in ops if op.ok]
    differ = [op for op in good[1:] if (op.digest, op.top1, op.network_ratio)
              != (good[0].digest, good[0].top1, good[0].network_ratio)]
    errors += [f"compress op (traced={op.traced}) did not reproduce the first op's "
               "outputs" for op in differ]
    if len({s.inputs_digest for s in setups}) != 1:
        errors.append("set-ups of one seed generated different inputs")
    if server is None:
        errors.append("no deployed model to serve")
        return len(ops), len(ops) - len(good) + len(differ), errors
    errors += server.errors
    return (len(ops) + server.attempted,
            len(ops) - len(good) + len(differ) + server.failed, errors)


def end_to_end(setups, ops, server, flops_kept) -> dict:
    untraced = [op for op in ops if op.ok and not op.traced]
    b1 = [t * 1e3 for t in server.samples["b1", "deployed", False]] if server else []
    b64 = server.samples["b64", "deployed", False] if server else []
    first = untraced[0] if untraced else None
    p50, p90 = (statistics.quantiles(b1, n=10, method="inclusive")[i] for i in (4, 8)) \
        if len(b1) > 1 else (0.0, 0.0)
    return {
        "setup_s": median([s.seconds for s in setups]),
        "compress_s": median([op.seconds for op in untraced]),
        "top1_after": first.top1 if first else 0.0,
        "network_ratio": first.network_ratio if first else 0.0,
        "flops_kept": flops_kept,
        "latency_b1_ms_p50": p50,
        "latency_b1_ms_p90": p90,
        "throughput_b64_img_s": ratio(64, median(b64)),
        "speedup_b1": median(server.ratios["b1", False]) if server else 0.0,
        "speedup_b64": median(server.ratios["b64", False]) if server else 0.0,
    }


def per_layer(w, tracer, ops, server, report) -> tuple[dict, dict]:
    from tracing import ATTRS, NAME, ROOT as ROOT_ID, function_table, seconds, timed_spans

    spans = tracer.spans
    compress_roots = {s[0] for s in spans if s[NAME] == "compress"}
    request_roots = {s[0] for s in spans if s[NAME] == "request"}
    if w.compress_share:
        primary, units, unit = compress_roots, len(compress_roots), "compress operation"
    else:
        primary = request_roots
        units = sum(1 for s in spans if s[NAME] == "request" and s[ATTRS]["batch"] == 64
                    and s[ATTRS]["mode"] == "deployed")
        unit = "serving cycle"
    timed = timed_spans(spans, primary)
    table = function_table(timed)
    m = {}
    for fn in KERNEL_SELF:
        m[f"{fn}_s"] = ratio(seconds(timed, {fn}, inclusive=False), units)
        m[f"{fn}_calls"] = ratio(table.get(fn, {}).get("calls", 0), units)
    for name, fn in PHASE_INCL.items():
        m[name] = ratio(seconds(timed, {fn}, inclusive=True), units)
    m["grouping.kmeans_cluster_calls"] = ratio(
        table.get("grouping.kmeans_cluster", {}).get("calls", 0), units)
    m["grouping.kmeans_points"] = ratio(sum(
        s[ATTRS]["points"] for s, *_ in timed if s[NAME] == "grouping.kmeans_cluster"), units)
    pruning = {n for n in table if n.startswith("pruning.")}
    m["pruning.select_s"] = ratio(seconds(timed, pruning, inclusive=True), units)
    m["cli.self_s"] = ratio(seconds(timed, {n for n in table if n.startswith("cli.")},
                                    inclusive=False), units)
    m["io.bytes_written"] = ratio(sum(
        s[ATTRS]["bytes"] for s, *_ in timed if s[NAME] == "io.save_model"), units)
    iterations = report["iterations"] if report else []
    m["pipeline.iterations"] = len(iterations)
    m["pruning.bundles_killed"] = sum(r["n"] for it in iterations
                                      for r in it["layers"].values())
    m["pruning.bundles_synced"] = sum(r["synced_bundles"] for it in iterations
                                      for r in it["layers"].values())

    # kernel throughput and the FLOP-vs-clock table come from served requests
    served = timed_spans(spans, request_roots)
    flops = {}
    for s, *_ in served:
        if s[NAME].startswith("ops.") and s[ATTRS] and "flops" in s[ATTRS]:
            flops[s[0]] = s[ATTRS]["flops"]

    def gflop_s(keep):
        rows = [(flops[s[0]], d) for s, d, _o, parent in served
                if s[0] in flops and keep(s, parent)]
        return ratio(sum(f for f, _ in rows) / 1e9, sum(d for _, d in rows))

    m["ops.group_conv_forward_gflop_s"] = gflop_s(
        lambda s, parent: s[NAME] == "ops.group_conv_forward")
    m["ops.conv2d_forward_gflop_s"] = gflop_s(
        lambda s, parent: s[NAME] == "ops.conv2d_forward"
        and parent != "ops.group_conv_forward")
    children = {}
    for s, *_ in served:
        children.setdefault(s[1], []).append(s[0])
    layer_rows = {}
    for s, dur, _own, _parent in served:
        root = spans[s[ROOT_ID]][ATTRS]
        if s[NAME] == "model.layer_forward" and root["batch"] == 64:
            row = layer_rows.setdefault((root["mode"], s[ATTRS]["layer"]), [[], 0])
            row[0].append(dur * 1e3)
            row[1] = sum(flops.get(c, 0) for c in children.get(s[0], ())) / 1e6
    layer_table = [{"mode": mode, "layer": layer, "ms_median": median(times),
                    "mflop": mflop, "calls": len(times),
                    "gflop_s": ratio(mflop, median(times))}
                   for (mode, layer), (times, mflop) in sorted(layer_rows.items())]
    for mode in MODES:
        for layer in LAYER_NAMES:
            times, mflop = layer_rows.get((mode, layer), ([], 0.0))
            m[f"model.layer_forward_ms.{mode}.{layer}"] = median(times)
            m[f"model.layer_mflop.{mode}.{layer}"] = mflop

    traced_ops = [op.seconds for op in ops if op.ok and op.traced]
    plain_ops = [op.seconds for op in ops if op.ok and not op.traced]
    m["trace.overhead_compress"] = ratio(median(traced_ops), median(plain_ops))
    m["trace.overhead_latency_b1"] = ratio(
        median(server.samples["b1", "deployed", True]),
        median(server.samples["b1", "deployed", False])) if server else 0.0
    absent = sorted({l for l in LAYER_NAMES for mode in MODES
                     if (mode, l) not in layer_rows})
    detail = {"per_op_unit": unit, "traced_units": units, "function_table": table,
              "layer_table": layer_table, "absent_layers_reported_as_0": absent}
    return m, detail


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(w, seed, seconds, trace, tracer, workdir):
    """Set up several times, then run the measured window.

    Returns (setups, ops, server). Compress workloads interleave compress
    ops with serving cycles, so both sample the whole window and the same
    spells of machine contention, and serve out the rest of the window when
    another op would overrun it; infer-deployed serves throughout. In a
    traced run every other op and every other cycle is traced.
    """
    from workloads import (MAX_SETUPS, MIN_B1_SAMPLES, MIN_SETUPS, SETUP_BUDGET_S, Server,
                           compress_op, setup)

    setups = []
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(s.seconds for s in setups) < SETUP_BUDGET_S):
        setups.append(setup(w, seed, workdir / f"setup{len(setups)}"))
    files = setups[-1].files
    ops = [s.op for s in setups if s.op is not None]
    server = setups[-1].server

    def serve(until, min_b1=0):
        while server is not None and (
                time.perf_counter() < until
                or len(server.samples["b1", "deployed", False]) < min_b1):
            with tracer.installed(trace and server.cycles % 2 == 1):
                server.cycle(tracer)

    deadline = time.perf_counter() + seconds
    # start another op only while a typical one still ends inside the window
    while w.compress_share and (len(ops) < 2 or time.perf_counter()
                                + median([op.seconds for op in ops]) < deadline):
        traced = trace and len(ops) % 2 == 1
        with tracer.installed(traced), \
                (tracer.span("compress") if traced else contextlib.nullcontext()):
            op = compress_op(w, files, seed)
        op.traced = traced
        ops.append(op)
        if server is None and op.ok:
            server = Server(files, setups[-1].pools)
        serve(time.perf_counter() + op.seconds * (1 - w.compress_share) / w.compress_share)
    serve(deadline, MIN_B1_SAMPLES)
    return setups, ops, server


def run(args) -> dict:
    """Measure one workload and write its result file; returns the record."""
    from sgconv import deploy, io
    from tracing import Tracer
    from workloads import B1_PER_CYCLE, WORKLOADS

    w = WORKLOADS[args.workload]
    w = w.tiny() if args.tiny else w
    tracer = Tracer()
    workdir = HERE / f".work-{os.getpid()}"
    try:
        setups, ops, server = measure(w, args.seed, args.seconds, bool(args.trace), tracer,
                                      workdir)
        attempted, failed, errors = check(setups, ops, server)
        flops_kept = 0.0
        if server is not None:
            shape = (3, w.image_size, w.image_size)
            dense = io.load_model(*io.sgm_paths(setups[-1].files.dense))
            flops_kept = ratio(deploy.count_flops(server.models["deployed"], shape),
                               deploy.count_flops(dense, shape))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(setups, ops, server, flops_kept)
    e2e["ok_frac"] = (attempted - failed) / attempted
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer, detail = {}, {}
    if args.trace:
        report = next((op.report for op in ops if op.ok), None)
        layer, detail = per_layer(w, tracer, ops, server, report)
    units = dict(END_TO_END + PER_LAYER)
    values = layer if args.trace else e2e
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k, _ in (PER_LAYER if args.trace else END_TO_END)}
    digest = hashlib.sha256("".join(sorted({op.digest for op in ops if op.ok})).encode()
                            + (server.outputs_digest() if server else "").encode())
    raw = {"compress_op_s": [[op.seconds, op.traced] for op in ops if op.ok],
           "setup_s": [s.seconds for s in setups]}
    if server is not None:
        raw.update({f"{k}_{m}_s": server.samples[k, m, False]
                    for k in ("b1", "b64") for m in ("deployed", "dense")})
    record = {
        "workload": w.name, "tiny": args.tiny, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "correct": not errors, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "errors": errors, "metrics": metrics,
        "samples": {"setups": len(setups), "compress_ops": len(ops),
                    "compress_ops_traced": sum(op.traced for op in ops),
                    "serving_cycles": server.cycles if server else 0,
                    "b1_per_cycle": B1_PER_CYCLE,
                    **{f"{k}_{'traced' if t else 'untraced'}": len(v)
                       for (k, m, t), v in (server.samples.items() if server else ())
                       if m == "deployed"}},
        "outputs_sha256": digest.hexdigest(), "notes": [NO_WAIT_NOTE],
        "end_to_end": e2e, "per_layer": layer, **detail, "raw": raw,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl.gz")
    return record


def show(record):
    env = record["environment"]
    s = record["samples"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"env: {env['cpu_model']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, BLAS pinned to 1 thread, commit {env['git_commit']}")
    print(f"samples: {s['setups']} set-ups, {s['compress_ops']} compress ops "
          f"({s['compress_ops_traced']} traced), {s['serving_cycles']} serving cycles "
          f"of {s['b1_per_cycle']} batch-1 + 1 batch-64 requests; untraced latency "
          f"samples: {s.get('b1_untraced', 0)} batch-1, {s.get('b64_untraced', 0)} batch-64")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for row in record.get("layer_table", []):
        print(f"  layer {row['mode']:<8} {row['layer']:<6} {row['ms_median']:9.3f} ms "
              f"{row['mflop']:10.2f} MFLOP {row['gflop_s']:7.2f} GFLOP/s (batch 64)")
    print(f"failed_frac {record['failed']}/{record['attempted']} = {record['failed_frac']:.4g}")
    for error in record["errors"][:10]:
        print(f"error: {error}")
    for note in record["notes"]:
        print(f"note: {note}")


def main(argv=None) -> int:
    if not (SRC / "sgconv" / "__init__.py").is_file():
        print(f"error: no sgconv package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    record = run(args)
    show(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
