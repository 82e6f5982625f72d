"""Command-line front end: prune, deploy, eval, report and sweep.

Exit codes: 0 ok, 2 usage/input error, 3 verification failure (a deploy
that fails its equivalence self-check or finds a corrupt mask). All
commands are deterministic for a fixed --seed.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from pathlib import Path

from .data import load_dataset
from .deploy import (CHECK_INPUTS, CHECK_SEED, CHECK_TOLERANCE, EquivalenceError,
                     GranularityError, convert_model, count_flops, count_params,
                     verify_equivalence)
from .io import ModelFormatError, load_model, save_model, sgm_paths
from .pipeline import FINETUNE_MODES, PruneSchedule, evaluate, run_algorithm1
from .pruning import model_ratios

SWEEP_SCHEMA_VERSION = 1
REPORT_JSON_SCHEMA_VERSION = 1  # `report --json`
RATIO_FIELDS = ("conv_ratio", "fc_ratio", "network_ratio")


def _load(model_arg):
    manifest, blob = sgm_paths(model_arg)
    if not manifest.exists():
        raise FileNotFoundError(f"model manifest not found: {manifest}")
    if not blob.exists():
        raise FileNotFoundError(f"model blob not found: {blob}")
    return load_model(manifest, blob)


def cmd_prune(args) -> int:
    model = _load(args.model)
    dataset = load_dataset(args.data)
    test_set = load_dataset(args.test_data) if args.test_data else None
    schedule = _schedule(args, num_groups=args.groups, step=args.step,
                         target_conv=args.target_conv, target_fc=args.target_fc, seed=args.seed)
    pruned, report = run_algorithm1(model, dataset, schedule, test_dataset=test_set)
    manifest, blob = sgm_paths(args.out)
    save_model(pruned, manifest, blob)
    report_path = Path(args.report) if args.report else Path(str(args.out) + ".report.json")
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {manifest} ({count_params(pruned)} live params), report {report_path}")
    print(f"final ratios: conv {report['final']['conv_ratio']:.4f} "
          f"fc {report['final']['fc_ratio']:.4f} "
          f"network {report['final']['network_ratio']:.4f}")
    return 0


def cmd_deploy(args) -> int:
    model = _load(args.model)
    deployed = convert_model(model)
    shape = _input_shape(args, model)
    deviation = verify_equivalence(model, deployed, shape, n_inputs=args.check_inputs,
                                   seed=args.seed, tol=args.tolerance)
    manifest, blob = sgm_paths(args.out)
    save_model(deployed, manifest, blob)
    print(f"wrote {manifest}; equivalence check passed "
          f"(max abs deviation {deviation:.3e} over {args.check_inputs} inputs)")
    return 0


def cmd_eval(args) -> int:
    model = _load(args.model)
    dataset = load_dataset(args.data)
    result = evaluate(model, dataset)
    line = f"top1 {result['top1']:.4f}"
    if result["top5"] is not None:
        line += f"  top5 {result['top5']:.4f}"
    print(line)
    return 0


def cmd_report(args) -> int:
    model = _load(args.model)
    shape = _input_shape(args, model)
    info = {
        "schema_version": REPORT_JSON_SCHEMA_VERSION,
        "params": count_params(model),
        "flops": count_flops(model, shape),
        "input_shape": list(int(v) for v in shape),
        **model_ratios(model),
        "layers": [{"name": layer.name, "kind": layer.kind, **layer.describe(layer_shape)}
                   for layer, layer_shape in model.layer_inputs(shape)],
    }
    if args.json:
        Path(args.json).write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"params {info['params']}  flops {info['flops']}  (input {shape})")
    print(f"ratios: conv {info['conv_ratio']:.4f}  fc {info['fc_ratio']:.4f}  "
          f"network {info['network_ratio']:.4f}")
    for entry in info["layers"]:
        extra = ""
        if "dead_fraction" in entry:
            extra = f"  dead {entry['dead_fraction']:.4f}" + \
                ("" if entry["compress"] else "  (not compressed)")
        elif "groups" in entry:
            lo, hi = entry["filters_per_block"]
            extra = (f"  groups {entry['groups']}  executor {entry['executor']}"
                     f"  filters/block {lo}-{hi}  union {entry['union_fraction']:.3f}"
                     f"  gathered rows {entry['gathered_rows_ratio']:.3f}"
                     f"  flops executed {entry['flops_executed']} billed {entry['flops_billed']}")
        print(f"  {entry['name']:<12} {entry['kind']:<18}{extra}")
    return 0


def _sweep_cell(base_model, dataset, test_set, args, groups, step, scope, seed):
    target_conv = args.target if scope in ("both", "conv") else 0.0
    target_fc = args.target if scope in ("both", "fc") else 0.0
    schedule = _schedule(args, num_groups=groups, step=step, target_conv=target_conv,
                         target_fc=target_fc, seed=seed)
    pruned, report = run_algorithm1(base_model, dataset, schedule, test_dataset=test_set)
    acc = report["accuracy_after"]
    return {
        "status": "ok",
        **{key: f"{report['final'][key]:.6f}" for key in RATIO_FIELDS},
        "top1": f"{acc['top1']:.6f}" if acc else "",
        "top5": f"{acc['top5']:.6f}" if acc and acc["top5"] is not None else "",
    }


def cmd_sweep(args) -> int:
    model = _load(args.model)
    dataset = load_dataset(args.data)
    test_set = load_dataset(args.test_data) if args.test_data else None
    groups_grid = _comma_list(args.groups, int, "--groups")
    steps_grid = _comma_list(args.steps, float, "--steps")
    scopes_grid = [v.strip() for v in args.scopes.split(",") if v.strip()]
    seeds_grid = _comma_list(args.seeds, int, "--seeds")
    if not groups_grid or not steps_grid or not scopes_grid or not seeds_grid:
        raise ValueError("sweep grids must be non-empty")
    for scope in scopes_grid:
        if scope not in ("both", "conv", "fc"):
            raise ValueError(f"unknown scope {scope!r} (want both, conv or fc)")
    cells = list(itertools.product(groups_grid, steps_grid, scopes_grid, seeds_grid))

    fields = ["schema_version", "groups", "step", "scope", "seed", "status",
              *RATIO_FIELDS, "top1", "top5"]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for groups, step, scope, seed in cells:
            row = {"schema_version": SWEEP_SCHEMA_VERSION, "groups": groups,
                   "step": step, "scope": scope, "seed": seed}
            try:
                row.update(_sweep_cell(model, dataset, test_set, args,
                                       groups, step, scope, seed))
            except Exception as exc:  # per-cell failures must not abort the sweep
                row.update(dict.fromkeys((*RATIO_FIELDS, "top1", "top5"), ""),
                           status=f"error: {exc}")
            writer.writerow(row)
    print(f"wrote {args.out} ({len(cells)} rows)")
    return 0


def _schedule(args, **cell) -> PruneSchedule:
    """A schedule from the fine-tune flags prune and sweep share, and one
    run's grouping, step, targets and seed (``cell``)."""
    return PruneSchedule(finetune=args.finetune, local_epochs=args.local_epochs,
                         global_epochs=args.global_epochs, local_lr=args.local_lr,
                         global_lr=args.global_lr, batch_size=args.batch_size, **cell)


def _comma_list(text, convert, flag):
    """The non-empty items of a comma list, each converted; an item that does
    not convert raises ValueError naming ``flag`` and the item."""
    values = []
    for item in filter(None, text.split(",")):
        try:
            values.append(convert(item))
        except ValueError:
            raise ValueError(f"{flag}: {item!r} is not a valid {convert.__name__}") from None
    return values


def _input_shape(args, model):
    """The per-sample shape deploy and report work at: --input-shape, else
    report's --data, else the shape the model records."""
    if args.input_shape:
        parts = _comma_list(args.input_shape.replace("x", ","), int, "--input-shape")
        if not parts or any(v < 1 for v in parts):
            raise ValueError(f"bad --input-shape {args.input_shape!r}; want e.g. 3,8,8")
        return tuple(parts)
    if getattr(args, "data", None):
        return load_dataset(args.data).features.shape[1:]
    if model.input_shape is None:
        raise ValueError("the model records no input shape; pass --input-shape")
    return model.input_shape


def _add_train_flags(sub):
    sub.add_argument("--finetune", choices=FINETUNE_MODES, default=PruneSchedule.finetune)
    sub.add_argument("--local-epochs", type=int, default=PruneSchedule.local_epochs)
    sub.add_argument("--local-lr", type=float, default=PruneSchedule.local_lr)
    sub.add_argument("--global-epochs", type=int, default=PruneSchedule.global_epochs)
    sub.add_argument("--global-lr", type=float, default=PruneSchedule.global_lr)
    sub.add_argument("--batch-size", type=int, default=PruneSchedule.batch_size)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgconv",
        description="Compress conv/fc networks into diverse group convolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="cluster, prune and fine-tune a model")
    p.add_argument("--model", required=True, help="model manifest (.sgm.json) or prefix")
    p.add_argument("--data", required=True, help="training dataset (.sgd)")
    p.add_argument("--test-data", default=None, help="held-out dataset for accuracy reports")
    p.add_argument("--out", required=True, help="output model prefix")
    p.add_argument("--report", default=None, help="report path (default <out>.report.json)")
    p.add_argument("--groups", type=int, default=PruneSchedule.num_groups)
    p.add_argument("--step", type=float, default=PruneSchedule.step)
    p.add_argument("--target-conv", type=float, default=PruneSchedule.target_conv)
    p.add_argument("--target-fc", type=float, default=PruneSchedule.target_fc)
    p.add_argument("--seed", type=int, default=PruneSchedule.seed)
    _add_train_flags(p)

    p = sub.add_parser("deploy", help="convert masks into explicit group-conv blocks")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--input-shape", default=None,
                   help="e.g. 3,8,8 (the model's recorded shape when omitted)")
    p.add_argument("--check-inputs", type=int, default=CHECK_INPUTS)
    p.add_argument("--tolerance", type=float, default=CHECK_TOLERANCE)
    p.add_argument("--seed", type=int, default=CHECK_SEED)

    p = sub.add_parser("eval", help="top-1/top-5 accuracy on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("report", help="parameter count, FLOPs, removal ratios")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--input-shape", default=None)
    p.add_argument("--json", default=None, help="also write the report as JSON")

    p = sub.add_parser("sweep", help="grid of (groups, step, scope) pipeline runs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--groups", default=f"2,{PruneSchedule.num_groups}",
                   help="comma list of group counts")
    p.add_argument("--steps", default=f"{PruneSchedule.step},0.3",
                   help="comma list of pruning steps")
    p.add_argument("--scopes", default="both", help="comma list from both,conv,fc")
    p.add_argument("--seeds", default=str(PruneSchedule.seed), help="comma list of seeds")
    p.add_argument("--target", type=float, default=PruneSchedule.target_conv)
    _add_train_flags(p)
    return parser


# built on the first main call and reused: parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:  # looked up by name at each call, so a rebound cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (GranularityError, EquivalenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, FileNotFoundError, IsADirectoryError, ValueError,
            RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
