"""Command-line contract: flags, outputs, exit codes."""
import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sgconv import cli, deploy
from sgconv.cli import main
from sgconv.data import Dataset, make_blob_dataset, save_dataset
from sgconv.deploy import convert_model, count_flops, verify_equivalence
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import (MAX_LAYER_VALUES, AffineLayer, ConvLayer, FcLayer, GroupBlock,
                          GroupConvLayer, Model, apply_mask, build_toy_cnn)
from sgconv.pipeline import PruneSchedule, TrainConfig, evaluate, sgd_finetune
from test_deploy import corrupt_first_block


@pytest.fixture
def workspace(tmp_path):
    """Trained toy model + train/test datasets on disk."""
    train = make_blob_dataset(300, seed=21)
    test = make_blob_dataset(150, seed=22)
    save_dataset(train, tmp_path / "train.sgd")
    save_dataset(test, tmp_path / "test.sgd")
    model = build_toy_cnn(3)
    sgd_finetune(model, train, TrainConfig(epochs=4, lr=0.01, seed=3))
    manifest, blob = sgm_paths(tmp_path / "toy")
    save_model(model, manifest, blob)
    return tmp_path


def test_prune_writes_model_and_report(workspace, capsys):
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--groups", "8", "--step", "0.1",
                 "--target-conv", "0.8", "--target-fc", "0.6",
                 "--finetune", "global", "--global-epochs", "2",
                 "--seed", "42", "--out", str(workspace / "pruned")])
    assert code == 0
    report = json.loads((workspace / "pruned.report.json").read_text())
    assert report["schema_version"] == 1
    assert report["final"]["conv_ratio"] >= 0.8 - 1e-9
    assert report["final"]["fc_ratio"] >= 0.6 - 1e-9
    model = load_model(workspace / "pruned.sgm.json", workspace / "pruned.sgm.bin")
    assert not model.layer("conv2").mask.all()
    assert "final ratios" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["p", "p.sgm.json", "p.sgm.bin"])
def test_prune_report_goes_next_to_the_model(workspace, capsys, out):
    """The report path is the model's prefix, as sgm_paths resolves --out;
    it was <out>.report.json, so p.sgm.json.report.json for --out p.sgm.json."""
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--step", "0.2",
                 "--target-conv", "0.2", "--target-fc", "0.2", "--finetune", "none",
                 "--out", str(workspace / out)])
    assert code == 0
    assert f"report {workspace / 'p.report.json'}\n" in capsys.readouterr().out
    assert json.loads((workspace / "p.report.json").read_text())["schema_version"] == 1
    assert sorted(path.name for path in workspace.glob("p.*")) == [
        "p.report.json", "p.sgm.bin", "p.sgm.json"]


def test_prune_zero_targets_leave_model_unchanged(workspace):
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--target-conv", "0", "--target-fc", "0",
                 "--finetune", "none", "--seed", "0",
                 "--out", str(workspace / "same")])
    assert code == 0
    # identical blob bytes: nothing was pruned or trained
    assert (workspace / "same.sgm.bin").read_bytes() == \
        (workspace / "toy.sgm.bin").read_bytes()


def test_missing_model_exits_2(workspace, capsys):
    code = main(["prune", "--model", str(workspace / "absent.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--out", str(workspace / "x")])
    assert code == 2
    assert "absent.sgm.json" in capsys.readouterr().err


def test_deploy_unpruned_identical_params(workspace, capsys):
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--out", str(workspace / "deployed")])
    assert code == 0
    assert "equivalence check passed" in capsys.readouterr().out
    from sgconv.deploy import count_params
    original = load_model(workspace / "toy.sgm.json", workspace / "toy.sgm.bin")
    deployed = load_model(workspace / "deployed.sgm.json", workspace / "deployed.sgm.bin")
    assert count_params(deployed) == count_params(original)


def test_deploy_corrupt_mask_exits_3(workspace, capsys):
    main(["prune", "--model", str(workspace / "toy.sgm.json"),
          "--data", str(workspace / "train.sgd"), "--step", "0.2",
          "--target-conv", "0.4", "--target-fc", "0.4", "--groups", "3",
          "--finetune", "none", "--seed", "1", "--out", str(workspace / "p")])
    model = load_model(workspace / "p.sgm.json", workspace / "p.sgm.bin")
    # revive one connection inside a multi-filter group: granularity breaks
    corrupted = False
    for layer in model.layers:
        if layer.kind not in ("conv2d", "fc") or layer.grouping is None:
            continue
        sizes = np.bincount(layer.grouping)
        for f, ch in np.argwhere(~layer.mask):
            if sizes[layer.grouping[f]] >= 2:
                layer.mask[f, ch] = True
                corrupted = True
                break
        if corrupted:
            break
    assert corrupted
    save_model(model, workspace / "p.sgm.json", workspace / "p.sgm.bin")
    code = main(["deploy", "--model", str(workspace / "p.sgm.json"),
                 "--out", str(workspace / "d")])
    assert code == 3
    assert "mask" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()  # refused to write


def test_eval_prints_accuracy(workspace, capsys):
    code = main(["eval", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "test.sgd")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("top1 ")
    assert float(out.split()[1]) >= 0.9


def test_eval_prints_top5_for_five_or_more_classes(workspace, capsys):
    data = make_blob_dataset(60, num_classes=10, seed=23)
    save_dataset(data, workspace / "ten.sgd")
    code = main(["eval", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "ten.sgd")])
    assert code == 0
    result = evaluate(load_model(workspace / "toy.sgm.json", workspace / "toy.sgm.bin"), data)
    assert capsys.readouterr().out == f"top1 {result['top1']:.4f}  top5 {result['top5']:.4f}\n"


@pytest.mark.parametrize("command, message", [
    ("eval --model {}/noblob.sgm.json --data {}/test.sgd", "model blob not found"),
    ("sweep --scopes ,", "sweep grids must be non-empty"),
    ("sweep --scopes all", "unknown scope 'all'"),
    ("report --input-shape 0,8,8", "bad --input-shape '0,8,8'"),
    ("eval --data {}/empty.sgd", "cannot evaluate on an empty dataset"),
    ("report --model {}/dup.sgm.json", "duplicate layer name 'conv2'"),
])
def test_named_input_errors_exit_2(workspace, capsys, command, message):
    """noblob has the toy manifest and no blob, dup the toy model with fc1
    renamed conv2, and empty.sgd no samples."""
    toy = json.loads((workspace / "toy.sgm.json").read_text())
    (workspace / "noblob.sgm.json").write_text(json.dumps(toy))
    toy["layers"][2]["name"] = "conv2"
    (workspace / "dup.sgm.json").write_text(json.dumps(toy))
    (workspace / "dup.sgm.bin").write_bytes((workspace / "toy.sgm.bin").read_bytes())
    save_dataset(Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int32), 2),
                 workspace / "empty.sgd")
    name, *flags = command.replace("{}", str(workspace)).split()
    if "--model" not in flags:
        flags += ["--model", str(workspace / "toy.sgm.json")]
    if name == "sweep":
        flags += ["--data", str(workspace / "train.sgd"), "--out", str(workspace / "s.csv")]
    assert main([name, *flags]) == 2
    assert message in capsys.readouterr().err


def test_eval_of_0d_samples_exits_2_naming_the_layer(workspace, capsys):
    save_model(Model([FcLayer("fc1", np.ones((2, 4), np.float32))]),
               *sgm_paths(workspace / "fc"))
    save_dataset(Dataset(np.zeros(3, np.float32), np.zeros(3, np.int32), 2),
                 workspace / "scalars.sgd")
    code = main(["eval", "--model", str(workspace / "fc.sgm.json"),
                 "--data", str(workspace / "scalars.sgd")])
    assert code == 2
    assert "layer 'fc1' expects width 4, got 1" in capsys.readouterr().err


def save_scalar_samples(workspace):
    save_dataset(Dataset(np.arange(4, dtype=np.float32), np.array([0, 1, 0, 1], np.int32), 2),
                 workspace / "scalars.sgd")
    return str(workspace / "scalars.sgd")


@pytest.mark.parametrize("command", ["eval", "report"])
def test_affine_first_model_on_scalar_samples_exits_2_naming_it(workspace, capsys, command):
    ones = np.ones(1, np.float32)
    save_model(Model([AffineLayer("bn", ones, ones), FcLayer("fc1", np.ones((2, 1), np.float32))]),
               *sgm_paths(workspace / "affine"))
    code = main([command, "--model", str(workspace / "affine"),
                 "--data", save_scalar_samples(workspace)])
    assert code == 2
    assert "layer 'bn' expects 1 channels, got no channel axis" in capsys.readouterr().err


def test_fc_first_model_of_width_1_runs_on_scalar_samples(workspace, capsys):
    weight = np.array([[-1.0], [1.0]], np.float32)  # class 1 for samples above 0.25
    save_model(Model([FcLayer("fc1", weight, np.array([0.5, 0], np.float32))]),
               *sgm_paths(workspace / "fc"))
    data = save_scalar_samples(workspace)
    assert main(["eval", "--model", str(workspace / "fc"), "--data", data]) == 0
    assert capsys.readouterr().out == "top1 0.7500\n"
    assert main(["prune", "--model", str(workspace / "fc"), "--data", data, "--groups", "2",
                 "--step", "0.5", "--target-conv", "0", "--target-fc", "0.5",
                 "--global-epochs", "1", "--out", str(workspace / "pruned")]) == 0
    assert load_model(*sgm_paths(workspace / "pruned")).layer("fc1").mask.sum() == 1


def test_eval_with_huge_padding_exits_2_before_allocating(workspace, capsys):
    manifest = workspace / "toy.sgm.json"
    doc = json.loads(manifest.read_text())
    doc["layers"][1]["padding"] = 1000000  # conv2: padded past the per-layer cap
    manifest.write_text(json.dumps(doc))
    code = main(["eval", "--model", str(manifest), "--data", str(workspace / "test.sgd")])
    assert code == 2
    assert ("layer 'conv2': padded input (8, 2000006, 2000006) holds more than "
            f"{MAX_LAYER_VALUES} values") in capsys.readouterr().err


def test_eval_of_a_last_conv_padded_past_the_cap_exits_2_naming_it(workspace, capsys):
    # no later layer checks this conv's output width: only the cap stops it
    model = Model([ConvLayer("conv1", np.ones((2, 3, 3, 3), np.float32), padding=10**6,
                             compress=False)])
    save_model(model, *sgm_paths(workspace / "padded"))
    code = main(["eval", "--model", str(workspace / "padded.sgm.json"),
                 "--data", str(workspace / "test.sgd")])
    assert code == 2
    assert "layer 'conv1': padded input (3, 2000008, 2000008)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "prune --finetune none", "prune --finetune global"])
@pytest.mark.parametrize("head, shape", [("conv", "(4, 4, 4)"), ("narrow fc", "(1,)")])
def test_a_model_without_class_scores_exits_2_naming_its_output_shape(tmp_path, capsys,
                                                                      command, head, shape):
    """A last conv or a head narrower than the 2 classes is refused before any
    forward. The conv's (4, 4, 4) output on 4 samples of 6x6 once broadcast
    against the labels and scored a top1 above 1."""
    layers = [ConvLayer("conv1", np.ones((4, 3, 3, 3), np.float32), compress=False)]
    if head == "narrow fc":
        layers.append(FcLayer("fc1", np.ones((1, 4 * 4 * 4), np.float32)))
    save_model(Model(layers), *sgm_paths(tmp_path / "m"))
    save_dataset(make_blob_dataset(4, image_size=6, seed=1), tmp_path / "d.sgd")
    out = ["--out", str(tmp_path / "out")] if command.startswith("prune") else []
    code = main([*command.split(), "--model", str(tmp_path / "m"),
                 "--data", str(tmp_path / "d.sgd"), *out])
    assert code == 2
    assert f"dataset has 2 classes but model outputs shape {shape}" in capsys.readouterr().err
    assert not (tmp_path / "out.sgm.json").exists()


@pytest.mark.parametrize("command", ["report --input-shape 3,8,8", "eval --data {}/test.sgd",
                                     "report"])
def test_affine_narrower_than_its_input_exits_2_naming_the_layer(workspace, capsys, command):
    ones = np.ones(1, np.float32)  # one channel after a 4-channel conv
    model = Model([ConvLayer("conv1", np.ones((4, 3, 3, 3), np.float32), compress=False),
                   AffineLayer("bn", ones, ones),
                   FcLayer("fc1", np.ones((10, 4 * 6 * 6), np.float32))])
    save_model(model, *sgm_paths(workspace / "narrow"))
    code = main([*command.format(workspace).split(), "--model", str(workspace / "narrow.sgm.json")])
    assert code == 2
    # with no shape given, report needs a recorded one, and this model records none
    expected = "--input-shape" if command == "report" else "layer 'bn' expects 1 channels, got 4"
    assert expected in capsys.readouterr().err


ONE = np.ones((1, 1, 1, 1), np.float32)
SIZE_1_LAYERS = {  # one layer of each kind with every channel count and kernel 1
    "conv2d": lambda: ConvLayer("z", ONE, compress=False),
    "fc": lambda: FcLayer("z", ONE[0, 0]),
    "affine_passthrough": lambda: AffineLayer("z", ONE[0, 0, 0], ONE[0, 0, 0]),
    "groupconv": lambda: GroupConvLayer("z", [GroupBlock(np.array([0]), np.array([0]), ONE)],
                                        in_channels=1, out_channels=1, kernel=1),
}


@pytest.mark.parametrize("kind, field", [
    ("conv2d", "out_channels"), ("conv2d", "in_channels"), ("conv2d", "kernel_size"),
    ("fc", "out_features"), ("fc", "in_features"), ("affine_passthrough", "channels"),
    ("groupconv", "out_channels"),
])
def test_a_zero_size_layer_exits_2_naming_it(tmp_path, capsys, kind, field):
    """A manifest whose layer has 0 channels or a 0x0 kernel (its blob ranges
    emptied to match) is refused on load. Such layers once loaded: report
    divided by zero, deploy and eval died in numpy without naming the layer,
    and a 0x0 kernel passed all three."""
    save_model(Model([SIZE_1_LAYERS[kind]()]), *sgm_paths(tmp_path / "m"))
    doc = json.loads((tmp_path / "m.sgm.json").read_text())
    record = doc["layers"][0]
    record[field] = 0
    record.update(blob_length=0, **({"bias_length": 0} if "bias_length" in record else {}))
    if kind == "groupconv":
        record["groups"] = []  # no filter left to partition
    (tmp_path / "m.sgm.json").write_text(json.dumps(doc))
    save_dataset(Dataset(np.zeros((4, 1, 4, 4), np.float32), np.array([0, 1, 0, 1], np.int32), 2),
                 tmp_path / "d.sgd")
    for command in ("report --input-shape 1,4,4",
                    f"deploy --input-shape 1,4,4 --out {tmp_path}/o",
                    f"eval --data {tmp_path}/d.sgd"):
        assert main([*command.split(), "--model", str(tmp_path / "m")]) == 2, command
        assert f"layer 'z': {field} must be >= 1, got 0" in capsys.readouterr().err, command


def test_report_prints_toy_params(workspace, capsys):
    code = main(["report", "--model", str(workspace / "toy.sgm.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "params 2098" in out


def test_report_json_output(workspace, tmp_path):
    out_json = tmp_path / "r.json"
    code = main(["report", "--model", str(workspace / "toy.sgm.json"),
                 "--input-shape", "3,8,8", "--json", str(out_json)])
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["schema_version"] == 1
    assert doc["params"] == 2098


def test_report_of_a_pruned_layer_without_grouping_exits_2_naming_it(workspace, capsys):
    """Half of conv2's connections dead and no grouping: no ratio formula
    applies, so report refuses the model as deploy does."""
    model = load_model(*sgm_paths(workspace / "toy"))
    conv2 = model.layer("conv2")
    conv2.mask = np.random.default_rng(0).random(conv2.mask.shape) >= 0.5
    apply_mask(conv2)
    save_model(model, *sgm_paths(workspace / "ungrouped"))
    assert main(["report", "--model", str(workspace / "ungrouped")]) == 2
    captured = capsys.readouterr()
    assert "'conv2' is pruned but has no grouping" in captured.err
    assert "ratios" not in captured.out


def test_report_shows_executor_of_deployed_layers(workspace, capsys):
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--groups", "8", "--step", "0.4",
                 "--target-conv", "0.8", "--target-fc", "0.6", "--finetune", "none",
                 "--out", str(workspace / "p")])
    assert code == 0
    assert main(["deploy", "--model", str(workspace / "p.sgm.json"),
                 "--out", str(workspace / "d")]) == 0
    # one-filter groups run as one dense GEMM, bit-identical to the masked model
    assert "max abs deviation 0.000e+00" in capsys.readouterr().out
    code = main(["report", "--model", str(workspace / "d.sgm.json"),
                 "--json", str(workspace / "r.json")])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads((workspace / "r.json").read_text())
    layers = {entry["name"]: entry for entry in doc["layers"]}
    conv2, fc1 = layers["conv2"], layers["fc1"]
    assert (conv2["executor"], fc1["executor"]) == ("dense", "dense")
    assert (conv2["groups"], conv2["filters_per_block"]) == (8, [1, 1])
    assert fc1["groups"] == 8  # 10 filters in 8 groups
    assert conv2["flops_executed"] == 2 * 8 * 8 * 9 * 4 * 4  # dense 8->8 k3 on 4x4 out
    assert fc1["flops_executed"] == 2 * 10 * 128
    assert doc["flops"] == 2 * 8 * 3 * 9 * 6 * 6 + conv2["flops_billed"] + fc1["flops_billed"]
    for entry in (conv2, fc1):
        assert entry["flops_billed"] < entry["flops_executed"]
        assert 0 < entry["union_fraction"] <= 1 and entry["gathered_rows_ratio"] >= 1
    assert "executor dense  filters/block 1-1" in out
    assert doc["schema_version"] == 1


def test_grouped_fc_layer_is_deployed_reported_and_evaluated(tmp_path, capsys):
    """A 256 -> 32 fc layer in 4 groups of 8 filters, each group reading its
    own 64 inputs: its plan bills 2,048 block MACs plus 8 x 256 for the
    gather against 8,192 dense, so it runs grouped, the branch of
    ops.group_fc_forward that no other CLI flow takes."""
    rng = np.random.default_rng(0)
    conv = ConvLayer("conv1", (rng.standard_normal((4, 3, 3, 3)) * 0.5).astype(np.float32),
                     np.zeros(4, np.float32), activation="relu", padding=1, compress=False)
    fc = FcLayer("fc1", (rng.standard_normal((32, 256)) * 0.1).astype(np.float32),
                 np.zeros(32, np.float32))
    fc.grouping = np.arange(32) // 8
    fc.mask = np.arange(256)[None, :] // 64 == fc.grouping[:, None]
    apply_mask(fc)
    model = Model([conv, fc], input_shape=(3, 8, 8))
    data = make_blob_dataset(200, num_classes=4, seed=5)
    sgd_finetune(model, data, TrainConfig(epochs=5, lr=0.05, seed=0))
    save_model(model, *sgm_paths(tmp_path / "m"))
    save_dataset(data, tmp_path / "d.sgd")
    assert main(["deploy", "--model", str(tmp_path / "m"), "--out", str(tmp_path / "g")]) == 0
    assert "equivalence check passed" in capsys.readouterr().out
    assert main(["report", "--model", str(tmp_path / "g")]) == 0
    assert re.search(r"fc1 +groupconv +groups 4  executor grouped", capsys.readouterr().out)
    assert main(["eval", "--model", str(tmp_path / "g"), "--data", str(tmp_path / "d.sgd")]) == 0
    top1 = evaluate(model, data)["top1"]
    assert capsys.readouterr().out == f"top1 {top1:.4f}\n"
    assert top1 > 0.9  # trained: a forward that misread the groups would hardly score so


def test_sweep_grid_rows_and_scope(workspace):
    out_csv = workspace / "sweep.csv"
    code = main(["sweep", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--groups", "2,8", "--steps", "0.3,0.6", "--scopes", "fc",
                 "--target", "0.6", "--seeds", "0",
                 "--finetune", "none", "--out", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 4  # {2,8} x {0.3,0.6}
    for row in rows:
        assert row["schema_version"] == "1"
        assert row["status"] == "ok"
        assert float(row["conv_ratio"]) == 0.0   # fc scope leaves conv untouched
        assert float(row["fc_ratio"]) >= 0.6 - 1e-9


def test_sweep_cell_failure_does_not_abort(workspace):
    out_csv = workspace / "sweep2.csv"
    # step 0.9 > target 0.6 is an invalid schedule: that cell errors, others run
    code = main(["sweep", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--groups", "4", "--steps", "0.3,0.9", "--scopes", "both",
                 "--target", "0.6", "--seeds", "0",
                 "--finetune", "none", "--out", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 2
    statuses = sorted(row["status"] for row in rows)
    assert statuses[0].startswith("error")
    assert statuses[1] == "ok"


def test_sweep_rows_follow_grid_order(workspace):
    out_csv = workspace / "sweep3.csv"
    code = main(["sweep", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--groups", "2,4", "--steps", "0.3", "--scopes", "fc",
                 "--target", "0.6", "--seeds", "0",
                 "--finetune", "none", "--out", str(out_csv)])
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [(r["groups"], r["step"]) for r in rows] == [("2", "0.3"), ("4", "0.3")]
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_seed_is_the_seeds_axis(workspace):
    """Only prune has --seed; on sweep it is --seeds' prefix, so the rows
    carry the seed given rather than the default."""
    out_csv = workspace / "sweep4.csv"
    code = main(["sweep", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--groups", "4", "--steps", "0.3",
                 "--scopes", "fc", "--target", "0.6", "--seed", "7",
                 "--finetune", "none", "--out", str(out_csv)])
    assert code == 0
    assert [row["seed"] for row in csv.DictReader(out_csv.open())] == ["7"]


@pytest.mark.parametrize("command, flag, item", [
    ("report --input-shape 3,a,8", "--input-shape", "a"),
    ("sweep --groups 2.5", "--groups", "2.5"),
    ("sweep --steps 0.3,x", "--steps", "x"),
    ("sweep --seeds a", "--seeds", "a"),
])
def test_bad_list_item_exits_2_naming_flag_and_item(workspace, capsys, command, flag, item):
    name, *flags = command.split()
    extra = ["--data", str(workspace / "train.sgd"), "--out", str(workspace / "s.csv")]
    code = main([name, "--model", str(workspace / "toy.sgm.json"), *flags,
                 *(extra if name == "sweep" else [])])
    assert code == 2
    assert f"{flag}: {item!r} is not a valid" in capsys.readouterr().err
    assert not (workspace / "s.csv").exists()


def test_bad_dataset_path_exits_2(workspace, capsys):
    code = main(["eval", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "nope.sgd")])
    assert code == 2


def test_deploy_nan_output_exits_3(workspace, capsys):
    model = load_model(workspace / "toy.sgm.json", workspace / "toy.sgm.bin")
    model.layer("fc1").bias[0] = np.nan  # NaN in both models: no deviation is provable
    save_model(model, workspace / "nan.sgm.json", workspace / "nan.sgm.bin")
    code = main(["deploy", "--model", str(workspace / "nan.sgm.json"),
                 "--out", str(workspace / "d")])
    assert code == 3
    assert "deviation nan" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()


def test_deploy_corrupt_block_exits_3_naming_the_layer(workspace, capsys, monkeypatch):
    monkeypatch.setattr(cli, "convert_model",
                        lambda m: corrupt_first_block(convert_model(m), "conv2"))
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--out", str(workspace / "d")])
    assert code == 3
    assert "first layer over tolerance: 'conv2'" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()


def test_prune_non_finite_weight_exits_2(workspace, capsys):
    model = load_model(workspace / "toy.sgm.json", workspace / "toy.sgm.bin")
    model.layer("conv2").weight[0, 0, 0, 0] = np.nan
    save_model(model, workspace / "nan.sgm.json", workspace / "nan.sgm.bin")
    code = main(["prune", "--model", str(workspace / "nan.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--step", "0.2",
                 "--target-conv", "0.4", "--target-fc", "0.4", "--finetune", "none",
                 "--out", str(workspace / "p")])
    assert code == 2
    assert "'conv2'" in capsys.readouterr().err
    assert not (workspace / "p.report.json").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["prune"])  # missing required flags
    assert err.value.code == 2


def test_invalid_schedule_exits_2(workspace, capsys):
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"),
                 "--step", "0.9", "--target-conv", "0.6", "--target-fc", "0.6",
                 "--out", str(workspace / "x")])
    assert code == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_non_finite_step_exits_2_naming_step(workspace, capsys, step):
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--step", step,
                 "--out", str(workspace / "x")])
    assert code == 2
    assert f"step must be finite and positive, got {step}" in capsys.readouterr().err
    assert not (workspace / "x.sgm.json").exists()


@pytest.mark.parametrize("flags, setting", [
    (["--finetune", "local+global", "--local-epochs", "-3", "--global-epochs", "-1"],
     "local_epochs"),
    (["--global-epochs", "-1"], "global_epochs"),
    (["--batch-size", "0"], "batch_size"),
    (["--local-lr", "nan"], "local_lr"),
    (["--global-lr", "-0.01"], "global_lr"),
])
def test_bad_finetune_settings_exit_2_before_pruning(workspace, capsys, monkeypatch,
                                                      flags, setting):
    def no_pruning(*args, **kwargs):
        raise AssertionError("the schedule should be rejected before pruning starts")

    monkeypatch.setattr("sgconv.cli.run_algorithm1", no_pruning)
    code = main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--step", "0.2",
                 "--target-conv", "0.4", "--target-fc", "0.4", *flags,
                 "--out", str(workspace / "x")])
    assert code == 2
    assert setting in capsys.readouterr().err
    assert not (workspace / "x.sgm.json").exists()


def test_every_schedule_field_is_a_prune_flag_with_its_default():
    args = vars(cli.build_parser().parse_args(["prune", "--model", "m", "--data", "d",
                                               "--out", "o"]))
    args["num_groups"] = args.pop("groups")
    for field in dataclasses.fields(PruneSchedule):
        assert field.name in args, f"no prune flag sets {field.name}"
        assert args[field.name] == field.default, field.name


@pytest.mark.parametrize("count", ["0", "-5"])
def test_deploy_check_inputs_below_1_exits_2(workspace, capsys, count):
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--check-inputs", count, "--out", str(workspace / "d")])
    assert code == 2
    assert f"n_inputs={count}" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()


def test_deploy_seed_below_0_exits_2_naming_the_seed(workspace, capsys):
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--seed", "-1", "--out", str(workspace / "d")])
    assert code == 2
    assert "error: equivalence check: seed must be an integer >= 0" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()


def test_prune_deterministic_given_seed(workspace):
    argv = ["prune", "--model", str(workspace / "toy.sgm.json"),
            "--data", str(workspace / "train.sgd"), "--step", "0.2",
            "--target-conv", "0.4", "--target-fc", "0.4",
            "--finetune", "global", "--global-epochs", "2", "--seed", "9"]
    assert main(argv + ["--out", str(workspace / "r1")]) == 0
    assert main(argv + ["--out", str(workspace / "r2")]) == 0
    assert (workspace / "r1.sgm.bin").read_bytes() == (workspace / "r2.sgm.bin").read_bytes()
    assert (workspace / "r1.sgm.json").read_bytes() == (workspace / "r2.sgm.json").read_bytes()


def test_prune_deploy_eval_bytes_do_not_depend_on_the_threads(workspace, capsys,
                                                              monkeypatch):
    """With batches of 7, evaluate's 300 samples and the check's 100 inputs
    span many batches, so they run threaded on three workers; the model
    files, the report (but its wall times) and the output are those of one."""
    toy = build_toy_cnn(0)
    monkeypatch.setattr(deploy, "BATCH_MACS", 7 * toy.layer("conv2").macs((8, 6, 6)))
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(deploy, "WORKERS", workers)
        (workspace / f"w{workers}").mkdir()
        monkeypatch.chdir(workspace / f"w{workers}")  # the same relative paths in both
        assert main(["prune", "--model", "../toy.sgm.json", "--data", "../train.sgd",
                     "--groups", "4", "--step", "0.2", "--target-conv", "0.6",
                     "--target-fc", "0.4", "--finetune", "local+global", "--local-epochs", "1",
                     "--global-epochs", "1", "--seed", "5", "--out", "p"]) == 0
        assert main(["deploy", "--model", "p.sgm.json", "--out", "d"]) == 0
        for model in ("p", "d"):
            assert main(["eval", "--model", f"{model}.sgm.json", "--data", "../test.sgd"]) == 0
        report = json.loads(Path("p.report.json").read_text())
        del report["timings"]
        runs.append([report, capsys.readouterr().out,
                     *(Path(name).read_bytes() for name in ("p.sgm.json", "p.sgm.bin",
                                                            "d.sgm.json", "d.sgm.bin"))])
    assert runs[0] == runs[1]
    assert "max abs deviation" in runs[0][1] and "top1" in runs[0][1]


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_deploy_bad_tolerance_exits_2(workspace, capsys, tolerance):
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--tolerance", tolerance, "--out", str(workspace / "d")])
    assert code == 2
    assert f"tol={float(tolerance)}" in capsys.readouterr().err
    assert not (workspace / "d.sgm.json").exists()


def test_report_ratios_of_deployed_model_match_pruned(workspace, capsys):
    assert main(["prune", "--model", str(workspace / "toy.sgm.json"),
                 "--data", str(workspace / "train.sgd"), "--groups", "3", "--step", "0.3",
                 "--target-conv", "0.6", "--target-fc", "0.6", "--finetune", "none",
                 "--out", str(workspace / "p")]) == 0
    assert main(["deploy", "--model", str(workspace / "p.sgm.json"),
                 "--out", str(workspace / "d")]) == 0
    capsys.readouterr()
    lines, docs = [], []
    for name in ("p", "d"):
        assert main(["report", "--model", str(workspace / f"{name}.sgm.json"),
                     "--json", str(workspace / f"{name}.json")]) == 0
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("ratios:")]
        docs.append(json.loads((workspace / f"{name}.json").read_text()))
    assert len(lines) == 2 and lines[0] == lines[1]
    assert "conv 0.0000" not in lines[1]
    fields = ("conv_ratio", "fc_ratio", "network_ratio")
    assert [docs[0][k] for k in fields] == [docs[1][k] for k in fields]


def prune_strided_net(workspace):
    """A net with a stride-2 conv, pruned through the CLI on 32x32 data; its
    fc head also takes 31x31 inputs, the smallest square the layers accept."""
    rng = np.random.default_rng(5)
    model = Model([
        ConvLayer("conv1", rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                  padding=1, activation="relu", compress=False),
        ConvLayer("conv2", rng.standard_normal((6, 4, 3, 3)).astype(np.float32),
                  stride=2, padding=1, activation="relu"),
        FcLayer("fc1", rng.standard_normal((4, 6 * 16 * 16)).astype(np.float32) * 0.01)])
    save_model(model, *sgm_paths(workspace / "strided"))
    save_dataset(make_blob_dataset(24, num_classes=4, image_size=32, seed=6),
                 workspace / "train32.sgd")
    assert main(["prune", "--model", str(workspace / "strided"),
                 "--data", str(workspace / "train32.sgd"), "--groups", "2", "--step", "0.5",
                 "--target-conv", "0.5", "--target-fc", "0.5", "--finetune", "none",
                 "--out", str(workspace / "sp")]) == 0


def spy_checked_shapes(monkeypatch):
    """The input shapes deploy's equivalence checks run at, as they are called."""
    shapes = []

    def spy(original, deployed, input_shape, **kwargs):
        shapes.append(tuple(input_shape))
        return verify_equivalence(original, deployed, input_shape, **kwargs)

    monkeypatch.setattr(cli, "verify_equivalence", spy)
    return shapes


def test_pruned_model_is_deployed_and_reported_at_its_data_shape(workspace, capsys,
                                                                 monkeypatch):
    prune_strided_net(workspace)
    shapes = spy_checked_shapes(monkeypatch)
    assert main(["deploy", "--model", str(workspace / "sp"),
                 "--out", str(workspace / "sd")]) == 0
    assert shapes == [(3, 32, 32)]
    deployed = load_model(*sgm_paths(workspace / "sd"))
    assert deployed.input_shape == (3, 32, 32)
    capsys.readouterr()
    assert main(["report", "--model", str(workspace / "sd")]) == 0
    flops = count_flops(deployed, (3, 32, 32))
    assert flops != count_flops(deployed, (3, 31, 31))
    assert f"flops {flops}  (input (3, 32, 32))" in capsys.readouterr().out


def test_deploy_input_shape_overrides_the_recorded_one(workspace, capsys, monkeypatch):
    prune_strided_net(workspace)
    shapes = spy_checked_shapes(monkeypatch)
    assert main(["deploy", "--model", str(workspace / "sp"), "--out", str(workspace / "sd"),
                 "--input-shape", "3,31,31"]) == 0
    assert shapes == [(3, 31, 31)]
    assert load_model(*sgm_paths(workspace / "sd")).input_shape == (3, 32, 32)


@pytest.mark.parametrize("command", ["deploy", "report"])
def test_model_without_a_shape_needs_input_shape(workspace, capsys, command):
    prune_strided_net(workspace)  # the dense net it started from records no shape
    assert "input_shape" not in json.loads((workspace / "strided.sgm.json").read_text())
    argv = [command, "--model", str(workspace / "strided")]
    if command == "deploy":
        argv += ["--out", str(workspace / "sd")]
    capsys.readouterr()
    assert main(argv) == 2
    assert "--input-shape" in capsys.readouterr().err
    assert main([*argv, "--input-shape", "3,32,32"]) == 0


def test_one_parser_serves_every_call_as_a_fresh_one_would(workspace, capsys):
    toy, data = str(workspace / "toy"), str(workspace / "test.sgd")
    calls = [["report", "--model", toy, "--input-shape", "3,8,8"],
             ["eval", "--model", toy, "--data", data],
             ["deploy", "--model", toy, "--out", str(workspace / "d"), "--check-inputs", "7"],
             ["report", "--model", toy],
             ["deploy", "--model", toy, "--out", str(workspace / "d")],
             ["eval", "--model", toy, "--data", str(workspace / "absent.sgd")]]

    def run_all(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        return results

    reused = run_all(fresh=False)
    assert cli._parser() is cli._parser()
    assert reused == run_all(fresh=True)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2]
    assert "over 7 inputs" in reused[2][1] and "over 100 inputs" in reused[4][1]
