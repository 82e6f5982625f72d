"""Command-line contract: flags, outputs, exit codes."""
import csv
import json

import numpy as np
import pytest

from sgconv import cli
from sgconv.cli import main
from sgconv.data import Dataset, make_blob_dataset, save_dataset
from sgconv.deploy import convert_model
from sgconv.io import load_model, save_model, sgm_paths
from sgconv.model import (MAX_LAYER_VALUES, AffineLayer, ConvLayer, FcLayer, Model,
                          build_toy_cnn)
from sgconv.pipeline import TrainConfig, sgd_finetune
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


def test_eval_of_0d_samples_exits_2_naming_the_layer(workspace, capsys):
    save_model(Model([FcLayer("fc1", np.ones((2, 4), np.float32))]),
               *sgm_paths(workspace / "fc"))
    save_dataset(Dataset(np.zeros(3, np.float32), np.zeros(3, np.int32), 2),
                 workspace / "scalars.sgd")
    code = main(["eval", "--model", str(workspace / "fc.sgm.json"),
                 "--data", str(workspace / "scalars.sgd")])
    assert code == 2
    assert "layer 'fc1' expects width 4, got 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["report --input-shape 3,8,8", "eval --data {}/test.sgd"])
def test_affine_narrower_than_its_input_exits_2_naming_the_layer(workspace, capsys, command):
    ones = np.ones(1, np.float32)  # one channel after a 4-channel conv
    model = Model([ConvLayer("conv1", np.ones((4, 3, 3, 3), np.float32), compress=False),
                   AffineLayer("bn", ones, ones),
                   FcLayer("fc1", np.ones((10, 4 * 6 * 6), np.float32))])
    save_model(model, *sgm_paths(workspace / "narrow"))
    code = main([*command.format(workspace).split(), "--model", str(workspace / "narrow.sgm.json")])
    assert code == 2
    assert "layer 'bn' expects 1 channels, got 4" in capsys.readouterr().err


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


@pytest.mark.parametrize("count", ["0", "-5"])
def test_deploy_check_inputs_below_1_exits_2(workspace, capsys, count):
    code = main(["deploy", "--model", str(workspace / "toy.sgm.json"),
                 "--check-inputs", count, "--out", str(workspace / "d")])
    assert code == 2
    assert f"n_inputs={count}" in capsys.readouterr().err
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
