"""Smoke tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench

Each workload runs untraced and traced; both must pass their own checks,
emit exactly the metrics BENCHMARK.json names, and produce byte-identical
outputs for the same seed.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_traces_without_changing_outputs(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
        record = json.loads((HERE / "results" /
                             f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text())
        assert record["environment"]["blas_thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"
        digests.append(record["outputs_sha256"])
    spans = HERE / "results" / f"{workload}-seed{SEED}-trace1-tiny-spans.jsonl.gz"
    assert spans.stat().st_size > 0
    assert digests[0] == digests[1], "tracing changed the outputs"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
