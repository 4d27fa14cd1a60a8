"""Smoke tests for the end-to-end benchmark (``bench_e2e.py --quick``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import bench_e2e
from layertrace import SPAN_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_units_match_the_harness():
    for metric in SPEC["end_to_end"]:
        assert bench_e2e.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert bench_e2e.PER_LAYER_UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_e2e.WORKLOADS)


def test_quick_run_prints_every_metric_checks_outputs_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--quick", "--trace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {
        (tokens[0], tokens[2])
        for tokens in (line.split() for line in proc.stdout.splitlines())
        if len(tokens) >= 3
    }
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert (metric["name"], metric["unit"]) in printed, metric["name"]

    report = json.loads((HERE / "results" / "latest.json").read_text())
    assert report["quick"]
    layers = set()
    for name, entry in report["workloads"].items():
        assert entry["end_to_end"]["failed_frac"]["value"] == 0, name
        trace = json.loads((ROOT / entry["trace_file"]).read_text())
        layers |= {event["cat"] for event in trace["traceEvents"]}
    assert set(SPAN_LAYERS) <= layers


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
