"""BENCHMARK.json names exactly what the benchmark prints."""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_match_what_is_printed():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
