"""The checked-in benchmark records (``BENCH_*.json`` at the repo root) speak
the benchmark's own terms: every workload and metric they name is one that
``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}
RUN_FIELDS = {"jobs", "failed", "correct"}
"""Bookkeeping a run record keeps beside its metrics: its job count, failed
jobs and whether every job's output was correct."""

RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def pair_records(node):
    """Every run pair in a record: each dict that names a ``workload``, at any depth."""
    if isinstance(node, dict):
        if "workload" in node:
            yield node
        else:
            for value in node.values():
                yield from pair_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from pair_records(value)


def summary_workload(key):
    """The workload of a summary key: its name, then optionally the environment
    the runs were made in, as ``NAME=VALUE`` settings after a space."""
    name, *env = key.split(" ")
    assert all("=" in setting for setting in env), key
    return name


def test_records_exist():
    # an empty glob would leave the check below with no case
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    assert {"title", "parent", "claim", "method", "summary", "pairs"} <= record.keys()
    pairs = list(pair_records(record))
    assert pairs
    for pair in pairs:
        assert pair["workload"] in WORKLOADS
        for side in ("parent", "change"):
            assert pair[side].keys() - RUN_FIELDS <= END_TO_END, (pair["workload"], side)
    for seed, workloads in record["summary"].items():
        for key, summary in workloads.items():
            assert summary_workload(key) in WORKLOADS, (seed, key)
            assert summary["metrics"].keys() <= END_TO_END, (seed, key)
    for name, trace in record.items():
        if name.startswith("trace_"):
            workload = name.removeprefix("trace_")
            assert workload in WORKLOADS
            for side in ("parent", "change"):
                assert trace[side].keys() <= PER_LAYER, (name, side)
                assert all(m.startswith(f"{workload}.") for m in trace[side]), (name, side)
