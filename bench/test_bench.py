"""Tests of the benchmark's own code at tiny sizes.

    python3 -m pytest bench -q

They live outside the package's ``tests/`` so the tier-1 suite does not
run them. Every check is shown to pass on a good output and to fail on a
corrupted copy of it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

dl = run.import_dynlate()

import checks  # noqa: E402
import harness  # noqa: E402
from dynlate import reporting  # noqa: E402
from workloads import WORKLOADS, Sizes, make_spec  # noqa: E402

TINY = Sizes(
    read_n=200, write_n=200, boot_n=400, boot_reps=20,
    mc_n=400, mc_reps=10, mc_trace_reps=2, setups=2,
)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _workload(name, tmp_path, seed=7):
    return WORKLOADS[name](str(run.SRC), str(tmp_path), seed, TINY)


def _assert_declared(metrics, key):
    for m in DECLARED[key]:
        got = metrics[m["name"]]
        assert got.unit == m["unit"], m["name"]
        assert got.samples >= 1, m["name"]
        assert math.isfinite(got.value), m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    out = run.measure(_workload(name, tmp_path), seconds=0.0)
    assert (out.failed, out.problems, out.run_failed) == (0, [], False)
    assert out.attempted == len(out.job_seconds) == WORKLOADS[name].cycle
    _assert_declared(out.metrics, "end_to_end")
    assert out.metrics["failed_frac"].value == 0.0
    if WORKLOADS[name].work:
        assert WORKLOADS[name].work[0] in out.metrics


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    workloads = []
    for name in WORKLOADS:
        (tmp_path / name).mkdir()
        workloads.append(_workload(name, tmp_path / name))
    spans = tmp_path / "spans.jsonl"
    out = run.trace_all(workloads, spans)
    assert out.failed == 0, out.problems
    assert out.attempted >= len(WORKLOADS)
    _assert_declared(out.metrics, "per_layer")
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"panel.ingest", "inference.bootstrap", "simulate.draw_panel"} <= names


def test_repeated_cli_jobs_compare_their_outputs(tmp_path):
    w = _workload("csv_read", tmp_path)
    w.setup()
    jobs = [w.job(i) for i in range(4)]  # job 3 repeats job 0's command
    assert all(not j.problems for j in jobs)
    assert set(w.first) == {"estimate", "identify", "bounds"}

    w = _workload("csv_write", tmp_path / "write")
    (tmp_path / "write").mkdir()
    w.setup()
    jobs = [w.job(i) for i in range(3)]  # job 2 repeats job 0's seed
    assert all(not j.problems for j in jobs)
    assert w.finish() == []


def test_reference_child_times_each_request_and_exits():
    with harness.Reference(threads=2) as ref:
        times = [ref.seconds(), ref.seconds()]
    assert all(t > 0 for t in times)
    assert ref.proc.returncode == 0


def test_tail_has_ten_samples_beyond_once_there_are_enough():
    assert harness.tail(list(range(30))) == (19, 100 * 20 / 30, 10)
    value, _, beyond = harness.tail([5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0])
    assert value >= 4.5 and beyond == 3


# ---------------------------------------------------------------------------
# each check fails on a corrupted output


@pytest.fixture(scope="module")
def panel():
    return dl.draw_panel(make_spec(), 400, 3)


def _nudge(x: float) -> float:
    return math.nextafter(x, math.inf)


def test_cli_report_check(panel):
    est = dl.estimate(panel)
    prof = dl.identify(est)
    outputs = {
        "estimands": reporting.estimands_to_dict(est),
        "profile": reporting.profile_to_dict(prof),
    }
    good = reporting.dumps({"outputs": outputs}).encode()
    assert checks.cli_report("identify", good, good, est, prof) == []

    bad = json.loads(good)
    bad["outputs"]["estimands"]["rf"][1] = _nudge(bad["outputs"]["estimands"]["rf"][1])
    assert checks.cli_report("identify", json.dumps(bad).encode(), None, est, prof)
    bad = json.loads(good)
    bad["outputs"]["profile"]["deltas"][2] = _nudge(bad["outputs"]["profile"]["deltas"][2])
    assert checks.cli_report("identify", json.dumps(bad).encode(), None, est, prof)
    assert checks.cli_report("identify", good + b" ", good, est, prof)
    assert checks.cli_report("identify", b"{not json", None, est, prof)

    lo, hi = dl.outcome_range_bounds(panel)
    entries = [reporting.bounds_to_dict(dl.bounds_general(est, t, lo, hi)) for t in (2, 3, 4)]
    good = reporting.dumps({"outputs": {"bounds": entries}}).encode()
    assert checks.cli_report("bounds", good, None, est, prof) == []
    entries[1]["fs_t"] = _nudge(entries[1]["fs_t"])
    bad = reporting.dumps({"outputs": {"bounds": entries}}).encode()
    assert checks.cli_report("bounds", bad, None, est, prof)
    empty = reporting.dumps({"outputs": {"bounds": []}}).encode()
    assert checks.cli_report("bounds", empty, None, est, prof)

    failed = harness.CliRun(1.0, 2, 50.0, "error[E_IO]: no such file")
    assert harness.cli_problems("estimate", failed)


def test_csv_checks(panel):
    assert checks.same_bytes("f", "ab" * 32, "ab" * 32) == []
    assert checks.same_bytes("f", "ab" * 32, "cd" * 32)
    assert checks.round_trip(dl.ingest(dl.serialize(panel)), panel) == []
    y = panel.y.copy()
    y[5, 1] = _nudge(y[5, 1])
    corrupted = dl.Panel.from_arrays(panel.unit_ids, panel.z, panel.d, y)
    assert checks.round_trip(corrupted, panel)


def test_bootstrap_check(panel):
    res = dl.bootstrap(panel, reps=20, alpha=0.05, seed=1, threads=2)
    est = dl.estimate(panel)
    assert checks.bootstrap(res, est) == []
    assert checks.bootstrap(dataclasses.replace(res, n_failed_resamples=1), est)

    def corrupt(name, **changes):
        targets = tuple(
            dataclasses.replace(t, **changes) if t.name == name else t for t in res.targets
        )
        return dataclasses.replace(res, targets=targets)

    rf2 = res.target("rf[2]")
    assert checks.bootstrap(corrupt("rf[2]", lower=rf2.upper + 1.0), est)
    assert checks.bootstrap(corrupt("iv[3]", point=_nudge(res.target("iv[3]").point)), est)
    dropped = dataclasses.replace(
        res, targets=tuple(t for t in res.targets if t.name != "fs[1]")
    )
    assert checks.bootstrap(dropped, est)


def test_monte_carlo_check():
    summary = dl.monte_carlo(make_spec(), n=400, reps=10, seed=2, threads=2)
    assert checks.monte_carlo(summary) == []

    def corrupt(**changes):
        rows = (dataclasses.replace(summary.rows[0], **changes),) + summary.rows[1:]
        return dataclasses.replace(summary, rows=rows)

    assert checks.monte_carlo(corrupt(n_failed=1))
    row = summary.rows[0]
    assert checks.monte_carlo(corrupt(bias=7.0 * row.sd / math.sqrt(row.n_ok)))
    assert checks.monte_carlo(corrupt(sd=None))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "csv_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
