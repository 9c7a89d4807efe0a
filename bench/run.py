"""Run one dynlate benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a dynlate source checkout: dynlate is imported
from the checkout's ``src/`` (the package need not be installed), and the
run exits non-zero without a result when that directory is missing.

One client runs jobs back to back for ``--seconds`` (a closed loop), and
a child process times a fixed reference work after each job; the gated
timings are job times divided by the run's median reference time. With
``--trace 0`` the last stdout line holds every ``end_to_end`` metric of
BENCHMARK.json; with ``--trace 1`` a separate traced pass over all four
workloads gives every ``per_layer`` metric. The line before it is the full
record: provenance, every metric with its unit and sample count, and the
problems any correctness check found. Inputs, outputs and spans live under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from harness import JobResult, Metric, Reference, Tracer, median, sha256_file, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_dynlate():
    """Import dynlate from this checkout's src/, or exit non-zero."""
    package = SRC / "dynlate"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no dynlate package at {package}; run inside a dynlate checkout")
    sys.path.insert(0, str(SRC))
    import dynlate

    if Path(dynlate.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported dynlate from {dynlate.__file__}, not from {package}")
    return dynlate


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dynlate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(dynlate, seed: int, workloads, workdir: Path) -> dict:
    import numpy

    from workloads import THREADS, make_spec

    spec_path = workdir / "spec.json"
    dynlate.save_spec(make_spec(), str(spec_path))
    csv = {
        w.name: sha256_file(w.path(w.csv_name))
        for w in workloads
        if w.csv_name and os.path.exists(w.path(w.csv_name))
    }
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "dynlate": dynlate.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "seed": seed,
        "spec_sha256": sha256_file(spec_path),
        "csv_sha256": csv,
    }


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list[str]
    run_failed: bool
    """A run-level check failed (one made once per run rather than per job)."""
    job_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)


def measure(workload, seconds: float) -> Outcome:
    """Untraced closed-loop run: set-ups, then jobs until ``seconds`` pass."""
    from workloads import THREADS

    setups = []
    for _ in range(workload.sizes.setups):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    jobs, refs = [], []
    with Reference(THREADS) as reference:
        reference.seconds()  # warm-up, not counted
        deadline = time.perf_counter() + seconds
        while not jobs or time.perf_counter() < deadline or len(jobs) % workload.cycle:
            start = time.perf_counter()
            try:
                jobs.append(workload.job(len(jobs)))
            except Exception:
                jobs.append(JobResult(
                    time.perf_counter() - start, 0, None,
                    [f"job {len(jobs)}: {traceback.format_exc(limit=4)}"],
                ))
            refs.append(reference.seconds())
    try:
        run_problems = workload.finish()
    except Exception:
        run_problems = [f"run check: {traceback.format_exc(limit=4)}"]

    n = len(jobs)
    secs = [j.seconds for j in jobs]
    failed = sum(1 for j in jobs if j.problems)
    tail_s, tail_pct, beyond = tail(secs)
    rss = [j.rss_mb for j in jobs if j.rss_mb is not None]
    if rss:
        peak = Metric(max(rss), "MB", len(rss))
    else:
        peak = Metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    rows_per_s = median([j.rows / j.seconds for j in jobs])
    ref = median(refs)
    metrics = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "job_p50_s": Metric(median(secs), "s", n),
        "job_tail_s": Metric(tail_s, "s", n),
        "job_tail_pct": Metric(tail_pct, "%", n),
        "job_tail_beyond": Metric(beyond, "count", n),
        "rows_per_s": Metric(rows_per_s, "rows/s", n),
        "ref_s": Metric(ref, "s", len(refs)),
        "job_p50_ref": Metric(median(secs) / ref, "ref", n),
        "job_tail_ref": Metric(tail_s / ref, "ref", n),
        "rows_per_ref": Metric(rows_per_s * ref, "rows/ref", n),
        "peak_rss_mb": peak,
        "failed_frac": Metric(failed / n, "fraction", n),
    }
    if workload.work:
        name, unit = workload.work
        metrics[name] = Metric(workload.work_per_job() / median(secs), unit, n)
    problems = [p for j in jobs for p in j.problems] + run_problems
    return Outcome(metrics, n, failed, problems, bool(run_problems), secs, setups)


def trace_all(workloads, spans_path: Path) -> Outcome:
    """Traced pass over every workload; per-layer metrics are named workload.layer.metric."""
    tracer = Tracer()
    metrics, found = {}, []
    try:
        for w in workloads:
            layer_metrics, checked = w.trace(tracer)
            metrics.update({f"{w.name}.{k}": v for k, v in layer_metrics.items()})
            found.extend(checked)
    finally:
        tracer.write(spans_path)
    failed = sum(1 for p in found if p)
    return Outcome(metrics, len(found), failed, [x for p in found for x in p], False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dynlate = import_dynlate()
    from workloads import WORKLOADS, Sizes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        sizes = Sizes()
        if args.trace:
            workloads = []
            for cls in WORKLOADS.values():
                (workdir / cls.name).mkdir()
                workloads.append(cls(str(SRC), str(workdir / cls.name), args.seed, sizes))
            outcome = trace_all(workloads, WORK / "results" / f"{tag}.spans.jsonl")
        else:
            workloads = [WORKLOADS[args.workload](str(SRC), str(workdir), args.seed, sizes)]
            outcome = measure(workloads[0], args.seconds)
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "provenance": provenance(dynlate, args.seed, workloads, workdir),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "metrics": {k: asdict(v) for k, v in outcome.metrics.items()},
            "job_seconds": outcome.job_seconds,
            "setup_seconds": outcome.setup_seconds,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {}
    for m in declared:
        got = outcome.metrics.get(m["name"])
        if got is None or got.unit != m["unit"]:
            sys.exit(f"bench: metric {m['name']} [{m['unit']}] was not measured as declared")
        result[m["name"]] = {"value": got.value, "unit": got.unit}
    for p in outcome.problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.run_failed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
