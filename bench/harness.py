"""Timing, tracing and child-process plumbing shared by every workload.

Nothing here imports dynlate, so the module loads even when the package
is missing; run.py checks for the package before any workload starts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

CLI_TIMEOUT_S = 120.0
"""A CLI child still running after this long is killed and its job fails."""


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit and the number of samples behind it."""

    value: float
    unit: str
    samples: int


@dataclass
class JobResult:
    """One timed job: wall seconds, rows moved, child peak RSS and check failures."""

    seconds: float
    rows: int
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)


def job_seed(seed: int, index: int) -> int:
    """Per-job seed derived from the workload seed and the job index."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def timed(fn, *args, **kwargs):
    """(result, wall seconds) of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail order statistic.

    The tail is the highest percentile with ten samples beyond it. With
    fewer than 21 samples no such percentile lies above the median, so the
    order statistic just above the median is used and the count beyond it
    is reported as it is.
    """
    xs = sorted(values)
    n = len(xs)
    beyond = min(10, (n - 1) // 2)
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, beyond


REFERENCE_ROWS = 20_000
REFERENCE_RESAMPLES = 40


def reference_work(rows: int = REFERENCE_ROWS) -> None:
    """Fixed work, independent of dynlate and of the workload seed.

    It formats, parses and indexes a panel-shaped CSV in pure Python, then
    fills a weight matrix too large for the caches with resampling counts
    and multiplies it by a feature matrix: the mix of interpreter, cache and
    memory-bandwidth work that the library jobs do.
    """
    rng = np.random.default_rng(20230528)
    y = rng.standard_normal(rows).tolist()
    text = "\n".join(
        f"u{i // 4:06d},{i % 4 + 1},{i >> 3 & 1},{i >> 1 & 1},{v!r}" for i, v in enumerate(y)
    )
    units: dict[str, dict[int, tuple[int, int, float]]] = {}
    for unit, period, z, d, v in csv.reader(io.StringIO(text)):
        units.setdefault(unit, {})[int(period)] = (int(z), int(d), float(v))
    n = rows * 5
    W = np.empty((REFERENCE_RESAMPLES, n))
    for r in range(REFERENCE_RESAMPLES):
        W[r] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    W @ rng.standard_normal((n, 26))


def reference_seconds(pool: ThreadPoolExecutor, threads: int) -> float:
    """Wall time of ``threads`` copies of :func:`reference_work` run at once in ``pool``."""
    start = time.perf_counter()
    list(pool.map(reference_work, [REFERENCE_ROWS] * threads))
    return time.perf_counter() - start


class Reference:
    """Times the reference work on request, in a child process of its own.

    The machine's speed drifts by up to 1.8x over minutes as other tenants
    come and go, moving every job time of a run together. The reference,
    timed between jobs, drifts with them, so a job time divided by it stays
    steady. The child keeps the reference's memory out of the peak RSS of
    the workload process, and waits on its pipe while a job runs.
    """

    def __init__(self, threads: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(threads)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with {self.proc.wait()}")
        return float(line)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Spans


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; :meth:`write` saves them as JSON lines.

    A span's parent is the span open around it, and children inherit the
    job id of their parent unless they name their own.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[tuple[int, str | None]] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        parent, parent_job = self._open[-1] if self._open else (None, None)
        job = parent_job if job is None else job
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, job))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, job)

    def seconds(self, name: str, job_prefix: str = "") -> list[float]:
        """Durations of every closed span called ``name`` in matching jobs."""
        return [
            s.seconds
            for s in self.spans
            if s is not None and s.name == name and (s.job or "").startswith(job_prefix)
        ]

    def child_seconds(self, job: str) -> float:
        """Summed duration of the direct children of the top span of ``job``."""
        top = next(
            i for i, s in enumerate(self.spans)
            if s is not None and s.job == job and s.parent is None
        )
        return sum(s.seconds for s in self.spans if s is not None and s.parent == top)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "job": s.job,
                }) + "\n")


# ---------------------------------------------------------------------------
# CLI children


@dataclass(frozen=True)
class CliRun:
    seconds: float
    returncode: int
    rss_mb: float
    stderr: str


def run_cli(src_dir, workdir, args) -> CliRun:
    """Run ``python -m dynlate.cli ARGS`` in ``workdir`` and wait for it.

    The child imports dynlate from ``src_dir`` only. Wall time covers
    interpreter start to exit; the peak RSS comes from the child's own
    resource usage, collected by ``wait4``.
    """
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    err_path = os.path.join(workdir, "cli.stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dynlate.cli", *args],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CliRun(seconds, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


def cli_problems(command: str, run: CliRun) -> list[str]:
    if run.returncode == 0:
        return []
    return [f"{command}: exit code {run.returncode}: {run.stderr.strip()[-300:]}"]


if __name__ == "__main__":
    # the child side of Reference: one timing per line read
    threads = int(sys.argv[1])
    with ThreadPoolExecutor(threads) as pool:
        for _ in sys.stdin:
            print(reference_seconds(pool, threads), flush=True)
