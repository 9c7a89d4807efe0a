"""The four benchmark workloads: set-up, one timed job, and a traced pass.

Every workload draws from one DGP (below). A job's seed comes from the
workload seed and the job index, so a seed fixes every input. Why each
workload exists, and which end-to-end metric each layer metric should
move, is written down in README.md beside this file.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass

import dynlate as dl
from dynlate import reporting

import checks
from harness import (
    JobResult,
    Metric,
    cli_problems,
    job_seed,
    median,
    run_cli,
    sha256_file,
    timed,
)

THREADS = 2
"""Worker threads for bootstrap and Monte Carlo: the CLI default on a 2-core machine."""

ALPHA = 0.05
DELTA_PROFILE = (1.0, 2.0, 1.5, 0.5)
"""True effect by exposure in the DGP; the oracle must reproduce it."""


@dataclass(frozen=True)
class Sizes:
    read_n: int = 50_000
    write_n: int = 50_000
    boot_n: int = 100_000
    boot_reps: int = 500
    mc_n: int = 10_000
    mc_reps: int = 100
    mc_trace_reps: int = 30
    """Replications the traced run splits into per-layer spans."""
    setups: int = 5
    """Set-ups per run; ``setup_s`` is their median."""


def make_spec():
    """T=4 calendar-homogeneous DGP with six latent histories and unit noise."""
    never = dl.NEVER
    return dl.make_calendar_homogeneous(
        T=4,
        pz=0.5,
        history_probs={
            (1, never): 0.3, (1, 2): 0.1, (1, 3): 0.05,
            (2, never): 0.05, (never, never): 0.4, (1, 1): 0.1,
        },
        baselines=(0.0, 0.1, 0.2, 0.3),
        delta_profile=DELTA_PROFILE,
        noise_sd=1.0,
    )


class Workload:
    """Base: ``setup`` builds inputs in ``workdir``, ``job`` runs one timed job.

    ``trace`` repeats the work a job does through the layers' public
    functions inside tracer spans and returns per-layer metrics together
    with the problem lists of the checks it ran.
    """

    name = ""
    work: tuple[str, str] | None = None
    """(metric, unit) of a throughput counted in ``work_per_job`` units, besides rows."""
    csv_name: str | None = None
    """The panel CSV the workload reads or writes, named in the provenance record."""
    cycle = 1
    """Jobs come in cycles of this many different jobs; a run ends on a whole cycle."""

    def __init__(self, src_dir, workdir, seed: int, sizes: Sizes) -> None:
        self.src_dir = src_dir
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.spec_path = os.path.join(workdir, "spec.json")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, args):
        return run_cli(self.src_dir, self.workdir, args)

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, index: int) -> JobResult:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks made once, untimed, after the last job."""
        return []

    def work_per_job(self) -> int:
        return 0

    def trace(self, tracer) -> tuple[dict[str, Metric], list[list[str]]]:
        raise NotImplementedError

    def span_metric(self, tracer, name: str) -> Metric:
        """Median duration of this workload's spans called ``name``."""
        xs = tracer.seconds(name, self.name)
        return Metric(median(xs), "s", len(xs))


# ---------------------------------------------------------------------------
# csv_read: one CLI process per job on a prepared panel CSV

READ_COMMANDS = {
    "estimate": ("estimate",),
    "identify": ("identify", "--assume", "calendar-homogeneity"),
    "bounds": ("bounds", "--assume", "cross-group-homogeneity"),
}


def _bounds_reports(panel, est):
    """What ``dynlate bounds --assume cross-group-homogeneity`` computes."""
    lo, hi = dl.outcome_range_bounds(panel)
    methods = (dl.bounds_general, dl.bounds_general_unrestricted, dl.bounds_tight)
    return [fn(est, t, lo, hi) for t in range(2, est.T + 1) for fn in methods]


class CsvRead(Workload):
    name = "csv_read"
    csv_name = "panel.csv"
    cycle = len(READ_COMMANDS)

    def setup(self) -> None:
        spec = make_spec()
        dl.save_spec(spec, self.spec_path)
        panel = dl.draw_panel(spec, self.sizes.read_n, job_seed(self.seed, 0))
        self.csv_path = self.path("panel.csv")
        with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
            dl.serialize(panel, fh)
        self.rows = panel.n * panel.T
        self.est = dl.estimate(panel)
        self.prof = dl.identify(self.est)
        self.first: dict[str, bytes] = {}

    def _run(self, command: str):
        out = f"{command}.json"
        if os.path.exists(self.path(out)):
            os.remove(self.path(out))
        run = self.cli([*READ_COMMANDS[command], "--panel", "panel.csv", "--json", out])
        problems = cli_problems(command, run)
        if not problems:
            with open(self.path(out), "rb") as fh:
                data = fh.read()
            problems = checks.cli_report(
                command, data, self.first.get(command), self.est, self.prof
            )
            self.first.setdefault(command, data)
        return run, problems

    def job(self, index: int) -> JobResult:
        command = list(READ_COMMANDS)[index % len(READ_COMMANDS)]
        run, problems = self._run(command)
        return JobResult(run.seconds, self.rows, run.rss_mb, problems)

    def trace(self, tracer):
        self.setup()
        found, self_s = [], []
        for command in READ_COMMANDS:
            run, problems = self._run(command)
            found.append(problems)
            job = f"{self.name}:{command}"
            with tracer.span("job", job=job):
                with tracer.span("panel.ingest"):
                    panel = dl.ingest(self.csv_path)
                with tracer.span("estimators.estimate"):
                    est = dl.estimate(panel)
                    flags = dl.negative_weight_diagnostic(est)
                if command == "identify":
                    with tracer.span("estimators.identify"):
                        prof = dl.identify(est)
                elif command == "bounds":
                    with tracer.span("estimators.bounds"):
                        reports = _bounds_reports(panel, est)
                with tracer.span("reporting.dump"):
                    outputs = {"estimands": reporting.estimands_to_dict(est)}
                    if command == "estimate":
                        outputs["negative_weight_flags"] = reporting.flags_to_dicts(flags)
                    elif command == "identify":
                        outputs["profile"] = reporting.profile_to_dict(prof)
                    else:
                        outputs = {"bounds": [reporting.bounds_to_dict(r) for r in reports]}
                    report = {"command": command, "outputs": outputs}
                    reporting.dump(report, self.path(f"replay-{command}.json"))
            with open(self.path(f"replay-{command}.json"), "rb") as fh:
                found.append(checks.cli_report(command, fh.read(), None, self.est, self.prof))
            self_s.append(run.seconds - tracer.child_seconds(job))

        tracemalloc.start()
        try:
            dl.ingest(self.csv_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        metrics = {
            "panel.ingest_s": self.span_metric(tracer, "panel.ingest"),
            "panel.ingest_peak_mb": Metric(peak / 2**20, "MB", 1),
            "estimators.estimate_s": self.span_metric(tracer, "estimators.estimate"),
            "estimators.identify_s": self.span_metric(tracer, "estimators.identify"),
            "estimators.bounds_s": self.span_metric(tracer, "estimators.bounds"),
            "reporting.dump_s": self.span_metric(tracer, "reporting.dump"),
            "cli.self_s": Metric(median(self_s), "s", len(self_s)),
        }
        return metrics, found


# ---------------------------------------------------------------------------
# csv_write: one ``dynlate simulate`` process per job


class CsvWrite(Workload):
    name = "csv_write"
    csv_name = "out0.csv"
    cycle = 2
    """Jobs cycle through this many seeds, so same-seed outputs can be compared."""

    def setup(self) -> None:
        dl.save_spec(make_spec(), self.spec_path)
        run = self.cli(["check", "--dgp", "spec.json"])
        if run.returncode != 0:
            raise RuntimeError(f"dynlate check rejected the spec: {run.stderr.strip()}")
        self.rows = self.sizes.write_n * make_spec().T
        self.first: dict[int, str] = {}

    def _run(self, slot: int):
        out = f"out{slot}.csv"
        if os.path.exists(self.path(out)):
            os.remove(self.path(out))
        seed = job_seed(self.seed, slot)
        run = self.cli([
            "simulate", "--dgp", "spec.json", "--n", str(self.sizes.write_n),
            "--seed", str(seed), "--out", out,
        ])
        problems = cli_problems("simulate", run)
        digest = None
        if not problems:
            digest = sha256_file(self.path(out))
            problems = checks.same_bytes(f"simulate seed {seed}", digest, self.first.get(slot))
            self.first.setdefault(slot, digest)
        return run, digest, problems

    def job(self, index: int) -> JobResult:
        run, _, problems = self._run(index % self.cycle)
        return JobResult(run.seconds, self.rows, run.rss_mb, problems)

    def finish(self) -> list[str]:
        panel = dl.ingest(self.path("out0.csv"))
        drawn = dl.draw_panel(make_spec(), self.sizes.write_n, job_seed(self.seed, 0))
        return checks.round_trip(panel, drawn)

    def trace(self, tracer):
        self.setup()
        found, self_s = [], []
        for slot in range(self.cycle):
            run, digest, problems = self._run(slot)
            found.append(problems)
            job = f"{self.name}:{slot}"
            replay = self.path(f"replay{slot}.csv")
            with tracer.span("job", job=job):
                with tracer.span("dgp.load_spec"):
                    spec = dl.load_spec(self.spec_path)
                with tracer.span("simulate.draw_panel"):
                    panel = dl.draw_panel(spec, self.sizes.write_n, job_seed(self.seed, slot))
                with tracer.span("panel.serialize"):
                    with open(replay, "w", encoding="utf-8", newline="") as fh:
                        dl.serialize(panel, fh)
            found.append(checks.same_bytes("replayed simulate", sha256_file(replay), digest))
            self_s.append(run.seconds - tracer.child_seconds(job))

        metrics = {
            "dgp.load_spec_s": self.span_metric(tracer, "dgp.load_spec"),
            "simulate.draw_panel_s": self.span_metric(tracer, "simulate.draw_panel"),
            "panel.serialize_s": self.span_metric(tracer, "panel.serialize"),
            "cli.self_s": Metric(median(self_s), "s", len(self_s)),
        }
        return metrics, found


# ---------------------------------------------------------------------------
# bootstrap_ci: library bootstrap on a freshly drawn in-memory panel


class BootstrapCi(Workload):
    name = "bootstrap_ci"
    work = ("resamples_per_s", "resamples/s")

    def setup(self) -> None:
        self.spec = make_spec()
        self.prepared = (0, self._draw(0))
        # lazy set-up (thread pool and BLAS start-up) finishes before timing
        self._bootstrap(self.prepared[1], job_seed(self.seed, -1), reps=10)

    def _draw(self, index: int):
        return dl.draw_panel(self.spec, self.sizes.boot_n, job_seed(self.seed, index))

    def _bootstrap(self, panel, seed: int, threads: int = THREADS, reps: int | None = None):
        return dl.bootstrap(
            panel, reps=reps or self.sizes.boot_reps, alpha=ALPHA, seed=seed, threads=threads
        )

    def work_per_job(self) -> int:
        return self.sizes.boot_reps

    def job(self, index: int) -> JobResult:
        # the panel is drawn outside the timed region, fresh for every job
        ready, panel = self.prepared
        if ready != index:
            panel = self._draw(index)
        res, seconds = timed(self._bootstrap, panel, job_seed(self.seed, index))
        problems = checks.bootstrap(res, dl.estimate(panel))
        return JobResult(seconds, self.sizes.boot_reps * panel.n * panel.T, None, problems)

    def trace(self, tracer):
        self.setup()
        _, panel = self.prepared
        seed = job_seed(self.seed, 0)
        job = f"{self.name}:threads{THREADS}"
        _, before = timed(self._bootstrap, panel, seed)
        start = time.perf_counter()
        with tracer.span("job", job=job):
            with tracer.span("inference.bootstrap"):
                res = self._bootstrap(panel, seed)
            traced = time.perf_counter() - start
            with tracer.span("estimators.estimate"):
                est = dl.estimate(panel)
        _, after = timed(self._bootstrap, panel, seed)
        found = [checks.bootstrap(res, est)]

        with tracer.span("inference.bootstrap", job=f"{self.name}:threads1"):
            res1 = self._bootstrap(panel, seed, threads=1)
        found.append(
            [] if res1 == res else ["bootstrap: threads=1 and threads=2 results differ"]
        )

        tracemalloc.start()
        try:
            self._bootstrap(panel, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        t2 = tracer.seconds("inference.bootstrap", job)[0]
        t1 = tracer.seconds("inference.bootstrap", f"{self.name}:threads1")[0]
        reps = self.sizes.boot_reps
        metrics = {
            "inference.bootstrap_s": Metric(t2, "s", 1),
            "inference.bootstrap_peak_mb": Metric(peak / 2**20, "MB", 1),
            "inference.weight_bytes": Metric(float(reps * panel.n * 8), "bytes", 1),
            "inference.thread_speedup": Metric(t1 / t2, "x", 1),
            "inference.resamples_ok_ratio": Metric(
                (reps - res.n_failed_resamples) / reps, "ratio", reps
            ),
            "estimators.estimate_s": Metric(
                tracer.seconds("estimators.estimate", job)[0], "s", 1
            ),
            # the traced call sits between two untraced ones, so slow drift cancels
            "trace.overhead_s": Metric(traced - (before + after) / 2, "s", 1),
        }
        return metrics, found


# ---------------------------------------------------------------------------
# mc_study: library Monte Carlo study with every target


class McStudy(Workload):
    name = "mc_study"
    work = ("reps_per_s", "replications/s")

    def setup(self) -> None:
        dl.save_spec(make_spec(), self.spec_path)
        self.spec = dl.load_spec(self.spec_path)
        dl.population_estimands(self.spec)
        truth = dl.true_dynamic_lates(self.spec)
        if max(abs(a - b) for a, b in zip(truth, DELTA_PROFILE)) > 1e-12:
            raise RuntimeError(f"oracle effects {truth} differ from the DGP's profile")
        # lazy set-up (thread pool, RNG and BLAS start-up) finishes before timing
        self._study(job_seed(self.seed, -1), reps=2)

    def _study(self, seed: int, reps: int | None = None, threads: int = THREADS):
        return dl.monte_carlo(
            self.spec, n=self.sizes.mc_n, reps=reps or self.sizes.mc_reps,
            seed=seed, threads=threads,
        )

    def work_per_job(self) -> int:
        return self.sizes.mc_reps

    def job(self, index: int) -> JobResult:
        summary, seconds = timed(self._study, job_seed(self.seed, index))
        rows = self.sizes.mc_reps * self.sizes.mc_n * self.spec.T
        return JobResult(seconds, rows, None, checks.monte_carlo(summary))

    def trace(self, tracer):
        self.setup()
        seed = job_seed(self.seed, 0)
        _, before = timed(self._study, seed)
        start = time.perf_counter()
        with tracer.span("simulate.monte_carlo", job=f"{self.name}:threads{THREADS}"):
            summary = self._study(seed)
        traced = time.perf_counter() - start
        _, after = timed(self._study, seed)
        with tracer.span("simulate.monte_carlo", job=f"{self.name}:threads1"):
            summary1 = self._study(seed, threads=1)
        found = [
            checks.monte_carlo(summary),
            [] if summary1 == summary else ["monte carlo: threads=1 and threads=2 results differ"],
        ]

        lo, hi = dl.contaminating_effect_range(self.spec)
        methods = (dl.bounds_general, dl.bounds_general_unrestricted, dl.bounds_tight)
        for r in range(self.sizes.mc_trace_reps):
            job = f"{self.name}:rep{r}"
            with tracer.span("simulate.replication", job=job):
                with tracer.span("simulate.draw_panel"):
                    panel = dl.draw_panel(self.spec, self.sizes.mc_n, job_seed(seed, r))
                with tracer.span("estimators.estimate"):
                    est = dl.estimate(panel)
                with tracer.span("estimators.identify_bounds"):
                    dl.identify(est)
                    for t in range(2, est.T + 1):
                        for fn in methods:
                            fn(est, t, lo, hi)
            # timed again on its own: draw_panel already includes this call
            with tracer.span("panel.from_arrays", job=job):
                dl.Panel.from_arrays(panel.unit_ids, panel.z, panel.d, panel.y)
        for _ in range(20):
            with tracer.span("dgp.oracle", job=f"{self.name}:oracle"):
                dl.population_estimands(self.spec)
                dl.true_dynamic_lates(self.spec)
        for _ in range(5):
            with tracer.span("reporting.dumps", job=f"{self.name}:report"):
                reporting.dumps(reporting.monte_carlo_to_dict(summary))

        reps = self.sizes.mc_reps
        t1 = tracer.seconds("simulate.monte_carlo", f"{self.name}:threads1")[0]
        t2 = tracer.seconds("simulate.monte_carlo", f"{self.name}:threads{THREADS}")[0]
        parts = ("simulate.draw_panel", "estimators.estimate", "estimators.identify_bounds")
        parts_s = sum(self.span_metric(tracer, p).value for p in parts)
        n_ok = sum(r.n_ok for r in summary.rows)
        n_failed = sum(r.n_failed for r in summary.rows)
        metrics = {
            "simulate.rep_s": Metric(t1 / reps, "s", reps),
            "simulate.draw_panel_s": self.span_metric(tracer, "simulate.draw_panel"),
            "panel.from_arrays_s": self.span_metric(tracer, "panel.from_arrays"),
            "estimators.estimate_s": self.span_metric(tracer, "estimators.estimate"),
            "estimators.identify_bounds_s": self.span_metric(tracer, "estimators.identify_bounds"),
            "simulate.rep_self_s": Metric(t1 / reps - parts_s, "s", self.sizes.mc_trace_reps),
            "simulate.thread_speedup": Metric(t1 / t2, "x", 1),
            "simulate.targets_ok_ratio": Metric(
                n_ok / (n_ok + n_failed), "ratio", len(summary.rows)
            ),
            "dgp.oracle_s": self.span_metric(tracer, "dgp.oracle"),
            "reporting.dumps_s": self.span_metric(tracer, "reporting.dumps"),
            "trace.overhead_s": Metric(traced - (before + after) / 2, "s", 1),
        }
        return metrics, found


WORKLOADS = {w.name: w for w in (CsvRead, CsvWrite, BootstrapCi, McStudy)}
