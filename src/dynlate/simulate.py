"""Sampling from a DGP and Monte Carlo comparison against the exact oracle.

Replication r always draws from a stream seeded by (seed, r), so its
draws depend on nothing but the seed and its index. A study builds one
stacked table of treatment paths and outcome means per (arm, history)
pair; each draw takes a history, an arm and the noise from its stream
(in that order) and reads its units' rows of the table in one gather.
Replications draw plain (z, d, y) arrays, skip the panel layer, write
their :func:`~dynlate.estimators.arm_sums` moment rows into one array,
and are evaluated together as rows of one
:func:`~dynlate.estimators.target_columns` table. Worker threads fill
contiguous ranges of those rows; a row depends only on (spec, n, seed, r),
so every result is the same for any thread count. The oracle is the
one-row table of the population estimands
(:func:`~dynlate.estimators.target_row`), so both share the targets'
names, report order and defined-target rules.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, contaminating_effect_range, population_estimands
from .errors import DegenerateInstrument
from .estimators import ALL_TARGETS, arm_sums, moment_estimands, target_columns, target_row
from .panel import UNIT_ID_DTYPE, Panel


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The RNG stream of replication (or bootstrap resample) ``rep``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform has one.

    ``os.cpu_count()`` counts the machine's CPUs, also those a CPU mask
    (``taskset``, a container's cpuset) keeps the process off.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, reps: int, n: int, min_n: int, min_units: int) -> int:
    """Worker threads for ``reps`` rows, one sample of n units each.

    The one rule for Monte Carlo replications and bootstrap resamples: at
    most one per row, per usable core, per requested thread and per
    ``min_units`` unit draws (reps x n); 1, run inline, when n < min_n. A
    pool costs a few ms per call whatever the work, so the draws in all
    decide whether it pays; small samples lose even with many draws.
    """
    if n < min_n:
        return 1
    return max(1, min(threads, reps, reps * n // min_units, _usable_cores()))


def _fill_rows(fill, reps: int, workers: int, block: int | None = None, then=None) -> None:
    """Run ``fill(lo, hi)`` over the rows 0..reps on ``workers`` threads.

    Each block of ``block`` rows (default: all) goes in ``workers``
    balanced contiguous ranges to one pool (a plain ``map`` for one
    worker), then to ``then(lo, hi)`` on the calling thread.
    """
    block = block or reps
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for lo in range(0, reps, block):
            hi = min(lo + block, reps)
            cuts = [lo + w * (hi - lo) // workers for w in range(workers + 1)]
            list(run(fill, cuts[:-1], cuts[1:]))
            if then is not None:
                then(lo, hi)


_MC_MIN_N = 4096
"""Sample size from which Monte Carlo replications go to worker threads.
Two threads over one, reps=100, medians of 9 alternating runs on 2
vCPUs: 1.85 at n=1000, 1.21 at 2000, 0.88 at 3000, 0.87 at 4000, 0.82
at 5000 and 0.63 at 1e4."""

_MC_MIN_UNITS = 100_000
"""Unit draws (replications times n) per Monte Carlo worker. Two threads
over one, medians of 15-21 alternating in-process pairs on 2 vCPUs: 20k
draws 1.24 (n=1e4, reps=2) and 1.48 (n=5000, reps=4); 40k draws 0.93
(n=1e4), 1.04 (n=5000) and 1.04 (n=4096); 100k draws 1.20 (n=4096), 1.03
(n=5000), 0.91 (n=8000) and 0.64 (n=5e4); 200k draws 0.79-0.92 from
n=4096 to 1e4 and 0.70 at n=1e5."""


def _arm_table(spec: DgpSpec):
    """Treatment paths (int8) and outcome means of every (arm, history) pair.

    Both are (2H, T) with H = len(spec.histories); row z*H + h holds
    history h in arm z.
    """
    cells = [(h, h.pair.adoption(z)) for z in (0, 1) for h in spec.histories]
    periods = range(1, spec.T + 1)
    d_tab = np.array([[1 if a <= t else 0 for t in periods] for _, a in cells], dtype=np.int8)
    mean_tab = np.array(
        [[h.mean_outcome(t, a) for t in periods] for h, a in cells], dtype=np.float64
    )
    return d_tab, mean_tab


def _draw_assignments(spec: DgpSpec, n: int, rng: np.random.Generator):
    probs = np.array([h.prob for h in spec.histories], dtype=np.float64)
    hist = rng.choice(len(probs), size=n, p=probs)
    z = (rng.random(n) < spec.pz).astype(np.int8)
    return hist, z


def _draw_arrays(spec: DgpSpec, n: int, rng: np.random.Generator, table):
    """(z, d, y) of n units: latent history, then arm, then outcomes plus noise.

    ``table`` is ``_arm_table(spec)``; each unit reads one row of it.
    """
    hist, z = _draw_assignments(spec, n, rng)
    y = rng.normal(0.0, spec.noise_sd, size=(n, spec.T))
    d_tab, mean_tab = table
    row = hist + len(spec.histories) * z.astype(np.intp)
    y += mean_tab.take(row, axis=0)  # noise + mean: the bits of mean + noise
    return z, d_tab.take(row, axis=0), y


def draw_panel(spec: DgpSpec, n: int, seed: int) -> Panel:
    """Draw n units with :func:`_draw_arrays` as a panel with ids u0, u1, ....

    Ids are zero-padded to the width of n - 1, so they sort in draw order.

    Adoption pairs make treatment paths irreversible by construction, so
    the result always passes panel validation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z, d, y = _draw_arrays(spec, n, rng, _arm_table(spec))
    digits = np.arange(n).astype(UNIT_ID_DTYPE)
    ids = np.strings.add("u", np.strings.zfill(digits, len(str(n - 1))))
    return Panel.from_arrays(ids, z, d, y)


@dataclass(frozen=True)
class TargetSummary:
    """Across-replication summary for one scalar target."""

    name: str
    oracle: float
    mean: float | None
    bias: float | None
    sd: float | None
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class MonteCarloSummary:
    """Monte Carlo results with the population oracle attached to every row."""

    n: int
    reps: int
    seed: int
    T: int
    targets: tuple[str, ...]
    lo: float
    hi: float
    rows: tuple[TargetSummary, ...]

    def row(self, name: str) -> TargetSummary:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def monte_carlo(
    spec: DgpSpec,
    n: int,
    reps: int,
    seed: int,
    targets=ALL_TARGETS,
    lo: float | None = None,
    hi: float | None = None,
    threads: int = 1,
) -> MonteCarloSummary:
    """Repeatedly draw samples and summarize estimator error against the oracle.

    Estimator failures inside a replication (a single instrument arm,
    undefined IV, zero first stage) drop that replication for the
    affected targets only and are counted per target. Default effect
    bounds come from the spec's own contaminating-effect envelope.
    The oracle is the one-row target table of the population estimands,
    under the population zero rule; a target it leaves undefined has no
    row. Replications run through :func:`_fill_rows` on the workers
    :func:`_worker_count` allows with ``_MC_MIN_N`` and ``_MC_MIN_UNITS``.
    A replication's moment row depends only on (spec, n, seed, r), so the
    summary is the same for any ``threads``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0.0 < spec.pz < 1.0:
        raise DegenerateInstrument(f"pz = {spec.pz} puts every unit in one instrument arm")
    targets = tuple(targets)
    if lo is None or hi is None:
        auto_lo, auto_hi = contaminating_effect_range(spec)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
    # fs_1 = P(C1) > 0 for a valid spec, so the oracle keeps every identify
    # and bounds target
    oracle = target_row(population_estimands(spec), targets, lo, hi)

    table = _arm_table(spec)
    M = np.empty((reps, 6 * spec.T))

    def fill(start: int, stop: int) -> None:
        for r in range(start, stop):
            M[r] = arm_sums(*_draw_arrays(spec, n, rep_rng(seed, r), table))

    _fill_rows(fill, reps, _worker_count(threads, reps, n, _MC_MIN_N, _MC_MIN_UNITS))
    both_arms, *moments = moment_estimands(M)
    replicated = target_columns(*moments, targets, lo, hi)
    rows = []
    for (name, truth, truth_ok), (_, values, ok) in zip(oracle, replicated, strict=True):
        if not truth_ok[0]:
            continue
        truth = float(truth[0])
        values = values[ok & both_arms]
        n_ok = len(values)
        mean = float(np.mean(values)) if n_ok else None
        sd = float(np.std(values, ddof=1)) if n_ok >= 2 else None
        rows.append(
            TargetSummary(
                name=name,
                oracle=truth,
                mean=mean,
                bias=None if mean is None else mean - truth,
                sd=sd,
                n_ok=n_ok,
                n_failed=reps - n_ok,
            )
        )
    return MonteCarloSummary(
        n=n,
        reps=reps,
        seed=seed,
        T=spec.T,
        targets=targets,
        lo=lo,
        hi=hi,
        rows=tuple(rows),
    )
