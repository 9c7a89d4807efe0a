"""Sampling from a DGP and Monte Carlo comparison against the exact oracle.

Replication r always draws from a stream seeded by (seed, r), so its
draws depend on nothing but the seed and its index. Each draw takes a
history, an arm and the noise from its stream (in that order), the draws
of ``Generator.choice``, ``random`` and ``normal``, and reads its units'
cells off the spec's one cell table, :attr:`~dynlate.dgp.DgpSpec.cells`,
which the exact oracle sums too. A panel takes its paths and means from
it. A Monte Carlo replication gathers no panel: the integer columns of
its moment row are its cell counts times the cell features, and its y
columns each arm's outcomes added unit by unit in draw order
(:func:`~dynlate.estimators.unit_sums`), so the row has the bits of
:func:`~dynlate.estimators.arm_sums` of the drawn (z, d, y). The rows go
into one array and are evaluated together, screened and grouped by
:func:`~dynlate.estimators.target_blocks`. Worker threads fill
contiguous ranges of those rows; a row depends only on (spec, n, seed, r),
so every result is the same for any thread count. The oracle is the
one-row table of the population estimands
(:func:`~dynlate.estimators.target_row`), so both share the targets'
names, report order and defined-target rules.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, contaminating_effect_range, population_estimands
from .errors import DegenerateInstrument
from .estimands import is_integer
from .estimators import ALL_TARGETS, moment_estimands, target_blocks, target_row, unit_sums
from .panel import Panel


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


def _fill_rows(worker, T: int, reps: int, n: int, seed: int, threads: int, min_n: int,
               min_units: int) -> np.ndarray:
    """The (reps, 6T) moment rows of ``reps`` samples of n units each.

    The one replication driver: each worker calls the row-writer factory
    ``worker()`` once and writes row r of its range as
    ``write(rep_rng(seed, r), M[r])``. At most one thread per row, per
    usable core, per requested thread and per ``min_units`` unit draws
    (reps x n); inline, with a plain ``map``, when n < min_n or one worker
    is left. A pool costs a few ms per call whatever the work, so the draws
    in all decide whether it pays; small samples lose even with many draws.
    The rows go in balanced contiguous ranges, one per worker, and a row
    depends only on (writer input, seed, r), not on the worker count.
    """
    if not is_integer(threads) or threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    M = np.empty((reps, 6 * T))

    def fill(start: int, stop: int) -> None:
        write = worker()
        for r in range(start, stop):
            write(rep_rng(seed, r), M[r])

    workers = 1 if n < min_n else max(1, min(threads, reps, reps * n // min_units, _usable_cores()))
    cuts = [w * reps // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        list(run(fill, cuts[:-1], cuts[1:]))
    return M


_MC_MIN_N = 4096
"""Sample size from which Monte Carlo replications go to worker threads.
Two threads over one, pool forced on, reps=100, medians of 15-21
alternating in-process pairs on 2 vCPUs (T=4): 1.25 at n=1000, 1.14 at
2000, 0.91-0.94 at 3000 (upper quartile 1.00), 0.76 at 4096, 0.77 at 5000
and 0.62 at 1e4; at 3e5 draws, 1.06 at n=1000 and 1.16 at 2000."""

_MC_MIN_UNITS = 150_000
"""Unit draws (replications times n) per Monte Carlo worker. Timed as for
``_MC_MIN_N``: 2-4 replications 1.21-1.97 at every n from 1000 to 1e4;
2e5 draws 1.06 (n=4096), 1.01 (5000), 0.76 (8000) and 0.85 (1e4); 2.5e5
draws 1.04 (4096), 0.87 (5000) and 0.75 (1e4); 3e5 draws 0.85 (4096),
0.72 (5000) and 0.77 (1e4); 4e5 draws 0.70-0.83."""


_COUNT_MAX_HISTORIES = 64
"""Most histories for which :func:`_histories` counts the CDF entries each
uniform reaches, one comparison pass per entry; more go to a binary
search. Counting against searching, per 10,000 units on 2 vCPUs: 28
against 167 us at 6 histories, 173 against 469 us at 28, 409 against 615
us at 60 and 832 against 716 us at 120."""


def _histories(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The history of each uniform in ``u``: how many entries of ``cdf`` it reaches.

    That is ``cdf.searchsorted(u, side="right")``, the index
    ``Generator.choice`` reads off its uniforms. Up to
    ``_COUNT_MAX_HISTORIES`` histories it is counted in uint8, one pass per
    entry; the last entry is 1.0, which no uniform reaches.
    """
    if len(cdf) > _COUNT_MAX_HISTORIES:
        return cdf.searchsorted(u, side="right")
    hist = np.zeros(len(u), dtype=np.uint8)
    for c in cdf[:-1]:
        hist += u >= c
    return hist


class _Draws:
    """One worker's arrays for samples of n units from one study.

    :meth:`draw` takes each unit's latent history, then its arm, then its
    outcome noise from ``rng``, the draws of ``rng.choice(H, size=n,
    p=probs)``, ``rng.random(n) < pz`` and ``rng.normal(0, sd, (n, T))``. It
    leaves the arms in ``z`` (bool), the cells in ``cell`` and the outcomes
    in ``y``; every later draw reuses the same arrays.
    """

    def __init__(self, spec: DgpSpec, n: int):
        self.spec, self.cells = spec, spec.cells
        self.z = np.empty(n, dtype=bool)
        self.cell = np.empty(n, dtype=np.intp)
        self.y = np.empty((n, spec.T))
        self.scratch = np.empty((n, spec.T))
        self.u = self.scratch.reshape(-1)[:n]  # spent before the mean gather fills scratch

    def draw(self, rng: np.random.Generator) -> None:
        hist = _histories(rng.random(out=self.u), self.cells.cdf)
        np.less(rng.random(out=self.u), self.spec.pz, out=self.z)
        np.multiply(self.z, len(self.cells.cdf), out=self.cell)
        self.cell += hist
        rng.standard_normal(out=self.y)
        self.y *= self.spec.noise_sd
        # every index is in range; "clip" writes ``out`` directly, "raise" buffers it
        self.y += self.cells.mean.take(self.cell, axis=0, out=self.scratch, mode="clip")

    def moment_row(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Draw, then write the sample's moment row into ``out``.

        The integer columns are the cell counts times the cells' features;
        the y columns are each arm's :func:`~dynlate.estimators.unit_sums`,
        so the row has the bits of ``arm_sums`` of the drawn (z, d, y).
        """
        self.draw(rng)
        counts = np.bincount(self.cell, minlength=len(self.cells.features))
        np.matmul(counts, self.cells.features, out=out)
        T = self.spec.T
        for j, arm in ((2, self.z), (2 + T, ~self.z)):
            units = np.flatnonzero(arm)
            rows = self.y.take(units, axis=0, out=self.scratch[: len(units)], mode="clip")
            out[j : j + T] = unit_sums(rows)


def _draw_arrays(spec: DgpSpec, n: int, rng: np.random.Generator):
    """(z, d, y) of n units, each one cell of ``spec.cells`` plus its noise."""
    draws = _Draws(spec, n)
    draws.draw(rng)
    z, cell, y = draws.z, draws.cell, draws.y
    del draws  # the scratch rows go before d and z are allocated, which may reuse them
    return z.astype(np.int8), spec.cells.d.take(cell, axis=0), y


def draw_panel(spec: DgpSpec, n: int, seed: int) -> Panel:
    """Draw n units with :func:`_draw_arrays` as a panel with ids u0, u1, ....

    Ids are zero-padded to the width of n - 1, so they sort in draw order,
    and are written as code points straight into one ``U`` array, a digit
    column at a time and without division: the digit of place p runs
    through "0" to "9", each held for p consecutive ids, so the column is
    that cycle of ``np.repeat`` copies, tiled by one broadcast assignment.
    Adoption pairs make treatment paths irreversible by construction, so
    the result always passes panel validation.
    """
    if not is_integer(n) or n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z, d, y = _draw_arrays(spec, n, rng)
    width = len(str(n - 1))
    codes = np.empty((n, 1 + width), dtype=np.uint32)
    codes[:, 0], digits = ord("u"), np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    for j in range(1, width + 1):
        place = 10 ** (width - j)
        # the digits up to the last one reached: under 2n code points
        cycle = np.repeat(digits[: -(-n // place)], place)
        whole = n - n % len(cycle)
        codes[:whole, j].reshape(-1, len(cycle))[...] = cycle
        codes[whole:, j] = cycle[: n - whole]
    return Panel.from_arrays(codes.view(f"U{1 + width}").ravel(), z, d, y)


@dataclass(frozen=True)
class TargetSummary:
    """Across-replication summary for one scalar target.

    ``mean`` and ``bias`` are None without a kept replication, and ``sd``
    with fewer than two. Each is None as well where it is not finite: kept
    replications are finite, but far apart ones can overflow the float
    range in their sum or in their squared deviations.
    """

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


def _finite(x: float | None) -> float | None:
    """``x``, or None where it is None or not finite."""
    return x if x is not None and math.isfinite(x) else None


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
    undefined IV, zero first stage, a value that is not finite) drop
    that replication for the affected targets only and are counted per
    target. Default effect bounds come from the spec's own
    contaminating-effect envelope. The oracle is the one-row target table
    of the population estimands, under the population zero rule; a target
    it leaves undefined has no row. Replications run through :func:`_fill_rows`, with the floors
    ``_MC_MIN_N`` and ``_MC_MIN_UNITS``.
    A replication's moment row depends only on (spec, n, seed, r), so the
    summary is the same for any ``threads``. Replications with both arms
    go to :func:`~dynlate.estimators.target_blocks`; targets that keep the
    same replications share one mean and one standard deviation call on
    their block, each row with the bits of the call on its own column.
    """
    if not is_integer(n) or n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_integer(reps) or reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    n, reps = int(n), int(reps)
    if not 0.0 < spec.pz < 1.0:
        raise DegenerateInstrument(f"pz = {spec.pz} puts every unit in one instrument arm")
    targets = tuple(targets)
    auto_lo, auto_hi = contaminating_effect_range(spec)
    lo = auto_lo if lo is None else lo
    hi = auto_hi if hi is None else hi
    # fs_1 = P(C1) > 0 for a valid spec, so the oracle keeps every identify
    # and bounds target
    oracle = target_row(population_estimands(spec), targets, lo, hi)
    M = _fill_rows(lambda: _Draws(spec, n).moment_row, spec.T, reps, n, seed, threads,
                   _MC_MIN_N, _MC_MIN_UNITS)
    both_arms, *moments = moment_estimands(M)
    rows = [None] * len(oracle)
    for positions, block in target_blocks(moments, both_arms, targets, lo, hi):
        n_ok = block.shape[1]
        none = [None] * len(positions)
        # an overflow reads as inf or nan, which _finite reports as None
        with np.errstate(over="ignore", invalid="ignore"):
            means = np.mean(block, axis=1).tolist() if n_ok else none
            sds = np.std(block, axis=1, ddof=1).tolist() if n_ok >= 2 else none
        for i, mean, sd in zip(positions, means, sds):
            name, (truth,), (defined,) = oracle[i]
            if not defined:
                continue
            rows[i] = TargetSummary(
                name=name,
                oracle=float(truth),
                mean=_finite(mean),
                bias=None if mean is None else _finite(mean - float(truth)),
                sd=_finite(sd),
                n_ok=n_ok,
                n_failed=reps - n_ok,
            )
    return MonteCarloSummary(
        n=n,
        reps=reps,
        seed=seed,
        T=spec.T,
        targets=targets,
        lo=lo,
        hi=hi,
        rows=tuple(r for r in rows if r is not None),
    )
