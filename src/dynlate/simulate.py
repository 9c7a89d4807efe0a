"""Sampling from a DGP and Monte Carlo comparison against the exact oracle.

Both read the spec's one cell table, :attr:`~dynlate.dgp.DgpSpec.cells`,
which the exact oracle sums too. A panel draws each unit's history, arm
and noise (in that order), the draws of ``Generator.choice``, ``random``
and ``normal``, and takes its paths and means from the table.

A Monte Carlo replication draws no units. Its moment row is a function of
its 2H cell counts and of each (arm, period) sum of noise, so it draws
those: the counts from one multinomial over the cells, then 2T standard
normals. In the layout of :func:`~dynlate.estimators.moment_features`,
the integer columns are the counts times the cell features, exactly;
each y column is the arm's counts times its halved cell means plus
``noise_sd / 2 * sqrt(n_z)`` times one normal. With i.i.d. normal noise, an
arm's noise sum at one period is exactly N(0, noise_sd^2 n_z) given the
counts, so the row has the law of :func:`~dynlate.estimators.arm_sums` of
a drawn panel, though not its bits; the condition is that the noise is
normal. A call seeds no stream per replication: it spawns two streams
from its seed and draws every replication's counts from the first and
every replication's normals from the second, one call each. Both draw
row by row, so replication r's row depends on nothing but the spec, n,
the seed and r, and the first k rows of a longer call are those of a
k-row call. One cell-by-cell pass over the two draw arrays then builds
every row, and the rows are evaluated together, screened and grouped by
:func:`~dynlate.estimators.target_blocks`. The oracle is the one-row
table of the population estimands (:func:`~dynlate.estimators.target_row`),
so both share the targets' names, report order and defined-target rules.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, contaminating_effect_range, population_estimands
from .errors import DegenerateInstrument, NonFiniteResult
from .estimands import check_count
from .estimators import ALL_TARGETS, moment_estimands, target_blocks, target_row
from .panel import Panel


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The RNG stream of bootstrap resample ``rep``, and of replication ``rep``
    of the unit-drawing reference rows ``tests/reference.py::array_rows``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform has one.

    ``os.cpu_count()`` counts the machine's CPUs, also those a CPU mask
    (``taskset``, a container's cpuset) keeps the process off.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_rows(write, width: int, reps: int, seed: int, threads: int,
               max_workers: int = 1) -> np.ndarray:
    """The (reps, width) rows of ``reps`` replications, row r written by
    ``write(rep_rng(seed, r), M[r])``.

    The bootstrap's resample driver. Every worker calls the one ``write``,
    which keeps no scratch between calls. At most one worker per row, per
    usable core, per requested thread and per the caller's
    ``max_workers``; inline, with a plain ``map``, when one is left, as
    always by default. The rows go in balanced contiguous ranges, one per
    worker, and a row depends only on (writer input, seed, r), not on the
    worker count.
    """
    threads = check_count("threads", threads, 1)
    M = np.empty((reps, width))

    def fill(start: int, stop: int) -> None:
        for r in range(start, stop):
            write(rep_rng(seed, r), M[r])

    workers = max(1, min(threads, reps, max_workers, _usable_cores()))
    cuts = [w * reps // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        list(run(fill, cuts[:-1], cuts[1:]))
    return M


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


def _draw_arrays(spec: DgpSpec, n: int, rng: np.random.Generator):
    """(z, d, y) of n units, each one cell of ``spec.cells`` plus its noise.

    Takes each unit's latent history, then its arm, then its outcome noise
    from ``rng``, the draws of ``rng.choice(H, size=n, p=probs)``,
    ``rng.random(n) < pz`` and ``rng.normal(0, sd, (n, T))``. Noise that
    takes an outcome past the float range is refused with
    :class:`~dynlate.errors.NonFiniteResult`, naming ``noise_sd``.
    """
    cells = spec.cells
    scratch = np.empty((n, spec.T))
    u = scratch.reshape(-1)[:n]  # spent before the mean gather fills scratch
    hist = _histories(rng.random(out=u), cells.cdf)
    z = rng.random(out=u) < spec.pz
    cell = np.multiply(z, len(cells.cdf), dtype=np.intp)
    cell += hist
    y = rng.standard_normal((n, spec.T))
    try:
        with np.errstate(over="raise"):
            y *= spec.noise_sd
            # every index is in range; "clip" writes ``out`` directly, "raise" buffers it
            y += cells.mean.take(cell, axis=0, out=scratch, mode="clip")
    except FloatingPointError:
        raise NonFiniteResult(
            f"a drawn outcome overflows the float range: noise_sd = {spec.noise_sd:g}"
            " is too large for this spec's cell means"
        ) from None
    del scratch, u  # the scratch rows go before d and z are allocated, which may reuse them
    return z.astype(np.int8), cells.d.take(cell, axis=0), y


def _cell_rows(spec: DgpSpec, n: int, reps: int, seed: int) -> np.ndarray:
    """Monte Carlo's (reps, 6T) moment rows, each drawn from the cell table.

    Two streams spawned from ``SeedSequence(seed)`` hold every draw. The
    first draws the (reps, 2H) cell counts, ``multinomial(n, probs,
    size=reps)`` over the cells' probabilities (1 - pz) p_h, then pz p_h,
    divided by their sum; the second the (reps, 2, T) normals, arm 1's
    first. Both draw row by row, so row r depends only on (spec, n, seed,
    r). The counts are int64, exact for every n. One pass over all rows
    then builds the moment rows, in the layout of ``moment_features``: the
    integer columns are the counts times the cell features, exactly. Each
    arm's T y columns are its counts times its halved cell means, added
    cell by cell in cell order into one (reps, 2, T) accumulator (no BLAS
    call), plus ``noise_sd / 2 * sqrt(n_z)`` times its T normals.
    Given the counts, that is the law of the arm's noise sums when the
    noise is i.i.d. normal. A sum past the float range reads as inf or
    nan, which :func:`~dynlate.estimators.target_columns` never marks ok.
    """
    cells, T, H = spec.cells, spec.T, len(spec.histories)
    probs = np.concatenate([(1.0 - spec.pz) * cells.prob, spec.pz * cells.prob])
    probs /= probs.sum()
    rng_c, rng_y = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    counts = rng_c.multinomial(n, probs, size=reps)
    noise = rng_y.standard_normal((reps, 2, T))
    rows = np.matmul(counts, cells.features, out=np.empty((reps, 6 * T)))
    arms = counts.reshape(reps, 2, H, 1)[:, ::-1]  # arm 1 first, as in the row
    means = 0.5 * cells.mean.reshape(2, H, T)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        noise *= 0.5 * spec.noise_sd * np.sqrt(rows[:, :2, None])
        sums = arms[:, :, 0] * means[:, 0]
        for h in range(1, H):
            sums += arms[:, :, h] * means[:, h]
        sums += noise
    rows[:, 2 : 2 + 2 * T] = sums.reshape(reps, 2 * T)
    return rows


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
    n = check_count("n", n, 1)
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
    replications are finite, but their sum can overflow the float range,
    equal large values too, and far apart ones their squared deviations.
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
    it leaves undefined has no row. Each replication's moment row is drawn
    from the cell table by :func:`_cell_rows`: it has the law of
    :func:`~dynlate.estimators.arm_sums` of a drawn panel when the noise is
    normal, as every spec's is, but not its bits. A call draws every
    replication's counts and normals in two calls on two streams spawned
    from ``seed``, in one thread, and builds the rows in one vectorised
    pass; no worker pool pays for that. ``threads`` is checked and has no
    other effect; a replication's row depends only on (spec, n, seed, r),
    so the summary is the same for any ``threads`` and the first k
    replications of a longer run are those of a k-replication run.
    Replications with both arms go to
    :func:`~dynlate.estimators.target_blocks`; targets that keep the same
    replications share one mean and one standard deviation call on their
    block, each row with the bits of the call on its own column.
    """
    n, reps = check_count("n", n, 1), check_count("reps", reps, 1)
    check_count("threads", threads, 1)
    if not 0.0 < spec.pz < 1.0:
        raise DegenerateInstrument(f"pz = {spec.pz} puts every unit in one instrument arm")
    targets = tuple(targets)
    auto_lo, auto_hi = contaminating_effect_range(spec)
    lo = auto_lo if lo is None else lo
    hi = auto_hi if hi is None else hi
    # fs_1 = P(C1) > 0 for a valid spec, so the oracle keeps every identify
    # and bounds target
    oracle = target_row(population_estimands(spec), targets, lo, hi)
    M = _cell_rows(spec, n, reps, seed)
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
