"""Unit-level nonparametric bootstrap for every reported estimand.

Resampling keeps each unit's whole time series intact (within-unit serial
dependence is the object of study, so the unit is the exchangeable block).
Intervals are percentile intervals; no asymptotic theory is used anywhere.
A resample's moment row is its counts times
:func:`~dynlate.estimators.moment_features`; as for ``estimate`` and Monte
Carlo, :func:`~dynlate.estimators.moment_estimands` reads it.
Resample r draws its multinomial counts from a stream seeded by (seed, r),
and its moment row comes from a product of one fixed shape, so the row
depends only on (panel, seed, r): not on ``threads``, on execution order,
or on how many resamples the run has. The first k resamples of a longer
run are bitwise those of a k-resample run. Memory is bounded by the
block heights, not by reps x n.

Report bytes are pinned for a given OpenBLAS thread count (by default the
core count), not across machines: with non-dyadic outcomes the moment
product's last bits can change with the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllReplicationsFailed
from .estimators import ALL_TARGETS, estimate, moment_estimands, moment_features
from .estimators import outcome_range_bounds, target_columns, target_row
from .panel import Panel
from .simulate import _fill_rows, _worker_count, rep_rng


def percentile_interval(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """Empirical (alpha/2, 1 - alpha/2) quantiles.

    Quantile rule: order statistics indexed from 1 with linear
    interpolation at position 1 + q(B - 1) (numpy's "linear" method).
    """
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return float(lo), float(hi)


@dataclass(frozen=True)
class TargetInterval:
    """Point estimate and percentile interval for one scalar target.

    Percentile intervals may exclude the point estimate in skewed
    samples; only lower <= upper is guaranteed.
    """

    name: str
    point: float | None
    lower: float
    upper: float
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class BootstrapResult:
    n: int
    T: int
    reps: int
    alpha: float
    seed: int
    n_failed_resamples: int
    lo: float | None
    hi: float | None
    targets: tuple[TargetInterval, ...]

    def target(self, name: str) -> TargetInterval:
        for t in self.targets:
            if t.name == name:
                return t
        raise KeyError(name)


_PRODUCT_ROWS = 64
"""Height of every moment product: fixed, so a row's bits never depend on
how many resamples share its product."""

_FILL_ROWS = 8 * _PRODUCT_ROWS
"""Resamples filled before their products run, back to back. OpenBLAS
workers keep spinning after a product, so one product per fill slowed
the threaded fill that follows it."""

_FILL_MIN_N = 40_000
"""Panel size from which resample counts are filled by worker threads.
Whole ``bootstrap`` calls, two threads over one, pool forced on, medians
of 21 alternating in-process pairs on 2 vCPUs (T=4): 1.01 at 20k x 1000
resamples and 0.92 at 30k x 1000; 0.93-1.01 at 30k x 500 (9 runs)."""

_FILL_MIN_UNITS = 7_500_000
"""Unit draws (resamples times n) per count-fill worker. Timed as for
``_FILL_MIN_N``, up to 1.2e7 draws: 1.05 / 1.07 / 1.01 / 1.03 / 1.01 at
40k x 2 / 8 / 32 / 100 / 250 and 1.03 / 1.01 / 0.97 / 1.03 / 0.98 at 1e5
x 2 / 8 / 50 / 100 / 120; from 1.5e7: 0.96 at 40k x 375, 0.88 at 40k x
500, 0.89 / 0.85-0.93 / 0.83 / 0.75-0.81 at 1e5 x 150 / 199 / 256 / 500."""

_COUNT_MAX = np.iinfo(np.uint8).max
"""Largest count the uint8 fill block holds exactly."""


def _resample_moments(panel: Panel, reps: int, seed: int, threads: int) -> np.ndarray:
    """Moment rows ``counts_r @ moment_features(panel)`` of every resample.

    The reps x n count matrix is never held. Workers (``_worker_count``
    with ``_FILL_MIN_N`` and ``_FILL_MIN_UNITS``) write each resample's
    multinomial counts as uint8 into a block of ``_FILL_ROWS`` rows; once
    the block is full, the calling thread casts ``_PRODUCT_ROWS`` rows at
    a time into one float64 buffer, zero-pads the last of them, and
    multiplies it by the features. Every product has the same shape, and
    OpenBLAS gives a row of a fixed-shape product the same bits at any row
    position, so a row depends only on (panel, seed, r): not on
    ``threads``, ``reps`` or the block heights. A row whose largest count
    does not fit in uint8 is kept aside as int64 and replaces its wrapped
    row in the product.
    """
    n = panel.n
    F = moment_features(panel.z, panel.d, panel.y)
    M = np.empty((reps, F.shape[1]))
    counts = np.empty((min(reps, _FILL_ROWS), n), dtype=np.uint8)
    block = np.zeros((_PRODUCT_ROWS, n))  # a short run never writes its padding
    product = np.empty((_PRODUCT_ROWS, F.shape[1]))
    wide: dict[int, np.ndarray] = {}

    def fill(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            c = np.bincount(rep_rng(seed, r).integers(0, n, size=n), minlength=n)
            if c.max() > _COUNT_MAX:
                wide[r] = c
            counts[r % _FILL_ROWS] = c

    def multiply(lo: int, hi: int) -> None:
        for start in range(lo, hi, _PRODUCT_ROWS):
            stop = min(start + _PRODUCT_ROWS, hi)
            rows = stop - start
            block[:rows] = counts[start % _FILL_ROWS : start % _FILL_ROWS + rows]
            if start:  # the first product's tail is still zero
                block[rows:] = 0.0
            for r in range(start, stop):
                if r in wide:
                    block[r - start] = wide.pop(r)
            np.matmul(block, F, out=product)
            M[start:stop] = product[:rows]

    workers = _worker_count(threads, reps, n, _FILL_MIN_N, _FILL_MIN_UNITS)
    _fill_rows(fill, reps, workers, _FILL_ROWS, multiply)
    return M


def bootstrap(
    panel: Panel,
    reps: int,
    alpha: float,
    seed: int,
    lo: float | None = None,
    hi: float | None = None,
    targets=ALL_TARGETS,
    include_tight: bool = True,
    threads: int = 1,
) -> BootstrapResult:
    """Percentile bootstrap over units for the ``targets`` groups of
    :func:`~dynlate.estimators.target_columns`.

    Resamples with a zero first stage at t=1 (or an empty arm) are
    dropped and counted, mirroring the maintained relevance condition;
    resamples where only fs_t = 0 for t >= 2 are dropped for iv_t alone.
    Effect bounds default to the observed outcome range of the original
    panel and stay fixed across resamples so that every resample
    evaluates the same functional. ``include_tight=False`` leaves out the
    tight bounds, whose assumption the caller has not declared.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    targets = tuple(targets)
    if "bounds" in targets:
        if lo is None or hi is None:
            auto_lo, auto_hi = outcome_range_bounds(panel)
            lo = auto_lo if lo is None else lo
            hi = auto_hi if hi is None else hi
    else:
        lo = hi = None
    point = target_row(estimate(panel), targets, lo, hi, include_tight)

    both_arms, rf, fs, sw0, sw1 = moment_estimands(_resample_moments(panel, reps, seed, threads))
    valid = both_arms & (fs[:, 0] != 0.0)
    n_failed = int(reps - valid.sum())
    if n_failed == reps:
        raise AllReplicationsFailed(
            "every bootstrap resample had an empty arm or a zero first stage"
        )
    rows = (a[valid] for a in (rf, fs, sw0, sw1))
    resampled = target_columns(*rows, targets, lo, hi, include_tight)
    intervals = []
    for (name, values, ok), (_, point_value, point_ok) in zip(resampled, point, strict=True):
        if not ok.any():
            continue
        lower, upper = percentile_interval(values[ok], alpha)
        n_ok = int(ok.sum())
        intervals.append(
            TargetInterval(
                name=name,
                point=float(point_value[0]) if point_ok[0] else None,
                lower=lower,
                upper=upper,
                n_ok=n_ok,
                n_failed=reps - n_ok,
            )
        )

    return BootstrapResult(
        n=panel.n,
        T=panel.T,
        reps=reps,
        alpha=alpha,
        seed=seed,
        n_failed_resamples=n_failed,
        lo=lo,
        hi=hi,
        targets=tuple(intervals),
    )
