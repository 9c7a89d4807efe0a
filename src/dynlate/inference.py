"""Unit-level nonparametric bootstrap for every reported estimand.

Resampling keeps each unit's whole time series intact (within-unit serial
dependence is the object of study, so the unit is the exchangeable block).
Intervals are percentile intervals; no asymptotic theory is used anywhere.
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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AllReplicationsFailed
from .estimators import estimate, outcome_range_bounds, target_columns, target_row
from .panel import Panel
from .simulate import rep_rng


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


def _features(panel: Panel) -> np.ndarray:
    """Per-unit columns whose weighted sums determine every estimand.

    Layout: [z, 1-z, z*y (T), (1-z)*y (T), z*d (T), (1-z)*d (T),
    z*switch (T-1), (1-z)*switch (T-1)] where switch_t = 1{d_t=1, d_1=0}.
    """
    F = np.empty((panel.n, 6 * panel.T))
    z, zc = F[:, :1], F[:, 1:2]
    z[:, 0] = panel.z
    np.subtract(1.0, z, out=zc)
    switch = (panel.d[:, 1:] == 1) & (panel.d[:, :1] == 0)
    j = 2
    for x in (panel.y, panel.d, switch):
        for arm in (z, zc):
            np.multiply(arm, x, out=F[:, j : j + x.shape[1]])
            j += x.shape[1]
    return F


_PRODUCT_ROWS = 64
"""Height of every moment product: fixed, so a row's bits never depend on
how many resamples share its product."""

_FILL_ROWS = 8 * _PRODUCT_ROWS
"""Resamples filled before their products run, back to back. OpenBLAS
workers keep spinning after a product, so one product per fill slowed
the threaded fill that follows it."""

_COUNT_MAX = np.iinfo(np.uint8).max
"""Largest count the uint8 fill block holds exactly."""


def _resample_moments(panel: Panel, reps: int, seed: int, threads: int) -> np.ndarray:
    """Weighted moment rows ``counts_r @ _features(panel)`` of every resample.

    The reps x n count matrix is never held. At most one worker per core
    writes each resample's multinomial counts as uint8 into a block of
    ``_FILL_ROWS`` rows; once the block is full, the calling thread casts
    ``_PRODUCT_ROWS`` rows at a time into one float64 buffer, zero-pads
    the last of them, and multiplies it by the features. Every product
    has the same shape, and OpenBLAS gives a row of a fixed-shape product
    the same bits at any row position, so a row depends only on (panel,
    seed, r): not on ``threads``, ``reps`` or the block heights. A row
    whose largest count does not fit in uint8 is kept aside as int64 and
    replaces its wrapped row in the product.
    """
    n = panel.n
    F = _features(panel)
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

    blocks = [(lo, min(lo + _FILL_ROWS, reps)) for lo in range(0, reps, _FILL_ROWS)]
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for lo, hi in blocks:
                step = -(-(hi - lo) // workers)
                list(pool.map(lambda a: fill(a, min(a + step, hi)), range(lo, hi, step)))
                multiply(lo, hi)
    else:
        for lo, hi in blocks:
            fill(lo, hi)
            multiply(lo, hi)
    return M


def _resample_estimands(M: np.ndarray):
    """Arm-wise means for every resample, from its weighted moment row.

    ``M`` holds one row of counts-weighted ``_features`` sums per
    resample, 6T columns in that layout. Returns (valid, rf, fs, sw0,
    sw1); rows failing the relevance screen (an empty arm or a zero
    first stage at t=1) are marked invalid and hold garbage.
    """
    T = M.shape[1] // 6
    n1, n0 = M[:, 0], M[:, 1]
    valid = (n1 > 0) & (n0 > 0)
    i = 2
    with np.errstate(divide="ignore", invalid="ignore"):
        y1 = M[:, i : i + T] / n1[:, None]
        y0 = M[:, i + T : i + 2 * T] / n0[:, None]
        d1 = M[:, i + 2 * T : i + 3 * T] / n1[:, None]
        d0 = M[:, i + 3 * T : i + 4 * T] / n0[:, None]
        j = i + 4 * T
        sw1 = M[:, j : j + T - 1] / n1[:, None]
        sw0 = M[:, j + T - 1 : j + 2 * (T - 1)] / n0[:, None]
    rf = y1 - y0
    fs = d1 - d0
    valid &= np.where(np.isfinite(fs[:, 0]), fs[:, 0] != 0.0, False)
    return valid, rf, fs, sw0, sw1


def bootstrap(
    panel: Panel,
    reps: int,
    alpha: float,
    seed: int,
    lo: float | None = None,
    hi: float | None = None,
    include_identify: bool = True,
    include_bounds: bool = True,
    include_tight: bool = True,
    threads: int = 1,
) -> BootstrapResult:
    """Percentile bootstrap over units for rf/fs/iv, the identified
    profile, and bound endpoints.

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
    point_est = estimate(panel)
    targets = ("estimands",) + ("identify",) * include_identify
    if include_bounds:
        if lo is None or hi is None:
            auto_lo, auto_hi = outcome_range_bounds(panel)
            lo = auto_lo if lo is None else lo
            hi = auto_hi if hi is None else hi
        targets += ("bounds",)
    else:
        lo = hi = None

    moments = _resample_moments(panel, reps, seed, threads)
    valid, rf, fs, sw0, sw1 = _resample_estimands(moments)
    n_failed = int(reps - valid.sum())
    if n_failed == reps:
        raise AllReplicationsFailed(
            "every bootstrap resample had an empty arm or a zero first stage"
        )
    rows = (a[valid] for a in (rf, fs, sw0, sw1))
    resampled = target_columns(*rows, targets, lo, hi, include_tight)
    point = target_row(point_est, targets, lo, hi, include_tight)
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
