"""Unit-level nonparametric bootstrap for every reported estimand.

Resampling keeps each unit's whole time series intact (within-unit serial
dependence is the object of study, so the unit is the exchangeable block).
Intervals are percentile intervals; no asymptotic theory is used anywhere.
A resample's moment row is its counts times
:func:`~dynlate.estimators.moment_features` (which defines its layout),
summed by cell; as for ``estimate`` and Monte Carlo, ``moment_estimands``
reads it. Resample r draws its multinomial counts from a stream seeded by
(seed, r), and one worker of :func:`~dynlate.simulate._fill_rows` computes
its whole row without a BLAS call, so the row depends only on (panel,
seed, r): not on ``threads``, on execution order, on how many resamples
the run has, or on the BLAS thread count. The first k resamples of a
longer run are bitwise those of a k-resample run. Beyond the panel, a
call holds one cell-ordered (T, n) copy of y, the rank of each unit in
that order, and two n-vectors per worker, whatever reps is; memory grows
with reps only through the rows, never as reps x n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllReplicationsFailed
from .estimands import check_count, is_zero
from .estimators import ALL_TARGETS, estimate, moment_estimands, moment_features
from .estimators import outcome_range_bounds, target_blocks, target_row
from .panel import Panel
from .simulate import _fill_rows


def percentile_interval(values: np.ndarray, alpha: float) -> np.ndarray:
    """Empirical (alpha/2, 1 - alpha/2) quantiles of each column of ``values``.

    ``values`` holds B resamples in its rows: shape (B,) for one target or
    (B, targets) for a block, whose columns each get the bits of a call on
    that column alone. Returns the lower and upper ends stacked, shape
    (2,) + ``values.shape[1:]``. Quantile rule: order statistics indexed
    from 1 with linear interpolation at position 1 + q(B - 1) (numpy's
    "linear" method). ``values`` is partitioned in place, so the quantiles
    take no copy of it: pass an array that is not needed afterwards.
    ``values`` is halved in place first and the quantiles doubled, the
    rule of :func:`~dynlate.estimators.moment_features`: numpy interpolates
    as a + (b - a) g, and b - a of finite order statistics more than the
    float range apart would overflow; of their halves it does not.
    """
    values *= 0.5
    q = [alpha / 2.0, 1.0 - alpha / 2.0]
    return 2.0 * np.quantile(values, q, axis=0, method="linear", overwrite_input=True)


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


_FILL_MIN_N = 20_000
"""Panel size from which resamples are computed by worker threads: a pool
costs a few ms per call, and small samples lose even with many draws.
Whole ``bootstrap`` calls, two threads over one, pool forced on, medians
of 21 alternating in-process pairs on 2 vCPUs (T=4): 1.14 at 5000 x 2000
resamples, 1.06 at 10k x 1000, 1.00 at 10k x 2000, 0.92 at 15k x 1000
and 0.91 at 15k x 334; 0.73 at 20k x 500 and 0.82 at 20k x 1000."""

_FILL_MIN_UNITS = 3_000_000
"""Unit draws (resamples times n) per resample worker. Timed as for
``_FILL_MIN_N``: 1.02 / 1.04 / 0.90-1.00 / 0.82-1.03 / 0.85 at 20k x 50 /
100 / 200 / 250 / 300; 0.87 / 0.85 / 0.79 / 0.82-0.85 at 40k x 25 / 50 /
75 / 100; 0.94 / 0.83 / 0.75 / 0.79-0.80 / 0.79 at 1e5 x 10 / 20 / 30 /
40 / 50; 0.78 at 40k x 375 and 0.67 at 1e5 x 150 (9 pairs). With the
pools of this floor (two workers from 6e6 draws): 0.82-0.99 at 20k x
300, 0.80 at 40k x 150 and 0.69 at 1e5 x 60."""


_CELL_KEY_DTYPE = np.int16
"""Dtype of the cell key, at most 2T + 1 (intp past its range): numpy sorts
16-bit keys stably by radix, at n=1e5 on 2 vCPUs 0.7 ms against 5.2 ms for intp."""


def _resample_moments(panel: Panel, reps: int, seed: int, threads: int) -> np.ndarray:
    """Moment rows ``counts_r @ moment_features(panel)`` of every resample.

    The units are sorted once, stably, by cell: arm, then the number of
    treated periods, which fixes an irreversible path. The cell key
    z(T + 1) + (treated periods) is built by T column adds, and the present
    cells' starts are read off one ``bincount`` of it. Each cell and each
    arm is then one block, the z=0 arm first. The outcomes are copied into
    that order one period at a time, and the sort is kept only as its
    inverse, each unit's ``rank`` in cell order. Resample r maps the
    draws of its stream (seed, r) through ``rank`` and counts them in cell
    order with a ``bincount`` weighted by ones: float64 weights that are
    exact integers. Its integer columns are the cells' counts, cast to
    intp, times the cells' integer features: exact. Its 2T y columns are
    each arm's outcomes weighted by the counts and summed in cell order
    (``einsum``), so with non-dyadic y their last bits can differ from
    ``arm_sums``' unit order; the copy of y is halved, as in the layout of
    ``moment_features``. No step calls BLAS. From ``_FILL_MIN_N`` units,
    :func:`~dynlate.simulate._fill_rows` may start one worker per
    ``_FILL_MIN_UNITS`` unit draws; one worker writes a whole row, so it
    depends only on (panel, seed, r): not on ``threads``, ``reps``,
    execution order or the BLAS thread count. Working set beyond the panel
    and the rows: the (T, n) cell-ordered outcomes, ``rank``, the shared
    ones, and two n-vectors per worker at a time (a resample's draws, their
    cells, its weights); no reps x n array is held.
    """
    n, T = panel.n, panel.T
    dtype = _CELL_KEY_DTYPE if 2 * T + 1 <= np.iinfo(_CELL_KEY_DTYPE).max else np.intp
    key = panel.z.astype(dtype) * (T + 1)
    for t in range(T):  # T column adds: a row sum of int8 d is several times slower
        key += panel.d[:, t]
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key)
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    first = order[starts]
    d = panel.d[first]
    features = moment_features(panel.z[first], d, np.zeros(d.shape)).astype(np.intp)
    ys = np.empty((T, n))
    for t in range(T):  # take(axis=1) of y.T first copies it whole; "raise" buffers out
        panel.y[:, t].take(order, out=ys[t], mode="clip")
    ys *= 0.5
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    del key, order
    ones = np.ones(n)
    n0 = int(np.count_nonzero(panel.z == 0))

    def write(rng: np.random.Generator, out: np.ndarray) -> None:
        cells = rank.take(rng.integers(0, n, n))
        weights = np.bincount(cells, weights=ones, minlength=n)
        np.matmul(np.add.reduceat(weights, starts).astype(np.intp), features, out=out)
        for j, arm in ((2, slice(n0, n)), (2 + T, slice(0, n0))):
            out[j : j + T] = np.einsum("ji,i->j", ys[:, arm], weights[arm])

    max_workers = reps * n // _FILL_MIN_UNITS if n >= _FILL_MIN_N else 1
    return _fill_rows(write, features.shape[1], reps, seed, threads, max_workers)


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
    :func:`~dynlate.estimators.target_columns`, the resamples screened and
    grouped by :func:`~dynlate.estimators.target_blocks`.

    Resamples with a zero first stage at t=1 (or an empty arm) are
    dropped and counted, mirroring the maintained relevance condition;
    resamples where only fs_t = 0 for t >= 2 are dropped for iv_t alone,
    and a target that is not finite in a resample (an overflowing delta)
    is dropped for that target alone. Targets that keep the same
    resamples share one :func:`percentile_interval` call on their block;
    each interval has the bits of a call on its own column.
    Effect bounds default to the observed outcome range of the original
    panel and stay fixed across resamples so that every resample
    evaluates the same functional. ``include_tight=False`` leaves out the
    tight bounds, whose assumption the caller has not declared.
    """
    reps = check_count("reps", reps, 2)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    targets = tuple(targets)
    if "bounds" in targets:
        if lo is None or hi is None:
            auto_lo, auto_hi = outcome_range_bounds(panel)
            lo = auto_lo if lo is None else lo
            hi = auto_hi if hi is None else hi
    else:
        lo = hi = None
    point = target_row(estimate(panel), targets, lo, hi, include_tight)

    both_arms, *moments = moment_estimands(_resample_moments(panel, reps, seed, threads))
    valid = both_arms & ~is_zero(moments[1][:, 0], "sample")  # moments[1] is fs
    n_failed = int(reps - valid.sum())
    if n_failed == reps:
        raise AllReplicationsFailed(
            "every bootstrap resample had an empty arm or a zero first stage"
        )
    intervals = [None] * len(point)
    for positions, block in target_blocks(moments, valid, targets, lo, hi, include_tight):
        n_ok = block.shape[1]
        if not n_ok:
            continue
        for i, (lower, upper) in zip(positions, percentile_interval(block.T, alpha).T.tolist()):
            name, (value,), (defined,) = point[i]
            intervals[i] = TargetInterval(
                name=name,
                point=float(value) if defined else None,
                lower=lower,
                upper=upper,
                n_ok=n_ok,
                n_failed=reps - n_ok,
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
        targets=tuple(t for t in intervals if t is not None),
    )
