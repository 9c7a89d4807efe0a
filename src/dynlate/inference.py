"""Unit-level nonparametric bootstrap for every reported estimand.

Resampling keeps each unit's whole time series intact (within-unit serial
dependence is the object of study, so the unit is the exchangeable block).
Intervals are percentile intervals; no asymptotic theory is used anywhere.
Resample r draws its multinomial weights from a stream seeded by
(seed, r), so output is independent of threading and execution order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AllReplicationsFailed, DynlateError, RelevanceFailure
from .estimators import (
    BOUND_METHODS,
    bound_rows,
    estimate,
    identify,
    identify_rows,
    outcome_range_bounds,
    selected_methods,
)
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
    z = panel.z.astype(np.float64)[:, None]
    zc = 1.0 - z
    y = panel.y
    d = panel.d.astype(np.float64)
    s = ((panel.d[:, 1:] == 1) & (panel.d[:, :1] == 0)).astype(np.float64)
    return np.concatenate(
        [z, zc, z * y, zc * y, z * d, zc * d, z * s, zc * s], axis=1
    )


def _resample_weights(n: int, reps: int, seed: int, threads: int) -> np.ndarray:
    W = np.empty((reps, n), dtype=np.float64)

    def fill(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            idx = rep_rng(seed, r).integers(0, n, size=n)
            W[r] = np.bincount(idx, minlength=n)

    if threads > 1:
        step = -(-reps // threads)
        chunks = [(r, min(r + step, reps)) for r in range(0, reps, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: fill(*c), chunks))
    else:
        fill(0, reps)
    return W


def _resample_estimands(panel: Panel, W: np.ndarray):
    """Arm-wise means for every resample, from one weighted moment product.

    Returns (valid, rf, fs, sw0, sw1); rows failing the relevance screen
    (an empty arm or a zero first stage at t=1) are marked invalid and
    hold garbage.
    """
    T = panel.T
    M = W @ _features(panel)
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
    threads: int = 1,
) -> BootstrapResult:
    """Percentile bootstrap over units for rf/fs/iv, the identified
    profile, and bound endpoints.

    Resamples with a zero first stage at t=1 (or an empty arm) are
    dropped and counted, mirroring the maintained relevance condition;
    resamples where only fs_t = 0 for t >= 2 are dropped for iv_t alone.
    Effect bounds default to the observed outcome range of the original
    panel and stay fixed across resamples so that every resample
    evaluates the same functional.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    T = panel.T
    point_est = estimate(panel)
    if include_bounds:
        if lo is None or hi is None:
            auto_lo, auto_hi = outcome_range_bounds(panel)
            lo = auto_lo if lo is None else lo
            hi = auto_hi if hi is None else hi
        methods = selected_methods(lo, hi)
    else:
        lo = hi = None
        methods = ()

    W = _resample_weights(panel.n, reps, seed, threads)
    valid, rf, fs, sw0, sw1 = _resample_estimands(panel, W)
    n_failed = int(reps - valid.sum())
    if n_failed == reps:
        raise AllReplicationsFailed(
            "every bootstrap resample had an empty arm or a zero first stage"
        )
    rf, fs = rf[valid], fs[valid]
    sw0, sw1 = sw0[valid], sw1[valid]
    n_ok = rf.shape[0]

    targets: list[TargetInterval] = []

    def add(name, point, values, extra_failed=0):
        lo_q, hi_q = percentile_interval(values, alpha)
        targets.append(
            TargetInterval(
                name=name,
                point=point,
                lower=lo_q,
                upper=hi_q,
                n_ok=len(values),
                n_failed=n_failed + extra_failed,
            )
        )

    for t in range(1, T + 1):
        add(f"rf[{t}]", point_est.rf_at(t), rf[:, t - 1])
        add(f"fs[{t}]", point_est.fs_at(t), fs[:, t - 1])
    for t in range(1, T + 1):
        defined = fs[:, t - 1] != 0.0
        if defined.any():
            add(
                f"iv[{t}]",
                point_est.iv_at(t),
                rf[defined, t - 1] / fs[defined, t - 1],
                extra_failed=int(n_ok - defined.sum()),
            )

    if include_identify:
        delta = identify_rows(rf, fs)
        try:
            point_prof = identify(point_est).deltas
        except RelevanceFailure:
            point_prof = (None,) * T
        for tau in range(T):
            add(f"delta[{tau}]", point_prof[tau], delta[:, tau])

    # bound methods require a positive first stage, like the scalar path
    pos = fs[:, 0] > 0.0
    for method in methods:
        if not pos.any():
            break
        fn = BOUND_METHODS[method]
        for t in range(2, T + 1):
            try:
                point_rep = fn(point_est, t, lo, hi)
                point_lower, point_upper = point_rep.lower, point_rep.upper
            except DynlateError:
                point_lower = point_upper = None
            lower, upper = bound_rows(
                method, rf[pos], fs[pos], sw0[pos], sw1[pos], t, lo, hi
            )
            extra = int(n_ok - pos.sum())
            add(f"{method}_lower[{t}]", point_lower, lower, extra_failed=extra)
            add(f"{method}_upper[{t}]", point_upper, upper, extra_failed=extra)

    return BootstrapResult(
        n=panel.n,
        T=T,
        reps=reps,
        alpha=alpha,
        seed=seed,
        n_failed_resamples=n_failed,
        lo=lo,
        hi=hi,
        targets=tuple(targets),
    )
