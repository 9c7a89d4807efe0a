"""Sample estimation and assumption diagnostics, recursive identification, and
partial-identification bounds.

Everything here consumes an :class:`~dynlate.estimands.EstimandSet`, so the
same code paths serve sample panels and exact population inputs. Results
that are only valid under a named homogeneity assumption carry that
assumption in their metadata instead of asserting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateInstrument, NonFiniteResult, RelevanceFailure
from .errors import SignedBoundViolation
from .estimands import EstimandSet, _check_period, is_positive, is_zero
from .panel import Panel

AMPLIFICATION_THRESHOLD = 100.0
"""An :func:`amplification` above this triggers a warning; the estimate
itself is unchanged. The amplification is at least 1/|fs_1| (row 1 of
P^-1), so every |fs_1| < 0.01 warns."""

CALENDAR_HOMOGENEITY = "calendar-homogeneity"
CROSS_GROUP_HOMOGENEITY = "cross-group-homogeneity"
NO_LATE_SWITCHERS = "no-late-switchers"
KNOWN_ASSUMPTIONS = (CALENDAR_HOMOGENEITY, CROSS_GROUP_HOMOGENEITY, NO_LATE_SWITCHERS)


def moment_features(z: np.ndarray, d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-unit columns whose (weighted) sums over units are the moment row.

    Layout: [z, 1-z, z*y (T), (1-z)*y (T), z*d (T), (1-z)*d (T),
    z*switch (T-1), (1-z)*switch (T-1)], where switch_t = 1{d_t=1, d_1=0}.
    """
    on = np.asarray(z, dtype=np.float64)[:, None]
    arms = (on, 1.0 - on)
    blocks = [arm * x for x in (y, d, d[:, 1:] > d[:, :1]) for arm in arms]
    return np.concatenate([*arms, *blocks], axis=1)


def unit_sums(y: np.ndarray) -> np.ndarray:
    """Column sums of one arm's (m, T) outcomes, added unit by unit in order.

    The bits of ``y.sum(axis=0)``, which for T >= 2 adds whole rows in
    order; ``einsum`` makes the same adds at a fraction of the per-row
    dispatch cost. A single column, which ``sum`` adds pairwise, keeps
    ``sum``.
    """
    return y.sum(axis=0) if y.shape[1] == 1 else np.einsum("ij->j", y)


def arm_sums(z: np.ndarray, d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The moment row of one sample: :func:`moment_features` summed over units.

    One gather of each arm's rows, which may be empty; y sums in unit order
    (:func:`unit_sums`).
    """
    T = y.shape[1]
    on = z == 1
    arms = (np.flatnonzero(on), np.flatnonzero(~on))
    # rows d_1..d_T, then the switch indicators d_t > d_1
    paths = np.empty((2 * T - 1, len(z)), dtype=np.int8)
    paths[:T] = d.T
    np.greater(paths[1:T], paths[0], out=paths[T:])
    y1, y0 = (unit_sums(y.take(arm, axis=0)) for arm in arms)
    p1, p0 = (paths.take(arm, axis=1).sum(axis=1) for arm in arms)
    counts = [len(arm) for arm in arms]
    return np.concatenate([counts, y1, y0, p1[:T], p0[:T], p1[T:], p0[T:]], dtype=np.float64)


def moment_estimands(M: np.ndarray):
    """(both_arms, rf, fs, sw0, sw1) of every moment row of ``M``.

    rf_t and fs_t are differences of arm means of y and d; sw0 and sw1 are
    the arm-wise shares of units treated at t but not at 1. Rows without
    both arms hold NaN, and an rf past the float range an infinity.
    """
    T = M.shape[1] // 6
    n1, n0 = M[:, :1], M[:, 1:2]
    sums = np.split(M[:, 2:], np.cumsum([T, T, T, T, T - 1]), axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y1, y0, d1, d0, sw1, sw0 = (s / n for s, n in zip(sums, (n1, n0) * 3))
        rf = y1 - y0
    return (n1[:, 0] > 0) & (n0[:, 0] > 0), rf, d1 - d0, sw0, sw1


def estimate(panel: Panel) -> EstimandSet:
    """Sample per-period estimands: the one-row :func:`moment_estimands` call."""
    row = arm_sums(panel.z, panel.d, panel.y)
    both_arms, *moments = moment_estimands(row[None])
    if not both_arms[0]:
        raise DegenerateInstrument("panel has a single instrument arm")
    rf, fs, sw0, sw1 = (tuple(v[0].tolist()) for v in moments)
    return EstimandSet(
        T=panel.T,
        rf=rf,
        fs=fs,
        switch_z0=sw0,
        switch_z1=sw1,
        kind="sample",
        n=panel.n,
        n_z1=int(row[0]),
        n_z0=int(row[1]),
    )


UNTESTABLE_NOTE = (
    "exclusion, independence, and first-period monotonicity are not testable "
    "from (z, d, y) alone; they are recorded as assumed"
)


@dataclass(frozen=True)
class PanelDiagnostics:
    """Result of :func:`check_assumptions`. Diagnostics never raise."""

    n: int
    T: int
    n_z1: int
    n_z0: int
    fs1: float | None
    relevance_ok: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def check_assumptions(panel: Panel) -> PanelDiagnostics:
    """First-period relevance check plus a record of what must be assumed.

    FS_1, its zero test and the single-arm case are those of :func:`estimate`.
    """
    notes = [UNTESTABLE_NOTE]
    try:
        est = estimate(panel)
    except DegenerateInstrument:
        notes.append("only one instrument arm present; estimands are undefined")
        return PanelDiagnostics(
            panel.n, panel.T, panel.n_z1, panel.n_z0, None, False, tuple(notes)
        )
    relevance_ok = not is_zero(est.fs[0], est.kind)
    if not relevance_ok:
        notes.append("relevance at t=1 fails (FS_1 = 0)")
    return PanelDiagnostics(
        panel.n, panel.T, est.n_z1, est.n_z0, est.fs[0], relevance_ok, tuple(notes)
    )


@dataclass(frozen=True)
class IdentifiedProfile:
    """Effect-by-exposure profile solved from the reduced-form recursion.

    ``deltas[tau]`` is the mean effect at exposure tau for first-period
    compliers, valid under calendar-time homogeneity (the caller's
    declared assumption, echoed in ``assumes``). ``residual`` is the max
    absolute defect when the triangular system is applied back to the
    solved profile.
    """

    deltas: tuple[float, ...]
    fs1: float
    rho: tuple[float, ...]
    residual: float
    assumes: tuple[str, ...] = (CALENDAR_HOMOGENEITY,)
    warnings: tuple[str, ...] = ()


def identify_rows(rf: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Solve the lower-triangular system rf = P delta row by row.

    Row t reads rf_t = fs_1 * delta[t-1] - sum_{k=2..t} rho_k * delta[t-k]
    with rho_k = fs_{k-1} - fs_k, so each new exposure is the current
    reduced form corrected by the already-identified shorter-exposure
    effects, scaled by 1/fs_1. ``rf`` and ``fs`` are (rows, T); every row
    is solved independently, so one call serves a point estimate and a
    whole set of bootstrap resamples. Each exposure divides by fs_1 once
    more, so a small |fs_1| over many periods overflows; such a row holds
    infinities or NaN, which callers test for.
    """
    T = rf.shape[1]
    fs1 = fs[:, 0]
    rho = fs[:, :-1] - fs[:, 1:]
    delta = np.empty_like(rf)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            acc = rf[:, t - 1].copy()
            for k in range(2, t + 1):
                acc += rho[:, k - 2] * delta[:, t - k]
            delta[:, t - 1] = acc / fs1
    return delta


def amplification(fs) -> float:
    """Largest row sum of |P^-1|, where rf = P delta is the recursion of
    :func:`identify_rows` for the first stage ``fs``.

    An error of at most e in every rf_t moves every identified effect by at
    most this times e. Row k of :func:`identify_rows` applied to the
    identity is column k of P^-1. A P^-1 that is not finite (fs_1 = 0, or
    an overflow) amplifies without bound: ``inf``.
    """
    T = len(fs)
    with np.errstate(divide="ignore", over="ignore"):
        columns = identify_rows(np.eye(T), np.tile(np.asarray(fs, dtype=np.float64), (T, 1)))
        amp = float(np.abs(columns).sum(axis=0).max())
    return amp if math.isfinite(amp) else math.inf


def amplification_warnings(fs) -> tuple[str, ...]:
    """The warning of an :func:`amplification` above ``AMPLIFICATION_THRESHOLD``, if any."""
    amp = amplification(fs)
    if amp <= AMPLIFICATION_THRESHOLD:
        return ()
    return (
        f"identification amplifies reduced-form errors up to {amp:.3g}-fold (largest row"
        f" sum of |P^-1| > {AMPLIFICATION_THRESHOLD:g}); identified effects may be unstable",
    )


def identify(est: EstimandSet) -> IdentifiedProfile:
    """Solve the recursion of :func:`identify_rows` for one estimand set.

    Only first-period relevance is required; later first stages may vanish.
    A profile that overflows is refused. An :func:`amplification` above
    ``AMPLIFICATION_THRESHOLD`` (every |fs_1| < 0.01 is one) adds a warning.
    """
    fs1 = est.fs[0]
    if is_zero(fs1, est.kind):
        raise RelevanceFailure("first stage at t=1 is zero")
    solved = identify_rows(np.array([est.rf]), np.array([est.fs]))[0]
    if not np.isfinite(solved).all():
        raise RelevanceFailure(
            f"identified profile overflows: |fs_1| = {abs(fs1):.3g} is too small"
            f" for T = {est.T} periods"
        )
    deltas = tuple(solved.tolist())
    residual = max(
        abs(
            fs1 * deltas[t - 1]
            - math.fsum(est.rho[k - 2] * deltas[t - k] for k in range(2, t + 1))
            - est.rf[t - 1]
        )
        for t in range(1, est.T + 1)
    )
    return IdentifiedProfile(
        deltas=deltas,
        fs1=fs1,
        rho=est.rho,
        residual=residual,
        warnings=amplification_warnings(est.fs),
    )


@dataclass(frozen=True)
class BoundsReport:
    """Interval for the dynamic effect at period t under one bounding method."""

    t: int
    method: str
    lower: float
    upper: float
    lo: float
    hi: float
    rf_t: float
    fs1: float
    fs_t: float
    switch_z0_t: float | None = None
    switch_z1_t: float | None = None
    fs_path: tuple[float, ...] | None = None
    assumes: tuple[str, ...] = ()

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def _check_ordered(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"effect bounds must satisfy lo <= hi, got ({lo}, {hi})")


def _signs_ok(method: str, lo: float, hi: float) -> bool:
    """General and tight bounds require lo <= 0 <= hi; unrestricted always works."""
    return method == "unrestricted" or lo <= 0.0 <= hi


def bound_rows(method, rf, fs, sw0, sw1, t, lo, hi):
    """Lower and upper period-t bound endpoints of ``method`` for every row.

    ``rf`` and ``fs`` are (rows, T), ``sw0`` and ``sw1`` are (rows, T-1);
    the caller guarantees fs_1 > 0 in every row and lo <= hi.

    - unrestricted: arm-wise switching probabilities times the effect
      bounds, except that a bound of the "unexpected" sign uses the
      tighter first-stage gap max(fs_1 - fs_t, 0) or max(fs_t - fs_1, 0)
      in place of a switching probability.
    - general: the same kernel on lo <= 0 <= hi, where a gap only ever
      multiplies a zero bound.
    - tight: the first-stage path alone, through the drop fs_1 - fs_t
      and the increases fs_k - fs_{k-1} > 0 for k <= t.
    """
    fs1 = fs[:, 0]
    with np.errstate(over="ignore"):  # an overflow is inf, which callers test for
        base = rf[:, t - 1] / fs1
    fst = fs[:, t - 1]
    if method == "tight":
        diffs = fs[:, : t - 1] - fs[:, 1:t]  # column k-2 holds fs_{k-1} - fs_k
        inc = np.where(diffs < 0.0, diffs, 0.0).sum(axis=1) / fs1
        drop = (fs1 - fst) / fs1
        lower = base + lo * drop + (hi - lo) * inc
        upper = base + hi * drop + (lo - hi) * inc
    else:  # general and unrestricted
        drop = np.maximum(fs1 - fst, 0.0)
        rise = np.maximum(fst - fs1, 0.0)
        lower = (
            base
            + (sw0[:, t - 2] if lo < 0.0 else drop) * lo / fs1
            - (sw1[:, t - 2] if hi >= 0.0 else rise) * hi / fs1
        )
        upper = (
            base
            + (sw0[:, t - 2] if hi >= 0.0 else drop) * hi / fs1
            - (sw1[:, t - 2] if lo < 0.0 else rise) * lo / fs1
        )
    return lower, upper


def _one_row(est: EstimandSet):
    """(rf, fs, sw0, sw1) of ``est`` as the one-row arrays the row kernels take."""
    return (np.array([v]) for v in (est.rf, est.fs, est.switch_z0, est.switch_z1))


def bound_report(method: str, est: EstimandSet, t: int, lo: float, hi: float) -> BoundsReport:
    """Period-t report of the :data:`BOUND_METHODS` method ``method``.

    Checks the period, the effect bounds and a positive fs_1, then reads
    the interval off a one-row :func:`bound_rows` call. Tight bounds
    report the first-stage path and echo the cross-group homogeneity they
    need; the other methods report the arm-wise switching probabilities.
    """
    if method not in BOUND_METHODS:
        raise ValueError(f"unknown bound method {method!r}; valid: {', '.join(BOUND_METHODS)}")
    t = _check_period(t, est.T, lo=2)
    _check_ordered(lo, hi)
    if not _signs_ok(method, lo, hi):
        raise SignedBoundViolation(
            "this method needs lo <= 0 <= hi; use the unrestricted general bounds"
        )
    fs1 = est.fs[0]
    if not is_positive(fs1, est.kind):
        raise RelevanceFailure("bounds require a positive first stage at t=1")
    lower, upper = bound_rows(method, *_one_row(est), t, lo, hi)
    tight = method == "tight"
    return BoundsReport(
        t=t,
        method=BOUND_METHODS[method],
        lower=float(lower[0]),
        upper=float(upper[0]),
        lo=lo,
        hi=hi,
        rf_t=est.rf_at(t),
        fs1=fs1,
        fs_t=est.fs_at(t),
        switch_z0_t=None if tight else est.switch_z0[t - 2],
        switch_z1_t=None if tight else est.switch_z1[t - 2],
        fs_path=tuple(est.fs[:t]) if tight else None,
        assumes=(CROSS_GROUP_HOMOGENEITY,) if tight else (),
    )


def bounds_general(est: EstimandSet, t: int, lo: float, hi: float) -> BoundsReport:
    """Interval from arm-wise switching probabilities; needs lo <= 0 <= hi.

    Valid whenever every switcher-group effect entering the period-t
    reduced form lies in [lo, hi]; no homogeneity is assumed.
    """
    return bound_report("general", est, t, lo, hi)


def bounds_general_unrestricted(
    est: EstimandSet, t: int, lo: float, hi: float
) -> BoundsReport:
    """General bounds for effect bounds of arbitrary sign.

    On lo <= 0 <= hi it is :func:`bounds_general`, the same kernel.
    """
    return bound_report("unrestricted", est, t, lo, hi)


def bounds_tight(est: EstimandSet, t: int, lo: float, hi: float) -> BoundsReport:
    """Weakly tighter interval from the first-stage path; needs lo <= 0 <= hi.

    Additionally valid only when, per exposure, all switcher groups at
    the same switch period share one effect (cross-group homogeneity);
    that requirement is echoed in the report metadata, not verified.
    """
    return bound_report("tight", est, t, lo, hi)


BOUND_METHODS = {
    "general": "general",
    "unrestricted": "general_unrestricted",
    "tight": "tight",
}
"""Report name of each :func:`bound_rows` method, in report order."""


def selected_methods(lo: float, hi: float, include_tight: bool = True) -> tuple[str, ...]:
    """The bound methods defined for effect bounds [lo, hi], in report order.

    ``include_tight=False`` drops the tight bounds, which are valid only
    under an assumption the caller has not declared.
    """
    return tuple(
        m
        for m in BOUND_METHODS
        if _signs_ok(m, lo, hi) and (include_tight or m != "tight")
    )


ALL_TARGETS = ("estimands", "identify", "bounds")
"""Target groups of :func:`target_columns`, in report order."""


def target_columns(rf, fs, sw0, sw1, targets, lo, hi, include_tight=True, kind="sample"):
    """Every target of the ``targets`` groups, in report order.

    Row i of ``rf``, ``fs`` (rows, T) and ``sw0``, ``sw1`` (rows, T-1) holds
    the moments of one sample (or of the population). Each (name, values,
    ok) triple has the target in every row, ordered per period as rf[t],
    fs[t], iv[t], then delta[tau], then the bound endpoints of the methods
    ``selected_methods(lo, hi, include_tight)`` selects. ``ok`` marks the
    rows where the scalar estimators define the target under the zero rule
    of ``kind`` estimands: iv[t] needs a nonzero fs_t, delta[tau] a nonzero
    fs_1, and bounds a positive fs_1. :func:`target_row` passes the kind
    of an :class:`~dynlate.estimands.EstimandSet`. A value that is not
    finite, such as a delta whose recursion overflowed, is never ok.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError(f"targets must name at least one of {ALL_TARGETS}")
    unknown = set(targets) - set(ALL_TARGETS)
    if unknown:
        raise ValueError(f"unknown targets {sorted(unknown)}; valid: {ALL_TARGETS}")
    T = rf.shape[1]
    every = np.ones(rf.shape[0], dtype=bool)
    columns = []
    # rows outside ``ok`` may divide by a zero first stage, or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if "estimands" in targets:
            for t in range(1, T + 1):
                columns.append((f"rf[{t}]", rf[:, t - 1], every))
                columns.append((f"fs[{t}]", fs[:, t - 1], every))
                iv = rf[:, t - 1] / fs[:, t - 1]
                columns.append((f"iv[{t}]", iv, ~is_zero(fs[:, t - 1], kind)))
        if "identify" in targets:
            delta = identify_rows(rf, fs)
            defined = ~is_zero(fs[:, 0], kind)
            columns.extend((f"delta[{tau}]", delta[:, tau], defined) for tau in range(T))
        if "bounds" in targets:
            _check_ordered(lo, hi)
            positive = is_positive(fs[:, 0], kind)
            for method in selected_methods(lo, hi, include_tight):
                for t in range(2, T + 1):
                    lower, upper = bound_rows(method, rf, fs, sw0, sw1, t, lo, hi)
                    columns.append((f"{method}_lower[{t}]", lower, positive))
                    columns.append((f"{method}_upper[{t}]", upper, positive))
    return [(name, values, ok & np.isfinite(values)) for name, values, ok in columns]


def masked_blocks(values, masks):
    """The columns ``values[i]`` grouped by their row masks ``masks[i]``.

    Yields, per distinct mask in the order of its first column, the
    positions of the columns it belongs to and a C-contiguous float64
    (columns, kept rows) block of their masked entries, so that one
    reduction over ``axis=1`` (or ``axis=0`` of the transpose) summarizes
    the whole group.
    A :func:`target_columns` table has few distinct masks: every value
    column shares the mask of its zero rule unless it is not finite.
    """
    groups = {}
    for i, mask in enumerate(masks):
        groups.setdefault(mask.tobytes(), (mask, []))[1].append(i)
    for mask, columns in groups.values():
        block = np.empty((len(columns), np.count_nonzero(mask)))
        for j, i in enumerate(columns):  # one masked copy at a time, not a list of them
            block[j] = values[i][mask]
        yield columns, block


def target_row(est: EstimandSet, targets, lo, hi, include_tight=True):
    """The one-row :func:`target_columns` table of ``est``, under its own zero rule."""
    return target_columns(*_one_row(est), targets, lo, hi, include_tight, kind=est.kind)


def outcome_range_bounds(panel: Panel) -> tuple[float, float]:
    """Default effect bounds +-(max(y) - min(y)) from the observed outcome range.

    A range wider than the float range is refused with :class:`NonFiniteResult`.
    """
    spread = float(panel.y.max()) - float(panel.y.min())  # a Python float overflows to inf
    if not math.isfinite(spread):
        raise NonFiniteResult(
            "the outcome range max(y) - min(y) overflows the float range;"
            " give the effect bounds with --bounds lo,hi"
        )
    return -spread, spread


class NegativeWeightStatus(Enum):
    GUARANTEED = "guaranteed"
    POSSIBLE = "possible"


@dataclass(frozen=True)
class NegativeWeightFlag:
    """Data-only negative-weight diagnosis for one period.

    A first stage that strictly decreases at any k <= t guarantees
    negatively weighted effects in the period-t reduced form (and in the
    IV estimand when fs_t > 0); a nondecreasing path leaves them merely
    possible, since the condition is sufficient but not necessary. At
    t = 2 this specializes to the simple comparison fs_2 < fs_1.
    """

    t: int
    status: NegativeWeightStatus
    decreasing_k: int | None


def negative_weight_diagnostic(est: EstimandSet) -> tuple[NegativeWeightFlag, ...]:
    """Per-period negative-weight flags from the first-stage path alone: every
    period from the first k with rho_k = fs_{k-1} - fs_k > 0 on is guaranteed."""
    first = next((k for k in range(2, est.T + 1) if est.rho[k - 2] > 0.0), est.T + 1)
    return tuple(
        NegativeWeightFlag(t, NegativeWeightStatus.GUARANTEED, first)
        if first <= t
        else NegativeWeightFlag(t, NegativeWeightStatus.POSSIBLE, None)
        for t in range(2, est.T + 1)
    )
