"""Strict references for the tests: the paper's latent taxonomy, and one slow,
plainly written reference per fast path of ``dynlate``.

Nothing here is pipeline code. Each reference's docstring names the fast
path it checks; the tests compare the two, bit for bit where the fast path
promises the same bits, and against exact rationals elsewhere.

- Taxonomy (checks ``GroupLabel.members`` and ``decompose``'s groups):
  :func:`treated`, :func:`type_at`, :func:`enumerate_histories`,
  :func:`switcher_sets`, :func:`type_path`.
- Population oracle (checks ``population_estimands`` and ``decompose``):
  :func:`per_history_estimands`, :func:`label_switcher_effects`, and the
  exact rationals :func:`exact_contrasts` and :func:`exact_terms`.
- Panels and draws: :func:`reference_from_arrays`, :func:`mean_outcome`,
  :func:`where_draw`.
- Moments and estimators: :func:`six_mask_moments`,
  :func:`concatenated_features`, :func:`row_sum_key_moments`,
  :func:`exact_identify`, :func:`exact_bound`.
- Monte Carlo: :func:`array_rows`, :func:`cell_row`, :func:`target_values`,
  :func:`reference_monte_carlo`.
"""

import math
from fractions import Fraction

import numpy as np

from dynlate import simulate
from dynlate.dgp import population_estimands
from dynlate.errors import (
    DynlateError,
    MalformedRow,
    PeriodOutOfRange,
    TreatmentReversal,
    UnbalancedPanel,
)
from dynlate.estimators import arm_sums, bound_report, estimate, identify, moment_features
from dynlate.estimators import selected_methods
from dynlate.latent import NEVER, AdoptionPair, IvType, switcher_group_labels
from dynlate.panel import Panel
from dynlate.simulate import MonteCarloSummary, TargetSummary, _draw_arrays, rep_rng

# ---------------------------------------------------------------------------
# The paper's latent taxonomy


def treated(pair: AdoptionPair, z: int, t: int) -> bool:
    """Whether ``pair`` is treated at period ``t`` under instrument arm ``z``."""
    return pair.adoption(z) <= t


def type_at(pair: AdoptionPair, t: int) -> IvType:
    """Instrument type of ``pair`` at period ``t``, from (D_t under z=1, D_t under z=0)."""
    if not isinstance(t, int) or t < 1:
        raise PeriodOutOfRange(f"period must be an integer >= 1, got {t!r}")
    on = pair.s1 <= t
    off = pair.s0 <= t
    if on and off:
        return IvType.ALWAYS_TAKER
    if on:
        return IvType.COMPLIER
    if off:
        return IvType.DEFIER
    return IvType.NEVER_TAKER


def enumerate_histories(T: int, exclude_first_period_defiers: bool = True) -> list[AdoptionPair]:
    """All adoption pairs for horizon ``T``, sorted by (s1, s0) with NEVER last.

    With the exclusion flag on (the default, matching first-period
    monotonicity) the pairs with s0 = 1 < s1 are dropped, leaving
    (T+1)^2 - T histories.
    """
    if not isinstance(T, int) or T < 1:
        raise PeriodOutOfRange(f"horizon must be an integer >= 1, got {T!r}")
    times = [*range(1, T + 1), NEVER]
    pairs = [AdoptionPair(s1, s0) for s1 in times for s0 in times]
    if exclude_first_period_defiers:
        pairs = [p for p in pairs if not p.is_first_period_defier]
    return sorted(pairs, key=lambda p: (p.s1, p.s0))


def switcher_sets(T: int, t: int) -> tuple[set[AdoptionPair], set[AdoptionPair]]:
    """Histories switching into treatment at ``t`` under z=1 resp. z=0: G+_t and G-_t.

    The first set holds pairs with s1 = t (and s0 neither t nor 1); the
    second holds pairs with s0 = t and s1 != t. The pair s1 = s0 = t
    belongs to neither: its arms behave identically, so it contributes
    nothing to arm contrasts. Checks the members of ``switcher_group_labels``.
    """
    if not isinstance(T, int) or T < 1:
        raise PeriodOutOfRange(f"horizon must be an integer >= 1, got {T!r}")
    if not isinstance(t, int) or not 2 <= t <= T:
        raise PeriodOutOfRange(f"switch period must be in 2..{T}, got {t!r}")
    times = [*range(1, T + 1), NEVER]
    g_plus = {AdoptionPair(t, s0) for s0 in times if s0 != t and s0 != 1}
    g_minus = {AdoptionPair(s1, t) for s1 in times if s1 != t}
    return g_plus, g_minus


_AT, _C, _F, _NT = IvType.ALWAYS_TAKER, IvType.COMPLIER, IvType.DEFIER, IvType.NEVER_TAKER

_TYPE_AT_PERIOD = {
    "C1": lambda s, k, l: _C,
    "CAT": lambda s, k, l: _C if s < k else _AT,
    "NTC": lambda s, k, l: _NT if s < k else _C,
    "NTF": lambda s, k, l: _NT if s < k else _F,
    "NTCAT": lambda s, k, l: _NT if s < l else _C if s < k else _AT,
    "NTFAT": lambda s, k, l: _NT if s < l else _F if s < k else _AT,
}
"""Each group kind's type at period s <= k (switch k, entry l), as the paper
defines the kind, written apart from ``latent._RUNS`` so that it checks it."""


def type_path(label) -> tuple[IvType, ...]:
    """Per-period instrument types of ``label``'s members through its switch
    period, as the paper defines its kind. Checks ``GroupLabel.members``."""
    at = _TYPE_AT_PERIOD[label.kind]
    return tuple(at(s, label.switch, label.entry) for s in range(1, label.switch + 1))


# ---------------------------------------------------------------------------
# The population oracle


def mean_outcome(h, t: int, s: float) -> float:
    """History ``h``'s mean outcome at period ``t`` when first treated at ``s``:
    baseline plus treated effect. Checks the outcome means of ``spec.cells``."""
    return h.baseline[t - 1] + h.treated_effect(t, s)


def per_history_estimands(spec):
    """(rf, fs, switch_z0, switch_z1) summed history by history: the reference
    formulas of the oracle, each term written from the history itself.
    Checks ``population_estimands`` bit for bit."""
    hs, periods = spec.histories, range(1, spec.T + 1)
    rf = [
        math.fsum(h.prob * (h.treated_effect(t, h.pair.s1) - h.treated_effect(t, h.pair.s0))
                  for h in hs)
        for t in periods
    ]
    fs = [math.fsum(h.prob * ((h.pair.s1 <= t) - (h.pair.s0 <= t)) for h in hs) for t in periods]
    sw0 = [math.fsum(h.prob for h in hs if 2 <= h.pair.s0 <= t) for t in periods[1:]]
    sw1 = [math.fsum(h.prob for h in hs if 2 <= h.pair.s1 <= t) for t in periods[1:]]
    return rf, fs, sw0, sw1


def label_switcher_effects(spec, t, tau):
    """Each label of ``switcher_group_labels(t - tau)``, looked up in turn.
    Checks ``dgp._switcher_effects``, which reads ``spec.groups``."""
    for labels in switcher_group_labels(t - tau):
        for label in labels:
            effect = spec.group_effect(label, t, tau)
            if effect is not None:
                yield effect


def exact_contrasts(spec, t: int) -> list[tuple[Fraction, Fraction]]:
    """Each history's arm contrasts at period t in exact rationals:
    (p_h * (effect_1 - effect_0), p_h * (d_1 - d_0)).

    Every spec float is a dyadic rational, so their sums are the exact rf_t
    and fs_t. They are the terms ``population_estimands`` sums: it rounds
    each rf term and each sum, so its error is a few roundings of the sum
    of the rf terms' magnitudes.
    """
    out = []
    for h in spec.histories:
        p, s1, s0 = Fraction(h.prob), h.pair.s1, h.pair.s0
        effect = Fraction(h.treated_effect(t, s1)) - Fraction(h.treated_effect(t, s0))
        out.append((p * effect, p * ((s1 <= t) - (s0 <= t))))
    return out


def exact_terms(spec, t: int) -> list[tuple[Fraction, Fraction]]:
    """(signed probability, signed value) in exact rationals of each group of
    ``spec.groups`` that enters the period-t reduced form: C1 and each group
    switching at 2..t, with its members' effects at exposure t - switch.
    Checks ``decompose``'s terms and the identity they sum to."""
    out = []
    for label, (sign, members) in spec.groups.items():
        if label.switch <= t:
            tau = t - label.switch
            prob = sum(Fraction(h.prob) for h in members)
            value = sum(Fraction(h.prob) * Fraction(h.effect(t, tau)) for h in members)
            out.append((sign * prob, sign * value))
    return out


# ---------------------------------------------------------------------------
# Panels and draws


def reference_from_arrays(unit_ids, z, d, y):
    """The tuple/set/object-argsort algorithm unit ids were first checked by.
    Checks ``Panel.from_arrays``.

    Returns (ids, z, d, y) in row order. It casts z and d to int8 before
    checking them, so it is only a reference for binary z and d.
    """
    ids = tuple(str(u) for u in unit_ids)
    z = np.asarray(z, dtype=np.int8)
    d = np.asarray(d, dtype=np.int8)
    y = np.asarray(y, dtype=np.float64)
    n = len(ids)
    if n == 0:
        raise UnbalancedPanel("panel has no units")
    if d.ndim != 2 or y.shape != d.shape or z.shape != (n,) or d.shape[0] != n:
        raise MalformedRow("array shapes are inconsistent")
    if d.shape[1] < 1:
        raise UnbalancedPanel("panel has no periods")
    if any(u == "" or u != u.strip() or u.endswith("\x00") for u in ids):
        raise MalformedRow(
            "unit ids must be non-empty, without surrounding whitespace or a trailing NUL"
        )
    if len(set(ids)) != n:
        raise UnbalancedPanel("duplicate unit ids")
    if not np.isin(z, (0, 1)).all() or not np.isin(d, (0, 1)).all():
        raise MalformedRow("z and d must be 0 or 1")
    if not np.isfinite(y).all():
        raise MalformedRow("y must be finite")
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    ids = tuple(ids[i] for i in order)
    z, d, y = z[order], d[order], y[order]
    drops = np.argwhere(np.diff(d.astype(np.int16), axis=1) < 0)
    if drops.size:
        row, t = drops[0]
        raise TreatmentReversal(ids[row], int(t) + 2)
    return ids, z, d, y


def where_draw(spec, n, rng):
    """Reference draw: numpy's own history, arm and noise draws, then one table per
    arm, both gathered for every unit and picked by np.where. Checks
    ``simulate._draw_arrays`` bit for bit."""
    probs = np.array([h.prob for h in spec.histories])
    hist = rng.choice(len(probs), size=n, p=probs)
    z = (rng.random(n) < spec.pz).astype(np.int8)
    noise = rng.normal(0.0, spec.noise_sd, size=(n, spec.T))
    d_arm, mean_arm = [], []
    for arm in (0, 1):
        adopt = [h.pair.adoption(arm) for h in spec.histories]
        d_arm.append(np.array(
            [[1 if a <= t else 0 for t in range(1, spec.T + 1)] for a in adopt], dtype=np.int8
        ))
        mean_arm.append(np.array(
            [[mean_outcome(h, t, a) for t in range(1, spec.T + 1)]
             for h, a in zip(spec.histories, adopt)],
            dtype=np.float64,
        ))
    on = (z == 1)[:, None]
    d = np.where(on, d_arm[1][hist], d_arm[0][hist])
    y = np.where(on, mean_arm[1][hist], mean_arm[0][hist]) + noise
    return z, d, y


# ---------------------------------------------------------------------------
# Moments and estimators


def six_mask_moments(z, d, y):
    """Reference arm moments: one boolean-mask copy and one mean per array and arm.
    Checks ``moment_estimands`` of ``arm_sums`` bit for bit."""
    on = z == 1
    rf = y[on].mean(axis=0) - y[~on].mean(axis=0)
    fs = d[on].mean(axis=0) - d[~on].mean(axis=0)
    later = (d[:, 1:] == 1) & (d[:, :1] == 0)
    return rf, fs, later[~on].mean(axis=0), later[on].mean(axis=0)


def concatenated_features(panel):
    """Reference feature matrix: one temporary per column block, then np.concatenate.
    Checks ``moment_features`` bit for bit, y halved as in its layout."""
    z = panel.z.astype(np.float64)[:, None]
    zc = 1.0 - z
    y = panel.y / 2
    d = panel.d.astype(np.float64)
    s = ((panel.d[:, 1:] == 1) & (panel.d[:, :1] == 0)).astype(np.float64)
    return np.concatenate([z, zc, z * y, zc * y, z * d, zc * d, z * s, zc * s], axis=1)


def row_sum_key_moments(panel, reps, seed):
    """Reference resample rows: the cell key sums d's rows and the cells
    start where the sorted key steps; the sort, the gather and the
    per-resample sums are those of ``_resample_moments``, which this checks
    bit for bit; y is halved, as in the layout of ``moment_features``."""
    n, T = panel.n, panel.T
    key = panel.z.astype(np.intp) * (T + 1) + panel.d.sum(axis=1)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    first = order[starts]
    features = moment_features(panel.z[first], panel.d[first], np.zeros((len(first), T)))
    ys = panel.y.T.take(order, axis=1) / 2
    n0 = int(np.count_nonzero(panel.z == 0))
    M = np.empty((reps, 6 * T))
    for r in range(reps):
        counts = np.bincount(simulate.rep_rng(seed, r).integers(0, n, n), minlength=n)
        counts = counts.take(order)
        M[r] = np.add.reduceat(counts, starts) @ features.astype(np.intp)
        weights = counts.astype(np.float64)
        for j, arm in ((2, slice(n0, n)), (2 + T, slice(0, n0))):
            M[r, j : j + T] = np.einsum("ji,i->j", ys[:, arm], weights[arm])
    return M


def _terms(*terms):
    """Exact sum of ``terms`` and the sum of their magnitudes.

    Rounding each term and each addition moves a float evaluation of the
    sum by a few eps times the second number, whatever cancels.
    """
    return sum(terms), sum(abs(x) for x in terms)


def exact_identify(rf, fs):
    """delta of rf = P delta in exact arithmetic, and its scale m.
    Checks ``identify_rows``, the recursion of ``identify`` and the bootstrap.

    m solves the same recursion with |rf| and |rho| in place of rf and
    rho: the magnitude of everything forward substitution adds up for
    delta[t], which bounds delta[t] and sets its rounding error. With
    nothing to cancel, floats give m to a few T eps.
    """
    T = len(rf)
    exact_rf = [Fraction(v) for v in rf]
    exact_fs = [Fraction(v) for v in fs]
    rho = [exact_fs[k] - exact_fs[k + 1] for k in range(T - 1)]
    delta = []
    for t in range(T):
        acc = exact_rf[t] + sum(rho[k] * delta[t - 1 - k] for k in range(t))
        delta.append(acc / exact_fs[0])
    size = [abs(float(v)) for v in rho]
    scale = []
    for t in range(T):
        scale.append((abs(rf[t]) + sum(size[k] * scale[t - 1 - k] for k in range(t))) / fs[0])
    return delta, scale


def exact_bound(method, rf, fs, sw0, sw1, t, lo, hi):
    """((lower, scale), (upper, scale)) of ``method`` at period t.
    Checks ``bound_rows``, the bounds of ``bound_report`` and the bootstrap.

    Every argument is a Fraction, or a list of them.
    """
    fs1, fst, base = fs[0], fs[t - 1], rf[t - 1] / fs[0]
    s0, s1 = sw0[t - 2], sw1[t - 2]
    if method == "tight":
        inc = [min(fs[k - 1] - fs[k], 0) / fs1 for k in range(1, t)]
        drop = (fs1 - fst) / fs1
        return (
            _terms(base, lo * drop, *((hi - lo) * v for v in inc)),
            _terms(base, hi * drop, *((lo - hi) * v for v in inc)),
        )
    drop, rise = max(fs1 - fst, 0), max(fst - fs1, 0)
    unrestricted = method == "unrestricted"
    return (
        _terms(
            base,
            (s0 if lo < 0 or not unrestricted else drop) * lo / fs1,
            -(s1 if hi >= 0 or not unrestricted else rise) * hi / fs1,
        ),
        _terms(
            base,
            (s0 if hi >= 0 or not unrestricted else drop) * hi / fs1,
            -(s1 if lo < 0 or not unrestricted else rise) * lo / fs1,
        ),
    )


# ---------------------------------------------------------------------------
# Monte Carlo


def array_rows(spec, n, reps, seed, threads):
    """Monte Carlo rows that draw every unit: row r is ``arm_sums`` of
    ``_draw_arrays`` from the replication's stream, the rows Monte Carlo wrote
    before it drew them from the cell table. Substituted for
    ``simulate._cell_rows``, it lets :func:`reference_monte_carlo` check
    ``monte_carlo``'s pipeline bit for bit; unsubstituted, it is the law
    ``_cell_rows``' rows must have."""

    def write(rng, out):
        out[:] = arm_sums(*_draw_arrays(spec, n, rng))

    return simulate._fill_rows(write, 6 * spec.T, reps, seed, threads)


def cell_row(spec, n, rng):
    """One Monte Carlo moment row drawn from the cell table, summed cell by cell
    in Python. Checks ``simulate._cell_rows`` exactly.

    Draws the (arm, history) cell counts, arm 0's cells first, then 2T
    standard normals: the first T are arm 1's noise sums per period, the
    next T arm 0's, each scaled by noise_sd * sqrt(n_z). The integer
    columns are sums of Python ints, exact for every n, rounded once. The
    y columns sum halves, as in the layout of ``moment_features``.
    """
    T, H = spec.T, len(spec.histories)
    shares = np.array([(1.0 - spec.pz) * h.prob for h in spec.histories]
                      + [spec.pz * h.prob for h in spec.histories])
    counts = rng.multinomial(n, shares / shares.sum()).tolist()
    normals = rng.standard_normal(2 * T).tolist()
    row = [0] * (6 * T)
    for c, count in enumerate(counts):
        z, h = c // H, spec.histories[c % H]
        s = h.pair.adoption(z)
        arm = 1 - z  # column offset within each block: arm 1 first
        row[arm] += count
        for t in range(1, T + 1):
            row[2 + arm * T + t - 1] += count * mean_outcome(h, t, s) / 2
            row[2 + (2 + arm) * T + t - 1] += count * treated(h.pair, z, t)
            if t >= 2:
                row[2 + 4 * T + arm * (T - 1) + t - 2] += count * (1 < s <= t)
    for arm in (0, 1):
        scale = spec.noise_sd / 2 * math.sqrt(row[arm])
        for t in range(T):
            row[2 + arm * T + t] += scale * normals[arm * T + t]
    return np.array(row, dtype=np.float64)


def target_values(est, targets, lo, hi) -> dict[str, float]:
    """Every requested target the scalar estimators define for ``est``, in report order.

    The scalar reference of the target table ``target_columns``: applied to
    the population estimands it is the oracle, applied to a sample's
    estimands it is one replication. A target the estimators reject
    (undefined IV, zero first stage) is left out.
    """
    out: dict[str, float] = {}
    if "estimands" in targets:
        for t in range(1, est.T + 1):
            out[f"rf[{t}]"] = est.rf_at(t)
            out[f"fs[{t}]"] = est.fs_at(t)
            iv = est.iv_at(t)
            if iv is not None:
                out[f"iv[{t}]"] = iv
    if "identify" in targets:
        try:
            prof = identify(est)
            for tau, v in enumerate(prof.deltas):
                out[f"delta[{tau}]"] = v
        except DynlateError:
            pass
    if "bounds" in targets:
        for name in selected_methods(lo, hi):
            for t in range(2, est.T + 1):
                try:
                    rep = bound_report(name, est, t, lo, hi)
                except DynlateError:
                    continue
                out[f"{name}_lower[{t}]"] = rep.lower
                out[f"{name}_upper[{t}]"] = rep.upper
    return out


def reference_monte_carlo(spec, n, reps, seed, targets, lo, hi):
    """Monte Carlo through a validated Panel and the scalar estimators per replication.
    Checks ``monte_carlo`` with :func:`array_rows` in place of its cell rows."""
    oracle = target_values(population_estimands(spec), targets, lo, hi)
    results = []
    for r in range(reps):
        z, d, y = _draw_arrays(spec, n, rep_rng(seed, r))
        try:
            est = estimate(Panel.from_arrays([f"u{i:03d}" for i in range(n)], z, d, y))
        except DynlateError:
            results.append({})
            continue
        results.append(target_values(est, targets, lo, hi))
    rows = []
    for name, truth in oracle.items():
        values = [res[name] for res in results if name in res]
        mean = float(np.mean(values)) if values else None
        rows.append(TargetSummary(
            name=name,
            oracle=truth,
            mean=mean,
            bias=None if mean is None else mean - truth,
            sd=float(np.std(values, ddof=1)) if len(values) >= 2 else None,
            n_ok=len(values),
            n_failed=reps - len(values),
        ))
    return MonteCarloSummary(n, reps, seed, spec.T, targets, lo, hi, tuple(rows))
