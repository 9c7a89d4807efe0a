"""Sample estimands, recursive identification, bounds, and diagnostics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynlate.dgp import (
    DgpSpec,
    HistorySpec,
    decompose,
    make_calendar_homogeneous,
    population_estimands,
    true_dynamic_lates,
)
from dynlate.errors import (
    DegenerateInstrument,
    PeriodOutOfRange,
    RelevanceFailure,
    SignedBoundViolation,
)
from dynlate.estimands import EstimandSet
from dynlate.estimators import (
    AMPLIFICATION_THRESHOLD,
    NegativeWeightStatus,
    amplification,
    amplification_warnings,
    _one_row,
    arm_sums,
    bound_report,
    bound_rows,
    bounds_general,
    bounds_general_unrestricted,
    bounds_tight,
    estimate,
    identify,
    identify_rows,
    moment_estimands,
    moment_features,
    negative_weight_diagnostic,
    outcome_range_bounds,
    selected_methods,
    unit_sums,
    target_blocks,
    target_columns,
    target_row,
)
from dynlate.latent import NEVER, AdoptionPair
from dynlate.panel import Panel, ingest
from dynlate.reporting import bounds_to_dict, decomposition_to_dict, dumps

from conftest import make_three_history_spec
from randspec import random_spec
from reference import exact_bound, exact_identify, six_mask_moments

P = AdoptionPair


def make_est(rf, fs, sw0=None, sw1=None, kind="sample"):
    T = len(rf)
    sw1 = tuple(sw1) if sw1 is not None else (0.0,) * (T - 1)
    if sw0 is None:
        sw0 = tuple(fs[0] - fs[t - 1] + sw1[t - 2] for t in range(2, T + 1))
    return EstimandSet(
        T=T, rf=tuple(rf), fs=tuple(fs), switch_z0=tuple(sw0), switch_z1=sw1, kind=kind
    )


# exact zeros, values on both sides of the 1e-12 population tolerance, and
# ordinary first stages
near_zero = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-12, -1e-12, 9.999999e-13, 1.000001e-12)),
    st.floats(min_value=-1e-12, max_value=1e-12),
    st.floats(min_value=-2.0, max_value=2.0),
)


class TestEstimandSet:
    @given(kind=st.sampled_from(("population", "sample")), data=st.data())
    def test_iv_and_rho_are_derived_from_rf_and_fs(self, kind, data):
        T = data.draw(st.integers(min_value=1, max_value=5))
        rf = data.draw(st.lists(near_zero, min_size=T, max_size=T))
        fs = data.draw(st.lists(near_zero, min_size=T, max_size=T))
        est = make_est(rf, fs, kind=kind)
        for t in range(1, T + 1):
            f = fs[t - 1]
            zero = abs(f) < 1e-12 if kind == "population" else f == 0.0
            if zero:
                assert est.iv_at(t) is None
            else:
                assert est.iv_at(t) == rf[t - 1] / f
        assert est.rho == tuple(fs[t - 2] - fs[t - 1] for t in range(2, T + 1))

    def test_iv_and_rho_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            EstimandSet(T=1, rf=(0.1,), fs=(0.5,), iv=(0.2,), switch_z0=(), switch_z1=())
        with pytest.raises(TypeError):
            EstimandSet(T=1, rf=(0.1,), fs=(0.5,), rho=(), switch_z0=(), switch_z1=())


@pytest.mark.parametrize("kind", ["population", "sample"])
def test_target_row_applies_the_zero_rule_of_its_kind(kind):
    # 1e-17 is zero for population estimands only
    tiny_fs2 = make_est((0.3, 0.2, 0.1), (0.5, 1e-17, 0.4), kind=kind)
    ok = {name: bool(ok[0]) for name, _, ok in target_row(tiny_fs2, ("estimands",), -1, 1)}
    assert ok["iv[2]"] == (tiny_fs2.iv_at(2) is not None) == (kind == "sample")
    assert ok["iv[1]"] and ok["iv[3]"]
    tiny_fs1 = make_est((0.3, 0.2), (1e-17, 0.4), kind=kind)
    table = target_row(tiny_fs1, ("identify", "bounds"), -1, 1)
    assert {name: bool(ok[0]) for name, _, ok in table} == dict.fromkeys(
        ("delta[0]", "delta[1]", "general_lower[2]", "general_upper[2]",
         "unrestricted_lower[2]", "unrestricted_upper[2]", "tight_lower[2]",
         "tight_upper[2]"),
        kind == "sample",
    )


def _refuses(call, *args) -> bool:
    try:
        call(*args)
    except RelevanceFailure:
        return True
    return False


@pytest.mark.parametrize("kind", ["population", "sample"])
@pytest.mark.parametrize(
    "fs1", [0.0, -0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, 1e-6, -1e-6, 0.3]
)
def test_scalar_rules_match_the_row_table_at_the_tolerance_edges(kind, fs1):
    # the random-spec comparisons never draw a first stage this close to zero
    est = make_est((0.3, 0.2), (fs1, 0.25), kind=kind)
    ok = {name: bool(ok[0]) for name, _, ok in target_row(est, ("identify", "bounds"), -1.0, 1.0)}
    assert _refuses(identify, est) == (not ok["delta[0]"])
    assert _refuses(bound_report, "general", est, 2, -1.0, 1.0) == (not ok["general_lower[2]"])


class TestEstimate:
    def test_two_unit_panel(self):
        p = ingest("unit_id,period,z,d,y\nA,1,1,1,2.0\nB,1,0,0,0.0\n")
        est = estimate(p)
        assert est.rf == (2.0,)
        assert est.fs == (1.0,)
        assert est.iv == (2.0,)
        assert est.kind == "sample"
        assert (est.n, est.n_z1, est.n_z0) == (2, 1, 1)

    def test_identical_outcomes_give_zero_rf(self):
        rows = ["unit_id,period,z,d,y"]
        for unit, z in (("A", 1), ("B", 0)):
            for t in (1, 2):
                rows.append(f"{unit},{t},{z},0,{1.5 + t}")
        est = estimate(ingest("\n".join(rows) + "\n"))
        assert est.rf == (0.0, 0.0)
        assert est.iv == (None, None)

    def test_switch_shares(self):
        p = Panel.from_arrays(
            ["a", "b", "c", "d"],
            [1, 1, 0, 0],
            [[0, 1], [1, 1], [0, 0], [0, 1]],
            np.zeros((4, 2)),
        )
        est = estimate(p)
        assert est.switch_z1[0] == 0.5  # one of two z=1 units switches at 2
        assert est.switch_z0[0] == 0.5
        assert est.fs == (0.5, 0.5)
        assert est.rho[0] == 0.0

    def test_arm_mean_in_range_whose_sum_is_not(self):
        # arm 0's y_1 sum, -2e308, passes the float range but its mean does
        # not: that mean is twice the mean of y/2, so rf_1 = 5e307 + 1e308;
        # period 2's sums are finite, and rf_2 keeps the plain row's bits
        p = Panel.from_arrays(
            ["a", "b", "c", "d"], [1, 0, 1, 0], [[1, 1], [0, 0], [0, 0], [0, 0]],
            [[1e308, 0.1], [-1e308, 0.7], [0.0, 0.2], [-1e308, 0.3]],
        )
        est = estimate(p)
        assert est.rf == (1e308 / 2 + 1e308, (0.1 + 0.2) / 2 - (0.7 + 0.3) / 2)
        assert est.fs == (0.5, 0.5)

    def test_degenerate_instrument(self):
        p = Panel.from_arrays(["a", "b"], [1, 1], [[0], [1]], [[0.0], [1.0]])
        with pytest.raises(DegenerateInstrument):
            estimate(p)


@st.composite
def arm_samples(draw):
    """(z, d, y) with both arms non-empty, any 0/1 d and non-dyadic y."""
    T = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=2, max_value=2000))
    n1 = draw(st.sampled_from([1, n - 1]) | st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[:n1]] = 1
    d = rng.integers(0, 2, size=(n, T), dtype=np.int8)
    y = rng.normal(size=(n, T)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5)
    return z, d, y


@settings(max_examples=200, deadline=None)
@given(arm_samples())
def test_arm_moments_match_six_mask_reference_bitwise(sample):
    # random y makes the summation order visible in the last bits
    both_arms, *got = moment_estimands(arm_sums(*sample)[None])
    assert both_arms.tolist() == [True]
    got = [g[0] for g in got]
    want = six_mask_moments(*sample)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@st.composite
def dyadic_samples(draw):
    """(z, d, y) with dyadic y, so every moment sum is exact; an arm may be empty."""
    T = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=300))
    n1 = draw(st.sampled_from([0, n]) | st.integers(min_value=0, max_value=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    z = np.zeros(n, dtype=np.int8)
    z[rng.permutation(n)[:n1]] = 1
    d = rng.integers(0, 2, size=(n, T), dtype=np.int8)
    y = rng.integers(-400, 401, size=(n, T)) / 16.0
    return z, d, y


@settings(max_examples=200, deadline=None)
@given(dyadic_samples())
def test_arm_sums_equal_summed_features(sample):
    # the two producers of the moment row: one gather per arm, and the
    # per-unit features, whose cell rows Monte Carlo and the bootstrap count
    z, d, y = sample
    row = arm_sums(z, d, y)
    assert row.dtype == np.float64
    assert row.shape == (6 * y.shape[1],)
    assert np.array_equal(row, np.ones(len(z)) @ moment_features(z, d, y))
    both_arms, rf, fs, sw0, sw1 = moment_estimands(row[None])
    single = z.all() or not z.any()
    assert both_arms.tolist() == [not single]
    if single:
        assert np.isnan(rf).all() and np.isnan(fs).all()


# |rho| = 0.9 against fs_1 = 1e-6: each exposure grows about 1e6-fold, past
# the float range well before T = 70
OVERFLOWING = make_est(rf=(1.0,) * 70, fs=(1e-6,) + (0.9, 0.0) * 34 + (0.9,))


@pytest.mark.parametrize("T", range(1, 17))
def test_unit_sums_have_the_bits_of_sum(T):
    # one column sums pairwise, wider arms row by row: both as ``sum`` does
    rng = np.random.default_rng(T)
    y = rng.normal(0.3, 2.0, size=(200_000, T))
    for m in (0, 1, 2, 7, 100, 4097, 20_000, 200_000):
        arm = np.sort(rng.choice(len(y), size=m, replace=False))
        want = y.take(arm, axis=0).sum(axis=0)
        assert unit_sums(y.take(arm, axis=0)).tobytes() == want.tobytes()


class TestIdentify:
    def test_two_period_example(self):
        prof = identify(make_est(rf=(0.2, 0.1), fs=(0.5, 0.3)))
        assert prof.deltas == pytest.approx((0.4, 0.36), abs=1e-15)

    def test_two_period_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rf = tuple(rng.uniform(-1, 1, 2))
            fs = (rng.uniform(0.05, 0.9), rng.uniform(-0.9, 0.9))
            prof = identify(make_est(rf, fs))
            closed = rf[1] / fs[0] + ((fs[0] - fs[1]) / fs[0]) * (rf[0] / fs[0])
            assert prof.deltas[1] == pytest.approx(closed, abs=1e-12)

    def test_constant_profile_with_flat_first_stage(self):
        c, fs1 = 0.37, 0.5
        prof = identify(make_est(rf=(c * fs1,) * 3, fs=(fs1,) * 3))
        assert prof.deltas == pytest.approx((c, c, c), abs=1e-15)
        assert prof.rho == (0.0, 0.0)

    def test_population_homogeneous_recovery(self):
        profile = (1.0, 0.5, -0.25)
        spec = make_calendar_homogeneous(
            T=3, pz=0.5,
            history_probs={
                (1, NEVER): 0.2, (1, 2): 0.1, (1, 3): 0.1, (2, NEVER): 0.05,
                (NEVER, 2): 0.05, (3, 2): 0.05, (2, 3): 0.05, (NEVER, NEVER): 0.4,
            },
            baselines=(0.3, -0.2, 0.1),
            delta_profile=profile,
        )
        prof = identify(population_estimands(spec))
        assert prof.deltas == pytest.approx(profile, abs=1e-9)
        assert prof.residual < 1e-10

    def test_flat_unit_profile(self):
        spec = make_calendar_homogeneous(
            T=3, pz=0.5,
            history_probs={
                (1, NEVER): 0.25, (1, 2): 0.1, (2, NEVER): 0.1,
                (NEVER, 3): 0.05, (NEVER, NEVER): 0.5,
            },
            baselines=(0.0, 0.0, 0.0),
            delta_profile=(1.0, 1.0, 1.0),
        )
        prof = identify(population_estimands(spec))
        assert prof.deltas == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_relevance_failure(self):
        with pytest.raises(RelevanceFailure):
            identify(make_est(rf=(0.1,), fs=(0.0,)))
        with pytest.raises(RelevanceFailure):
            identify(make_est(rf=(0.1,), fs=(1e-13,), kind="population"))

    def test_small_first_stage_warns_but_estimates(self):
        prof = identify(make_est(rf=(0.001,), fs=(0.005,)))
        assert prof.deltas == pytest.approx((0.2,))
        assert prof.warnings

    @pytest.mark.parametrize("T", [1, 2, 3, 5, 8])
    def test_amplification_is_the_largest_row_sum_of_the_inverse(self, T):
        rng = np.random.default_rng(T)
        fs = rng.uniform(-1.0, 1.0, T)
        fs[0] = rng.uniform(0.05, 1.0)
        rho = fs[:-1] - fs[1:]
        P = np.diag(np.full(T, fs[0]))
        for t in range(T):
            for k in range(2, t + 2):
                P[t, t - k + 1] = -rho[k - 2]
        want = np.abs(np.linalg.inv(P)).sum(axis=1).max()
        assert amplification(fs) == pytest.approx(want, rel=1e-12)
        assert amplification([fs[0]]) == pytest.approx(1.0 / fs[0], rel=1e-15)
        assert amplification([0.0, *fs[1:]]) == math.inf

    def test_large_amplification_warns(self):
        # fs_1 = 0.1 against rho_2 = 1: row 2 of P^-1 sums to 1/0.1 + 1/0.01
        prof = identify(make_est(rf=(0.1, 0.2), fs=(0.1, -0.9)))
        assert amplification((0.1, -0.9)) > AMPLIFICATION_THRESHOLD
        assert prof.warnings == (
            "identification amplifies reduced-form errors up to 110-fold (largest row sum"
            " of |P^-1| > 100); identified effects may be unstable",
        )
        assert identify(make_est(rf=(0.1, 0.2), fs=(0.5, 0.4))).warnings == ()

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-0.01, max_value=0.01, exclude_min=True, exclude_max=True)
        .filter(lambda x: x != 0.0),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=0, max_size=7),
    )
    @example(0.009999999999999998, [])
    @example(-0.009999999999999998, [0.5])
    @example(5e-324, [1.0] * 7)
    @example(1.1125369292536007e-308, [0.0])
    def test_small_first_stage_always_gets_the_amplification_warning(self, fs1, rest):
        # row 1 of P^-1 is (1/fs_1, 0, ...), so the amplification is at
        # least 1/|fs_1| > 100: no small first stage escapes the one rule
        fs = (fs1, *rest)
        assert amplification(fs) > AMPLIFICATION_THRESHOLD
        assert len(amplification_warnings(fs)) == 1

    def test_assumption_echoed(self):
        prof = identify(make_est(rf=(0.2,), fs=(0.5,)))
        assert "calendar-homogeneity" in prof.assumes

    def test_overflowing_profile_is_refused(self):
        with pytest.raises(RelevanceFailure, match=r"\|fs_1\| = 1e-06 .* T = 70 "):
            identify(OVERFLOWING)


def test_target_columns_never_mark_a_non_finite_value_ok():
    finite = make_est(rf=(1.0,) * 70, fs=(0.5,) * 70)
    rows = (np.concatenate(pair) for pair in zip(_one_row(finite), _one_row(OVERFLOWING)))
    table = target_columns(*rows, ("estimands", "identify", "bounds"), -1, 1)
    for name, values, ok in table:
        assert ok.tolist() == np.isfinite(values).tolist(), name
    ok = {name: ok.tolist() for name, _, ok in table}
    assert ok["delta[0]"] == [True, True]
    assert ok["delta[69]"] == [True, False]


def test_target_blocks_group_kept_rows_in_report_order():
    # row 1 fails the screen; iv[1] overflows in row 3 and iv[2] divides by fs_2 = 0 in row 2
    rf = np.array([[1.0, 2.0], [9e9, 9e9], [3.0, 4.0], [1e308, 5.0]])
    fs = np.array([[0.5, 0.4], [9e9, 9e9], [0.5, 0.0], [0.5, 0.25]])
    sw = np.zeros((4, 1))
    keep = np.array([True, False, True, True])
    table = target_columns(rf, fs, sw, sw, ("estimands",), None, None)
    blocks = list(target_blocks((rf, fs, sw, sw), keep, ("estimands",), None, None))
    assert [positions for positions, _ in blocks] == [[0, 1, 3, 4], [2], [5]]
    kept = {"rf[1]": [0, 2, 3], "fs[1]": [0, 2, 3], "iv[1]": [0, 2],
            "rf[2]": [0, 2, 3], "fs[2]": [0, 2, 3], "iv[2]": [0, 3]}
    for positions, block in blocks:
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert 9e9 not in block
        for i, row in zip(positions, block, strict=True):
            name, values, _ = table[i]
            assert row.tolist() == values[kept[name]].tolist(), name


EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).smallest_subnormal


def normwise_error(computed, exact, scale, floor=0.0):
    """max |computed - exact|, less an absolute ``floor``, over max scale."""
    worst = max(abs(Fraction(c) - e) for c, e in zip(computed, exact, strict=True))
    worst = max(worst - Fraction(floor), 0)
    return 0.0 if worst == 0 else float(worst / max(scale))


# magnitudes below 1e-6 snap to 0, so no product underflows
_unit = st.floats(-1.0, 1.0).map(lambda v: 0.0 if abs(v) < 1e-6 else v)
_prob = st.floats(0.0, 1.0).map(lambda v: 0.0 if v < 1e-6 else v)
_effect = st.floats(-10.0, 10.0)


@st.composite
def recursion_inputs(draw):
    T = draw(st.integers(1, 30))
    fs1 = draw(st.floats(0.01, 1.0))
    fs = [fs1] + draw(st.lists(_unit, min_size=T - 1, max_size=T - 1))
    rf = draw(st.lists(_unit, min_size=T, max_size=T))
    sw = [draw(st.lists(_prob, min_size=T - 1, max_size=T - 1)) for _ in range(2)]
    lo, hi = sorted(draw(_effect) for _ in range(2))
    return rf, fs, sw[0], sw[1], lo, hi


@settings(max_examples=100, deadline=None)
@given(recursion_inputs())
@example(([0.0, 0.0], [0.5, 0.8], [0.0], [0.0], -1.0, -5e-324))  # fs gap * hi underflows
def test_row_kernels_match_exact_arithmetic(inputs):
    """identify_rows and every bound_rows method against a Fraction solve.

    At T up to 30 and fs_1 down to 0.01, the condition number of P reaches
    about 1e49, yet the rounding error stays within a few T eps of the
    scale of the terms summed. The bounds multiply lo, hi and hi - lo by
    first-stage gaps; such a product can underflow and lose up to half a
    subnormal step, which no relative tolerance covers, and the kernels
    may divide it by fs_1 next. So the bounds may also miss by a few
    subnormal steps over fs_1.
    """
    rf, fs, sw0, sw1, lo, hi = inputs
    T = len(rf)
    c = 4.0
    delta, scale = exact_identify(rf, fs)
    computed = identify_rows(np.array([rf]), np.array([fs]))[0].tolist()
    assert normwise_error(computed, delta, scale) <= c * T * EPS
    rows = [np.array([v]) for v in (rf, fs, sw0, sw1)]
    exact_args = [[Fraction(v) for v in a] for a in (rf, fs, sw0, sw1)]
    for method in selected_methods(lo, hi) if T > 1 else ():
        computed, exact, scale = [], [], []
        for t in range(2, T + 1):
            lower, upper = bound_rows(method, *rows, t, lo, hi)
            computed += [lower[0], upper[0]]
            for value, size in exact_bound(method, *exact_args, t, Fraction(lo), Fraction(hi)):
                exact.append(value)
                scale.append(size)
        floor = 4 * TINY / fs[0]
        assert normwise_error(computed, exact, scale, floor) <= c * T * EPS, method


def test_bound_report_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown bound method"):
        bound_report("general_unrestricted", make_est(rf=(0.3, 0.1), fs=(0.5, 0.3)), 2, -1, 1)


@pytest.mark.parametrize("t", [np.int64(2), np.int32(2)], ids=["int64", "int32"])
def test_numpy_integer_periods_are_periods(t):
    spec = make_three_history_spec()
    est = population_estimands(spec)
    assert (est.rf_at(t), est.fs_at(t), est.iv_at(t)) == (est.rf[1], est.fs[1], est.iv[1])
    bounds, parts = bound_report("general", est, t, -1.0, 1.0), decompose(spec, t)
    assert type(bounds.t) is type(parts.t) is int
    for doc in (bounds_to_dict(bounds), decomposition_to_dict(parts)):
        assert dumps(doc).startswith('{\n  "t": 2,\n')


@pytest.mark.parametrize("t", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_periods_that_are_not_integers_are_refused(t):
    spec = make_three_history_spec()
    est = population_estimands(spec)
    for call in (
        est.rf_at, est.fs_at, est.iv_at,
        lambda t: bound_report("general", est, t, -1.0, 1.0), lambda t: decompose(spec, t),
    ):
        with pytest.raises(PeriodOutOfRange):
            call(t)


class TestBoundsGeneral:
    def test_example(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3), sw0=(0.25,), sw1=(0.05,))
        rep = bounds_general(est, 2, -1.0, 1.0)
        assert rep.lower == pytest.approx(-0.4, abs=1e-15)
        assert rep.upper == pytest.approx(0.8, abs=1e-15)

    def test_no_switching_collapses_to_point(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.5), sw0=(0.0,), sw1=(0.0,))
        rep = bounds_general(est, 2, -1.0, 1.0)
        assert rep.lower == rep.upper == pytest.approx(0.2)

    def test_zero_bounds_collapse_to_point(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3), sw0=(0.25,), sw1=(0.05,))
        rep = bounds_general(est, 2, 0.0, 0.0)
        assert rep.lower == rep.upper == pytest.approx(0.2)

    def test_sign_restriction_enforced(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3))
        with pytest.raises(SignedBoundViolation):
            bounds_general(est, 2, 0.1, 1.0)
        with pytest.raises(SignedBoundViolation):
            bounds_general(est, 2, -1.0, -0.1)

    def test_period_and_relevance_errors(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3))
        with pytest.raises(PeriodOutOfRange):
            bounds_general(est, 1, -1.0, 1.0)
        with pytest.raises(PeriodOutOfRange):
            bounds_general(est, 3, -1.0, 1.0)
        bad = make_est(rf=(0.3, 0.1), fs=(-0.5, 0.3))
        with pytest.raises(RelevanceFailure):
            bounds_general(bad, 2, -1.0, 1.0)

    def test_bad_interval(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3))
        with pytest.raises(ValueError):
            bounds_general(est, 2, 1.0, -1.0)


class TestBoundsUnrestricted:
    def test_matches_general_when_signs_straddle_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            est = population_estimands(random_spec(rng))
            lo, hi = -rng.uniform(0, 3), rng.uniform(0, 3)
            for t in range(2, est.T + 1):
                a = bounds_general(est, t, lo, hi)
                b = bounds_general_unrestricted(est, t, lo, hi)
                assert b.lower == pytest.approx(a.lower, abs=1e-14)
                assert b.upper == pytest.approx(a.upper, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_general_is_the_unrestricted_kernel_bitwise(self, data):
        # on lo <= 0 <= hi every first-stage gap meets a zero bound, so the
        # two methods agree in every bit, the sign of a zero included
        T = data.draw(st.integers(2, 6))
        rows = data.draw(st.integers(1, 4))

        def matrix(elements, cols):
            row = st.lists(elements, min_size=cols, max_size=cols)
            return np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))

        value = st.one_of(st.sampled_from((0.0, -0.0, 0.25, 0.5)), st.floats(-1.0, 1.0))
        share = st.one_of(st.sampled_from((0.0, 0.5)), st.floats(0.0, 1.0))
        rf, fs = matrix(value, T), matrix(value, T)
        fs[:, 0] = data.draw(st.sampled_from((0.25, 0.5, 1.0)))
        if data.draw(st.booleans()):  # no switching at all
            sw0 = sw1 = np.zeros((rows, T - 1))
        else:
            sw0, sw1 = matrix(share, T - 1), matrix(share, T - 1)
        lo = data.draw(st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(-5.0, -1e-3)))
        hi = data.draw(st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(1e-3, 5.0)))
        for t in range(2, T + 1):
            general = bound_rows("general", rf, fs, sw0, sw1, t, lo, hi)
            unrestricted = bound_rows("unrestricted", rf, fs, sw0, sw1, t, lo, hi)
            for a, b in zip(general, unrestricted):
                assert a.tobytes() == b.tobytes()

    def test_general_is_the_unrestricted_kernel_on_signed_zeros(self):
        # every T = 2 row of signed-zero reduced forms, first stages on both
        # sides of fs_1 and zero or positive switching shares
        grid = np.array(list(itertools.product(
            (-0.0, 0.0, 0.3), (0.25, 0.5, 0.75), (0.0, 0.5), (0.0, 0.5)
        )))
        rf = np.column_stack([np.full(len(grid), 0.1), grid[:, 0]])
        fs = np.column_stack([np.full(len(grid), 0.5), grid[:, 1]])
        sw0, sw1 = grid[:, 2:3], grid[:, 3:4]
        for lo, hi in itertools.product((-0.0, 0.0, -1.0), (-0.0, 0.0, 1.0)):
            general = bound_rows("general", rf, fs, sw0, sw1, 2, lo, hi)
            unrestricted = bound_rows("unrestricted", rf, fs, sw0, sw1, 2, lo, hi)
            for a, b in zip(general, unrestricted):
                assert a.tobytes() == b.tobytes(), (lo, hi)

    def test_positive_lower_bound_example(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3), sw0=(0.25,), sw1=(0.05,))
        rep = bounds_general_unrestricted(est, 2, 0.1, 1.0)
        # 0.2 + 0.2*0.1/0.5 - 0.05*1/0.5
        assert rep.lower == pytest.approx(0.14, abs=1e-15)

    def test_known_constant_effect_collapses_one_sided(self):
        # all contaminating effects equal 0.8 and switching happens only
        # under z=0, so the interval degenerates to the true effect
        spec = DgpSpec(
            2, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.3, (0, 0), ((1.0,), (0.0, -0.4))),
                HistorySpec(P(1, 2), 0.2, (0, 0), ((1.0,), (0.8, -0.4))),
                HistorySpec(P(NEVER, NEVER), 0.5, (0, 0), ((0.0,), (0.0, 0.0))),
            ),
        )
        est = population_estimands(spec)
        rep = bounds_general_unrestricted(est, 2, 0.8, 0.8)
        truth = true_dynamic_lates(spec)[1]
        assert rep.lower == pytest.approx(rep.upper, abs=1e-14)
        assert rep.lower == pytest.approx(truth, abs=1e-12)

    def test_negative_upper_bound_uses_first_stage_gap(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3), sw0=(0.25,), sw1=(0.05,))
        rep = bounds_general_unrestricted(est, 2, -1.0, -0.2)
        # upper: 0.2 + max(0.2, 0)*(-0.2)/0.5 - 0.05*(-1)/0.5
        assert rep.upper == pytest.approx(0.2 - 0.08 + 0.1, abs=1e-15)
        # lower: 0.2 + 0.25*(-1)/0.5 - max(0.3-0.5, 0)*(-0.2)/0.5
        assert rep.lower == pytest.approx(0.2 - 0.5, abs=1e-15)


class TestBoundsTight:
    def test_example(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3))
        rep = bounds_tight(est, 2, -1.0, 1.0)
        assert rep.lower == pytest.approx(-0.2, abs=1e-15)
        assert rep.upper == pytest.approx(0.6, abs=1e-15)
        assert rep.assumes == ("cross-group-homogeneity",)

    def test_nonincreasing_first_stage_with_nonnegative_effects(self):
        est = make_est(rf=(0.3, 0.1, 0.05), fs=(0.5, 0.4, 0.3))
        rep = bounds_tight(est, 3, 0.0, 2.0)
        assert rep.lower == pytest.approx(est.rf_at(3) / 0.5, abs=1e-15)

    def test_tight_within_general(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            est = population_estimands(random_spec(rng))
            lo, hi = -rng.uniform(0, 3), rng.uniform(0, 3)
            for t in range(2, est.T + 1):
                a = bounds_general(est, t, lo, hi)
                b = bounds_tight(est, t, lo, hi)
                assert b.lower >= a.lower - 1e-12
                assert b.upper <= a.upper + 1e-12

    def test_sign_restriction_enforced(self):
        est = make_est(rf=(0.3, 0.1), fs=(0.5, 0.3))
        with pytest.raises(SignedBoundViolation):
            bounds_tight(est, 2, 0.5, 1.0)


class TestOutcomeRangeBounds:
    def test_spread(self):
        p = ingest("unit_id,period,z,d,y\nA,1,1,1,2.0\nB,1,0,0,-1.0\n")
        assert outcome_range_bounds(p) == (-3.0, 3.0)


class TestNegativeWeightDiagnostic:
    def test_decreasing_first_stage_guarantees(self):
        flags = negative_weight_diagnostic(make_est(rf=(0.0, 0.0), fs=(0.5, 0.3)))
        assert flags[0].status is NegativeWeightStatus.GUARANTEED
        assert flags[0].decreasing_k == 2

    def test_flat_path_is_only_possible(self):
        flags = negative_weight_diagnostic(
            make_est(rf=(0.0,) * 3, fs=(0.5, 0.5, 0.5))
        )
        assert all(f.status is NegativeWeightStatus.POSSIBLE for f in flags)

    def test_late_decrease(self):
        flags = negative_weight_diagnostic(
            make_est(rf=(0.0,) * 3, fs=(0.5, 0.6, 0.4))
        )
        assert flags[0].status is NegativeWeightStatus.POSSIBLE
        assert flags[1].status is NegativeWeightStatus.GUARANTEED
        assert flags[1].decreasing_k == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.0, -0.0, -0.1)), min_size=1, max_size=6))
    def test_matches_a_scan_per_period(self, fs):
        # paths with ties: equal neighbours never count as a decrease
        def reference(est):
            flags = []
            for t in range(2, est.T + 1):
                k_hit = next(
                    (k for k in range(2, t + 1) if est.fs[k - 1] < est.fs[k - 2]), None
                )
                status = (
                    NegativeWeightStatus.GUARANTEED
                    if k_hit is not None
                    else NegativeWeightStatus.POSSIBLE
                )
                flags.append((t, status, k_hit))
            return flags

        est = make_est(rf=(0.0,) * len(fs), fs=fs)
        got = [(f.t, f.status, f.decreasing_k) for f in negative_weight_diagnostic(est)]
        assert got == reference(est)

    def test_cross_check_with_population_decomposition(self):
        from dynlate.dgp import decompose

        spec = DgpSpec(
            3, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.3, (0,) * 3, ((1.0,), (0.5, 1.0), (0.2, 0.5, 1.0))),
                HistorySpec(P(1, 3), 0.2, (0,) * 3, ((1.0,), (0.5, 1.0), (0.7, 0.5, 1.0))),
                HistorySpec(P(2, NEVER), 0.1, (0,) * 3, ((0.0,), (0.5, 0.0), (0.2, 0.5, 0.0))),
                HistorySpec(P(NEVER, NEVER), 0.4, (0,) * 3, ((0.0,), (0.0, 0.0), (0.0, 0.0, 0.0))),
            ),
        )
        est = population_estimands(spec)
        assert est.fs == pytest.approx((0.5, 0.6, 0.4), abs=1e-15)
        flags = negative_weight_diagnostic(est)
        assert flags[0].status is NegativeWeightStatus.POSSIBLE
        assert flags[1].status is NegativeWeightStatus.GUARANTEED
        assert decompose(spec, 3).negative_terms  # confirmed by the oracle
