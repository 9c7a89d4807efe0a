"""Bootstrap determinism, degenerate cases, and interval behaviour."""

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlate import inference, simulate
from dynlate.errors import AllReplicationsFailed
from dynlate.estimators import (
    ALL_TARGETS,
    bound_report,
    bound_rows,
    estimate,
    identify,
    identify_rows,
    moment_estimands,
    moment_features,
    selected_methods,
    target_columns,
)
from dynlate.inference import (
    _resample_moments,
    bootstrap,
    percentile_interval,
)
from dynlate.panel import Panel
from dynlate.simulate import draw_panel

from randspec import random_homogeneous_spec
from reference import concatenated_features, row_sum_key_moments


def clone_panel(n_per_arm=6, T=2):
    """Identical units within each arm; dyadic outcomes keep arithmetic exact."""
    ids, z, d, y = [], [], [], []
    for i in range(n_per_arm):
        ids.append(f"t{i}")
        z.append(1)
        d.append([1] * T)
        y.append([2.0 + 0.5 * t for t in range(T)])
    for i in range(n_per_arm):
        ids.append(f"c{i}")
        z.append(0)
        d.append([0] * T)
        y.append([0.5] * T)
    return Panel.from_arrays(ids, z, d, y)


class TestPercentileInterval:
    def test_linear_interpolation_rule(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        lo, hi = percentile_interval(values, 0.5)
        # positions 1 + 0.25*3 = 1.75 and 1 + 0.75*3 = 3.25 (1-indexed)
        assert lo == pytest.approx(1.75)
        assert hi == pytest.approx(3.25)

    def test_ends_beyond_the_float_range_are_finite(self):
        assert percentile_interval(np.array([-1e308, 1e308]), 0.05).tolist() == [
            -9.5e307, 9.5e307
        ]

    def test_overflowing_column_leaves_the_others_bitwise(self):
        block = np.array([[-1e308, 1.0], [1e308, 2.0]])
        want = np.quantile(block[:, 1], [0.025, 0.975], method="linear")
        got = percentile_interval(block.copy(), 0.05)
        assert got[:, 0].tolist() == [-9.5e307, 9.5e307]
        assert np.array_equal(got[:, 1].view(np.uint64), want.view(np.uint64))

    def test_finite_ends_keep_the_bits_of_numpy_linear(self):
        # halving and doubling are exact at these magnitudes, so each end
        # numpy's own "linear" quantile gives as finite keeps its bits
        rng = np.random.default_rng(12)
        for _ in range(3000):
            B, k, alpha = int(rng.integers(2, 601)), int(rng.integers(1, 5)), rng.uniform()
            while alpha == 0.0:
                alpha = rng.uniform()
            values = rng.choice([-1.0, 1.0], (B, k)) * 10.0 ** rng.uniform(-300, 307, (B, k))
            q = [alpha / 2.0, 1.0 - alpha / 2.0]
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.quantile(values, q, axis=0, method="linear")
            got = percentile_interval(values.copy(), alpha)
            finite = np.isfinite(want)
            assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


@pytest.mark.parametrize("T", [1, 2, 5])
def test_features_match_concatenated_reference_bitwise(T):
    rng = np.random.default_rng(40 + T)
    spec, _ = random_homogeneous_spec(rng, T=T, noise_sd=0.9)
    panel = draw_panel(spec, 700, seed=T)
    got, want = moment_features(panel.z, panel.d, panel.y), concatenated_features(panel)
    # a fresh row-major block, not a strided view, for the cell tables and
    # count products built on it
    assert got.flags.c_contiguous
    assert got.shape == want.shape == (700, 6 * T)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBootstrap:
    def test_identical_units_give_zero_width(self):
        res = bootstrap(clone_panel(), reps=50, alpha=0.05, seed=3)
        est = estimate(clone_panel())
        for t in (1, 2):
            tgt = res.target(f"rf[{t}]")
            assert tgt.lower == tgt.upper == tgt.point == est.rf_at(t)
        tgt = res.target("delta[0]")
        assert tgt.lower == tgt.upper == tgt.point

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(71)
        spec, _ = random_homogeneous_spec(rng, T=2, noise_sd=0.4)
        panel = draw_panel(spec, 300, seed=8)
        a = bootstrap(panel, reps=60, alpha=0.1, seed=5)
        b = bootstrap(panel, reps=60, alpha=0.1, seed=5)
        c = bootstrap(panel, reps=60, alpha=0.1, seed=5, threads=3)
        assert a == b == c
        d = bootstrap(panel, reps=60, alpha=0.1, seed=6)
        assert a != d

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=-24, max_value=24),
        st.integers(min_value=0, max_value=24),
        st.randoms(use_true_random=False),
    )
    def test_resample_kernel_matches_materialised_panel(self, T, n, lo8, width8, rnd):
        # Weighted kernel rows must equal the scalar estimators on the panel
        # that repeats unit i w_i times. Dyadic outcomes and integer weights
        # keep every moment exact, so a mismatch is a logic error (weights,
        # swapped switch arms, an off-by-one period), never rounding.
        rng = np.random.RandomState(rnd.randint(0, 2**31 - 1))
        z = rng.randint(0, 2, size=n)
        z[0], z[1] = 0, 1
        start = rng.randint(1, T + 2, size=n)  # T+1 means never treated
        d = (np.arange(1, T + 1)[None, :] >= start[:, None]).astype(np.int8)
        y = rng.randint(-40, 41, size=(n, T)) / 8.0
        panel = Panel.from_arrays([f"u{i:02d}" for i in range(n)], z, d, y)
        w = rng.randint(0, 4, size=n)
        w[0], w[1] = max(w[0], 1), max(w[1], 1)  # keep both arms
        rep = np.repeat(np.arange(n), w)
        resampled = Panel.from_arrays(
            [f"r{j:03d}" for j in range(rep.size)],
            panel.z[rep], panel.d[rep], panel.y[rep],
        )
        lo, hi = lo8 / 8.0, (lo8 + width8) / 8.0  # lo > 0 and hi < 0 included

        moments = w[None, :].astype(float) @ moment_features(panel.z, panel.d, panel.y)
        both_arms, rf, fs, sw0, sw1 = moment_estimands(moments)
        valid = both_arms & (fs[:, 0] != 0.0)
        est = estimate(resampled)
        assert rf[0] == pytest.approx(est.rf, rel=1e-12)
        assert fs[0] == pytest.approx(est.fs, rel=1e-12)
        assert sw0[0] == pytest.approx(est.switch_z0, rel=1e-12)
        assert sw1[0] == pytest.approx(est.switch_z1, rel=1e-12)
        assert valid[0] == (est.fs[0] != 0.0)
        if est.fs[0] != 0.0:
            deltas = identify_rows(rf, fs)[0]
            assert deltas == pytest.approx(identify(est).deltas, rel=1e-12)
        if est.fs[0] > 0.0:
            for method in selected_methods(lo, hi):
                for t in range(2, T + 1):
                    report = bound_report(method, est, t, lo, hi)
                    lower, upper = bound_rows(method, rf, fs, sw0, sw1, t, lo, hi)
                    assert (lower[0], upper[0]) == pytest.approx(
                        (report.lower, report.upper), rel=1e-12
                    )

    def test_include_tight_false_drops_only_tight_rows(self):
        rng = np.random.default_rng(74)
        spec, _ = random_homogeneous_spec(rng, T=3, noise_sd=0.5)
        panel = draw_panel(spec, 200, seed=30)
        full = bootstrap(panel, reps=40, alpha=0.1, seed=9)
        plain = bootstrap(panel, reps=40, alpha=0.1, seed=9, include_tight=False)
        assert any(t.name.startswith("tight_") for t in full.targets)
        kept = tuple(t for t in full.targets if not t.name.startswith("tight_"))
        assert plain.targets == kept

    def test_interval_ordering_and_counts(self):
        rng = np.random.default_rng(73)
        spec, _ = random_homogeneous_spec(rng, T=2, noise_sd=1.0)
        panel = draw_panel(spec, 200, seed=29)
        res = bootstrap(panel, reps=80, alpha=0.05, seed=1)
        for tgt in res.targets:
            assert tgt.lower <= tgt.upper
            assert tgt.n_ok + tgt.n_failed == 80

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(74)
        spec, _ = random_homogeneous_spec(rng, T=2, noise_sd=1.0)
        widths = {}
        for n in (2000, 20000):
            ws = []
            for draw in range(3):
                panel = draw_panel(spec, n, seed=100 + draw)
                res = bootstrap(panel, reps=120, alpha=0.05, seed=draw)
                tgt = res.target("delta[1]")
                ws.append(tgt.upper - tgt.lower)
            widths[n] = float(np.median(ws))
        assert widths[20000] < widths[2000]

    def test_failed_resamples_dropped_and_counted(self):
        # a single treated z=1 unit makes relevance fragile under resampling
        ids = [f"u{i}" for i in range(12)]
        z = [1] + [0] * 11
        d = [[1]] + [[0]] * 11
        y = [[1.0]] + [[0.0]] * 11
        panel = Panel.from_arrays(ids, z, d, y)
        res = bootstrap(
            panel, reps=200, alpha=0.05, seed=0, targets=("estimands", "identify")
        )
        assert 0 < res.n_failed_resamples < 200
        tgt = res.target("rf[1]")
        assert tgt.n_ok == 200 - res.n_failed_resamples

    def test_all_replications_failed(self):
        # no unit is ever treated, so fs_1 = 0 in every resample
        panel = Panel.from_arrays(
            ["a", "b"], [1, 0], [[0], [0]], [[1.0], [0.0]]
        )
        with pytest.raises(AllReplicationsFailed):
            bootstrap(panel, reps=10, alpha=0.05, seed=0)

    def test_undefined_point_iv_still_gets_interval(self):
        panel = Panel.from_arrays(
            ["a", "b", "c", "d"],
            [1, 1, 0, 0],
            [[1, 1], [0, 0], [1, 1], [0, 0]],  # fs_t = 0 in the full sample
            [[1.0, 2.0], [0.0, 0.5], [0.25, 0.5], [0.0, 0.0]],
        )
        res = bootstrap(panel, reps=100, alpha=0.1, seed=2, targets=("estimands",))
        tgt = res.target("iv[2]")
        assert tgt.point is None
        assert tgt.n_ok > 0

    def test_target_no_resample_defines_has_no_interval(self):
        # every unit is treated at t=2, so fs_2 = 0 in every resample; five
        # of twenty z=1 units are treated from t=1, so fs_1 > 0 in most
        z = [1] * 20 + [0] * 20
        d = [[1, 1]] * 5 + [[0, 1]] * 35
        y = [[0.25 * (i % 4), 0.5 * (i % 3)] for i in range(40)]
        panel = Panel.from_arrays([f"u{i:02d}" for i in range(40)], z, d, y)
        res = bootstrap(panel, reps=50, alpha=0.1, seed=4, targets=("estimands",))
        names = [x.name for x in res.targets]
        assert "iv[2]" not in names
        assert {"rf[2]", "fs[2]", "iv[1]"} <= set(names)
        assert res.target("fs[2]").lower == res.target("fs[2]").upper == 0.0
        with pytest.raises(KeyError):
            res.target("iv[2]")

    def test_parameter_validation(self):
        panel = clone_panel()
        with pytest.raises(ValueError):
            bootstrap(panel, reps=1, alpha=0.05, seed=0)
        with pytest.raises(ValueError):
            bootstrap(panel, reps=10, alpha=0.0, seed=0)
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            bootstrap(panel, reps=10, alpha=0.05, seed=0, threads=0)

    @pytest.mark.parametrize(
        "threads, reps, cores, min_units, workers",
        [
            pytest.param(64, 10, 2, 1, 2, id="64-10-2-2"),  # one per core
            pytest.param(64, 3, 8, 1, 3, id="64-3-8-3"),  # one per resample
            pytest.param(4, 10, 8, 1, 4, id="4-10-8-4"),
            pytest.param(64, 10, None, 1, None, id="64-10-None-None"),
            (8, 20, 8, 60, 4),  # one per 60 unit draws: 5 resamples of n=12
            (8, 10, 8, 60, 2),
            (2, 9, 2, 60, 1),  # fewer than 120 unit draws
            (2, 10, 2, 60, 2),
            (1, 20, 8, 60, 1),
        ],
    )
    def test_weight_fill_workers_capped(
        self, monkeypatch, pool_sizes, threads, reps, cores, min_units, workers
    ):
        monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
        monkeypatch.setattr(inference, "_FILL_MIN_UNITS", min_units)
        if cores is None:  # no affinity set and no CPU count: one worker
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        panel = clone_panel()
        res = bootstrap(panel, reps=reps, alpha=0.1, seed=3, threads=threads)
        assert pool_sizes == ([] if workers in (None, 1) else [workers])
        monkeypatch.undo()
        assert res == bootstrap(panel, reps=reps, alpha=0.1, seed=3, threads=1)

    @pytest.mark.parametrize("min_n, workers", [(12, 2), (13, 1)])
    def test_fill_pool_starts_at_its_panel_size_floor(
        self, monkeypatch, pool_sizes, min_n, workers
    ):
        monkeypatch.setattr(inference, "_FILL_MIN_N", min_n)
        monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        bootstrap(clone_panel(), reps=10, alpha=0.1, seed=3, threads=2)  # n = 12
        assert pool_sizes == ([workers] if workers > 1 else [])

    def test_bound_targets_drop_nonpositive_first_stage_rows(self):
        # a thin first-stage margin goes negative in some resamples; those
        # rows are only dropped for bound targets, matching the scalar
        # functions' positivity requirement
        ids = [f"u{i}" for i in range(12)]
        z = [1] * 6 + [0] * 6
        d = [[1, 1]] * 3 + [[0, 0]] * 3 + [[1, 1]] * 2 + [[0, 1]] * 4
        y = [[float(i), float(i) / 2] for i in range(12)]
        panel = Panel.from_arrays(ids, z, d, y)
        res = bootstrap(panel, reps=300, alpha=0.05, seed=11, lo=-1.0, hi=1.0)
        bound = res.target("general_lower[2]")
        plain = res.target("rf[2]")
        assert bound.n_failed > plain.n_failed
        assert bound.n_ok + bound.n_failed == 300

    def test_bound_targets_match_scalar_path_at_point(self):
        rng = np.random.default_rng(75)
        spec, _ = random_homogeneous_spec(rng, T=2, noise_sd=0.3)
        panel = draw_panel(spec, 150, seed=4)
        res = bootstrap(panel, reps=40, alpha=0.05, seed=9, lo=-2.0, hi=2.0)
        from dynlate.estimators import bounds_general

        rep = bounds_general(estimate(panel), 2, -2.0, 2.0)
        assert res.target("general_lower[2]").point == pytest.approx(rep.lower)
        assert res.target("general_upper[2]").point == pytest.approx(rep.upper)


def noisy_panel(n, T=4):
    """Non-dyadic outcomes, so a moment's last bits show its summation order."""
    spec, _ = random_homogeneous_spec(np.random.default_rng(80), T=T, noise_sd=0.9)
    return draw_panel(spec, n, seed=n)


def bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fill_rows", [64, 192, 512])
def test_resamples_independent_of_fill_height_and_threads(
    monkeypatch, threaded_pools, fill_rows, threads
):
    # fill_rows is the number of rows one call fills: a row depends only on
    # (panel, seed, r), so a shorter fill gives the first rows of a longer one
    panel = noisy_panel(999)
    moments = _resample_moments(panel, 600, 7, 1)
    res = bootstrap(panel, reps=600, alpha=0.1, seed=7)
    monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
    monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
    assert np.array_equal(bits(_resample_moments(panel, 600, 7, threads)), bits(moments))
    short = _resample_moments(panel, fill_rows, 7, threads)
    assert np.array_equal(bits(short), bits(moments[:fill_rows]))
    assert bootstrap(panel, reps=600, alpha=0.1, seed=7, threads=threads) == res
    assert threaded_pools == ([threads] * 3 if threads > 1 else [])


@pytest.mark.parametrize("n", [300, 999, 5000])
def test_first_resamples_of_a_longer_run_are_bitwise_equal(n):
    panel = noisy_panel(n)
    full = _resample_moments(panel, 150, 11, 2)
    for k in (2, 40, 64, 65, 129):
        assert np.array_equal(bits(_resample_moments(panel, k, 11, 1)), bits(full[:k]))


@pytest.mark.parametrize("threads", [2, 4])
def test_resamples_above_the_fill_floor_independent_of_threads(
    monkeypatch, threaded_pools, threads
):
    panel = noisy_panel(inference._FILL_MIN_N)
    want = _resample_moments(panel, 70, 13, 1)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
    monkeypatch.setattr(inference, "_FILL_MIN_UNITS", panel.n)  # one worker per resample
    assert np.array_equal(bits(_resample_moments(panel, 70, 13, threads)), bits(want))
    assert threaded_pools == [threads]


@pytest.mark.parametrize("cast", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_resample_counts(cast):
    panel = noisy_panel(300)
    got = bootstrap(panel, reps=cast(10), alpha=0.1, seed=3, threads=cast(2))
    assert got == bootstrap(panel, reps=10, alpha=0.1, seed=3)
    assert type(got.reps) is type(got.targets[0].n_failed) is int


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_resample_counts_that_are_not_integers_are_refused(value):
    panel = noisy_panel(300)
    with pytest.raises(ValueError, match=f"^reps must be an integer >= 2, got {value!r}$"):
        bootstrap(panel, reps=value, alpha=0.1, seed=3)
    with pytest.raises(ValueError, match=f"^threads must be an integer >= 1, got {value!r}$"):
        bootstrap(panel, reps=10, alpha=0.1, seed=3, threads=value)


class TwoUnitRng:
    """Stand-in for ``rep_rng``: draws only units 0 and 1, so counts reach about n/2."""

    def __init__(self, seed, r):
        self.rng = np.random.default_rng([seed, r])

    def integers(self, low, high, size):
        return self.rng.integers(low, 2, size=size)


def dyadic_panel(n):
    """Dyadic outcomes: every moment, hence every product row, is exact."""
    rng = np.random.default_rng(12)
    d = np.sort(rng.integers(0, 2, size=(n, 3)), axis=1)
    y = rng.integers(-40, 41, size=(n, 3)) / 8.0
    return Panel.from_arrays([f"u{i:03d}" for i in range(n)], np.arange(n) % 2, d, y)


def exact_moments(panel, rng_cls, seed, reps):
    """Moment rows from the full int64 count matrix, one product."""
    n = panel.n
    counts = np.array(
        [np.bincount(rng_cls(seed, r).integers(0, n, n), minlength=n) for r in range(reps)]
    )
    return counts, counts.astype(np.float64) @ moment_features(panel.z, panel.d, panel.y)


def force_fill_pool(monkeypatch):
    monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
    monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("reps", [1, 63, 64, 65, 130])
def test_resample_rows_exact_on_any_worker_split(monkeypatch, threaded_pools, reps, threads):
    # dyadic data: every row equals its count product bit for bit, whether
    # one row or 130 go inline or in one or two ranges to the pool
    panel = dyadic_panel(300)
    force_fill_pool(monkeypatch)
    _, want = exact_moments(panel, simulate.rep_rng, 6, reps)
    assert np.array_equal(_resample_moments(panel, reps, 6, threads), want)
    assert threaded_pools == ([threads] if threads > 1 and reps > 1 else [])


def test_fill_with_more_workers_than_cores(monkeypatch, threaded_pools):
    # every row holds counts above 255 while 8 workers, switching threads
    # often, fill their ranges of rows
    panel = dyadic_panel(600)
    counts, want = exact_moments(panel, TwoUnitRng, 9, 200)
    assert (counts.max(axis=1) > 255).all()
    monkeypatch.setattr(simulate, "rep_rng", TwoUnitRng)
    force_fill_pool(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _resample_moments(panel, 200, 9, 8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)
    assert threaded_pools == [8]


@pytest.mark.parametrize("T", [1, 4, 130])
def test_resample_rows_match_the_count_product(T):
    # integer columns are exact; y columns are count-weighted sums in cell
    # order, so they match the product up to rounding of sums of |terms|.
    # T=130 pins the cell key's widening of z: z * (T + 1) overflows int8;
    # the next test pins the key's own int16 range.
    rng = np.random.default_rng(T)
    start = rng.integers(1, T + 2, size=999)  # T+1 means never treated
    d = np.arange(1, T + 1) >= start[:, None]
    y = rng.normal(0.3, 0.9, size=(999, T))
    panel = Panel.from_arrays([f"u{i:03d}" for i in range(999)], np.arange(999) % 2, d, y)
    counts, want = exact_moments(panel, simulate.rep_rng, 5, 40)
    got = _resample_moments(panel, 40, 5, 1)
    ys = np.r_[2 : 2 + 2 * T]
    ints = np.setdiff1d(np.arange(6 * T), ys)
    assert np.array_equal(bits(got[:, ints]), bits(want[:, ints]))
    scale = counts @ np.abs(moment_features(panel.z, panel.d, panel.y)[:, ys])
    assert (np.abs(got[:, ys] - want[:, ys]) <= 1e-12 * scale).all()


@pytest.mark.parametrize("T", [16383, 16384])
def test_cell_key_at_its_dtype_range_matches_an_intp_key(monkeypatch, T):
    # the T=130 case above, at the key's own range: z * (T + 1) + (treated
    # periods) reaches 2T + 1, the int16 maximum 32767 at T=16383 and one
    # past it at T=16384, where the key falls back to intp
    rng = np.random.default_rng(T)
    start = rng.integers(1, T + 2, size=12)
    start[:4] = (1, 1, T + 1, T + 1)  # both arms' smallest and largest keys
    d = np.arange(1, T + 1) >= start[:, None]
    y = rng.normal(0.3, 0.9, size=(12, T))
    panel = Panel.from_arrays([f"u{i:02d}" for i in range(12)], np.arange(12) % 2, d, y)
    assert (panel.z.astype(np.intp) * (T + 1) + panel.d.sum(axis=1)).max() == 2 * T + 1
    got = _resample_moments(panel, 3, 5, 1)
    monkeypatch.setattr(inference, "_CELL_KEY_DTYPE", np.intp)
    assert np.array_equal(bits(got), bits(_resample_moments(panel, 3, 5, 1)))


@pytest.mark.parametrize("threads", [1, 2])
def test_counts_above_uint8_are_kept_exact(monkeypatch, threaded_pools, threads):
    reps = 70
    panel = dyadic_panel(600)
    counts, want = exact_moments(panel, TwoUnitRng, 4, reps)
    assert (counts.max(axis=1) > 255).all()
    monkeypatch.setattr(simulate, "rep_rng", TwoUnitRng)
    force_fill_pool(monkeypatch)
    assert np.array_equal(_resample_moments(panel, reps, 4, threads), want)
    assert threaded_pools == ([threads] if threads > 1 else [])


_SETUP_CASES = ["one_cell_arm", "none_treated_at_1", "drawn"]


@pytest.mark.parametrize(
    "case, T, threads",
    [pytest.param(case, 4, 1, id=case) for case in _SETUP_CASES]
    + [
        pytest.param(case, T, 2, id=f"{case}-T{T}-threads2")
        for T in (1, 12)
        for case in _SETUP_CASES
    ],
)
def test_cell_setup_matches_a_row_sum_key(monkeypatch, threaded_pools, case, T, threads):
    # empty cells leave gaps in the key: a whole arm in one cell, or no
    # unit treated at t=1 (no cell with every period treated)
    rng = np.random.default_rng(21)
    n = 400
    z = np.arange(n) % 2
    start = rng.integers(1, T + 2, size=n)  # T+1 means never treated
    if case == "one_cell_arm":
        start[z == 0] = 3
    elif case == "none_treated_at_1":
        start = np.maximum(start, 2)
    d = np.arange(1, T + 1) >= start[:, None]
    y = rng.normal(0.3, 0.9, size=(n, T))
    panel = Panel.from_arrays([f"u{i:03d}" for i in range(n)], z, d, y)
    if case == "drawn":
        panel = noisy_panel(n, T)
    if threads > 1:
        force_fill_pool(monkeypatch)
    got = _resample_moments(panel, 30, 8, threads)
    assert np.array_equal(bits(got), bits(row_sum_key_moments(panel, 30, 8)))
    assert threaded_pools == ([threads] if threads > 1 else [])


def mixed_mask_panel(T=260):
    """A bootstrap whose targets fall in many ok masks.

    fs_1 is one z=1 unit's share, so some resamples have fs_1 = 0 and every
    delta overflows from an exposure that depends on the resample; 19 z=1
    units treated from t=3 against 20 z=0 units from t=2 make fs_3 = 0 in
    a few resamples, where iv[3] alone is dropped.
    """
    start = [1] + [3] * 19 + [T + 1] * 4 + [2] * 20 + [T + 1] * 4
    d = np.arange(1, T + 1) >= np.array(start)[:, None]
    y = d + (np.arange(48)[:, None] * np.arange(T) % 7) / 7
    return Panel.from_arrays([f"u{i:02d}" for i in range(48)], [1] * 24 + [0] * 24, d, y)


def test_grouped_intervals_equal_one_call_per_target():
    panel = mixed_mask_panel()
    reps, alpha = 200, 0.1
    res = bootstrap(panel, reps=reps, alpha=alpha, seed=3)
    both_arms, rf, fs, sw0, sw1 = moment_estimands(_resample_moments(panel, reps, 3, 1))
    valid = both_arms & (fs[:, 0] != 0.0)
    columns = target_columns(rf, fs, sw0, sw1, ALL_TARGETS, res.lo, res.hi)
    masks = [ok & valid for _, _, ok in columns]
    assert len({m.tobytes() for m in masks}) >= 3
    assert 0 < np.count_nonzero(valid & (fs[:, 2] == 0.0)) < np.count_nonzero(valid)
    assert not all(np.isfinite(values[valid]).all() for _, values, _ in columns)
    want = [
        (name, *percentile_interval(values[ok], alpha), int(ok.sum()))
        for (name, values, _), ok in zip(columns, masks)
        if ok.any()
    ]
    got = [(t.name, t.lower, t.upper, t.n_ok) for t in res.targets]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[3] == w[3]
        assert np.array_equal(bits(np.array(g[1:3])), bits(np.array(w[1:3])))


def test_bootstrap_memory_does_not_grow_with_reps():
    panel = noisy_panel(20_000)
    peak = {}
    for reps in (600, 2000):
        tracemalloc.start()
        try:
            bootstrap(panel, reps=reps, alpha=0.1, seed=1)
            peak[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[2000] <= 1.25 * peak[600]


@pytest.mark.parametrize("threads", [1, 2])
def test_bootstrap_working_set_is_bounded_in_n_vectors(monkeypatch, threaded_pools, threads):
    # beyond the panel: one cell-ordered (T, n) copy of y, the rank, the
    # shared ones and two n-vectors per worker; 6 n-vectors cover the rank,
    # the ones, the estimate and the set-up's temporaries
    n, T = 20_000, 12
    panel = noisy_panel(n, T)
    force_fill_pool(monkeypatch)
    tracemalloc.start()
    try:
        bootstrap(panel, reps=100, alpha=0.1, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threaded_pools == ([threads] if threads > 1 else [])
    assert peak <= (T + 6 + 2 * threads) * n * 8
