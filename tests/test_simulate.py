"""Panel drawing and Monte Carlo orchestration."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynlate import inference, simulate
from dynlate.dgp import DgpSpec, HistorySpec, contaminating_effect_range, load_spec
from dynlate.dgp import population_estimands
from dynlate.errors import DegenerateInstrument, NonFiniteResult
from dynlate.estimators import ALL_TARGETS, arm_sums, estimate, moment_estimands, target_columns
from dynlate.inference import bootstrap
from dynlate.latent import NEVER, AdoptionPair
from dynlate.simulate import (
    _draw_arrays,
    _fill_rows,
    _histories,
    _usable_cores,
    draw_panel,
    monte_carlo,
    rep_rng,
)

from conftest import GOLDEN_DIR, make_three_history_spec, make_weak_long_spec
from randspec import all_pairs_spec, random_spec, static_compliance_spec, variant_spec
from reference import array_rows, cell_row, mean_outcome, reference_monte_carlo, where_draw

P = AdoptionPair


def arm_outcome_variance(spec, t, z):
    """Population variance of the period-t outcome within one arm, by enumeration."""
    means = [mean_outcome(h, t, h.pair.adoption(z)) for h in spec.histories]
    probs = [h.prob for h in spec.histories]
    m1 = sum(p * m for p, m in zip(probs, means))
    m2 = sum(p * m * m for p, m in zip(probs, means))
    return m2 - m1 * m1 + spec.noise_sd**2


class TestDrawPanel:
    def test_deterministic_single_history(self):
        spec = DgpSpec(
            T=2, pz=1.0,
            histories=(HistorySpec(P(1, NEVER), 1.0, (0.5, 0.25), ((1.0,), (0.0, 2.0))),),
        )
        panel = draw_panel(spec, 1, seed=0)
        assert panel.z.tolist() == [1]
        assert panel.d.tolist() == [[1, 1]]
        assert panel.y.tolist() == [[1.5, 2.25]]

    @pytest.mark.parametrize(
        "n", [1, 9, 10, 11, 99, 100, 999, 1001, 99_999, 100_000, 100_001]
    )
    def test_unit_ids_are_zero_padded_draw_indices(self, n):
        ids = draw_panel(make_three_history_spec(), n, seed=3).unit_ids
        width = len(str(n - 1))
        assert ids.dtype.kind == "U"
        assert tuple(ids.tolist()) == tuple(f"u{i:0{width}d}" for i in range(n))

    def test_same_seed_same_panel(self):
        spec = make_three_history_spec(noise_sd=0.7)
        assert draw_panel(spec, 500, seed=42) == draw_panel(spec, 500, seed=42)
        assert draw_panel(spec, 500, seed=42) != draw_panel(spec, 500, seed=43)

    def test_history_shares(self):
        spec = make_three_history_spec()
        rng = np.random.default_rng(np.random.SeedSequence(123))
        n = 1_000_000
        hist = _histories(rng.random(n), spec.cells.cdf)
        counts = np.bincount(hist, minlength=3) / n
        for share, p in zip(counts, (0.3, 0.1, 0.6)):
            assert abs(share - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_drawn_panels_validate(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = random_spec(rng, noise_sd=0.3)
            panel = draw_panel(spec, 200, seed=int(rng.integers(2**31)))
            assert panel.n == 200
            assert panel.T == spec.T
            assert panel.n_z1 > 0 and panel.n_z0 > 0  # overwhelmingly likely at pz=0.5

    @pytest.mark.parametrize("counted", [True, False])
    def test_histories_on_the_cdf_entries(self, monkeypatch, counted):
        # uniforms on, just below and just above every entry, zero
        # probabilities among them; counted and binary-searched alike
        monkeypatch.setattr(simulate, "_COUNT_MAX_HISTORIES", 64 if counted else 0)
        cdf = np.array([0.25, 0.0, 0.125, 0.0, 0.5, 0.125]).cumsum()
        cdf /= cdf[-1]
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0]])
        u = u[u < 1.0]
        assert _histories(u, cdf).tolist() == cdf.searchsorted(u, side="right").tolist()

    def test_noise_past_the_float_range_is_refused(self):
        spec = dataclasses.replace(make_three_history_spec(), noise_sd=1e308)
        with pytest.raises(NonFiniteResult, match=r"noise_sd = 1e\+308 is too large") as err:
            draw_panel(spec, 50, seed=1)
        assert err.value.code == "E_NONFINITE"

    def test_estimate_agrees_with_oracle_at_large_n(self):
        spec = make_three_history_spec()
        pop = population_estimands(spec)
        n = 200_000
        panel = draw_panel(spec, n, seed=2024)
        est = estimate(panel)
        # 3 standard errors from enumerated arm variances at roughly n/2 per arm
        for t in (1, 2):
            se_rf = math.sqrt(
                arm_outcome_variance(spec, t, 1) / est.n_z1
                + arm_outcome_variance(spec, t, 0) / est.n_z0
            )
            assert abs(est.rf_at(t) - pop.rf_at(t)) < 3 * se_rf
        # first stage: binomial arm variances
        for t in (1, 2):
            p1 = sum(h.prob for h in spec.histories if h.pair.s1 <= t)
            p0 = sum(h.prob for h in spec.histories if h.pair.s0 <= t)
            se_fs = math.sqrt(
                p1 * (1 - p1) / est.n_z1 + p0 * (1 - p0) / est.n_z0
            )
            assert abs(est.fs_at(t) - pop.fs_at(t)) < 3 * se_fs
        assert abs(est.rf_at(2) - 0.65) < 3 * 0.0035
        assert abs(est.fs_at(2) - 0.3) < 3 * 0.0021


def mc_with_rows(monkeypatch, spec, n, reps, threads):
    """A ``monte_carlo`` summary and the stacked moment rows it was read from."""
    seen = []

    def recording(M):
        seen.append(M.copy())
        return moment_estimands(M)

    with monkeypatch.context() as m:
        m.setattr(simulate, "moment_estimands", recording)
        summary = monte_carlo(spec, n=n, reps=reps, seed=8, threads=threads)
    return summary, seen[0]


def test_usable_cores_counts_the_affinity_set(monkeypatch):
    # ``taskset -c 0`` on a 2-CPU machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _usable_cores() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cores() == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_fill_rows_writes_row_r_from_its_stream(monkeypatch, threaded_pools, threads):
    # a ceiling of one worker per row, so two threads split the 7 rows
    # between two workers, each calling the one writer
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
    written = []

    def write(rng, out):
        written.append(out)
        out[:] = rng.random(len(out))

    width, reps, seed = 5, 7, 11
    M = _fill_rows(write, width, reps, seed, threads, max_workers=reps)
    assert threaded_pools == ([2] if threads == 2 else [])
    assert len(written) == reps
    assert all(out.base is M for out in written)
    want = np.array([rep_rng(seed, r).random(width) for r in range(reps)])
    assert M.shape == (reps, width) and M.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="threads must be an integer >= 1, got 0"):
        _fill_rows(write, width, reps, seed, 0, reps)


@pytest.mark.parametrize("cast", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_run_sizes(cast):
    spec = make_three_history_spec(noise_sd=0.5)
    assert draw_panel(spec, cast(50), seed=3) == draw_panel(spec, 50, seed=3)
    got = monte_carlo(spec, n=cast(50), reps=cast(3), seed=4, threads=cast(2))
    assert got == monte_carlo(spec, n=50, reps=3, seed=4)
    assert type(got.n) is type(got.reps) is type(got.rows[0].n_failed) is int


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_run_sizes_that_are_not_integers_are_refused(value):
    spec = make_three_history_spec()
    with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {value!r}$"):
        draw_panel(spec, value, seed=3)
    for name, kwargs in (
        ("n", dict(n=value, reps=2)), ("reps", dict(n=50, reps=value)),
        ("threads", dict(n=50, reps=2, threads=value)),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
            monte_carlo(spec, seed=1, **kwargs)


class TestMonteCarlo:
    def test_summary_echoes_request_and_attaches_oracle(self):
        spec = make_three_history_spec(noise_sd=0.2)
        summary = monte_carlo(spec, n=400, reps=5, seed=7)
        assert summary.n == 400 and summary.reps == 5 and summary.seed == 7
        assert summary.row("rf[2]").oracle == pytest.approx(0.65)
        for row in summary.rows:
            assert row.n_ok + row.n_failed == 5

    def test_determinism_across_thread_counts(self):
        spec = make_three_history_spec(noise_sd=0.5)
        a = monte_carlo(spec, n=300, reps=12, seed=99, threads=1)
        b = monte_carlo(spec, n=300, reps=12, seed=99, threads=4)
        assert a == b

    def test_bias_shrinks_and_mcse_scales_with_reps(self):
        rng = np.random.default_rng(55)
        spec = static_compliance_spec(rng, T=2)
        small = monte_carlo(spec, n=250, reps=100, seed=11, targets=("estimands",))
        large = monte_carlo(spec, n=250, reps=400, seed=11, targets=("estimands",))
        name = "iv[2]"
        # Monte Carlo standard error of the mean scales like 1/sqrt(reps)
        mcse_small = small.row(name).sd / math.sqrt(small.row(name).n_ok)
        mcse_large = large.row(name).sd / math.sqrt(large.row(name).n_ok)
        assert 1.6 <= mcse_small / mcse_large <= 2.4
        assert abs(large.row(name).bias) < 4 * mcse_large

    def test_iv_and_delta_are_root_n_consistent(self):
        # sd * sqrt(n) of every iv and delta target holds within 15% from
        # n = 1e3 to 1e7, and at 1e7 the bias is within 4 standard errors
        spec = load_spec(GOLDEN_DIR / "spec_t4_six_history.json")
        reps, sizes = 2000, (10**3, 10**5, 10**7)
        runs = [monte_carlo(spec, n=n, reps=reps, seed=5, targets=("estimands", "identify"))
                for n in sizes]
        names = [r.name for r in runs[0].rows if r.name.startswith(("iv", "delta"))]
        assert len(names) == 8
        for name in names:
            scaled = [run.row(name).sd * math.sqrt(n) for run, n in zip(runs, sizes)]
            assert max(scaled) <= 1.15 * min(scaled), (name, scaled)
            row = runs[-1].row(name)
            assert row.n_ok == reps
            assert abs(row.bias) <= 4 * row.sd / math.sqrt(reps), (name, row)

    def test_identify_target_tracks_profile(self):
        from randspec import random_homogeneous_spec

        rng = np.random.default_rng(60)
        spec, profile = random_homogeneous_spec(rng, T=3, noise_sd=0.2)
        summary = monte_carlo(spec, n=4000, reps=40, seed=21, targets=("identify",))
        for tau in range(3):
            row = summary.row(f"delta[{tau}]")
            assert row.oracle == pytest.approx(profile[tau], abs=1e-9)
            assert abs(row.bias) < 4 * row.sd / math.sqrt(row.n_ok)

    def test_sign_reversal_spec(self):
        # effects all negative, but fast fade-out makes the period-2
        # reduced form (and IV) positive; the recursion still recovers
        # the negative exposure-1 effect
        from dynlate.dgp import make_calendar_homogeneous

        spec = make_calendar_homogeneous(
            T=2, pz=0.5,
            history_probs={(1, NEVER): 0.25, (1, 2): 0.5, (NEVER, NEVER): 0.25},
            baselines=(0.0, 0.0),
            delta_profile=(-1.0, -0.1),
        )
        summary = monte_carlo(
            spec, n=2000, reps=30, seed=33, targets=("estimands", "identify")
        )
        assert summary.row("iv[2]").oracle > 0
        assert summary.row("iv[2]").mean > 0
        assert summary.row("delta[1]").oracle == pytest.approx(-0.1, abs=1e-12)
        assert summary.row("delta[1]").mean < 0

    def test_failed_replications_counted_not_fatal(self):
        # tiny n with a rare arm: some replications have a single-arm panel
        spec = DgpSpec(
            T=1, pz=0.05,
            histories=(HistorySpec(P(1, NEVER), 1.0, (0.0,), ((1.0,),)),),
        )
        summary = monte_carlo(spec, n=3, reps=60, seed=5, targets=("estimands",))
        row = summary.row("fs[1]")
        assert row.n_failed > 0
        assert row.n_ok + row.n_failed == 60

    def test_target_the_oracle_leaves_undefined_has_no_row(self):
        # fs_2 = 0.25 - 0.375 + 0.125 = 0: the oracle has no iv[2]
        P = AdoptionPair
        spec = DgpSpec(
            2, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.25, (0, 0), ((1.0,), (0.5, 1.0))),
                HistorySpec(P(NEVER, 2), 0.375, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(2, NEVER), 0.125, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(NEVER, NEVER), 0.25, (0, 0), ((0.0,), (0.0, 0.0))),
            ),
            noise_sd=1.0,
        )
        summary = monte_carlo(spec, n=200, reps=4, seed=3, targets=("estimands",))
        names = [row.name for row in summary.rows]
        assert "iv[2]" not in names
        assert {"rf[2]", "fs[2]", "iv[1]"} <= set(names)
        assert summary.row("fs[2]").oracle == 0.0
        with pytest.raises(KeyError):
            summary.row("iv[2]")

    def test_summary_that_overflows_is_undefined(self):
        # every kept delta is finite, but late ones lie about 1e155 apart and
        # more, so their squared deviations pass the float range
        summary = monte_carlo(make_weak_long_spec(200), n=500, reps=10, seed=1,
                              targets=("identify",))
        overflowed = [row for row in summary.rows if row.sd is None and row.n_ok >= 2]
        assert overflowed
        assert all(row.mean is not None for row in overflowed)
        for row in summary.rows:
            assert all(x is None or math.isfinite(x) for x in (row.mean, row.bias, row.sd))

    def test_arm_mean_in_range_whose_sum_is_not(self):
        # arm 1 holds every complier, y_1 = 1e308: two or more of them sum
        # past the float range, but their mean is in it, as estimate reads it
        spec = DgpSpec(1, 0.5, (HistorySpec(P(1, NEVER), 1.0, (0.0,), ((1e308,),)),))
        summary = monte_carlo(spec, n=4, reps=50, seed=3, targets=("estimands",))
        kept = summary.row("fs[1]").n_ok
        assert 0 < kept < 50
        for name in ("rf[1]", "iv[1]"):
            row = summary.row(name)
            # the mean of equal large values overflows in its sum
            assert (row.n_ok, row.mean, row.sd) == (kept, None, None)

    @pytest.mark.parametrize("case, n, reps", [("small", 300, 13), ("single-arm", 3, 60),
                                               ("large", 5000, 120)])
    def test_replications_run_inline(self, monkeypatch, threaded_pools, case, n, reps):
        # a cell row is a few tens of microseconds of work that holds the
        # interpreter lock: no thread count starts a pool, every count and
        # every rerun gives the same rows, and a longer run starts with them
        if case == "single-arm":  # a rare arm: some replications fail
            spec = DgpSpec(
                T=1, pz=0.05,
                histories=(HistorySpec(P(1, NEVER), 1.0, (0.0,), ((1.0,),)),),
            )
        else:
            spec = make_three_history_spec(noise_sd=0.5)
        want, want_rows = mc_with_rows(monkeypatch, spec, n, reps, threads=1)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        for threads in (1, 2, 4):
            got, rows = mc_with_rows(monkeypatch, spec, n, reps, threads)
            assert np.array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
            assert got == want
        _, longer = mc_with_rows(monkeypatch, spec, n, reps + 7, threads=2)
        assert np.array_equal(longer[:reps].view(np.uint64), want_rows.view(np.uint64))
        assert threaded_pools == []
        if case == "single-arm":
            assert 0 < got.row("fs[1]").n_failed < reps

    @pytest.mark.parametrize(
        "threads, reps, cores, n, workers",
        [
            (2, 10, 2, 200, 2),
            (4, 20, 2, 200, 2),  # one per core
            (8, 20, 8, 200, 4),  # one per 1000 unit draws
            (8, 3, 8, 2000, 3),  # one per replication
            (2, 9, 2, 200, 1),  # fewer than 2000 unit draws
            (2, 1, 8, 5000, 1),
            (2, 20, 2, 199, 1),  # below the sample-size floor
            (1, 20, 8, 200, 1),
            (8, 20, 1, 200, 1),
        ],
    )
    def test_replication_workers_capped(
        self, monkeypatch, pool_sizes, threads, reps, cores, n, workers
    ):
        # the rule caps the caller's ceiling, here one worker per 1000 unit
        # draws from 200 units per sample (as the bootstrap forms its own);
        # Monte Carlo passes no ceiling, so it starts no pool where the rule would
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        ceiling = reps * n // 1000 if n >= 200 else 1
        _fill_rows(lambda rng, out: None, 1, reps, 4, threads, ceiling)
        assert pool_sizes == ([workers] if workers > 1 else [])
        pool_sizes.clear()
        spec = make_three_history_spec(noise_sd=0.5)
        got = monte_carlo(spec, n=n, reps=reps, seed=4, threads=threads)
        assert pool_sizes == []
        monkeypatch.undo()
        assert got == monte_carlo(spec, n=n, reps=reps, seed=4, threads=1)

    @pytest.mark.parametrize(
        "reps, threads, sizes", [(9, 4, [2, 2, 2, 3]), (7, 3, [2, 2, 3]), (8, 2, [4, 4])]
    )
    def test_every_worker_draws_a_balanced_range(self, monkeypatch, reps, threads, sizes):
        # bootstrap resamples with the floors lowered: one dispatch of _fill_rows
        ranges = []

        class RangeRecorder:
            def __init__(self, max_workers):
                assert max_workers == threads

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, starts, stops):
                starts, stops = list(starts), list(stops)
                ranges.extend(zip(starts, stops))
                return map(fn, starts, stops)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RangeRecorder)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
        monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
        spec = make_three_history_spec(noise_sd=0.5)
        inference._resample_moments(draw_panel(spec, 50, 4), reps, 4, threads)
        assert [stop - start for start, stop in ranges] == sizes
        assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
        assert (ranges[0][0], ranges[-1][1]) == (0, reps)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            monte_carlo(make_three_history_spec(), n=n, reps=2, seed=1)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_nonpositive_threads(self, threads):
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            monte_carlo(make_three_history_spec(), n=50, reps=2, seed=1, threads=threads)

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo(make_three_history_spec(), n=50, reps=2, seed=1, targets=())

    @pytest.mark.parametrize("pz", [0.0, 1.0])
    def test_rejects_single_arm_spec(self, pz):
        spec = dataclasses.replace(make_three_history_spec(), pz=pz)
        with pytest.raises(DegenerateInstrument) as err:
            monte_carlo(spec, n=50, reps=2, seed=1)
        assert err.value.code == "E_DEGENERATE"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("T", [1, 2, 4, 8])
@pytest.mark.parametrize("n, reps, pz", [(40, 30, 0.03), (5000, 64, 0.5)])
def test_monte_carlo_rows_are_arm_sums_of_the_draws(
    monkeypatch, threaded_pools, n, reps, pz, T, threads
):
    # with the array rows in place of the cell rows, row r is arm_sums of
    # the units drawn from stream (8, r) at any thread count, and no pool
    # starts; non-dyadic y; at pz=0.03 about a third of the 40-unit
    # replications have no z=1 unit
    rng = np.random.default_rng(T)
    spec = dataclasses.replace(random_spec(rng, T=T, noise_sd=0.6), pz=pz)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
    monkeypatch.setattr(simulate, "_cell_rows", array_rows)
    _, rows = mc_with_rows(monkeypatch, spec, n, reps, threads)
    want = [arm_sums(*_draw_arrays(spec, n, rep_rng(8, r))) for r in range(reps)]
    assert rows.tobytes() == np.array(want).tobytes()
    assert threaded_pools == []
    if pz < 0.1:
        assert 0 < np.count_nonzero(rows[:, 0] == 0) < reps


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["random", "zero-probs", "all-pairs", "negative-zero"]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.03, 0.3, 0.5]),
    st.sampled_from([0.0, 0.7, 1.0]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example("all-pairs", 8, 300, 3, 0.5, 0.7, 1)
@example("negative-zero", 3, 1, 5, 0.03, 0.0, 2)
@example("random", 4, 2**53 + 1, 3, 0.5, 1.0, 3)
@example("all-pairs", 8, 10**17 + 1, 3, 0.3, 0.7, 4)
def test_monte_carlo_rows_are_cell_draws(variant, T, n, reps, pz, noise_sd, seed):
    # row r is built, cell by cell in Python, from row r of the counts and of
    # the normals of the two streams spawned from seed 8: the same counts,
    # the same normals and the same sums; past 2**53 units the counts stay
    # exact until each integer column is rounded once. Both draw row by row,
    # so a shorter run's rows are the first rows of a longer one
    rng = np.random.default_rng(seed)
    if variant == "all-pairs":
        T = 6 if T <= 4 else 8
    spec = dataclasses.replace(variant_spec(variant, T, noise_sd, rng), pz=pz)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, rows = mc_with_rows(monkeypatch, spec, n, reps, threads=1)
        _, first = mc_with_rows(monkeypatch, spec, n, (reps + 1) // 2, threads=1)
    shares = np.array([(1.0 - pz) * h.prob for h in spec.histories]
                      + [pz * h.prob for h in spec.histories])
    counts_rng, normals_rng = map(np.random.default_rng, np.random.SeedSequence(8).spawn(2))
    counts = counts_rng.multinomial(n, shares / shares.sum(), size=reps).tolist()
    normals = normals_rng.standard_normal((reps, 2 * spec.T)).tolist()
    want = np.array([cell_row(spec, c, z) for c, z in zip(counts, normals)])
    assert np.array_equal(rows, want)
    assert np.array_equal(first.view(np.uint64), rows[: len(first)].view(np.uint64))


def test_monte_carlo_rows_do_not_grow_with_cells_per_row():
    # all 73 histories at T = 8: the two draw arrays hold a replication's
    # 2H counts and its 2T normals, 162 values; Monte Carlo's peak stays
    # under those two arrays plus three (reps, 6T) arrays of rows, so no
    # (reps, 2H, T) temporary (19 MB here) is built. Only the estimands are
    # targeted, so the rows, not the target table, set the peak.
    spec = all_pairs_spec(np.random.default_rng(1), 8, 0.7)
    H, T, reps = len(spec.histories), spec.T, 2000
    assert H == 73
    monte_carlo(spec, n=50, reps=2, seed=1, targets=("estimands",))
    tracemalloc.start()
    try:
        monte_carlo(spec, n=10_000, reps=reps, seed=1, targets=("estimands",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws, rows = reps * (2 * H + 2 * T) * 8, reps * 6 * T * 8
    assert peak <= draws + 3 * rows


def kept_targets(spec, n, reps, seed, draw_rows):
    """Each target of ``ALL_TARGETS`` over the replications of the rows
    ``draw_rows(spec, n, reps, seed)`` that Monte Carlo keeps for it, by name."""
    lo, hi = contaminating_effect_range(spec)
    M = draw_rows(spec, n, reps, seed)
    both_arms, *moments = moment_estimands(M)
    return {name: values[ok & both_arms]
            for name, values, ok in target_columns(*moments, ALL_TARGETS, lo, hi)}


def sd_log_se(values):
    """Standard error of log(sample sd) from the sample kurtosis k: sqrt((k - 1) / 4m)."""
    dev = values - values.mean()
    kurtosis = np.mean(dev**4) / np.mean(dev**2) ** 2
    return math.sqrt((kurtosis - 1.0) / (4 * len(values)))


@pytest.mark.parametrize("case", ["six_history", *range(50)])
def test_cell_rows_have_the_law_of_drawn_units(case):
    # every target's mean and sd from cell rows against those of arm_sums of
    # drawn units, within 4.5 Monte Carlo standard errors; a ratio whose
    # denominator (fs_t for iv[t], fs_1 for delta and the bounds) has an sd
    # above 20% of its mean has tails too heavy for a sample sd, so its sd is
    # not compared
    if case == "six_history":
        spec, n, reps, seed = load_spec(GOLDEN_DIR / "spec_t4_six_history.json"), 1000, 2000, 1
    else:
        spec = random_spec(np.random.default_rng(500 + case), noise_sd=0.5)
        n, reps, seed = 2000, 300, 2 * case
    cell = kept_targets(spec, n, reps, seed, simulate._cell_rows)
    units = kept_targets(spec, n, reps, seed + 1, array_rows)
    for name, x in cell.items():
        y = units[name]
        se = math.sqrt(x.var(ddof=1) / len(x) + y.var(ddof=1) / len(y))
        assert abs(x.mean() - y.mean()) <= 4.5 * se, name
        if name.startswith(("rf", "fs")):
            fs = None
        else:
            fs = cell[f"fs[{name[3:-1]}]" if name.startswith("iv") else "fs[1]"]
        if fs is None or fs.std(ddof=1) <= 0.2 * abs(fs.mean()):
            log_ratio = math.log(x.std(ddof=1) / y.std(ddof=1))
            assert abs(log_ratio) <= 4.5 * math.hypot(sd_log_se(x), sd_log_se(y)), name


@pytest.mark.parametrize("case", ["six_history", "all_histories", *range(50)])
def test_expected_cell_row_reads_the_oracle(case):
    # the noise-free expected moment row of a study, built from its cell
    # table alone: cell shares (1 - pz) p_h and pz p_h times the integer
    # features, and each arm's shares times its halved cell means
    if isinstance(case, str):
        spec = load_spec(GOLDEN_DIR / f"spec_t4_{case}.json")
    else:
        spec = random_spec(np.random.default_rng(300 + case))
    table, H, T = spec.cells, len(spec.histories), spec.T
    probs = np.array([h.prob for h in spec.histories])
    shares = np.concatenate([(1.0 - spec.pz) * probs, spec.pz * probs])
    row = shares @ table.features
    row[2 : 2 + T] = shares[H:] @ table.mean[H:] / 2
    row[2 + T : 2 + 2 * T] = shares[:H] @ table.mean[:H] / 2
    both_arms, rf, fs, sw0, sw1 = moment_estimands(row[None])
    pop = population_estimands(spec)
    assert both_arms.tolist() == [True]
    for got, want in ((rf, pop.rf), (fs, pop.fs), (sw0, pop.switch_z0), (sw1, pop.switch_z1)):
        assert got.shape == (1, len(want))
        assert np.abs(got[0] - want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("T", [1, 2, 4])
def test_bootstrap_and_monte_carlo_report_targets_in_one_order(T):
    rng = np.random.default_rng(70 + T)
    spec = random_spec(rng, T=T, noise_sd=0.5)
    lo, hi = -1.0, 1.0
    summary = monte_carlo(spec, n=2000, reps=3, seed=3, lo=lo, hi=hi)
    res = bootstrap(draw_panel(spec, 2000, seed=4), reps=20, alpha=0.1, seed=5, lo=lo, hi=hi)
    names = [r.name for r in summary.rows]
    # every target defined: rf, fs, iv per period, T deltas, three bound methods
    assert len(names) == 3 * T + T + 3 * 2 * (T - 1)
    assert [t.name for t in res.targets] == names


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["random", "zero-probs", "all-pairs", "negative-zero"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=500),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.7, 1.0]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example("all-pairs", 3, 300, 0.5, 0.7, 1)
@example("all-pairs", 6, 300, 0.5, 0.7, 2)
@example("zero-probs", 4, 300, 0.5, 0.7, 3)
@example("negative-zero", 3, 300, 0.5, 0.0, 4)
def test_draw_arrays_match_two_table_reference(variant, T, n, pz, noise_sd, seed):
    rng = np.random.default_rng(seed)
    if variant == "all-pairs":
        T = 6 if T <= 3 else 8  # 43 histories counted, 73 searched
    spec = dataclasses.replace(variant_spec(variant, T, noise_sd, rng), pz=pz)
    if variant == "all-pairs":
        assert (len(spec.histories) > simulate._COUNT_MAX_HISTORIES) == (T == 8)
    got = _draw_arrays(spec, n, rep_rng(seed, 0))
    want = where_draw(spec, n, rep_rng(seed, 0))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype  # d stays int8
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=-16, max_value=16),
    st.integers(min_value=0, max_value=16),
    st.lists(st.sampled_from(ALL_TARGETS), min_size=1, max_size=3, unique=True),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_table_matches_scalar_reference(T, n, reps, pz, lo8, width8, targets, seed):
    # With the array rows substituted, the rows are those the reference
    # draws. Tiny n leaves some replications with a single arm or a zero
    # first stage; lo > 0 and hi < 0 drop the sign-restricted bound methods.
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(random_spec(rng, T=T, noise_sd=0.5), pz=pz)
    lo, hi = lo8 / 8.0, (lo8 + width8) / 8.0
    targets = tuple(targets)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(simulate, "_cell_rows", array_rows)
        got = monte_carlo(spec, n=n, reps=reps, seed=seed, targets=targets, lo=lo, hi=hi)
    assert got == reference_monte_carlo(spec, n, reps, seed, targets, lo, hi)
