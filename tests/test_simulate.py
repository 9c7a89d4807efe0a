"""Panel drawing and Monte Carlo orchestration."""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlate import inference, simulate
from dynlate.dgp import DgpSpec, HistorySpec, population_estimands
from dynlate.errors import DegenerateInstrument, DynlateError
from dynlate.estimators import (
    ALL_TARGETS,
    bound_report,
    estimate,
    identify,
    moment_estimands,
    selected_methods,
)
from dynlate.inference import bootstrap
from dynlate.latent import NEVER, AdoptionPair
from dynlate.panel import Panel
from dynlate.simulate import (
    MonteCarloSummary,
    TargetSummary,
    _arm_table,
    _draw_arrays,
    _draw_assignments,
    _usable_cores,
    draw_panel,
    monte_carlo,
    rep_rng,
)

from randspec import random_spec, static_compliance_spec

P = AdoptionPair


def three_history_spec(noise_sd=0.0):
    return DgpSpec(
        T=2,
        pz=0.5,
        histories=(
            HistorySpec(P(1, NEVER), 0.3, (0.0, 0.0), ((1.0,), (0.0, 2.0))),
            HistorySpec(P(1, 2), 0.1, (0.0, 0.0), ((1.0,), (1.5, 2.0))),
            HistorySpec(P(NEVER, NEVER), 0.6, (0.0, 0.0), ((0.0,), (0.0, 0.0))),
        ),
        noise_sd=noise_sd,
    )


def arm_outcome_variance(spec, t, z):
    """Population variance of the period-t outcome within one arm, by enumeration."""
    means = [h.mean_outcome(t, h.pair.adoption(z)) for h in spec.histories]
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

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 1001])
    def test_unit_ids_are_zero_padded_draw_indices(self, n):
        ids = draw_panel(three_history_spec(), n, seed=3).unit_ids
        width = len(str(n - 1))
        assert tuple(ids.tolist()) == tuple(f"u{i:0{width}d}" for i in range(n))

    def test_same_seed_same_panel(self):
        spec = three_history_spec(noise_sd=0.7)
        assert draw_panel(spec, 500, seed=42) == draw_panel(spec, 500, seed=42)
        assert draw_panel(spec, 500, seed=42) != draw_panel(spec, 500, seed=43)

    def test_history_shares(self):
        spec = three_history_spec()
        rng = np.random.default_rng(np.random.SeedSequence(123))
        n = 1_000_000
        hist, _ = _draw_assignments(spec, n, rng)
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

    def test_estimate_agrees_with_oracle_at_large_n(self):
        spec = three_history_spec()
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


class TestMonteCarlo:
    def test_summary_echoes_request_and_attaches_oracle(self):
        spec = three_history_spec(noise_sd=0.2)
        summary = monte_carlo(spec, n=400, reps=5, seed=7)
        assert summary.n == 400 and summary.reps == 5 and summary.seed == 7
        assert summary.row("rf[2]").oracle == pytest.approx(0.65)
        for row in summary.rows:
            assert row.n_ok + row.n_failed == 5

    def test_determinism_across_thread_counts(self):
        spec = three_history_spec(noise_sd=0.5)
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

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize(
        "case, n, reps, min_n",
        [("floor-lowered", 300, 13, 1), ("single-arm", 3, 60, 1), ("above-floor", 5000, 80, None)],
    )
    def test_threaded_replications_match_inline_bitwise(
        self, monkeypatch, threaded_pools, case, n, reps, min_n, threads
    ):
        if case == "single-arm":  # a rare arm: some replications fail
            spec = DgpSpec(
                T=1, pz=0.05,
                histories=(HistorySpec(P(1, NEVER), 1.0, (0.0,), ((1.0,),)),),
            )
        else:
            spec = three_history_spec(noise_sd=0.5)
        want, want_rows = mc_with_rows(monkeypatch, spec, n, reps, threads=1)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: 8)
        if min_n is None:
            assert n >= simulate._MC_MIN_N
            assert n * reps >= 4 * simulate._MC_MIN_UNITS
        else:
            monkeypatch.setattr(simulate, "_MC_MIN_N", min_n)
            monkeypatch.setattr(simulate, "_MC_MIN_UNITS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers switch often while they write rows of one array
        try:
            got, rows = mc_with_rows(monkeypatch, spec, n, reps, threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded_pools == ([] if threads == 1 else [threads])
        assert np.array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
        assert got == want
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
        monkeypatch.setattr(simulate, "_MC_MIN_N", 200)
        monkeypatch.setattr(simulate, "_MC_MIN_UNITS", 1000)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        spec = three_history_spec(noise_sd=0.5)
        got = monte_carlo(spec, n=n, reps=reps, seed=4, threads=threads)
        assert pool_sizes == ([workers] if workers > 1 else [])
        monkeypatch.undo()
        assert got == monte_carlo(spec, n=n, reps=reps, seed=4, threads=1)

    @pytest.mark.parametrize(
        "reps, threads, sizes", [(9, 4, [2, 2, 2, 3]), (7, 3, [2, 2, 3]), (8, 2, [4, 4])]
    )
    def test_every_worker_draws_a_balanced_range(self, monkeypatch, reps, threads, sizes):
        # Monte Carlo replications and bootstrap resamples share one dispatch
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
        monkeypatch.setattr(simulate, "_MC_MIN_N", 1)
        monkeypatch.setattr(simulate, "_MC_MIN_UNITS", 1)
        monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
        monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
        spec = three_history_spec(noise_sd=0.5)
        runs = [
            lambda: monte_carlo(spec, n=50, reps=reps, seed=4, threads=threads),
            lambda: inference._resample_moments(draw_panel(spec, 50, 4), reps, 4, threads),
        ]
        for run in runs:
            ranges.clear()
            run()
            assert [stop - start for start, stop in ranges] == sizes
            assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
            assert (ranges[0][0], ranges[-1][1]) == (0, reps)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            monte_carlo(three_history_spec(), n=n, reps=2, seed=1)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_nonpositive_threads(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            monte_carlo(three_history_spec(), n=50, reps=2, seed=1, threads=threads)

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo(three_history_spec(), n=50, reps=2, seed=1, targets=())

    @pytest.mark.parametrize("pz", [0.0, 1.0])
    def test_rejects_single_arm_spec(self, pz):
        spec = dataclasses.replace(three_history_spec(), pz=pz)
        with pytest.raises(DegenerateInstrument) as err:
            monte_carlo(spec, n=50, reps=2, seed=1)
        assert err.value.code == "E_DEGENERATE"


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


def where_draw(spec, n, rng):
    """Reference draw: one table per arm, both gathered for every unit, picked by np.where."""
    hist, z = _draw_assignments(spec, n, rng)
    noise = rng.normal(0.0, spec.noise_sd, size=(n, spec.T))
    d_arm, mean_arm = [], []
    for arm in (0, 1):
        adopt = [h.pair.adoption(arm) for h in spec.histories]
        d_arm.append(np.array(
            [[1 if a <= t else 0 for t in range(1, spec.T + 1)] for a in adopt], dtype=np.int8
        ))
        mean_arm.append(np.array(
            [[h.mean_outcome(t, a) for t in range(1, spec.T + 1)]
             for h, a in zip(spec.histories, adopt)],
            dtype=np.float64,
        ))
    on = (z == 1)[:, None]
    d = np.where(on, d_arm[1][hist], d_arm[0][hist])
    y = np.where(on, mean_arm[1][hist], mean_arm[0][hist]) + noise
    return z, d, y


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=500),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.7, 1.0]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_draw_arrays_match_two_table_reference(T, n, pz, noise_sd, seed):
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(random_spec(rng, T=T, noise_sd=noise_sd), pz=pz)
    got = _draw_arrays(spec, n, rep_rng(seed, 0), _arm_table(spec))
    want = where_draw(spec, n, rep_rng(seed, 0))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype  # d stays int8
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _target_values(est, targets, lo, hi) -> dict[str, float]:
    """Every requested target the scalar estimators define for ``est``, in report order.

    The scalar reference of the target table: applied to the population
    estimands it is the oracle, applied to a sample's estimands it is one
    replication. A target the estimators reject (undefined IV, zero first
    stage) is left out.
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
    """Monte Carlo through a validated Panel and the scalar estimators per replication."""
    oracle = _target_values(population_estimands(spec), targets, lo, hi)
    results = []
    for r in range(reps):
        z, d, y = _draw_arrays(spec, n, rep_rng(seed, r), _arm_table(spec))
        try:
            est = estimate(Panel.from_arrays([f"u{i:03d}" for i in range(n)], z, d, y))
        except DynlateError:
            results.append({})
            continue
        results.append(_target_values(est, targets, lo, hi))
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
    # Tiny n leaves some replications with a single arm or a zero first
    # stage; lo > 0 and hi < 0 drop the sign-restricted bound methods.
    rng = np.random.default_rng(seed)
    spec = dataclasses.replace(random_spec(rng, T=T, noise_sd=0.5), pz=pz)
    lo, hi = lo8 / 8.0, (lo8 + width8) / 8.0
    targets = tuple(targets)
    got = monte_carlo(spec, n=n, reps=reps, seed=seed, targets=targets, lo=lo, hi=hi)
    assert got == reference_monte_carlo(spec, n, reps, seed, targets, lo, hi)
