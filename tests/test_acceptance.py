"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the explicit PASS prints).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dynlate.dgp import (
    decompose,
    make_calendar_homogeneous,
    population_estimands,
    true_dynamic_lates,
)
from dynlate.estimators import (
    bounds_general,
    bounds_general_unrestricted,
    bounds_tight,
    identify,
)
from dynlate.inference import bootstrap
from dynlate.latent import NEVER, AdoptionPair
from dynlate.panel import ingest
from dynlate.simulate import draw_panel, monte_carlo

from conftest import DATA_DIR, make_three_history_spec
from reference import enumerate_histories, exact_contrasts, exact_identify
from randspec import (
    random_bounded_spec,
    random_homogeneous_spec,
    random_spec,
    static_compliance_spec,
)


def _done(num, name):
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_decomposition_identity():
    """Reconstructed rf_t and fs_t match the population oracle to 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for i in range(200):
        spec = random_spec(rng, T=2 + i % 5)
        est = population_estimands(spec)
        for t in range(2, spec.T + 1):
            rep = decompose(spec, t)
            assert abs(rep.reconstructed_rf - est.rf_at(t)) < 1e-10
            assert abs(rep.reconstructed_fs - est.fs_at(t)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"decomposition identity took {elapsed:.1f}s"
    _done(1, "decomposition identity")


def test_criterion_2_two_period_groups():
    """With two periods, exactly three switcher groups appear, signed (-, +, -)."""
    rng = np.random.default_rng(1002)
    pairs = enumerate_histories(2)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(len(pairs)))
        spec = make_calendar_homogeneous(
            T=2, pz=0.5,
            history_probs={p: float(probs[i]) for i, p in enumerate(pairs)},
            baselines=tuple(rng.uniform(-1, 1, 2)),
            delta_profile=tuple(rng.uniform(-2, 2, 2)),
        )
        rep = decompose(spec, 2)
        got = {(str(x.label), x.sign) for x in rep.terms}
        assert got == {("C1,AT2", -1), ("NT1,C2", 1), ("NT1,F2", -1)}
    _done(2, "two-period specialization")


def test_criterion_3_recursive_identification():
    """Population recovery to 1e-9 and in exact rationals; closed form to 1e-12;
    sample recovery at n=1e5."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for i in range(100):
        spec, profile = random_homogeneous_spec(rng, T=2 + i % 5)
        est = population_estimands(spec)
        prof = identify(est)
        assert prof.deltas == pytest.approx(profile, abs=1e-9)
        # exactly: the recursion of the exact rf and fs is the exact profile
        contrasts = [exact_contrasts(spec, t) for t in range(1, spec.T + 1)]
        rf, fs = ([sum(c[j] for c in per_t) for per_t in contrasts] for j in (0, 1))
        assert exact_identify(rf, fs)[0] == [Fraction(x) for x in profile]
        if spec.T == 2:
            closed = est.rf_at(2) / est.fs_at(1) + (
                (est.fs_at(1) - est.fs_at(2)) / est.fs_at(1)
            ) * (est.rf_at(1) / est.fs_at(1))
            assert abs(prof.deltas[1] - closed) < 1e-12

    spec, profile = random_homogeneous_spec(
        np.random.default_rng(77), T=3, noise_sd=0.5
    )
    summary = monte_carlo(spec, n=100_000, reps=50, seed=7, targets=("identify",))
    for tau in range(3):
        row = summary.row(f"delta[{tau}]")
        assert row.oracle == pytest.approx(profile[tau], abs=1e-9)
        assert abs(row.bias) <= 3 * row.sd / math.sqrt(row.n_ok), row
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identification criterion took {elapsed:.1f}s"
    _done(3, "recursive identification")


def test_criterion_4_per_period_iv_cases():
    """Static compliance: iv_t equals the dynamic effect exactly; exposure
    homogeneity across contaminating groups makes iv_2 the effect to 1e-12."""
    rng = np.random.default_rng(1004)
    for _ in range(50):
        spec = static_compliance_spec(rng)
        est = population_estimands(spec)
        lates = true_dynamic_lates(spec)
        for t in range(1, spec.T + 1):
            assert est.iv_at(t) == lates[t - 1]  # bit-exact

    P = AdoptionPair
    contaminating = {P(1, 2), P(2, NEVER), P(NEVER, 2)}
    for _ in range(50):
        spec = random_spec(rng, T=2)
        c1 = [h for h in spec.histories if h.pair.s1 == 1 and h.pair.s0 >= 2]
        target = math.fsum(h.prob * h.effect(2, 1) for h in c1) / spec.p_c1
        histories = []
        for h in spec.histories:
            if h.pair in contaminating:
                effects = (h.effects[0], (target, h.effects[1][1]))
                h = type(h)(h.pair, h.prob, h.baseline, effects)
            histories.append(h)
        spec = type(spec)(spec.T, spec.pz, tuple(histories), spec.noise_sd)
        est = population_estimands(spec)
        if est.iv_at(2) is not None:
            assert est.iv_at(2) == pytest.approx(target, abs=1e-12)
    _done(4, "per-period IV correctness")


def test_criterion_5_negative_weights():
    """A decreasing first stage forces a nonempty negative-weight report; the
    pinned fade-out DGP reverses the sign of rf_2 and iv_2."""
    rng = np.random.default_rng(1005)
    triggered = 0
    for _ in range(100):
        spec = random_spec(rng)
        est = population_estimands(spec)
        for t in range(2, spec.T + 1):
            if any(est.fs[k - 1] < est.fs[k - 2] for k in range(2, t + 1)):
                triggered += 1
                assert decompose(spec, t).negative_terms
    assert triggered >= 50  # the sweep actually exercised the condition

    spec = make_calendar_homogeneous(
        T=2, pz=0.5,
        history_probs={(1, NEVER): 0.25, (1, 2): 0.5, (NEVER, NEVER): 0.25},
        baselines=(0.0, 0.0),
        delta_profile=(-1.0, -0.1),
    )
    for h in spec.histories:
        assert all(e < 0 for row in h.effects for e in row)
    est = population_estimands(spec)
    assert est.rf_at(2) == pytest.approx(0.425, abs=1e-15)
    assert est.rf_at(2) > 0 and est.iv_at(2) > 0
    assert decompose(spec, 2).negative_terms
    prof = identify(est)
    assert prof.deltas[1] == pytest.approx(-0.1, abs=1e-12)
    _done(5, "negative weights and sign reversal")


def test_criterion_6_bounds_validity_and_ordering():
    """All bound methods bracket the truth on their own turf; tight nests in
    general; the unrestricted variant coincides when signs straddle zero."""
    rng = np.random.default_rng(1006)
    for i in range(200):
        lo = -float(rng.uniform(0.1, 3.0))
        hi = float(rng.uniform(0.1, 3.0))
        cross = i % 2 == 0
        spec = random_bounded_spec(rng, lo, hi, T=2 + i % 5, cross_group=cross)
        est = population_estimands(spec)
        lates = true_dynamic_lates(spec)
        for t in range(2, spec.T + 1):
            truth = lates[t - 1]
            gen = bounds_general(est, t, lo, hi)
            unr = bounds_general_unrestricted(est, t, lo, hi)
            tight = bounds_tight(est, t, lo, hi)
            assert gen.contains(truth, slack=1e-10), (t, truth, gen)
            assert unr.contains(truth, slack=1e-10)
            assert unr.lower == pytest.approx(gen.lower, abs=1e-12)
            assert unr.upper == pytest.approx(gen.upper, abs=1e-12)
            assert tight.lower >= gen.lower - 1e-10
            assert tight.upper <= gen.upper + 1e-10
            if cross:
                assert tight.contains(truth, slack=1e-10), (t, truth, tight)

    # no late one-sided switchers: first stages cannot rise, and the tight
    # interval reduces to the simple first-stage-gap form
    for i in range(50):
        lo = -float(rng.uniform(0.1, 3.0))
        hi = float(rng.uniform(0.1, 3.0))
        spec = random_bounded_spec(rng, lo, hi, T=2 + i % 5, remark2=True)
        est = population_estimands(spec)
        lates = true_dynamic_lates(spec)
        for t in range(2, spec.T + 1):
            assert est.fs_at(t) <= est.fs_at(t - 1) + 1e-15
            tight = bounds_tight(est, t, lo, hi)
            gap = (est.fs_at(1) - est.fs_at(t)) / est.fs_at(1)
            base = est.rf_at(t) / est.fs_at(1)
            assert tight.lower == pytest.approx(base + gap * lo, abs=1e-12)
            assert tight.upper == pytest.approx(base + gap * hi, abs=1e-12)
            assert tight.contains(lates[t - 1], slack=1e-10)
    _done(6, "bounds validity and ordering")


def test_criterion_7_bootstrap_coverage():
    """Nominal 95% intervals for the exposure-1 effect cover between 90% and
    98% of the time over 200 outer draws at n=5000, reps=500."""
    start = time.perf_counter()
    spec = make_calendar_homogeneous(
        T=2, pz=0.5,
        history_probs={
            (1, NEVER): 0.35, (1, 2): 0.15, (2, NEVER): 0.1,
            (NEVER, 2): 0.05, (NEVER, NEVER): 0.35,
        },
        baselines=(0.0, 0.0),
        delta_profile=(1.0, 0.5),
        noise_sd=1.0,
    )
    truth = 0.5
    hits = 0
    draws = 200
    for draw in range(draws):
        panel = draw_panel(spec, 5000, seed=draw)
        res = bootstrap(
            panel, reps=500, alpha=0.05, seed=10_000 + draw,
            targets=("estimands", "identify"),
        )
        tgt = res.target("delta[1]")
        hits += tgt.lower <= truth <= tgt.upper
    coverage = hits / draws
    elapsed = time.perf_counter() - start
    assert 0.90 <= coverage <= 0.98, f"coverage {coverage:.3f}"
    assert elapsed < 600.0, f"coverage study took {elapsed:.0f}s"
    _done(7, f"bootstrap coverage ({coverage:.3f} in {elapsed:.0f}s)")


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical outputs across thread counts and repeated runs."""
    spec = make_three_history_spec(noise_sd=0.4)
    assert draw_panel(spec, 400, seed=3) == draw_panel(spec, 400, seed=3)
    mc1 = monte_carlo(spec, n=250, reps=10, seed=5, threads=1)
    mc4 = monte_carlo(spec, n=250, reps=10, seed=5, threads=4)
    assert mc1 == mc4
    panel = draw_panel(spec, 400, seed=9)
    b1 = bootstrap(panel, reps=50, alpha=0.05, seed=2, threads=1)
    b4 = bootstrap(panel, reps=50, alpha=0.05, seed=2, threads=4)
    assert b1 == b4

    from dynlate.cli import main

    csv_path = str(DATA_DIR / "panel_small.csv")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["estimate", "--panel", csv_path, "--json", str(out1)]) == 0
    assert main(["estimate", "--panel", csv_path, "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    mca, mcb = tmp_path / "mca.json", tmp_path / "mcb.json"
    from dynlate.dgp import save_spec

    spec_path = tmp_path / "spec.json"
    save_spec(spec, str(spec_path))
    base = ["montecarlo", "--dgp", str(spec_path), "--n", "150", "--reps", "6",
            "--seed", "4"]
    assert main(base + ["--threads", "1", "--json", str(mca)]) == 0
    assert main(base + ["--threads", "3", "--json", str(mcb)]) == 0
    capsys.readouterr()
    assert mca.read_bytes() == mcb.read_bytes()
    _done(8, "determinism")
