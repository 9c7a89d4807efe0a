"""Population oracle: estimands, decomposition, homogeneity builders, spec files."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dynlate import dgp
from dynlate.dgp import (
    DgpSpec,
    HistorySpec,
    check_calendar_homogeneity,
    check_cross_group_homogeneity,
    contaminating_effect_range,
    decompose,
    load_spec,
    make_calendar_homogeneous,
    population_estimands,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    true_dynamic_lates,
)
from dynlate.errors import PeriodOutOfRange, SchemaMismatch, SpecValidationError
from dynlate.latent import C1, NEVER, AdoptionPair, GroupLabel

from conftest import GOLDEN_DIR, make_homogeneity_spec, make_three_history_spec
from randspec import (
    random_bounded_spec,
    random_homogeneous_spec,
    random_spec,
    static_compliance_spec,
    variant_spec,
)
from reference import (
    exact_contrasts,
    exact_terms,
    label_switcher_effects,
    mean_outcome,
    per_history_estimands,
)

P = AdoptionPair


def toml_text(doc: dict) -> str:
    """A spec document as TOML. No TOML writer is installed: JSON scalars and
    arrays are TOML values."""
    lines = [f"{k} = {json.dumps(v)}" for k, v in doc.items() if k != "histories"]
    for h in doc["histories"]:
        lines += ["", "[[histories]]", *(f"{k} = {json.dumps(v)}" for k, v in h.items())]
    return "\n".join(lines) + "\n"


class TestSpecValidation:
    def test_prob_sum_must_be_one(self):
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 0.5, (HistorySpec(P(1, 2), 0.5, (0, 0), ((0,), (0, 0))),))

    def test_no_first_period_defiers(self):
        with pytest.raises(SpecValidationError):
            DgpSpec(
                2, 0.5,
                (
                    HistorySpec(P(1, NEVER), 0.5, (0, 0), ((0,), (0, 0))),
                    HistorySpec(P(2, 1), 0.5, (0, 0), ((0,), (0, 0))),
                ),
            )

    def test_relevance_required(self):
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 0.5, (HistorySpec(P(NEVER, NEVER), 1.0, (0, 0), ((0,), (0, 0))),))

    def test_effects_must_be_triangular(self):
        with pytest.raises(SpecValidationError):
            HistorySpec(P(1, 2), 1.0, (0, 0), ((0, 0), (0, 0)))

    def test_duplicate_pair(self):
        h = HistorySpec(P(1, NEVER), 0.5, (0, 0), ((0,), (0, 0)))
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 0.5, (h, h))

    def test_adoption_beyond_horizon(self):
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 0.5, (HistorySpec(P(1, 3), 1.0, (0, 0), ((0,), (0, 0))),))

    def test_bad_pz_and_noise(self):
        h = HistorySpec(P(1, NEVER), 1.0, (0, 0), ((0,), (0, 0)))
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 1.5, (h,))
        with pytest.raises(SpecValidationError):
            DgpSpec(2, 0.5, (h,), noise_sd=-1.0)


class TestPopulationEstimands:
    def test_three_history_example(self):
        # by direct enumeration: E[Y2|z=1] = 0.3*2 + 0.1*2 = 0.8,
        # E[Y2|z=0] = 0.1*1.5 = 0.15, P(D2=1|z=1) = 0.4, P(D2=1|z=0) = 0.1
        est = population_estimands(make_three_history_spec())
        assert est.rf_at(2) == pytest.approx(0.65, abs=1e-15)
        assert est.fs_at(2) == pytest.approx(0.3, abs=1e-15)
        assert est.iv_at(2) == pytest.approx(13 / 6, rel=1e-14)
        assert est.rho[0] == pytest.approx(0.1, abs=1e-15)
        assert est.switch_z0[0] == pytest.approx(0.1, abs=1e-15)
        assert est.switch_z1[0] == 0.0
        assert est.fs_at(1) == pytest.approx(0.4, abs=1e-15)
        assert est.rf_at(1) == pytest.approx(0.4, abs=1e-15)

    def test_static_compliance_reduces_to_lead(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = static_compliance_spec(rng)
            est = population_estimands(spec)
            lates = true_dynamic_lates(spec)
            p = spec.p_c1
            for t in range(1, spec.T + 1):
                assert est.fs_at(t) == pytest.approx(p, abs=1e-14)
                assert est.rf_at(t) == pytest.approx(p * lates[t - 1], abs=1e-12)

    def test_rho_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            est = population_estimands(random_spec(rng))
            for t in range(2, est.T + 1):
                assert est.rho[t - 2] == est.fs_at(t - 1) - est.fs_at(t)
                assert est.switch_z0[t - 2] - est.switch_z1[t - 2] == pytest.approx(
                    est.fs_at(1) - est.fs_at(t), abs=1e-14
                )

    def test_p_c1_is_first_period_first_stage(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            spec = random_spec(rng)
            assert spec.p_c1.hex() == population_estimands(spec).fs[0].hex()

    def test_iv_undefined_when_fs_zero(self):
        # dyadic probabilities make fs_2 exactly zero
        spec = DgpSpec(
            2, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.25, (0, 0), ((1.0,), (0.5, 1.0))),
                HistorySpec(P(NEVER, 2), 0.375, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(2, NEVER), 0.125, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(NEVER, NEVER), 0.25, (0, 0), ((0.0,), (0.0, 0.0))),
            ),
        )
        est = population_estimands(spec)
        assert est.fs_at(2) == 0.0
        assert est.iv_at(2) is None
        assert est.iv_at(1) == pytest.approx(1.0)  # rf_1/fs_1 = 0.25/0.25


def hexes(values):
    return [float(v).hex() for v in values]


def assert_oracle_is_per_history(spec):
    est = population_estimands(spec)
    rf, fs, sw0, sw1 = per_history_estimands(spec)
    assert hexes(est.rf) == hexes(rf)
    assert hexes(est.fs) == hexes(fs)
    assert hexes(est.switch_z0) == hexes(sw0)
    assert hexes(est.switch_z1) == hexes(sw1)
    assert spec.p_c1.hex() == fs[0].hex()
    return rf, fs


@pytest.mark.parametrize("case", ["six_history", "all_histories"])
def test_golden_oracle_is_per_history_bitwise(case):
    spec = load_spec(GOLDEN_DIR / f"spec_t4_{case}.json")
    rf, fs = assert_oracle_is_per_history(spec)
    for t in range(2, spec.T + 1):
        rep = decompose(spec, t)
        assert (rep.rf_t.hex(), rep.fs_t.hex()) == (rf[t - 1].hex(), fs[t - 1].hex())


@pytest.mark.parametrize("T", range(1, 9))
@pytest.mark.parametrize("kind", ["random", "remark2", "zero-probs", "all-pairs", "negative-zero"])
def test_oracle_is_per_history_bitwise(kind, T):
    # 8 specs per case, 320 in all; an arm contrast of the cell means,
    # (b + e1) - (b + e0), is not bitwise e1 - e0, so the oracle's rf reads
    # the cells' effects
    rng = np.random.default_rng(1000 * T + len(kind))
    for _ in range(8):
        if kind == "remark2":
            spec = random_spec(rng, T=T, remark2=True)
        else:
            spec = variant_spec(kind, T, 0.0, rng)
        assert_oracle_is_per_history(spec)


U = 2.0**-53
"""Unit roundoff of float64."""


def test_decomposition_and_oracle_against_exact_rationals():
    # spec floats are dyadic, so Fraction gives rf_t, fs_t and each group
    # term exactly: the decomposition identity (criterion 1, at 1e-10 in
    # test_acceptance.py) holds with ==, and the float oracle's rf_t and
    # fs_t are within a few roundings of the exact values. The rf scale is
    # the summed magnitude of the per-history terms the oracle rounds; a
    # group term can be smaller than its members' (their effects cancel),
    # so it bounds no rounding error
    for seed in range(300):
        spec = random_spec(np.random.default_rng(seed))
        est = population_estimands(spec)
        for t in range(1, spec.T + 1):
            rf_terms, fs_terms = zip(*exact_contrasts(spec, t))
            rf, fs = sum(rf_terms), sum(fs_terms)
            terms = exact_terms(spec, t)
            assert sum(p for p, _ in terms) == fs
            assert sum(v for _, v in terms) == rf
            size = sum(abs(v) for v in rf_terms)
            assert abs(Fraction(est.rf[t - 1]) - rf) <= 4 * U * size, (seed, t)
            assert abs(Fraction(est.fs[t - 1]) - fs) <= U * abs(fs), (seed, t)


def test_cells_are_built_once_and_read_only():
    spec = make_three_history_spec()
    cells = spec.cells
    assert spec.cells is cells
    assert dataclasses.replace(spec).cells is not cells
    for name, column in vars(cells).items():
        with pytest.raises(ValueError, match="read-only"):
            column.flat[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cells.d = np.zeros_like(cells.d)


def test_groups_are_built_once_and_read_only():
    spec = make_three_history_spec()
    groups = spec.groups
    assert spec.groups is groups
    assert dataclasses.replace(spec).groups is not groups
    with pytest.raises(TypeError):
        groups[C1] = (+1, ())
    # C1 first, then the switch-period-2 group switching under z=0
    assert [(str(x), sign, [h.pair for h in members]) for x, (sign, members) in groups.items()] == [
        ("C1", +1, [P(1, NEVER), P(1, 2)]),
        ("C1,AT2", -1, [P(1, 2)]),
    ]
    # a label without an entry has no members and no group effect
    assert GroupLabel("NTC", 2) not in groups
    assert spec.group_effect(GroupLabel("NTC", 2), 2, 0) is None


def test_groups_skip_zero_probability_histories():
    spec = DgpSpec(3, 0.5, (
        HistorySpec(P(1, NEVER), 0.5, (0, 0, 0), ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0))),
        HistorySpec(P(3, NEVER), 0.0, (0, 0, 0), ((0.0,), (0.0, 0.0), (0.0, 0.0, 0.0))),
        HistorySpec(P(NEVER, 2), 0.25, (0, 0, 0), ((0.0,), (2.0, 0.0), (2.0, 2.0, 0.0))),
        HistorySpec(P(NEVER, NEVER), 0.25, (0, 0, 0), ((0.0,), (0.0, 0.0), (0.0, 0.0, 0.0))),
    ))
    assert [str(x) for x in spec.groups] == ["C1", "NT1,F2"]
    for t in (2, 3):
        assert [(str(x.label), x.sign) for x in decompose(spec, t).all_terms] == [
            ("C1", +1), ("NT1,F2", -1),
        ]


class TestTrueDynamicLates:
    def test_three_history_example(self):
        # (0.3*2 + 0.1*2) / 0.4 = 2 at t=2; (0.3*1 + 0.1*1) / 0.4 = 1 at t=1
        assert true_dynamic_lates(make_three_history_spec()) == pytest.approx((1.0, 2.0))

    def test_constant_effects(self):
        spec = make_calendar_homogeneous(
            T=3, pz=0.5,
            history_probs={(1, NEVER): 0.4, (NEVER, NEVER): 0.6},
            baselines=(0.0, 0.0, 0.0),
            delta_profile=(0.7, 0.7, 0.7),
        )
        assert true_dynamic_lates(spec) == pytest.approx((0.7, 0.7, 0.7))


class TestDecomposition:
    def test_three_history_example(self):
        rep = decompose(make_three_history_spec(), 2)
        assert rep.lead.probability == pytest.approx(0.4, abs=1e-15)
        assert rep.lead.effect == pytest.approx(2.0)
        assert rep.lead.signed_value == pytest.approx(0.8, abs=1e-15)
        assert len(rep.terms) == 1
        (term,) = rep.terms
        assert str(term.label) == "C1,AT2"
        assert term.sign == -1
        assert term.probability == pytest.approx(0.1)
        assert term.effect == pytest.approx(1.5)
        assert term.signed_value == pytest.approx(-0.15)
        assert rep.reconstructed_rf == pytest.approx(0.65, abs=1e-15)
        assert rep.reconstructed_rf == pytest.approx(rep.rf_t, abs=1e-15)

    def test_three_history_weights(self):
        rep = decompose(make_three_history_spec(), 2)
        assert rep.lead.weight == pytest.approx(4 / 3, rel=1e-14)
        assert rep.terms[0].weight == pytest.approx(-1 / 3, rel=1e-14)
        assert rep.lead.weight + rep.terms[0].weight == pytest.approx(1.0, abs=1e-14)

    def test_static_compliance_has_no_contamination(self):
        rng = np.random.default_rng(11)
        rep = decompose(static_compliance_spec(rng, T=4), 3)
        assert rep.terms == ()

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            spec = random_spec(rng)
            est = population_estimands(spec)
            for t in range(2, spec.T + 1):
                rep = decompose(spec, t)
                assert rep.reconstructed_rf == pytest.approx(est.rf_at(t), abs=1e-10)
                assert rep.reconstructed_fs == pytest.approx(est.fs_at(t), abs=1e-10)

    def test_weights_sum_to_one_when_defined(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            spec = random_spec(rng)
            for t in range(2, spec.T + 1):
                rep = decompose(spec, t)
                if rep.iv_defined:
                    total = math.fsum(x.weight for x in rep.all_terms)
                    assert total == pytest.approx(1.0, abs=1e-9)

    def test_exposure_matches_switch_period(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, T=5)
        rep = decompose(spec, 4)
        for term in rep.terms:
            assert term.exposure == 4 - term.switch_period

    def test_period_out_of_range(self):
        with pytest.raises(PeriodOutOfRange):
            decompose(make_three_history_spec(), 1)
        with pytest.raises(PeriodOutOfRange):
            decompose(make_three_history_spec(), 3)

    def test_telescoping_of_untreated_arm(self):
        # mean outcome under z=0 for compliers-at-1 equals the untreated
        # mean plus probability-weighted adoption effects, grouped by the
        # z=0 adoption period
        rng = np.random.default_rng(15)
        for _ in range(25):
            spec = random_spec(rng)
            c1 = [h for h in spec.histories if h.pair.s1 == 1 and h.pair.s0 >= 2]
            p = math.fsum(h.prob for h in c1)
            for t in range(2, spec.T + 1):
                direct = math.fsum(
                    h.prob * mean_outcome(h, t, h.pair.s0) for h in c1
                ) / p
                base = math.fsum(h.prob * h.baseline[t - 1] for h in c1) / p
                telescoped = base + math.fsum(
                    math.fsum(
                        h.prob * h.effect(t, t - k) for h in c1 if h.pair.s0 == k
                    ) / p
                    for k in range(2, t + 1)
                )
                assert direct == pytest.approx(telescoped, abs=1e-12)


class TestNegativeWeightReport:
    def test_three_history_example(self):
        rep = decompose(make_three_history_spec(), 2)
        assert rep.iv_defined
        assert [str(x.label) for x in rep.negative_terms] == ["C1,AT2"]

    def test_static_compliance_empty(self):
        rng = np.random.default_rng(21)
        rep = decompose(static_compliance_spec(rng, T=3), 2)
        assert rep.negative_terms == ()

    def test_negative_fs_flips_signs(self):
        spec = DgpSpec(
            2, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.1, (0, 0), ((1.0,), (0.5, 1.0))),
                HistorySpec(P(NEVER, 2), 0.6, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(2, NEVER), 0.2, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(NEVER, NEVER), 0.1, (0, 0), ((0.0,), (0.0, 0.0))),
            ),
        )
        est = population_estimands(spec)
        assert est.fs_at(2) < 0
        rep = decompose(spec, 2)
        flagged = {str(x.label) for x in rep.negative_terms}
        # groups entering positively in the reduced form flip to negative
        # weight when divided by a negative first stage
        assert "NT1,C2" in flagged
        assert "C1" in flagged
        assert "NT1,F2" not in flagged

    def test_fs_zero_reports_undefined_iv(self):
        spec = DgpSpec(
            2, 0.5,
            (
                HistorySpec(P(1, NEVER), 0.25, (0, 0), ((1.0,), (0.5, 1.0))),
                HistorySpec(P(NEVER, 2), 0.375, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(2, NEVER), 0.125, (0, 0), ((0.0,), (0.5, 0.0))),
                HistorySpec(P(NEVER, NEVER), 0.25, (0, 0), ((0.0,), (0.0, 0.0))),
            ),
        )
        rep = decompose(spec, 2)
        assert not rep.iv_defined
        # raw signed terms: the z=0 switcher group enters negatively
        assert "NT1,F2" in {str(x.label) for x in rep.negative_terms}


class TestCalendarHomogeneity:
    def test_builder_passes_checker(self):
        rng = np.random.default_rng(31)
        from randspec import random_homogeneous_spec

        for _ in range(10):
            spec, _ = random_homogeneous_spec(rng)
            assert check_calendar_homogeneity(spec)
            assert check_cross_group_homogeneity(spec)

    def test_generic_spec_fails_checker(self):
        rng = np.random.default_rng(32)
        assert not check_calendar_homogeneity(random_spec(rng, T=3))

    def test_zero_profile_kills_reduced_form(self):
        spec = make_calendar_homogeneous(
            T=3, pz=0.5,
            history_probs={
                (1, NEVER): 0.3, (1, 2): 0.2, (2, 3): 0.1,
                (NEVER, 2): 0.1, (NEVER, NEVER): 0.3,
            },
            baselines=(0.5, -0.5, 1.0),
            delta_profile=(0.0, 0.0, 0.0),
        )
        est = population_estimands(spec)
        assert est.rf == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_profile_recovered_as_true_lates(self):
        spec = make_calendar_homogeneous(
            T=2, pz=0.5,
            history_probs={(1, NEVER): 0.3, (1, 2): 0.2, (NEVER, NEVER): 0.5},
            baselines=(0.0, 0.0),
            delta_profile=(1.0, 0.5),
        )
        assert true_dynamic_lates(spec) == pytest.approx((1.0, 0.5))


class TestHomogeneitySwitcherBranches:
    def test_calendar_fails_on_a_switcher_alone(self):
        spec = make_homogeneity_spec(with_ntf2=False)
        # the complier branch passes: C1 reads 1.0 at exposure 0 in both periods
        assert spec.group_effect(C1, 1, 0) == spec.group_effect(C1, 2, 0) == 1.0
        assert spec.group_effect(GroupLabel("NTC", 2), 2, 0) == 5.0
        assert not check_calendar_homogeneity(spec)
        # one switcher group per (t, exposure): nothing to disagree with
        assert check_cross_group_homogeneity(spec)

    def test_cross_group_fails_on_two_switchers(self):
        spec = make_homogeneity_spec(with_ntf2=True)
        assert spec.group_effect(GroupLabel("NTF", 2), 2, 0) == pytest.approx(3.0)
        assert not check_cross_group_homogeneity(spec)
        assert not check_calendar_homogeneity(spec)


def with_switcher_effect_moved(spec, pair, t, tau):
    """``spec`` with history ``pair``'s effect at (t, tau) raised by 1."""
    histories = []
    for h in spec.histories:
        if h.pair == pair:
            rows = [list(row) for row in h.effects]
            rows[t - 1][tau] += 1.0
            h = dataclasses.replace(h, effects=rows)
        histories.append(h)
    return dataclasses.replace(spec, histories=tuple(histories))


def a_switcher_effect_moved(spec, rng):
    """``spec`` with one effect of a switcher group member raised, or None."""
    switchers = [(x, members) for x, (_, members) in spec.groups.items() if x.switch >= 2]
    if not switchers:
        return None
    label, members = switchers[rng.integers(len(switchers))]
    t = int(rng.integers(label.switch, spec.T + 1))
    return with_switcher_effect_moved(spec, members[0].pair, t, t - label.switch)


def t60_spec():
    """Five histories over 60 periods, switching at 2, 30 and 45; homogeneous."""
    return make_calendar_homogeneous(
        T=60, pz=0.5,
        history_probs={
            (1, NEVER): 0.3, (2, NEVER): 0.1, (30, NEVER): 0.1, (45, 2): 0.1, (NEVER, NEVER): 0.4,
        },
        baselines=(0.0,) * 60,
        delta_profile=tuple(0.1 * tau for tau in range(60)),
    )


def homogeneity_verdicts(spec):
    return check_calendar_homogeneity(spec), check_cross_group_homogeneity(spec)


def test_homogeneity_checks_match_a_label_enumeration(monkeypatch):
    rng = np.random.default_rng(41)
    specs = [t60_spec()]
    specs += [with_switcher_effect_moved(specs[0], P(30, NEVER), 40, 10)]
    specs += [with_switcher_effect_moved(specs[0], P(2, NEVER), 10, 8)]
    for T in range(2, 7):
        for _ in range(4):
            for spec in (
                random_spec(rng, T=T),
                random_homogeneous_spec(rng, T=T)[0],
                random_bounded_spec(rng, -1.0, 1.0, T=T, cross_group=True),
                variant_spec("all-pairs", T, 0.0, rng),
            ):
                specs += [spec, a_switcher_effect_moved(spec, rng) or spec]
    got = [homogeneity_verdicts(spec) for spec in specs]
    monkeypatch.setattr(dgp, "_switcher_effects", label_switcher_effects)
    assert got == [homogeneity_verdicts(spec) for spec in specs]
    # the T=60 spec holds; a moved lone switcher breaks calendar homogeneity
    # only, one of two groups switching at 2 breaks both
    assert got[:3] == [(True, True), (False, True), (False, False)]
    assert {(True, True), (False, True), (False, False)} <= set(got[3:])


class TestEffectRange:
    def test_static_compliance_is_degenerate(self):
        rng = np.random.default_rng(41)
        assert contaminating_effect_range(static_compliance_spec(rng)) == (0.0, 0.0)

    def test_three_history_example(self):
        # only the fast adopters contaminate, at exposure 0 with effect 1.5
        assert contaminating_effect_range(make_three_history_spec()) == (0.0, 1.5)

    @pytest.mark.parametrize("kind", ["random", "zero-probs", "all-pairs", "negative-zero"])
    def test_matches_per_history_scan(self, kind):
        # every (t, exposure) entry of a positive-probability history that
        # switches into treatment at s >= 2 in one arm and not at s in the other
        rng = np.random.default_rng(len(kind))
        for T in range(1, 9):
            spec = variant_spec(kind, T, 0.0, rng)
            values = [0.0]
            for h in spec.histories:
                if h.prob > 0.0 and h.pair.s1 != h.pair.s0:
                    for s in (h.pair.s1, h.pair.s0):
                        if 2 <= s <= T:
                            values += [h.effect(t, t - int(s)) for t in range(int(s), T + 1)]
            got = contaminating_effect_range(spec)
            assert hexes(got) == hexes((min(values), max(values)))
            assert [type(x) for x in got] == [float, float]


class TestSpecFiles:
    def test_dict_round_trip(self):
        spec = make_three_history_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_json_round_trip(self, tmp_path):
        spec = make_three_history_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, str(path))
        assert load_spec(str(path)) == spec

    def test_yaml_round_trip(self, tmp_path):
        import yaml

        spec = make_three_history_spec()
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec_to_dict(spec)))
        assert load_spec(str(path)) == spec

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_toml_round_trip(self, tmp_path, seed):
        if seed is None:
            spec = make_three_history_spec()
        else:
            spec = random_spec(np.random.default_rng(seed), noise_sd=0.7)
        path = tmp_path / "spec.toml"
        path.write_text(toml_text(spec_to_dict(spec)))
        assert load_spec(str(path)) == spec

    @pytest.mark.parametrize("name", ["spec.json", "spec.yaml", "spec.toml"])
    def test_byte_order_mark_is_ignored(self, tmp_path, name):
        spec = make_three_history_spec()
        doc = spec_to_dict(spec)
        if name.endswith(".json"):
            text = json.dumps(doc)
        elif name.endswith(".yaml"):
            import yaml

            text = yaml.safe_dump(doc)
        else:
            text = toml_text(doc)
        plain, bom = tmp_path / name, tmp_path / f"bom_{name}"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_spec(str(bom)) == load_spec(str(plain)) == spec

    def test_second_byte_order_mark_is_text(self, tmp_path):
        path = tmp_path / "spec.json"
        text = json.dumps(spec_to_dict(make_three_history_spec()))
        path.write_bytes(b"\xef\xbb\xbf" * 2 + text.encode())
        with pytest.raises(SchemaMismatch, match="invalid JSON"):
            load_spec(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("schema_version", True),
            ("schema_version", 1.0),
            ("T", 4.5),
            ("T", "2"),
            ("T", True),
            ("T", None),
            ("pz", True),
            ("pz", "0.5"),
            ("pz", None),
            ("noise_sd", False),
            ("noise_sd", [0.0]),
            ("prob", None),
            ("prob", True),
            ("prob", "0.3"),
            ("prob", 10**400),
            ("baseline", "00"),
            ("baseline", [0.0, None]),
            ("baseline", [0.0, True]),
            ("baseline", 0.0),
            ("effects", "x"),
            ("effects", [1.0, [0.0, 2.0]]),
            ("effects", [[1.0], [0.0, "2"]]),
        ],
    )
    def test_malformed_scalar_rejected(self, field, value):
        doc = spec_to_dict(make_three_history_spec())
        if field in doc:
            doc[field] = value
        else:
            doc["histories"][0][field] = value
        with pytest.raises(SchemaMismatch, match=field):
            spec_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = spec_to_dict(make_three_history_spec())
        doc["bogus"] = 1
        with pytest.raises(SchemaMismatch):
            spec_from_dict(doc)

    def test_unknown_history_field_rejected(self):
        doc = spec_to_dict(make_three_history_spec())
        doc["histories"][0]["bogus"] = 1
        with pytest.raises(SchemaMismatch):
            spec_from_dict(doc)

    def test_schema_version_checked(self):
        doc = spec_to_dict(make_three_history_spec())
        doc["schema_version"] = 2
        with pytest.raises(SchemaMismatch):
            spec_from_dict(doc)

    def test_never_encoding(self):
        doc = spec_to_dict(make_three_history_spec())
        assert doc["histories"][0]["s0"] == "never"
        text = json.dumps(doc)
        assert "Infinity" not in text

    def test_unrecognized_extension(self, tmp_path):
        path = tmp_path / "spec.ini"
        path.write_text("x")
        with pytest.raises(SchemaMismatch):
            load_spec(str(path))

    @pytest.mark.parametrize(
        "name, body, prefix",
        [
            ("spec.json", '{"T": ', "invalid JSON in {path!r}: "),
            ("spec.yaml", "T: [1, 2", "invalid YAML in {path!r}: "),
            ("spec.YML", "T: {", "invalid YAML in {path!r}: "),
            ("spec.toml", "T = ", "invalid TOML in {path!r}: "),
        ],
    )
    def test_parse_error_messages(self, tmp_path, name, body, prefix):
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        with pytest.raises(SchemaMismatch) as info:
            load_spec(path)
        message = str(info.value)
        assert message.startswith(prefix.format(path=path))
        assert len(message) > len(prefix.format(path=path))  # the parser's own reason

    def test_unrecognized_extension_message(self, tmp_path):
        path = str(tmp_path / "spec.txt")
        with pytest.raises(SchemaMismatch) as info:
            load_spec(path)
        assert str(info.value) == (
            f"unrecognized spec extension for {path!r}; use .json, .yaml, or .toml"
        )


@pytest.mark.parametrize("cast", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integers_are_spec_integers(tmp_path, cast):
    spec = load_spec(str(GOLDEN_DIR / "spec_t4_six_history.json"))
    numpy_spec = dataclasses.replace(spec, T=cast(4))
    assert numpy_spec == spec and type(numpy_spec.T) is int
    path = tmp_path / "spec.json"
    save_spec(numpy_spec, str(path))
    assert load_spec(str(path)) == spec
    # the reader takes them too, as a YAML or programmatic document may hold them
    doc = spec_to_dict(spec)
    doc["schema_version"], doc["T"] = cast(1), cast(4)
    for h in doc["histories"]:
        h["s1"], h["s0"] = (s if s == "never" else cast(s) for s in (h["s1"], h["s0"]))
    assert spec_from_dict(doc) == spec


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_spec_integers_that_are_not_integers_are_refused(value):
    # a one-period spec, so that T = True is refused as T, not as a horizon mismatch
    spec = DgpSpec(1, 0.5, (
        HistorySpec(AdoptionPair(1, NEVER), 0.5, (0.0,), ((1.0,),)),
        HistorySpec(AdoptionPair(NEVER, NEVER), 0.5, (0.0,), ((0.0,),)),
    ))
    with pytest.raises(SpecValidationError, match="T must be an integer"):
        dataclasses.replace(spec, T=value)
    doc = spec_to_dict(spec)
    doc["T"] = value
    with pytest.raises(SchemaMismatch, match="T must be an integer"):
        spec_from_dict(doc)
    doc = spec_to_dict(spec)
    doc["histories"][1]["s0"] = value
    with pytest.raises(SchemaMismatch, match="adoption period must be an integer"):
        spec_from_dict(doc)
