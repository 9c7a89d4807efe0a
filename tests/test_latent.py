"""Latent-history algebra: adoption pairs and group labels, against the
paper's taxonomy in reference.py (types, enumeration, switcher sets)."""

import numpy as np
import pytest

from dynlate.errors import PeriodOutOfRange
from dynlate.latent import NEVER, AdoptionPair, GroupLabel, IvType, switcher_group_labels

from reference import enumerate_histories, switcher_sets, treated, type_at, type_path


def P(s1, s0):
    return AdoptionPair(s1, s0)


class TestTypeAt:
    def test_complier_then_always_taker(self):
        assert type_at(P(1, 2), 1) is IvType.COMPLIER
        assert type_at(P(1, 2), 2) is IvType.ALWAYS_TAKER

    def test_defier_at_two(self):
        assert type_at(P(NEVER, 2), 2) is IvType.DEFIER
        assert type_at(P(NEVER, 2), 1) is IvType.NEVER_TAKER

    def test_never_taker(self):
        assert type_at(P(NEVER, NEVER), 5) is IvType.NEVER_TAKER

    def test_always_taker_from_start(self):
        assert type_at(P(1, 1), 1) is IvType.ALWAYS_TAKER

    def test_bad_period(self):
        with pytest.raises(PeriodOutOfRange):
            type_at(P(1, 2), 0)

    @pytest.mark.parametrize("t", range(1, 7))
    def test_exhaustive_table(self, t):
        for pair in enumerate_histories(6, exclude_first_period_defiers=False):
            expected = {
                (True, True): IvType.ALWAYS_TAKER,
                (True, False): IvType.COMPLIER,
                (False, True): IvType.DEFIER,
                (False, False): IvType.NEVER_TAKER,
            }[(pair.s1 <= t, pair.s0 <= t)]
            assert type_at(pair, t) is expected


class TestAdoptionPair:
    def test_rejects_bad_periods(self):
        with pytest.raises(ValueError):
            AdoptionPair(0, 1)
        with pytest.raises(ValueError):
            AdoptionPair(1.5, 2)

    def test_treatment_path_nondecreasing(self):
        for pair in enumerate_histories(5, exclude_first_period_defiers=False):
            for z in (0, 1):
                path = [treated(pair, z, t) for t in range(1, 6)]
                assert path == sorted(path)

    def test_str(self):
        assert str(P(1, NEVER)) == "(1,never)"
        assert str(P(2, 3)) == "(2,3)"


class TestEnumeration:
    def test_two_periods_with_exclusion(self):
        got = enumerate_histories(2)
        assert got == [
            P(1, 1), P(1, 2), P(1, NEVER),
            P(2, 2), P(2, NEVER),
            P(NEVER, 2), P(NEVER, NEVER),
        ]

    def test_one_period_no_exclusion(self):
        assert len(enumerate_histories(1, exclude_first_period_defiers=False)) == 4

    def test_three_periods_with_exclusion(self):
        # brute force: 16 pairs minus the 3 with s0 = 1 < s1
        assert len(enumerate_histories(3)) == 13

    @pytest.mark.parametrize("T", range(1, 7))
    def test_cardinality(self, T):
        assert len(enumerate_histories(T)) == (T + 1) ** 2 - T
        assert len(enumerate_histories(T, exclude_first_period_defiers=False)) == (T + 1) ** 2

    def test_excluded_pairs_are_first_period_defiers(self):
        full = set(enumerate_histories(4, exclude_first_period_defiers=False))
        kept = set(enumerate_histories(4))
        assert {p for p in full - kept} == {p for p in full if p.is_first_period_defier}


class TestSwitcherSets:
    def test_two_periods(self):
        g_plus, g_minus = switcher_sets(2, 2)
        assert g_plus == {P(2, NEVER)}
        assert g_minus == {P(1, 2), P(NEVER, 2)}

    def test_three_periods_last(self):
        g_plus, g_minus = switcher_sets(3, 3)
        assert g_plus == {P(3, NEVER), P(3, 2)}
        assert g_minus == {P(1, 3), P(2, 3), P(NEVER, 3)}

    @pytest.mark.parametrize("T", range(2, 7))
    def test_disjoint_and_excludes_diagonal(self, T):
        for t in range(2, T + 1):
            g_plus, g_minus = switcher_sets(T, t)
            assert not g_plus & g_minus
            assert P(t, t) not in g_plus | g_minus

    @pytest.mark.parametrize("T", range(2, 7))
    def test_partition(self, T):
        histories = enumerate_histories(T)
        for t in range(2, T + 1):
            g_plus, g_minus = switcher_sets(T, t)
            for pair in histories:
                buckets = [
                    pair in g_plus,
                    pair in g_minus,
                    pair == P(t, t),
                    pair.s1 != t and pair.s0 != t,
                ]
                assert sum(buckets) == 1, (t, pair)

    def test_period_out_of_range(self):
        with pytest.raises(PeriodOutOfRange):
            switcher_sets(3, 1)
        with pytest.raises(PeriodOutOfRange):
            switcher_sets(3, 4)


class TestGroupLabels:
    def test_strings(self):
        assert str(GroupLabel("C1", 1)) == "C1"
        assert str(GroupLabel("CAT", 2)) == "C1,AT2"
        assert str(GroupLabel("CAT", 4)) == "C1:3,AT4"
        assert str(GroupLabel("NTC", 3)) == "NT1:2,C3"
        assert str(GroupLabel("NTF", 2)) == "NT1,F2"
        assert str(GroupLabel("NTFAT", 3, 2)) == "NT1,F2,AT3"
        assert str(GroupLabel("NTCAT", 5, 3)) == "NT1:2,C3:4,AT5"

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            GroupLabel("CAT", 1)
        with pytest.raises(ValueError):
            GroupLabel("NTCAT", 3)
        with pytest.raises(ValueError):
            GroupLabel("NTFAT", 3, 3)
        with pytest.raises(ValueError):
            GroupLabel("NTC", 2, 2)

    @pytest.mark.parametrize("T", range(2, 7))
    def test_labels_cover_switcher_sets(self, T):
        for t in range(2, T + 1):
            plus_labels, minus_labels = switcher_group_labels(t)
            g_plus, g_minus = switcher_sets(T, t)
            plus_members = [p for lab in plus_labels for p in lab.members(T)]
            minus_members = [p for lab in minus_labels for p in lab.members(T)]
            assert set(plus_members) == g_plus
            assert set(minus_members) == g_minus
            # no pair claimed by two labels
            assert len(plus_members) == len(set(plus_members))
            assert len(minus_members) == len(set(minus_members))

    @pytest.mark.parametrize("T", range(2, 7))
    def test_member_type_paths_match_labels(self, T):
        for t in range(2, T + 1):
            for labels in switcher_group_labels(t):
                for lab in labels:
                    want = type_path(lab)
                    for pair in lab.members(T):
                        got = tuple(type_at(pair, s) for s in range(1, lab.switch + 1))
                        assert got == want, (str(lab), pair)

    @pytest.mark.parametrize("T", range(2, 9))
    def test_members_are_every_history_with_the_type_path(self, T):
        histories = enumerate_histories(T)
        labels = [GroupLabel("C1", 1)] + [
            lab for t in range(2, T + 1) for side in switcher_group_labels(t) for lab in side
        ]
        for lab in labels:
            want = [
                pair for pair in histories
                if tuple(type_at(pair, s) for s in range(1, lab.switch + 1)) == type_path(lab)
            ]
            assert list(lab.members(T)) == want, str(lab)

    def test_c1_members(self):
        want = {P(1, 2), P(1, 3), P(1, NEVER)}
        assert set(GroupLabel("C1", 1).members(3)) == want


@pytest.mark.parametrize("cast", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integers_are_periods(cast):
    pair = AdoptionPair(cast(2), NEVER)
    assert pair == AdoptionPair(2, NEVER) and type(pair.s1) is int
    label = GroupLabel("NTCAT", cast(4), cast(2))
    assert label == GroupLabel("NTCAT", 4, 2) and str(label) == "NT1,C2:3,AT4"
    assert type(label.switch) is type(label.entry) is int
    assert label.members(5) == GroupLabel("NTCAT", 4, 2).members(5)
    assert switcher_group_labels(cast(3)) == switcher_group_labels(3)


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=["bool", "float", "fraction"])
def test_periods_that_are_not_integers_are_refused(value):
    for make in (
        lambda: AdoptionPair(value, NEVER),
        lambda: AdoptionPair(3, value),
        lambda: GroupLabel("NTC", value),
        lambda: GroupLabel("NTCAT", 3, value),
    ):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(PeriodOutOfRange):
        switcher_group_labels(value)
