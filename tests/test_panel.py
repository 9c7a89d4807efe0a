"""Panel ingestion, validation, serialization round-trip, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlate.errors import (
    DegenerateInstrument,
    InstrumentVariesWithinUnit,
    MalformedRow,
    TreatmentReversal,
    UnbalancedPanel,
)
from dynlate.panel import Panel, check_assumptions, ingest, serialize

MINIMAL = """unit_id,period,z,d,y
A,1,1,1,2.0
A,2,1,1,3.0
B,1,0,0,0.0
B,2,0,0,0.5
"""


def test_ingest_minimal():
    p = ingest(MINIMAL)
    assert p.T == 2
    assert p.n == 2
    assert p.unit_ids == ("A", "B")
    assert p.z.tolist() == [1, 0]
    assert p.d.tolist() == [[1, 1], [0, 0]]
    assert p.y.tolist() == [[2.0, 3.0], [0.0, 0.5]]


def test_ingest_header_only_string_is_csv_not_path():
    # no newline, so only the header prefix marks this as CSV text
    with pytest.raises(MalformedRow, match="no data rows"):
        ingest("unit_id,period,z,d,y")


def test_ingest_is_order_insensitive():
    lines = MINIMAL.strip().split("\n")
    shuffled = "\n".join([lines[0]] + [lines[3], lines[1], lines[4], lines[2]]) + "\n"
    assert ingest(shuffled) == ingest(MINIMAL)


def test_round_trip_bit_exact():
    p = ingest(MINIMAL)
    assert ingest(serialize(p)) == p


def test_serialize_uses_lf_and_sorted_rows():
    text = serialize(ingest(MINIMAL))
    assert "\r" not in text
    assert text.startswith("unit_id,period,z,d,y\nA,1,")


def test_treatment_reversal():
    bad = "unit_id,period,z,d,y\nA,1,1,1,0.0\nA,2,1,0,0.0\nB,1,0,0,0.0\nB,2,0,0,0.0\n"
    with pytest.raises(TreatmentReversal) as err:
        ingest(bad)
    assert err.value.unit_id == "A"
    assert err.value.period == 2


def test_instrument_varies_within_unit():
    bad = "unit_id,period,z,d,y\nA,1,1,0,0.0\nA,2,0,0,0.0\nB,1,0,0,0.0\nB,2,0,0,0.0\n"
    with pytest.raises(InstrumentVariesWithinUnit):
        ingest(bad)


def test_unbalanced_missing_period():
    bad = "unit_id,period,z,d,y\nA,1,1,0,0.0\nA,2,1,0,0.0\nB,1,0,0,0.0\n"
    with pytest.raises(UnbalancedPanel):
        ingest(bad)


def test_duplicate_row():
    bad = "unit_id,period,z,d,y\nA,1,1,0,0.0\nA,1,1,0,1.0\n"
    with pytest.raises(UnbalancedPanel):
        ingest(bad)


def test_degenerate_instrument():
    bad = "unit_id,period,z,d,y\nA,1,1,0,0.0\nB,1,1,0,0.0\n"
    with pytest.raises(DegenerateInstrument):
        ingest(bad)


@pytest.mark.parametrize(
    "row",
    [
        "A,x,1,0,0.0",      # period not an integer
        "A,0,1,0,0.0",      # period < 1
        "A,1,2,0,0.0",      # z not binary
        "A,1,1,3,0.0",      # d not binary
        "A,1,1,0,oops",     # y not a number
        "A,1,1,0,nan",      # y not finite
        "A,1,1,0,inf",      # y not finite
        "A,1,1,0",          # wrong arity
        ",1,1,0,0.0",       # empty unit id
    ],
)
def test_malformed_rows(row):
    with pytest.raises(MalformedRow):
        ingest(f"unit_id,period,z,d,y\n{row}\n")


def test_bad_header():
    with pytest.raises(MalformedRow):
        ingest("unit,period,z,d,y\nA,1,1,0,0.0\n")
    with pytest.raises(MalformedRow):
        ingest("")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=8),
    st.randoms(use_true_random=False),
)
def test_round_trip_random_panels(T, n, rnd):
    rng = np.random.RandomState(rnd.randint(0, 2**31 - 1))
    ids = [f"u{i:03d}" for i in range(n)]
    z = rng.randint(0, 2, size=n)
    z[0], z[1] = 0, 1  # keep both arms
    start = rng.randint(1, T + 2, size=n)  # T+1 means never treated
    d = (np.arange(1, T + 1)[None, :] >= start[:, None]).astype(np.int8)
    y = rng.standard_normal((n, T)) * np.pi  # non-round decimals
    p = Panel.from_arrays(ids, z, d, y)
    assert ingest(serialize(p)) == p


def test_from_arrays_sorts_by_unit_id():
    p = Panel.from_arrays(
        ["b", "a"], [1, 0], [[0], [0]], [[1.0], [2.0]]
    )
    assert p.unit_ids == ("a", "b")
    assert p.y[:, 0].tolist() == [2.0, 1.0]


def test_check_assumptions_reports_fs1():
    from dynlate.estimators import estimate
    from dynlate.simulate import draw_panel
    from randspec import random_spec

    p = ingest(MINIMAL)
    diag = check_assumptions(p)
    assert diag.fs1 == 1.0
    assert diag.relevance_ok
    assert any("assumed" in note for note in diag.notes)
    rng = np.random.default_rng(17)
    for _ in range(8):
        panel = draw_panel(random_spec(rng, noise_sd=0.3), 150, seed=int(rng.integers(2**31)))
        fs1 = check_assumptions(panel).fs1
        assert np.float64(fs1).tobytes() == np.float64(estimate(panel).fs[0]).tobytes()
    one_arm = check_assumptions(Panel.from_arrays(["a", "b"], [1, 1], [[1], [0]], [[1.0], [0.0]]))
    assert one_arm.fs1 is None
    assert not one_arm.relevance_ok


def test_check_assumptions_flags_zero_fs1():
    flat = "unit_id,period,z,d,y\nA,1,1,0,1.0\nB,1,0,0,2.0\n"
    diag = check_assumptions(ingest(flat))
    assert diag.fs1 == 0.0
    assert not diag.relevance_ok
    assert any("relevance" in note for note in diag.notes)


def test_check_assumptions_tracks_population_first_stage():
    from conftest import make_three_history_spec
    from dynlate.simulate import draw_panel

    panel = draw_panel(make_three_history_spec(), 20000, seed=31)
    diag = check_assumptions(panel)
    # P(first-period compliers) = 0.4; binomial error at n/2 per arm
    se = np.sqrt(2 * 0.4 * 0.6 / 10000)
    assert abs(diag.fs1 - 0.4) < 3 * se
    assert diag.relevance_ok
