"""JSON serializer: losslessness, determinism, and table rendering."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynlate.reporting import dumps, fnum, format_float, render_table


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_round_trips(x):
    assert float(format_float(x)) == x


def test_dumps_parses_back():
    doc = {
        "a": [1, 2.5, None, True, "x"],
        "b": {"nested": [0.1, -1e-300, 1e308]},
        "c": [],
        "d": {},
    }
    assert json.loads(dumps(doc)) == doc


def test_dumps_is_deterministic():
    doc = {"x": [math.pi, math.e], "y": {"z": 0.1}}
    assert dumps(doc) == dumps(doc)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_dumps_refuses_non_finite_floats(x):
    # JSON has no text for them; a strict parser rejects Python's
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"x": [1.0, x]})


def test_render_table_alignment():
    out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.split("\n")
    assert lines[0].startswith("a")
    assert len(lines) == 4


def test_fnum_handles_none():
    assert fnum(None) == "-"
    assert fnum(0.25) == "0.25"
