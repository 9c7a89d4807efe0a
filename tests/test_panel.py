"""Panel ingestion, validation, serialization round-trip, diagnostics."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from reference import reference_from_arrays
from dynlate.errors import (
    DegenerateInstrument,
    InstrumentVariesWithinUnit,
    MalformedRow,
    TreatmentReversal,
    UnbalancedPanel,
)
from dynlate.estimators import check_assumptions
from dynlate.panel import (
    _WHITESPACE,
    UNIT_ID_DTYPE,
    UNIT_ID_MAX_LENGTH,
    Panel,
    ingest,
    serialize,
)

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
    assert p.unit_ids.tolist() == ["A", "B"]
    assert p.z.tolist() == [1, 0]
    assert p.d.tolist() == [[1, 1], [0, 0]]
    assert p.y.tolist() == [[2.0, 3.0], [0.0, 0.5]]


def test_ingest_header_only_string_is_csv_not_path():
    # no newline, so only the header prefix marks this as CSV text
    with pytest.raises(MalformedRow, match="no data rows"):
        ingest("unit_id,period,z,d,y")


def test_ingest_opens_a_path_object_as_a_file(tmp_path):
    path = DATA_DIR / "panel_small.csv"
    assert ingest(path) == ingest(str(path))
    # a path object is never CSV text, even when its name is the header
    named = tmp_path / "unit_id,period,z,d,y"
    named.write_text(MINIMAL, encoding="utf-8")
    assert ingest(named) == ingest(MINIMAL)


@pytest.mark.parametrize("name", ["bytes", "BytesIO", "int"])
def test_ingest_refuses_other_sources_by_type(name):
    source = {
        "bytes": bytes(DATA_DIR / "panel_small.csv"),
        "BytesIO": io.BytesIO(MINIMAL.encode()),
        "int": 42,
    }[name]
    with pytest.raises(TypeError) as info:
        ingest(source)
    assert str(info.value) == f"ingest reads a path, CSV text or a text stream, got {name}"


def test_byte_order_mark_before_header_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    want = ingest(MINIMAL)
    bom = tmp_path / "bom.csv"
    bom.write_text(MINIMAL, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest(str(bom)) == want
    assert ingest("\ufeff" + MINIMAL) == want
    assert ingest(io.StringIO("\ufeff" + MINIMAL)) == want
    with pytest.raises(MalformedRow, match="no data rows"):
        ingest("\ufeffunit_id,period,z,d,y")
    with pytest.raises(MalformedRow, match="bad header"):
        ingest("\ufeff\ufeff" + MINIMAL)
    assert not serialize(want).startswith("\ufeff")


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


def test_huge_period_is_unbalanced_before_any_array_is_sized():
    # an n x T array at T = 10**12 is terabytes: the balance check comes first
    bad = "unit_id,period,z,d,y\na,1,1,0,0.0\nb,1000000000000,0,0,0.0\n"
    with pytest.raises(UnbalancedPanel) as err:
        ingest(bad)
    assert str(err.value) == "unit 'a' has periods [1], expected 1..1000000000000"


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # A: z varies, B: a period missing; A sorts first
        ("B,1,0,0,0.0\nA,1,1,0,0.0\nA,2,0,0,0.0\n", InstrumentVariesWithinUnit,
         "z varies within unit 'A'"),
        # A both unbalanced and varying in z: balance is checked first
        ("A,1,1,0,0.0\nA,3,0,0,0.0\nB,1,0,0,0.0\nB,2,0,0,0.0\nB,3,0,0,0.0\n",
         UnbalancedPanel, "unit 'A' has periods [1, 3], expected 1..3"),
    ],
)
def test_first_failing_unit_in_id_order(rows, error, message):
    with pytest.raises(error) as err:
        ingest("unit_id,period,z,d,y\n" + rows)
    assert str(err.value) == message


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


# every character but surrogates, which UTF-8 text cannot hold, with the
# ones CSV quoting is about made common
_AWKWARD_CHARS = st.one_of(
    st.sampled_from([",", '"', "\n", "\r", "\x00", "é", "中"]),
    st.characters(codec="utf-8"),
)
_AWKWARD_IDS = st.text(_AWKWARD_CHARS, min_size=1, max_size=6).filter(lambda u: u == u.strip())
# ids the CSV form cannot carry: ingest strips fields and rejects empty ids
_UNTRIMMED = ["", " a", "a ", "\x1fb", "\u3000c", "d\x85", " \x00"]
_SPACES = st.text(
    st.characters(categories=["Zs", "Zl", "Zp", "Cc"]).filter(str.isspace), min_size=1
)
_UNTRIMMED_IDS = st.one_of(
    st.sampled_from(_UNTRIMMED),
    st.builds(
        lambda pad, u, left: pad + u if left else u + pad, _SPACES, _AWKWARD_IDS, st.booleans()
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(_AWKWARD_IDS, min_size=2, max_size=8, unique=True),
    st.one_of(st.none(), _UNTRIMMED_IDS),
    st.randoms(use_true_random=False),
)
def test_round_trip_random_panels(T, ids, untrimmed, rnd):
    rng = np.random.RandomState(rnd.randint(0, 2**31 - 1))

    def arrays(n):
        z = rng.randint(0, 2, size=n)
        z[0], z[1] = 0, 1  # keep both arms
        start = rng.randint(1, T + 2, size=n)  # T+1 means never treated
        d = (np.arange(1, T + 1)[None, :] >= start[:, None]).astype(np.int8)
        y = rng.standard_normal((n, T)) * np.pi  # non-round decimals
        return z, d, y

    if untrimmed is not None:
        ids = ids + [untrimmed]
        big = np.array(ids)
        big = np.repeat(big.astype(big.dtype.newbyteorder(">")), 2)[::2]
        for given in (ids, big):  # a strided big-endian U array is read by code point too
            with pytest.raises(MalformedRow, match="without surrounding whitespace"):
                Panel.from_arrays(given, *arrays(len(ids)))
        return
    kept = [u for u in ids if not u.endswith("\x00")]
    if len(kept) < len(ids):
        # a U array pads with NULs, so it cannot hold a trailing one
        with pytest.raises(MalformedRow, match="trailing NUL"):
            Panel.from_arrays(ids, *arrays(len(ids)))
        if len(kept) < 2:
            return
        ids = kept
    z, d, y = arrays(len(ids))
    p = Panel.from_arrays(ids, z, d, y)
    text = serialize(p)
    assert ingest(text) == p
    if not any("\r" in u for u in ids):
        # Python 3.11's csv.writer leaves a bare CR unquoted under
        # lineterminator="\n" (and its reader then rejects the row);
        # every other id is written exactly as csv.writer writes it
        expected = io.StringIO()
        writer = csv.writer(expected, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(("unit_id", "period", "z", "d", "y"))
        for i, unit in enumerate(p.unit_ids.tolist()):
            for t in range(T):
                writer.writerow((unit, t + 1, p.z[i], p.d[i, t], f"{p.y[i, t]:.17g}"))
        assert text == expected.getvalue()


def test_from_arrays_sorts_by_unit_id():
    p = Panel.from_arrays(
        ["b", "a"], [1, 0], [[0], [0]], [[1.0], [2.0]]
    )
    assert p.unit_ids.tolist() == ["a", "b"]
    assert p.y[:, 0].tolist() == [2.0, 1.0]


@pytest.mark.parametrize("wrap", [list, np.array])
@pytest.mark.parametrize("bad", [0.7, -1, 256, 257])
@pytest.mark.parametrize("column", ["z", "d"])
def test_from_arrays_checks_binary_values_before_the_cast(column, bad, wrap):
    # cast first, 0.7 would truncate to 0 and an int64 256/257 wrap to 0/1
    z, d = wrap([bad, 1]), wrap([[0, 1], [bad, 1]])
    if column == "z":
        d = wrap([[0, 1], [0, 1]])
    else:
        z = wrap([0, 1])
    with pytest.raises(MalformedRow, match="0 or 1"):
        Panel.from_arrays(["a", "b"], z, d, [[0.0, 0.0], [0.0, 0.0]])


def test_duplicate_unit_id_is_named():
    # the smallest of the duplicated ids
    with pytest.raises(UnbalancedPanel, match="duplicate unit id 'x'"):
        Panel.from_arrays(["y", "x", "c", "x", "y"], [0] * 5, [[0]] * 5, [[0.0]] * 5)


def test_treatment_reversal_carries_a_plain_str_id():
    with pytest.raises(TreatmentReversal) as err:
        Panel.from_arrays(["b", "a"], [0, 1], [[0, 0], [1, 0]], [[0.0] * 2] * 2)
    assert type(err.value.unit_id) is str
    assert str(err.value) == "treatment reverses for unit 'a' at period 2"


def test_first_reversal_in_row_order_is_named():
    # after sorting, u0 reverses at period 4 and u1, a later row, at period
    # 2: the first (unit, period) in row-major order is u0's, not period 2's
    ids = ["u2", "u1", "u0"]
    z, d, y = [1, 0, 1], [[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 1, 0]], [[0.0] * 4] * 3
    with pytest.raises(TreatmentReversal) as want:
        reference_from_arrays(ids, z, d, y)
    with pytest.raises(TreatmentReversal) as got:
        Panel.from_arrays(ids, z, d, y)
    assert (got.value.unit_id, got.value.period) == (want.value.unit_id, want.value.period)
    assert (got.value.unit_id, got.value.period) == ("u0", 4)


def test_unit_id_with_an_astral_character_is_accepted():
    # a code point past the surrogates makes the lone-surrogate scan run
    for ids in (["u\U0001F600", "b"], np.array(["u\U0001F600", "b"])):
        p = Panel.from_arrays(ids, [0, 1], [[0], [0]], [[0.0], [0.0]])
        assert p.unit_ids.tolist() == ["b", "u\U0001F600"]


def test_unit_id_with_a_lone_surrogate_is_malformed():
    # a U array holds the surrogate; UTF-8 text cannot
    for ids in (["a\ud800", "b"], np.array(["a\ud800", "b"])):
        with pytest.raises(MalformedRow, match=r"unit id 'a\\ud800' must be valid text"):
            Panel.from_arrays(ids, [0, 1], [[0], [0]], [[0.0], [0.0]])


def test_whitespace_table_is_what_str_strip_removes():
    space = [c for c in range(0x110000) if chr(c).isspace()]
    assert sorted(_WHITESPACE.tolist()) == space


@pytest.mark.parametrize("char", ["\u3000", "\x85", "\xa0", "\u3001", "\ufeff", "\U0010ffff"])
@pytest.mark.parametrize("left", [True, False])
def test_whitespace_lookup_at_either_end(char, left):
    # U+3000 is the last code point str.strip removes; those past it, up to
    # U+10FFFF, are kept, not read as U+3000
    unit = char + "a" if left else "a" + char
    ids = ["b", unit] if left else [unit, "b"]  # the odd id first and last
    args = [0, 1], [[0], [0]], [[0.0], [0.0]]
    if char.isspace():
        with pytest.raises(MalformedRow, match="without surrounding whitespace") as err:
            Panel.from_arrays(ids, *args)
        assert repr(unit) in str(err.value)
    else:
        assert unit in Panel.from_arrays(ids, *args).unit_ids.tolist()


@pytest.mark.parametrize("ids", [["", "a"], ["a", ""], ["", "\U0010ffff"]])
def test_empty_unit_id_is_refused(ids):
    with pytest.raises(MalformedRow, match="unit id '' must be valid text: non-empty"):
        Panel.from_arrays(ids, [0, 1], [[0], [0]], [[0.0], [0.0]])


def test_unit_id_ending_in_nul_is_refused():
    # a U array pads with NULs, so "a\x00" would become "a": every input
    # is refused before its conversion
    ids = ["a\x00", "b"]
    for given in (
        ids,
        np.array(ids, dtype=np.dtypes.StringDType()),
        np.array(ids, dtype=object),
    ):
        with pytest.raises(MalformedRow, match=r"unit id 'a\\x00' .* trailing NUL"):
            Panel.from_arrays(given, [1, 0], [[0], [0]], [[1.0], [2.0]])
    with pytest.raises(MalformedRow, match=r"unit id 'a\\x00' .* trailing NUL"):
        ingest("unit_id,period,z,d,y\na\x00,1,1,1,1.0\nb,1,0,0,2.0\n")


@pytest.mark.parametrize("form", ["list", "u_array", "csv"])
def test_unit_id_length_cap(form):
    # the cap counts code points, not bytes; the message shows the head alone
    def build(unit):
        if form == "csv":
            return ingest(f"unit_id,period,z,d,y\n{unit},1,1,1,1.0\nb,1,0,0,2.0\n")
        ids = np.array([unit, "b"]) if form == "u_array" else [unit, "b"]
        return Panel.from_arrays(ids, [1, 0], [[1], [0]], [[1.0], [2.0]])

    assert UNIT_ID_MAX_LENGTH == 256
    longest = "é" * 256
    assert build(longest).unit_ids.tolist() == ["b", longest]
    with pytest.raises(MalformedRow, match=r"^unit id 'x{32}'\.\.\. is 257 long, over 256$"):
        build("x" * 256 + "y")


def test_long_unit_id_is_refused_before_an_id_array_is_sized():
    # one 10,000-character id among 1,000 would make a 38 MB <U10000 array
    ids = [f"u{i:03d}" for i in range(999)] + ["x" * 10_000]
    args = np.arange(1000) % 2, np.zeros((1000, 1)), np.zeros((1000, 1))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedRow, match="is 10000 long"):
            Panel.from_arrays(ids, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_unit_ids_differing_after_an_embedded_nul():
    # U arrays compare every code point, so embedded NULs order as in str
    ids = ['0"\x00,,é', '0"\x00,,\x80', "a\x00c", "a\x00b", "a"]
    y = [[float(i)] for i in range(5)]
    p = Panel.from_arrays(ids, [0, 1, 0, 1, 0], [[0]] * 5, y)
    assert p.unit_ids.dtype.type is UNIT_ID_DTYPE
    assert p.unit_ids.tolist() == sorted(ids)
    assert p.y[:, 0].tolist() == [1.0, 0.0, 4.0, 3.0, 2.0]
    twin = Panel.from_arrays(["a\x00c", "a\x00d"], [0, 1], [[0], [0]], [[0.0], [0.0]])
    assert twin != Panel.from_arrays(["a\x00c", "a\x00e"], [0, 1], [[0], [0]], [[0.0], [0.0]])
    with pytest.raises(UnbalancedPanel, match=r"duplicate unit id 'a\\x00b'"):
        Panel.from_arrays(["a\x00b", "a\x00c", "a\x00b"], [0] * 3, [[0]] * 3, [[0.0]] * 3)


# few characters, so prefixes, duplicates and near-duplicates are common
_ID_CHARS = st.sampled_from(["a", "b", "B", "0", "9", " ", ",", "\x00", "\x7f", "é", "中", "😀"])
_RAW_IDS = st.one_of(st.text(_ID_CHARS, max_size=4), st.integers(-12, 12))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_RAW_IDS, min_size=1, max_size=10),
    st.sampled_from(
        ["list", "int_array", "u_array", "nul_twin", "nul_inside", "nul_embedded", "untrimmed"]
    ),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_from_arrays_matches_reference(raw_ids, form, T, rnd):
    if form == "int_array":
        ids = np.array([i for i in raw_ids if isinstance(i, int)] or [0])
    elif form == "u_array":  # strided and big-endian: read by code point all the same
        ids = np.repeat(np.array(raw_ids, dtype=">U4"), 2)[::2]
    else:
        ids = list(raw_ids)
        if form == "nul_twin":  # equal up to a trailing NUL
            ids.append(f"{ids[0]}\x00")
        elif form == "nul_inside":  # equal up to an embedded NUL, one ending in NUL
            ids += [f"{ids[0]}\x00b", f"{ids[0]}\x00a", f"{ids[0]}\x00a\x00"]
        elif form == "nul_embedded":  # equal up to an embedded NUL
            ids += [f"{ids[0]}\x00b", f"{ids[0]}\x00a", f"{ids[0]}\x00a\x00b"]
        elif form == "untrimmed":  # what ingest would strip, or reject as empty
            ids.append(rnd.choice(_UNTRIMMED))
        rnd.shuffle(ids)
    n = len(ids)
    z = [rnd.randint(0, 1) for _ in range(n)]
    d = [[rnd.randint(0, 1) for _ in range(T)] for _ in range(n)]
    if rnd.random() < 0.7:  # mostly irreversible paths, so some calls succeed
        d = [sorted(row) for row in d]
    y = [[rnd.uniform(-3, 3) for _ in range(T)] for _ in range(n)]
    try:
        want = reference_from_arrays(ids, z, d, y)
    except (MalformedRow, UnbalancedPanel, TreatmentReversal) as err:
        with pytest.raises(type(err)) as got:
            Panel.from_arrays(ids, z, d, y)
        if isinstance(err, TreatmentReversal):
            assert (got.value.unit_id, got.value.period) == (err.unit_id, err.period)
        return
    assert form not in ("nul_twin", "nul_inside")  # each adds an id ending in NUL
    p = Panel.from_arrays(ids, z, d, y)
    assert p.unit_ids.tolist() == list(want[0])
    for got, ref in zip((p.z, p.d, p.y), want[1:]):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)




def test_round_trip_quoted_ids_through_a_file(tmp_path):
    p = ingest('unit_id,period,z,d,y\n"a,b",1,1,1,0.5\n"c\r\nd",1,0,0,0.25\n"say ""x""",1,0,1,1\n')
    assert p.unit_ids.tolist() == ["a,b", "c\r\nd", 'say "x"']
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        serialize(p, fh)
    assert ingest(str(path)) == p


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
    assert (one_arm.n, one_arm.n_z1, one_arm.n_z0) == (2, 2, 0)
    assert one_arm.notes[-1] == "only one instrument arm present; estimands are undefined"


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
