"""Observed panel data: ingestion, validation, and assumption diagnostics.

Panels are balanced long-format (unit, period, z, d, y) with a binary
time-invariant instrument z and a binary irreversible treatment d. Units
are assumed sampled i.i.d.; everything downstream treats the unit as the
resampling block.

A :class:`Panel` holds its unit ids as one 1-D numpy ``StringDType``
array, so building, checking and sorting them are array operations. The
CSV form quotes an id the way ``csv.writer`` does, only when it holds a
comma, a double quote, CR or LF, so ``ingest(serialize(panel))``
reproduces any panel ``ingest`` returns.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInstrument,
    InstrumentVariesWithinUnit,
    MalformedRow,
    TreatmentReversal,
    UnbalancedPanel,
)

CSV_HEADER = ("unit_id", "period", "z", "d", "y")

_BOM = "\ufeff"
"""Byte-order mark some editors (Excel's "CSV UTF-8") write before the header."""

UNIT_ID_DTYPE = np.dtypes.StringDType
"""Dtype class of :attr:`Panel.unit_ids`: variable-width text that keeps
a trailing NUL, which fixed-width ``U`` arrays drop. Passing the class,
not an instance, lets ``np.asarray`` keep any StringDType array as is."""


@dataclass(eq=False)
class Panel:
    """Balanced panel in unit-major arrays, rows sorted by unit id.

    ``z`` has shape (n,), ``d`` and ``y`` have shape (n, T) with column
    t-1 holding period t. Instances are treated as immutable after
    construction; nothing in the package mutates them.
    """

    unit_ids: np.ndarray  # (n,) of UNIT_ID_DTYPE, strictly increasing
    z: np.ndarray
    d: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def T(self) -> int:
        return self.d.shape[1]

    @property
    def n_z1(self) -> int:
        return int(self.z.sum())

    @property
    def n_z0(self) -> int:
        return self.n - self.n_z1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return (
            np.array_equal(_order_key(self.unit_ids), _order_key(other.unit_ids))
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.d, other.d)
            and np.array_equal(self.y, other.y)
        )

    @classmethod
    def from_arrays(cls, unit_ids, z, d, y) -> "Panel":
        """Build a validated panel from per-unit arrays.

        Checks shapes, unit ids the CSV form can carry (non-empty, no
        surrounding whitespace), unique unit ids, binary z/d (the values
        as given, before the cast to int8), finite y, and irreversibility
        of d.
        Unit ids become a :data:`UNIT_ID_DTYPE` array (non-str ids by
        their ``str``). Rows are sorted by unit id so equal data always
        yields an identical Panel; ids that already increase strictly
        are kept as they are.
        """
        try:
            ids = np.asarray(unit_ids, dtype=UNIT_ID_DTYPE)
        except UnicodeEncodeError as err:  # a lone surrogate
            raise MalformedRow(f"unit ids must be valid text: {err}") from None
        z = np.asarray(z)
        d = np.asarray(d)
        y = np.asarray(y, dtype=np.float64)
        n = ids.size
        if n == 0:
            raise UnbalancedPanel("panel has no units")
        if (
            ids.ndim != 1
            or d.ndim != 2
            or y.shape != d.shape
            or z.shape != (n,)
            or d.shape[0] != n
        ):
            raise MalformedRow("array shapes are inconsistent")
        if d.shape[1] < 1:
            raise UnbalancedPanel("panel has no periods")
        order = None
        key = _order_key(ids)
        _check_id_text(ids, key)
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            ids, key = ids[order], key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                raise UnbalancedPanel(f"duplicate unit id {str(ids[dup[0]])!r}")
        if not (_is_binary(z) and _is_binary(d)):
            raise MalformedRow("z and d must be 0 or 1")
        if not np.isfinite(y).all():
            raise MalformedRow("y must be finite")
        z = z.astype(np.int8, copy=False)
        d = d.astype(np.int8, copy=False)
        if order is not None:
            z, d, y = z[order], d[order], y[order]
        drops = np.argwhere(d[:, 1:] < d[:, :-1])
        if drops.size:
            row, t = drops[0]
            raise TreatmentReversal(str(ids[row]), int(t) + 2)
        return cls(ids, z, d, y)


def _order_key(ids: np.ndarray) -> np.ndarray:
    """Fixed-width ``U`` array that orders and equates like ``ids`` as str.

    numpy's StringDType comparisons and sort stop at an embedded NUL, so
    there ``"a\\x00b" == "a\\x00c"``; ``U`` compares every code point. Each
    key is its id padded with NULs to a common width, then the id's length
    as one more code point, which tells ``"a"`` from ``"a\\x00"``. Lengths
    are taken with an ``"x"`` appended, as ``str_len`` skips trailing NULs.
    """
    lengths = np.strings.str_len(np.strings.add(ids, "x")) - 1
    width = int(lengths.max(initial=0))
    key = np.zeros((ids.size, width + 1), dtype=np.uint32)
    if width:
        key[:, :width] = ids.astype(f"U{width}").view(np.uint32).reshape(-1, width)
    key[:, width] = lengths
    return key.view(f"U{width + 1}").ravel()


_WHITESPACE = np.array([c for c in range(0x3001) if chr(c).isspace()], dtype=np.uint32)
"""Code points ``str.strip()`` removes (U+3000 is the last of them)."""


def _check_id_text(ids: np.ndarray, key: np.ndarray) -> None:
    """Reject ids that ``ingest(serialize(...))`` cannot give back.

    ``ingest`` strips every field and rejects an empty id, so an id must
    be non-empty with no whitespace at either end. The test reads the
    first and last code points off ``_order_key``'s key: ``np.strings.strip``
    would also strip NULs, which ``str.strip`` keeps.
    """
    codes = key.view(np.uint32).reshape(key.size, -1)
    lengths = codes[:, -1].astype(np.intp)
    ends = np.stack((codes[:, 0], codes[np.arange(key.size), lengths - 1]))
    bad = np.flatnonzero((lengths == 0) | np.isin(ends, _WHITESPACE).any(axis=0))
    if bad.size:
        raise MalformedRow(
            f"unit id {str(ids[bad[0]])!r} must be non-empty,"
            " without surrounding whitespace"
        )


def _is_binary(a: np.ndarray) -> bool:
    """Every entry of ``a`` equals 0 or 1, before any cast."""
    return bool(((a == 0) | (a == 1)).all())


def ingest(source) -> Panel:
    """Read and validate a panel from CSV (path, text stream, or text).

    The expected schema is a header ``unit_id,period,z,d,y`` followed by
    one row per (unit, period). Periods must form 1..T for every unit,
    z must be constant within unit, and both instrument arms must appear.
    A string is CSV text if it is empty, has a newline or starts with the
    header; any other string is a path. One byte-order mark (U+FEFF) before
    the header is ignored.
    """
    if isinstance(source, str):
        text = source.removeprefix(_BOM)
        if "\n" in source or source == "" or text.startswith(",".join(CSV_HEADER)):
            return _ingest_stream(io.StringIO(source))
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _ingest_stream(fh)
    return _ingest_stream(source)


def _ingest_stream(stream) -> Panel:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRow("empty input: missing header") from None
    if header:
        header[0] = header[0].removeprefix(_BOM)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedRow(
            f"bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )

    # unit -> {period: (z, d, y)}
    units: dict[str, dict[int, tuple[int, int, float]]] = {}
    max_period = 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise MalformedRow(f"line {lineno}: expected 5 fields, got {len(row)}")
        unit, period_s, z_s, d_s, y_s = (f.strip() for f in row)
        if not unit:
            raise MalformedRow(f"line {lineno}: empty unit_id")
        try:
            period = int(period_s)
        except ValueError:
            raise MalformedRow(f"line {lineno}: period {period_s!r} is not an integer") from None
        if period < 1:
            raise MalformedRow(f"line {lineno}: period must be >= 1, got {period}")
        if z_s not in ("0", "1") or d_s not in ("0", "1"):
            raise MalformedRow(f"line {lineno}: z and d must be 0 or 1")
        try:
            y = float(y_s)
        except ValueError:
            raise MalformedRow(f"line {lineno}: y {y_s!r} is not a number") from None
        if not np.isfinite(y):
            raise MalformedRow(f"line {lineno}: y must be finite, got {y_s!r}")
        periods = units.setdefault(unit, {})
        if period in periods:
            raise UnbalancedPanel(f"duplicate row for unit {unit!r}, period {period}")
        periods[period] = (int(z_s), int(d_s), y)
        max_period = max(max_period, period)

    if not units:
        raise MalformedRow("no data rows")

    T = max_period
    ids = sorted(units)
    z_col = np.empty(len(ids), dtype=np.int8)
    d_mat = np.empty((len(ids), T), dtype=np.int8)
    y_mat = np.empty((len(ids), T), dtype=np.float64)
    for i, unit in enumerate(ids):
        rows = units[unit]
        if sorted(rows) != list(range(1, T + 1)):
            raise UnbalancedPanel(
                f"unit {unit!r} has periods {sorted(rows)}, expected 1..{T}"
            )
        zs = {zv for zv, _, _ in rows.values()}
        if len(zs) != 1:
            raise InstrumentVariesWithinUnit(f"z varies within unit {unit!r}")
        z_col[i] = zs.pop()
        for t in range(1, T + 1):
            _, d_mat[i, t - 1], y_mat[i, t - 1] = rows[t]

    panel = Panel.from_arrays(ids, z_col, d_mat, y_mat)
    if not 0 < panel.n_z1 < panel.n:
        raise DegenerateInstrument("only one instrument arm present in the data")
    return panel


_NEEDS_QUOTES = re.compile('[,"\r\n]')
"""Characters that force a quoted CSV field: the delimiter, the quote
character, and the line breaks ``csv.reader`` ends a row at."""


def serialize(panel: Panel, dest=None) -> str | None:
    """Write a panel as CSV, rows sorted by (unit_id, period), LF endings.

    Outcomes are written with 17 significant digits so that
    ingest(serialize(panel)) reproduces y bit-exactly. A unit id holding
    a comma, a double quote, CR or LF is quoted with its quotes doubled,
    as ``csv.writer`` quotes a field under ``QUOTE_MINIMAL``; other ids
    are written as they are.
    """
    out = io.StringIO() if dest is None else dest
    out.write(",".join(CSV_HEADER) + "\n")
    periods = range(1, panel.T + 1)
    for unit, z, d_row, y_row in zip(
        panel.unit_ids.tolist(), panel.z.tolist(), panel.d.tolist(), panel.y.tolist()
    ):
        if _NEEDS_QUOTES.search(unit):
            unit = '"' + unit.replace('"', '""') + '"'
        for t, d, y in zip(periods, d_row, y_row):
            out.write(f"{unit},{t},{z},{d},{y:.17g}\n")
    if dest is None:
        return out.getvalue()
    return None


UNTESTABLE_NOTE = (
    "exclusion, independence, and first-period monotonicity are not testable "
    "from (z, d, y) alone; they are recorded as assumed"
)


@dataclass(frozen=True)
class PanelDiagnostics:
    """Result of :func:`check_assumptions`. Diagnostics never raise."""

    n: int
    T: int
    n_z1: int
    n_z0: int
    fs1: float | None
    relevance_ok: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def check_assumptions(panel: Panel) -> PanelDiagnostics:
    """First-period relevance check plus a record of what must be assumed.

    FS_1, its zero test and the single-arm case are those of
    :func:`~dynlate.estimators.estimate`.
    """
    from .estimators import estimate  # estimators imports this module

    notes = [UNTESTABLE_NOTE]
    try:
        est = estimate(panel)
    except DegenerateInstrument:
        notes.append("only one instrument arm present; estimands are undefined")
        return PanelDiagnostics(
            panel.n, panel.T, panel.n_z1, panel.n_z0, None, False, tuple(notes)
        )
    relevance_ok = not est.fs1_is_zero
    if not relevance_ok:
        notes.append("relevance at t=1 fails (FS_1 = 0)")
    return PanelDiagnostics(
        panel.n, panel.T, est.n_z1, est.n_z0, est.fs[0], relevance_ok, tuple(notes)
    )
