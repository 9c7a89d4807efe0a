"""Observed panel data: ingestion and validation.

Panels are balanced long-format (unit, period, z, d, y) with a binary
time-invariant instrument z and a binary irreversible treatment d. Units
are assumed sampled i.i.d.; everything downstream treats the unit as the
resampling block.

A :class:`Panel` holds its unit ids as one fixed-width ``U`` numpy array,
which orders and equates them as ``str`` does once ids ending in NUL are
refused. The CSV form quotes an id the way ``csv.writer`` does, only when
it holds a comma, a double quote, CR or LF, so ``ingest(serialize(panel))``
reproduces any panel ``ingest`` returns.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass

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

UNIT_ID_DTYPE = np.str_
"""Scalar type of :attr:`Panel.unit_ids`: fixed-width ``U`` text, n x
(longest id) x 4 bytes. Its NUL padding cannot hold a trailing NUL, so
:meth:`Panel.from_arrays` refuses an id that ends in one."""

UNIT_ID_MAX_LENGTH = 256
"""Longest unit id in code points; the longest id sets every id's ``U`` slot width."""


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
            np.array_equal(self.unit_ids, other.unit_ids)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.d, other.d)
            and np.array_equal(self.y, other.y)
        )

    @classmethod
    def from_arrays(cls, unit_ids, z, d, y) -> "Panel":
        """Build a validated panel from per-unit arrays.

        Checks shapes, unit ids the CSV form can carry (valid non-empty
        text without surrounding whitespace) that a ``U`` array keeps (no
        trailing NUL; UNIT_ID_MAX_LENGTH code points at most), unique ids,
        binary z/d (as given, before the int8 cast), finite y, irreversible d.
        A ``U`` array of ids is kept as it is; any other input becomes one
        from the ``str`` of each entry, after the trailing-NUL check. Rows
        are sorted by unit id so equal data always yields an identical
        Panel; ids that already increase strictly are kept as they are.

        No copy is made of an input that already has the panel's dtype,
        layout and order: contiguous native ``U`` ids that increase
        strictly, int8 z and d, float64 y. The panel then shares that
        memory, so the caller must not write to the arrays after passing
        them; a write would change the panel, which is treated as
        immutable, and could break its sorted unique ids. Copying instead
        would cost every drawn panel a copy of its arrays.
        """
        ids = _id_array(unit_ids)
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
        _check_id_text(ids)
        order = None
        if not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            dup = np.flatnonzero(ids[1:] == ids[:-1])
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
        drops = d[:, 1:] < d[:, :-1]
        if drops.any():
            row, t = np.argwhere(drops)[0]
            raise TreatmentReversal(str(ids[row]), int(t) + 2)
        return cls(ids, z, d, y)


def _id_array(unit_ids) -> np.ndarray:
    """``unit_ids`` as a contiguous ``U`` array in native byte order, so its
    code points read as uint32. Any other input, such as a list or an object
    array, becomes the ``str`` of each entry; an id ending in NUL (which ``U``
    would drop) or over UNIT_ID_MAX_LENGTH is refused before the conversion."""
    if isinstance(unit_ids, np.ndarray) and unit_ids.dtype.kind == "U":
        return np.ascontiguousarray(unit_ids, dtype=unit_ids.dtype.newbyteorder("="))
    entries = np.asarray(unit_ids, dtype=object)
    texts = list(map(str, entries.flat))
    bad = next((u for u in texts if u.endswith("\x00") or len(u) > UNIT_ID_MAX_LENGTH), None)
    if bad is not None:
        raise MalformedRow(_id_refusal(bad))
    return np.array(texts, dtype=UNIT_ID_DTYPE).reshape(entries.shape)


_ID_RULE = (
    "unit id {!r} must be valid text: non-empty, without surrounding whitespace or a trailing NUL"
)


def _id_refusal(unit_id: str) -> str:
    """Why ``unit_id`` is refused: too long (shown by its head alone), or else _ID_RULE."""
    if len(unit_id) > UNIT_ID_MAX_LENGTH:
        return f"unit id {unit_id[:32]!r}... is {len(unit_id)} long, over {UNIT_ID_MAX_LENGTH}"
    return _ID_RULE.format(unit_id)


_WHITESPACE = np.array([c for c in range(0x3001) if chr(c).isspace()], dtype=np.uint32)
"""Code points ``str.strip()`` removes (U+3000 is the last of them)."""

_IS_WHITESPACE = np.zeros(_WHITESPACE[-1] + 2, dtype=bool)
_IS_WHITESPACE[_WHITESPACE] = True
"""Whether each code point up to U+3001 is in ``_WHITESPACE``. Its last
entry, U+3001, is not, so a lookup that clips a code point past it onto
it reads "not whitespace"."""


def _check_id_text(ids: np.ndarray) -> None:
    """Refuse ids that ``ingest(serialize(...))`` cannot give back: one
    holding a lone surrogate (not UTF-8 text), an empty one, or one with
    whitespace at either end (``ingest`` strips every field). The tests read
    code points: ``np.strings.strip`` would also strip NULs, which
    ``str.strip`` keeps. Each id's first and last code points are looked up
    in ``_IS_WHITESPACE``; the last ones are read by one flat ``take``."""
    codes = ids.view(np.uint32).reshape(ids.size, -1)
    lengths = np.strings.str_len(ids)
    if ids.itemsize > 4 * UNIT_ID_MAX_LENGTH and lengths.max() > UNIT_ID_MAX_LENGTH:
        raise MalformedRow(_id_refusal(str(ids[lengths.argmax()])))
    width = codes.shape[1]
    last = codes.reshape(-1).take(np.arange(0, ids.size * width, width) + lengths - 1)
    bad = (lengths == 0) | _IS_WHITESPACE.take(codes[:, 0], mode="clip")
    bad |= _IS_WHITESPACE.take(last, mode="clip")
    bad[np.flatnonzero((codes >= 0xD800) & (codes <= 0xDFFF)) // width] = True
    if bad.any():
        raise MalformedRow(_ID_RULE.format(str(ids[bad.argmax()])))


def _is_binary(a: np.ndarray) -> bool:
    """Every entry of ``a`` equals 0 or 1, before any cast."""
    return bool(((a == 0) | (a == 1)).all())


def ingest(source) -> Panel:
    """Read and validate a panel from CSV (path, text stream, or text).

    The expected schema is a header ``unit_id,period,z,d,y`` followed by
    one row per (unit, period). Periods must form 1..T for every unit,
    z must be constant within unit, and both instrument arms must appear.
    A string is CSV text if it is empty, has a newline or starts with the
    header; any other string, and any ``os.PathLike``, is a path. A file
    must be UTF-8. One byte-order mark (U+FEFF) before the header is
    ignored. Anything else, bytes and binary streams among them, is a
    ``TypeError``.
    """
    if isinstance(source, str):
        text = source.removeprefix(_BOM)
        if "\n" in source or source == "" or text.startswith(",".join(CSV_HEADER)):
            return _ingest_stream(io.StringIO(source))
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            try:
                return _ingest_stream(fh)
            except UnicodeDecodeError as err:
                raise MalformedRow(
                    f"panel file {os.fsdecode(source)!r} is not UTF-8 text:"
                    f" byte {err.object[err.start]:#04x}, {err.reason}"
                ) from None
    if not isinstance(source, io.TextIOBase):
        raise TypeError(
            "ingest reads a path, CSV text or a text stream,"
            f" got {type(source).__name__}"
        )
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

    # every unit is checked before anything is sized by T: periods are
    # unique and >= 1, so a unit with T of them has exactly 1..T
    T = max_period
    ids = sorted(units)
    for unit in ids:
        rows = units[unit]
        if len(rows) != T:
            raise UnbalancedPanel(
                f"unit {unit!r} has periods {sorted(rows)}, expected 1..{T}"
            )
        if len({zv for zv, _, _ in rows.values()}) != 1:
            raise InstrumentVariesWithinUnit(f"z varies within unit {unit!r}")
    cells = [units[unit][t] for unit in ids for t in range(1, T + 1)]
    z_col = np.fromiter((c[0] for c in cells[::T]), np.int8, len(ids))
    d_mat = np.fromiter((c[1] for c in cells), np.int8, len(cells)).reshape(-1, T)
    y_mat = np.fromiter((c[2] for c in cells), np.float64, len(cells)).reshape(-1, T)
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
