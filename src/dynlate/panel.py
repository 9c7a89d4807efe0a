"""Observed panel data: ingestion, validation, and assumption diagnostics.

Panels are balanced long-format (unit, period, z, d, y) with a binary
time-invariant instrument z and a binary irreversible treatment d. Units
are assumed sampled i.i.d.; everything downstream treats the unit as the
resampling block.
"""

from __future__ import annotations

import csv
import io
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


@dataclass(eq=False)
class Panel:
    """Balanced panel in unit-major arrays, rows sorted by unit id.

    ``z`` has shape (n,), ``d`` and ``y`` have shape (n, T) with column
    t-1 holding period t. Instances are treated as immutable after
    construction; nothing in the package mutates them.
    """

    unit_ids: tuple[str, ...]
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

    @property
    def has_both_arms(self) -> bool:
        return self.n_z1 > 0 and self.n_z0 > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return (
            self.unit_ids == other.unit_ids
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.d, other.d)
            and np.array_equal(self.y, other.y)
        )

    @classmethod
    def from_arrays(cls, unit_ids, z, d, y) -> "Panel":
        """Build a validated panel from per-unit arrays.

        Checks shapes, binary z/d, finite y, unique unit ids, and
        irreversibility of d. Rows are sorted by unit id so equal data
        always yields an identical Panel.
        """
        ids = tuple(str(u) for u in unit_ids)
        z = np.asarray(z, dtype=np.int8)
        d = np.asarray(d, dtype=np.int8)
        y = np.asarray(y, dtype=np.float64)
        n = len(ids)
        if n == 0:
            raise UnbalancedPanel("panel has no units")
        if d.ndim != 2 or y.shape != d.shape or z.shape != (n,) or d.shape[0] != n:
            raise MalformedRow("array shapes are inconsistent")
        if d.shape[1] < 1:
            raise UnbalancedPanel("panel has no periods")
        if len(set(ids)) != n:
            raise UnbalancedPanel("duplicate unit ids")
        if not np.isin(z, (0, 1)).all() or not np.isin(d, (0, 1)).all():
            raise MalformedRow("z and d must be 0 or 1")
        if not np.isfinite(y).all():
            raise MalformedRow("y must be finite")
        order = np.argsort(np.array(ids, dtype=object), kind="stable")
        if not np.array_equal(order, np.arange(n)):
            ids = tuple(ids[i] for i in order)
            z, d, y = z[order], d[order], y[order]
        drops = np.argwhere(np.diff(d.astype(np.int16), axis=1) < 0)
        if drops.size:
            row, t = drops[0]
            raise TreatmentReversal(ids[row], int(t) + 2)
        return cls(ids, z, d, y)


def ingest(source) -> Panel:
    """Read and validate a panel from CSV (path, text stream, or text).

    The expected schema is a header ``unit_id,period,z,d,y`` followed by
    one row per (unit, period). Periods must form 1..T for every unit,
    z must be constant within unit, and both instrument arms must appear.
    A string is CSV text if it is empty, has a newline or starts with the
    header; any other string is a path.
    """
    if isinstance(source, str):
        if "\n" in source or source == "" or source.startswith(",".join(CSV_HEADER)):
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
    if not panel.has_both_arms:
        raise DegenerateInstrument("only one instrument arm present in the data")
    return panel


def serialize(panel: Panel, dest=None) -> str | None:
    """Write a panel as CSV, rows sorted by (unit_id, period), LF endings.

    Outcomes are written with 17 significant digits so that
    ingest(serialize(panel)) reproduces y bit-exactly.
    """
    out = io.StringIO() if dest is None else dest
    out.write(",".join(CSV_HEADER) + "\n")
    for i, unit in enumerate(panel.unit_ids):
        for t in range(1, panel.T + 1):
            out.write(
                f"{unit},{t},{panel.z[i]},{panel.d[i, t - 1]},"
                f"{panel.y[i, t - 1]:.17g}\n"
            )
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

    FS_1 and its zero test are those of :func:`~dynlate.estimators.estimate`.
    """
    from .estimators import estimate  # estimators imports this module

    notes = [UNTESTABLE_NOTE]
    if not panel.has_both_arms:
        notes.append("only one instrument arm present; estimands are undefined")
        return PanelDiagnostics(
            panel.n, panel.T, panel.n_z1, panel.n_z0, None, False, tuple(notes)
        )
    est = estimate(panel)
    relevance_ok = not est.fs1_is_zero
    if not relevance_ok:
        notes.append("relevance at t=1 fails (FS_1 = 0)")
    return PanelDiagnostics(
        panel.n, panel.T, panel.n_z1, panel.n_z0, est.fs[0], relevance_ok, tuple(notes)
    )
