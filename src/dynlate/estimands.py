"""Shared container for per-period estimands (population or sample)."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

from .errors import PeriodOutOfRange

POPULATION_ZERO_TOL = 1e-12
"""Population quantities within this of zero are treated as exactly zero."""


def is_zero(value: float, kind: str) -> bool:
    """The zero test of ``kind`` estimands, as :class:`EstimandSet` applies it.

    Population values are exact up to rounding, so anything within
    POPULATION_ZERO_TOL of zero is zero; sample values are differences of
    count ratios, which either match exactly or do not. Numpy arrays are
    tested element-wise.
    """
    if kind == "population":
        return abs(value) < POPULATION_ZERO_TOL
    return value == 0.0


def is_positive(value: float, kind: str) -> bool:
    """The bounds' relevance test of ``kind`` estimands: ``value`` above the
    zero band of :func:`is_zero`. Numpy arrays are tested element-wise."""
    return value > (POPULATION_ZERO_TOL if kind == "population" else 0.0)


def is_integer(value) -> bool:
    """The library's one integer rule, for periods, T, adoption times and run
    sizes: any ``numbers.Integral`` (NumPy's integers too) but ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_period(t: int, T: int, lo: int = 1) -> int:
    """Refuse anything but an :func:`is_integer` period in lo..T, for
    estimands and specs; the period is returned as an ``int``."""
    if T < lo:
        raise PeriodOutOfRange(f"no period in {lo}..{T}: the input has T = {T}")
    if not is_integer(t) or not lo <= t <= T:
        raise PeriodOutOfRange(f"period must be in {lo}..{T}, got {t!r}")
    return int(t)


@dataclass(frozen=True)
class EstimandSet:
    """Per-period reduced forms, first stages, and switching probabilities.

    Vectors are indexed by period: ``rf[t-1]`` is the period-t reduced
    form. ``rho[t-2]`` is fs_{t-1} - fs_t for t = 2..T, the net excess
    switching into treatment at t under z=0 versus z=1. ``switch_z0`` /
    ``switch_z1`` hold P(d_t > d_1 | z) for t = 2..T, the cumulative
    switching probability since period 1 (so their difference telescopes
    to fs_1 - fs_t, which equals rho_t at t = 2). ``iv[t-1]`` is
    rf_t / fs_t, None where the first stage is zero. ``iv`` and ``rho``
    are derived from ``rf`` and ``fs``, never passed in.

    ``kind`` distinguishes exact population values ("population") from
    sample analogues ("sample"); it selects the zero test of
    :func:`is_zero`. Fields are declared in the key order of the report
    :func:`~dynlate.reporting.estimands_to_dict` writes.
    """

    T: int
    kind: str = field(default="population", kw_only=True)
    rf: tuple[float, ...]
    fs: tuple[float, ...]
    iv: tuple[float | None, ...] = field(init=False)
    rho: tuple[float, ...] = field(init=False)
    switch_z0: tuple[float, ...]
    switch_z1: tuple[float, ...]
    n: int | None = None
    n_z1: int | None = None
    n_z0: int | None = None

    def __post_init__(self):
        if self.kind not in ("population", "sample"):
            raise ValueError(f"kind must be population or sample, got {self.kind!r}")
        T = self.T
        if not (len(self.rf) == len(self.fs) == T):
            raise ValueError("rf and fs must have length T")
        if not (len(self.switch_z0) == len(self.switch_z1) == T - 1):
            raise ValueError("switch vectors must have length T-1")
        iv = tuple(None if is_zero(f, self.kind) else r / f for r, f in zip(self.rf, self.fs))
        object.__setattr__(self, "iv", iv)
        object.__setattr__(self, "rho", tuple(a - b for a, b in zip(self.fs, self.fs[1:])))

    def rf_at(self, t: int) -> float:
        _check_period(t, self.T)
        return self.rf[t - 1]

    def fs_at(self, t: int) -> float:
        _check_period(t, self.T)
        return self.fs[t - 1]

    def iv_at(self, t: int) -> float | None:
        _check_period(t, self.T)
        return self.iv[t - 1]
