"""Algebra of latent compliance histories under an irreversible treatment.

A unit's entire potential-treatment behaviour is captured by one pair of
adoption times: the first treated period under each instrument arm. The
constant ``NEVER`` marks "not treated within the horizon" and sorts after
every period. All per-period instrument types (always-taker, complier,
defier, never-taker) and the period-t switcher sets fall out of integer
comparisons on that pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PeriodOutOfRange

NEVER: float = math.inf
"""Adoption-time sentinel for units never treated under an arm."""


class IvType(Enum):
    """Instrument type at a single period, from (D_t under z=1, D_t under z=0)."""

    ALWAYS_TAKER = "AT"
    COMPLIER = "C"
    DEFIER = "F"
    NEVER_TAKER = "NT"


@dataclass(frozen=True, order=True)
class AdoptionPair:
    """First treated period under each instrument arm.

    ``s1`` / ``s0`` are 1-based periods or ``NEVER``. Because treatment is
    irreversible, the pair pins down the full treatment path under both
    arms: treated at t under arm z iff the arm's adoption time is <= t.
    """

    s1: float
    s0: float

    def __post_init__(self):
        for name in ("s1", "s0"):
            v = getattr(self, name)
            if v == NEVER:
                object.__setattr__(self, name, NEVER)
                continue
            if not (isinstance(v, (int, float)) and float(v).is_integer() and v >= 1):
                raise ValueError(f"{name} must be a period >= 1 or NEVER, got {v!r}")
            object.__setattr__(self, name, int(v))

    def adoption(self, z: int) -> float:
        return self.s1 if z == 1 else self.s0

    def treated(self, z: int, t: int) -> bool:
        return self.adoption(z) <= t

    @property
    def is_first_period_defier(self) -> bool:
        """Treated from period 1 only when the instrument is off."""
        return self.s0 == 1 and self.s1 > 1

    def __str__(self) -> str:
        fmt = lambda s: "never" if s == NEVER else str(s)
        return f"({fmt(self.s1)},{fmt(self.s0)})"


def type_at(pair: AdoptionPair, t: int) -> IvType:
    """Instrument type of ``pair`` at period ``t``."""
    if not isinstance(t, int) or t < 1:
        raise PeriodOutOfRange(f"period must be an integer >= 1, got {t!r}")
    on = pair.s1 <= t
    off = pair.s0 <= t
    if on and off:
        return IvType.ALWAYS_TAKER
    if on:
        return IvType.COMPLIER
    if off:
        return IvType.DEFIER
    return IvType.NEVER_TAKER


def enumerate_histories(
    T: int, exclude_first_period_defiers: bool = True
) -> list[AdoptionPair]:
    """All adoption pairs for horizon ``T``, sorted by (s1, s0) with NEVER last.

    With the exclusion flag on (the default, matching first-period
    monotonicity) the pairs with s0 = 1 < s1 are dropped, leaving
    (T+1)^2 - T histories.
    """
    if not isinstance(T, int) or T < 1:
        raise PeriodOutOfRange(f"horizon must be an integer >= 1, got {T!r}")
    times = [*range(1, T + 1), NEVER]
    pairs = [AdoptionPair(s1, s0) for s1 in times for s0 in times]
    if exclude_first_period_defiers:
        pairs = [p for p in pairs if not p.is_first_period_defier]
    return sorted(pairs, key=lambda p: (p.s1, p.s0))


def switcher_sets(T: int, t: int) -> tuple[set[AdoptionPair], set[AdoptionPair]]:
    """Histories switching into treatment at ``t`` under z=1 resp. z=0.

    The first set holds pairs with s1 = t (and s0 neither t nor 1); the
    second holds pairs with s0 = t and s1 != t. The pair s1 = s0 = t
    belongs to neither: its arms behave identically, so it contributes
    nothing to arm contrasts.
    """
    _check_switch_period(T, t)
    times = [*range(1, T + 1), NEVER]
    g_plus = {AdoptionPair(t, s0) for s0 in times if s0 != t and s0 != 1}
    g_minus = {AdoptionPair(s1, t) for s1 in times if s1 != t}
    return g_plus, g_minus


def _check_switch_period(T: int, t: int) -> None:
    if not isinstance(T, int) or T < 1:
        raise PeriodOutOfRange(f"horizon must be an integer >= 1, got {T!r}")
    if not isinstance(t, int) or not 2 <= t <= T:
        raise PeriodOutOfRange(f"switch period must be in 2..{T}, got {t!r}")


_AT, _C, _F, _NT = IvType.ALWAYS_TAKER, IvType.COMPLIER, IvType.DEFIER, IvType.NEVER_TAKER

_RUNS = {
    "C1": lambda k, l: ((_C, 1),),
    "CAT": lambda k, l: ((_C, k - 1), (_AT, 1)),
    "NTC": lambda k, l: ((_NT, k - 1), (_C, 1)),
    "NTF": lambda k, l: ((_NT, k - 1), (_F, 1)),
    "NTCAT": lambda k, l: ((_NT, l - 1), (_C, k - l), (_AT, 1)),
    "NTFAT": lambda k, l: ((_NT, l - 1), (_F, k - l), (_AT, 1)),
}
"""Each group kind's type path through its switch k (entry l) as (type, length) runs."""


@dataclass(frozen=True)
class GroupLabel:
    """Named family of adoption pairs sharing a compliance-history pattern.

    ``kind`` is one of C1, CAT, NTC, NTF, NTCAT, NTFAT. ``switch`` is the
    period the family switches into treatment (1 for C1); ``entry`` is the
    earlier arm-specific adoption period for the two-step kinds (NTCAT,
    NTFAT) and is None otherwise. The name, the type path and the members
    all follow from the kind's runs in ``_RUNS``.
    """

    kind: str
    switch: int
    entry: int | None = None

    def __post_init__(self):
        if self.kind not in _RUNS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "C1" and self.switch != 1:
            raise ValueError("C1 has switch period 1")
        if self.kind in {"CAT", "NTC", "NTF"} and self.switch < 2:
            raise ValueError(f"{self.kind} needs switch period >= 2")
        if self.kind in {"NTCAT", "NTFAT"}:
            if self.entry is None or not 2 <= self.entry < self.switch:
                raise ValueError(f"{self.kind} needs 2 <= entry < switch")
        elif self.entry is not None:
            raise ValueError(f"{self.kind} takes no entry period")

    def members(self, T: int) -> tuple[AdoptionPair, ...]:
        """All adoption pairs in this family for horizon ``T``.

        Each arm adopts at the first period its type path treats it; an arm
        the path leaves untreated adopts at any later period through T, or never.
        """
        runs = _RUNS[self.kind](self.switch, self.entry)

        def adoption(treated: tuple[IvType, IvType]) -> list[float]:
            t = 1
            for ty, length in runs:
                if ty in treated:
                    return [t]
                t += length
            return [*range(t, T + 1), NEVER]

        return tuple(
            AdoptionPair(s1, s0) for s1 in adoption((_C, _AT)) for s0 in adoption((_F, _AT))
        )

    def type_path(self) -> tuple[IvType, ...]:
        """Per-period instrument types through the switch period."""
        runs = _RUNS[self.kind](self.switch, self.entry)
        return tuple(ty for ty, length in runs for _ in range(length))

    def __str__(self) -> str:
        parts, lo = [], 1
        for ty, length in _RUNS[self.kind](self.switch, self.entry):
            hi = lo + length - 1
            parts.append(f"{ty.value}{lo}" if lo == hi else f"{ty.value}{lo}:{hi}")
            lo = hi + 1
        return ",".join(parts)


C1 = GroupLabel("C1", 1)


def switcher_group_labels(t: int) -> tuple[tuple[GroupLabel, ...], tuple[GroupLabel, ...]]:
    """Group labels switching into treatment at ``t``: (under z=1, under z=0)."""
    if not isinstance(t, int) or t < 2:
        raise PeriodOutOfRange(f"switch period must be an integer >= 2, got {t!r}")
    plus = (GroupLabel("NTC", t),) + tuple(
        GroupLabel("NTFAT", t, l) for l in range(2, t)
    )
    minus = (GroupLabel("CAT", t), GroupLabel("NTF", t)) + tuple(
        GroupLabel("NTCAT", t, l) for l in range(2, t)
    )
    return plus, minus
