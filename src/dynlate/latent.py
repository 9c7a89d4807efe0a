"""Algebra of latent compliance histories under an irreversible treatment.

A unit's entire potential-treatment behaviour is captured by one pair of
adoption times: the first treated period under each instrument arm. The
constant ``NEVER`` marks "not treated within the horizon" and sorts after
every period. A latent group kind is a path of per-period instrument types
(always-taker, complier, defier, never-taker) in runs; the paper's taxonomy,
against which the groups' members are checked, is in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PeriodOutOfRange
from .estimands import is_integer

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
            if not (is_integer(v) and v >= 1):
                raise ValueError(f"{name} must be a period >= 1 or NEVER, got {v!r}")
            object.__setattr__(self, name, int(v))

    def adoption(self, z: int) -> float:
        return self.s1 if z == 1 else self.s0

    @property
    def is_first_period_defier(self) -> bool:
        """Treated from period 1 only when the instrument is off."""
        return self.s0 == 1 and self.s1 > 1

    def __str__(self) -> str:
        fmt = lambda s: "never" if s == NEVER else str(s)
        return f"({fmt(self.s1)},{fmt(self.s0)})"


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
    NTFAT) and is None otherwise. The name and the members both follow from
    the kind's runs in ``_RUNS``.
    """

    kind: str
    switch: int
    entry: int | None = None

    def __post_init__(self):
        if self.kind not in _RUNS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not is_integer(self.switch) or not (self.entry is None or is_integer(self.entry)):
            raise ValueError(
                f"switch and entry must be integer periods, got {self.switch!r}, {self.entry!r}"
            )
        object.__setattr__(self, "switch", int(self.switch))
        if self.entry is not None:
            object.__setattr__(self, "entry", int(self.entry))
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
    if not is_integer(t) or t < 2:
        raise PeriodOutOfRange(f"switch period must be an integer >= 2, got {t!r}")
    t = int(t)
    plus = (GroupLabel("NTC", t),) + tuple(
        GroupLabel("NTFAT", t, l) for l in range(2, t)
    )
    minus = (GroupLabel("CAT", t), GroupLabel("NTF", t)) + tuple(
        GroupLabel("NTCAT", t, l) for l in range(2, t)
    )
    return plus, minus
