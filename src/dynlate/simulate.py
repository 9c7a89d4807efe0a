"""Sampling from a DGP and Monte Carlo comparison against the exact oracle.

Replication r always draws from a stream seeded by (seed, r), so its
draws depend on nothing but the seed and its index. A study builds one
stacked table of treatment paths and outcome means per (arm, history)
pair; each draw takes a history, an arm and the noise from its stream
(in that order) and reads its units' rows of the table in one gather.
Replications draw plain (z, d, y) arrays, skip the panel layer, stack
their :func:`~dynlate.estimators.arm_sums` moment rows, and are evaluated
together as rows of one :func:`~dynlate.estimators.target_columns` table.
The oracle is the
one-row table of the population estimands
(:func:`~dynlate.estimators.target_row`), so both share the targets'
names, report order and defined-target rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, contaminating_effect_range, population_estimands
from .errors import DegenerateInstrument
from .estimators import ALL_TARGETS, arm_sums, moment_estimands, target_columns, target_row
from .panel import UNIT_ID_DTYPE, Panel


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The RNG stream of replication (or bootstrap resample) ``rep``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _arm_table(spec: DgpSpec):
    """Treatment paths (int8) and outcome means of every (arm, history) pair.

    Both are (2H, T) with H = len(spec.histories); row z*H + h holds
    history h in arm z.
    """
    cells = [(h, h.pair.adoption(z)) for z in (0, 1) for h in spec.histories]
    periods = range(1, spec.T + 1)
    d_tab = np.array([[1 if a <= t else 0 for t in periods] for _, a in cells], dtype=np.int8)
    mean_tab = np.array(
        [[h.mean_outcome(t, a) for t in periods] for h, a in cells], dtype=np.float64
    )
    return d_tab, mean_tab


def _draw_assignments(spec: DgpSpec, n: int, rng: np.random.Generator):
    probs = np.array([h.prob for h in spec.histories], dtype=np.float64)
    hist = rng.choice(len(probs), size=n, p=probs)
    z = (rng.random(n) < spec.pz).astype(np.int8)
    return hist, z


def _draw_arrays(spec: DgpSpec, n: int, rng: np.random.Generator, table):
    """(z, d, y) of n units: latent history, then arm, then outcomes plus noise.

    ``table`` is ``_arm_table(spec)``; each unit reads one row of it.
    """
    hist, z = _draw_assignments(spec, n, rng)
    y = rng.normal(0.0, spec.noise_sd, size=(n, spec.T))
    d_tab, mean_tab = table
    row = hist + len(spec.histories) * z.astype(np.intp)
    y += mean_tab.take(row, axis=0)  # noise + mean: the bits of mean + noise
    return z, d_tab.take(row, axis=0), y


def draw_panel(spec: DgpSpec, n: int, seed: int) -> Panel:
    """Draw n units with :func:`_draw_arrays` as a panel with ids u0, u1, ....

    Ids are zero-padded to the width of n - 1, so they sort in draw order.

    Adoption pairs make treatment paths irreversible by construction, so
    the result always passes panel validation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z, d, y = _draw_arrays(spec, n, rng, _arm_table(spec))
    digits = np.arange(n).astype(UNIT_ID_DTYPE)
    ids = np.strings.add("u", np.strings.zfill(digits, len(str(n - 1))))
    return Panel.from_arrays(ids, z, d, y)


@dataclass(frozen=True)
class TargetSummary:
    """Across-replication summary for one scalar target."""

    name: str
    oracle: float
    mean: float | None
    bias: float | None
    sd: float | None
    n_ok: int
    n_failed: int


@dataclass(frozen=True)
class MonteCarloSummary:
    """Monte Carlo results with the population oracle attached to every row."""

    n: int
    reps: int
    seed: int
    T: int
    targets: tuple[str, ...]
    lo: float
    hi: float
    rows: tuple[TargetSummary, ...]

    def row(self, name: str) -> TargetSummary:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def monte_carlo(
    spec: DgpSpec,
    n: int,
    reps: int,
    seed: int,
    targets=ALL_TARGETS,
    lo: float | None = None,
    hi: float | None = None,
    threads: int = 1,
) -> MonteCarloSummary:
    """Repeatedly draw samples and summarize estimator error against the oracle.

    Estimator failures inside a replication (a single instrument arm,
    undefined IV, zero first stage) drop that replication for the
    affected targets only and are counted per target. Default effect
    bounds come from the spec's own contaminating-effect envelope.
    The oracle is the one-row target table of the population estimands,
    under the population zero rule; a target it leaves undefined has no
    row. Replications run in one thread; ``threads`` must be at least 1
    and is otherwise ignored.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0.0 < spec.pz < 1.0:
        raise DegenerateInstrument(f"pz = {spec.pz} puts every unit in one instrument arm")
    targets = tuple(targets)
    if lo is None or hi is None:
        auto_lo, auto_hi = contaminating_effect_range(spec)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
    # fs_1 = P(C1) > 0 for a valid spec, so the oracle keeps every identify
    # and bounds target
    oracle = target_row(population_estimands(spec), targets, lo, hi)

    table = _arm_table(spec)
    M = np.stack(
        [arm_sums(*_draw_arrays(spec, n, rep_rng(seed, r), table)) for r in range(reps)]
    )
    both_arms, *moments = moment_estimands(M)
    replicated = target_columns(*moments, targets, lo, hi)
    rows = []
    for (name, truth, truth_ok), (_, values, ok) in zip(oracle, replicated, strict=True):
        if not truth_ok[0]:
            continue
        truth = float(truth[0])
        values = values[ok & both_arms]
        n_ok = len(values)
        mean = float(np.mean(values)) if n_ok else None
        sd = float(np.std(values, ddof=1)) if n_ok >= 2 else None
        rows.append(
            TargetSummary(
                name=name,
                oracle=truth,
                mean=mean,
                bias=None if mean is None else mean - truth,
                sd=sd,
                n_ok=n_ok,
                n_failed=reps - n_ok,
            )
        )
    return MonteCarloSummary(
        n=n,
        reps=reps,
        seed=seed,
        T=spec.T,
        targets=targets,
        lo=lo,
        hi=hi,
        rows=tuple(rows),
    )
