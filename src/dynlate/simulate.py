"""Sampling from a DGP and Monte Carlo comparison against the exact oracle.

Replication r always draws from a stream seeded by (seed, r), so its
draws depend on nothing but the seed and its index. Replications draw
plain (z, d, y) arrays, skip the panel layer, and are evaluated together
as rows of one :func:`~dynlate.estimators.target_columns` table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgp import DgpSpec, contaminating_effect_range, population_estimands
from .errors import DegenerateInstrument, DynlateError
from .estimators import (
    BOUND_METHODS,
    arm_moments,
    identify,
    selected_methods,
    target_columns,
)
from .panel import Panel

ALL_TARGETS = ("estimands", "identify", "bounds")
"""Target groups of :func:`~dynlate.estimators.target_columns`, in report order."""


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """The RNG stream of replication (or bootstrap resample) ``rep``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _arm_tables(spec: DgpSpec):
    """Per-history treatment paths and outcome means for each arm."""
    T = spec.T
    d_arm, mean_arm = [], []
    for z in (0, 1):
        d_arm.append(
            np.array(
                [
                    [1 if h.pair.adoption(z) <= t else 0 for t in range(1, T + 1)]
                    for h in spec.histories
                ],
                dtype=np.int8,
            )
        )
        mean_arm.append(
            np.array(
                [
                    [h.mean_outcome(t, h.pair.adoption(z)) for t in range(1, T + 1)]
                    for h in spec.histories
                ],
                dtype=np.float64,
            )
        )
    return d_arm, mean_arm


def _draw_assignments(spec: DgpSpec, n: int, rng: np.random.Generator):
    probs = np.array([h.prob for h in spec.histories], dtype=np.float64)
    hist = rng.choice(len(probs), size=n, p=probs)
    z = (rng.random(n) < spec.pz).astype(np.int8)
    return hist, z


def _draw_arrays(spec: DgpSpec, n: int, rng: np.random.Generator):
    """(z, d, y) of n units: latent history, then arm, then outcomes plus noise."""
    hist, z = _draw_assignments(spec, n, rng)
    noise = rng.normal(0.0, spec.noise_sd, size=(n, spec.T))
    d_arm, mean_arm = _arm_tables(spec)
    on = (z == 1)[:, None]
    d = np.where(on, d_arm[1][hist], d_arm[0][hist])
    y = np.where(on, mean_arm[1][hist], mean_arm[0][hist]) + noise
    return z, d, y


def draw_panel(spec: DgpSpec, n: int, seed: int) -> Panel:
    """Draw n units with :func:`_draw_arrays` as a panel with ids u0, u1, ....

    Adoption pairs make treatment paths irreversible by construction, so
    the result always passes panel validation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z, d, y = _draw_arrays(spec, n, np.random.default_rng(np.random.SeedSequence(seed)))
    width = len(str(n - 1))
    return Panel.from_arrays(tuple(f"u{i:0{width}d}" for i in range(n)), z, d, y)


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


def _target_values(est, targets, lo, hi) -> dict[str, float]:
    """Every requested target the scalar estimators define for ``est``.

    Applied to the population estimands this is the oracle: for
    calendar-homogeneous DGPs the identified profile coincides with the
    true dynamic effects, and in general it is the population value of the
    same functional each replication computes. A target the estimators
    reject (undefined IV, zero first stage) is left out.
    """
    out: dict[str, float] = {}
    if "estimands" in targets:
        for t in range(1, est.T + 1):
            out[f"rf[{t}]"] = est.rf_at(t)
            out[f"fs[{t}]"] = est.fs_at(t)
            iv = est.iv_at(t)
            if iv is not None:
                out[f"iv[{t}]"] = iv
    if "identify" in targets:
        try:
            prof = identify(est)
            for tau, v in enumerate(prof.deltas):
                out[f"delta[{tau}]"] = v
        except DynlateError:
            pass
    if "bounds" in targets:
        for name in selected_methods(lo, hi):
            for t in range(2, est.T + 1):
                try:
                    rep = BOUND_METHODS[name](est, t, lo, hi)
                except DynlateError:
                    continue
                out[f"{name}_lower[{t}]"] = rep.lower
                out[f"{name}_upper[{t}]"] = rep.upper
    return out


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
    Replications run in one thread; ``threads`` is accepted and ignored.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0.0 < spec.pz < 1.0:
        raise DegenerateInstrument(f"pz = {spec.pz} puts every unit in one instrument arm")
    targets = tuple(targets)
    unknown = set(targets) - set(ALL_TARGETS)
    if unknown:
        raise ValueError(f"unknown targets {sorted(unknown)}; valid: {ALL_TARGETS}")
    if lo is None or hi is None:
        auto_lo, auto_hi = contaminating_effect_range(spec)
        lo = auto_lo if lo is None else lo
        hi = auto_hi if hi is None else hi
    # fs_1 = P(C1) > 0 for a valid spec, so the oracle keeps every identify
    # and bounds target
    oracle = _target_values(population_estimands(spec), targets, lo, hi)

    T = spec.T
    rf, fs, sw0, sw1 = (np.zeros((reps, k)) for k in (T, T, T - 1, T - 1))
    both_arms = np.zeros(reps, dtype=bool)
    for r in range(reps):
        z, d, y = _draw_arrays(spec, n, rep_rng(seed, r))
        if 0 < z.sum() < n:
            both_arms[r] = True
            rf[r], fs[r], sw0[r], sw1[r] = arm_moments(z, d, y)
    columns = {
        name: values[ok & both_arms]
        for name, values, ok in target_columns(rf, fs, sw0, sw1, targets, lo, hi)
    }
    rows = []
    for name in oracle:
        values = columns[name]
        n_ok = len(values)
        mean = float(np.mean(values)) if n_ok else None
        sd = float(np.std(values, ddof=1)) if n_ok >= 2 else None
        rows.append(
            TargetSummary(
                name=name,
                oracle=oracle[name],
                mean=mean,
                bias=None if mean is None else mean - oracle[name],
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
