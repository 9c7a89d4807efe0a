"""Population data-generating processes over latent adoption histories.

A DGP assigns each adoption pair a probability, a no-treatment mean path,
and a triangular effect surface (period t, exposure tau <= t-1). Because
the history list is finite, every estimand, every term of the reduced-form
decomposition, and every group-level average effect can be computed
exactly by enumeration. That makes this module the oracle the estimator
and simulation tests are checked against. A spec is described once, by
the table of its (arm, history) cells (:attr:`DgpSpec.cells`): the oracle
sums its arm contrasts with ``math.fsum``, and the draws of
:mod:`dynlate.simulate` read it too. Its latent groups, with the sign each
carries in a decomposition, are one more read-only table (:attr:`DgpSpec.groups`).
"""

from __future__ import annotations

import codecs
import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import SchemaMismatch, SpecValidationError
from .estimands import POPULATION_ZERO_TOL, EstimandSet, _check_period, is_integer
from .estimands import is_positive, is_zero
from .estimators import moment_features
from .latent import C1, NEVER, AdoptionPair, GroupLabel, switcher_group_labels

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class HistorySpec:
    """One adoption pair with its probability, baselines, and effects.

    ``baseline[t-1]`` is the untreated mean at period t. ``effects`` is
    triangular: ``effects[t-1][tau]`` is the mean effect at period t of
    having first been treated at t - tau. The treated mean at period t
    with exposure tau is baseline + effect.
    """

    pair: AdoptionPair
    prob: float
    baseline: tuple[float, ...]
    effects: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(float(b) for b in self.baseline))
        object.__setattr__(
            self, "effects", tuple(tuple(float(e) for e in row) for row in self.effects)
        )
        T = len(self.baseline)
        if len(self.effects) != T:
            raise SpecValidationError(
                f"history {self.pair}: effects must have {T} rows, got {len(self.effects)}"
            )
        for t, row in enumerate(self.effects, start=1):
            if len(row) != t:
                raise SpecValidationError(
                    f"history {self.pair}: effects row {t} must have {t} entries"
                )
        if not 0.0 <= self.prob <= 1.0:
            raise SpecValidationError(f"history {self.pair}: prob must be in [0, 1]")
        values = [*self.baseline, *(e for row in self.effects for e in row)]
        if not all(math.isfinite(v) for v in values):
            raise SpecValidationError(f"history {self.pair}: non-finite mean or effect")

    @property
    def T(self) -> int:
        return len(self.baseline)

    def effect(self, t: int, tau: int) -> float:
        return self.effects[t - 1][tau]

    def treated_effect(self, t: int, s: float) -> float:
        """Effect contribution at period t when first treated at s (0 if untreated)."""
        if s <= t:
            return self.effects[t - 1][t - int(s)]
        return 0.0


@dataclass(frozen=True)
class _Cells:
    """The (arm, history) cells of a spec, read-only.

    H = len(spec.histories); cell z*H + h is history h in instrument arm z.

    - ``prob`` and ``cdf``: the H history probabilities and
      ``Generator.choice``'s inverse CDF of them (cumulative sums over the total).
    - ``d`` (int8), ``effect`` and ``mean``: the (2H, T) treatment paths,
      treated effects (0.0 while untreated) and outcome means, baseline +
      effect. ``normal(0, sd)`` draws 0.0 + sd * x, so the scaled standard
      normals added to ``mean`` give its bits once every -0.0 mean is +0.0.
    - ``features``: the (2H, 6T) integer :func:`~dynlate.estimators.moment_features`
      of the cells with y = 0: cell counts times it are a moment row's
      integer columns, exactly and with no BLAS call.
    """

    prob: np.ndarray
    cdf: np.ndarray
    d: np.ndarray
    effect: np.ndarray
    mean: np.ndarray
    features: np.ndarray

    def contrasts(self, column: np.ndarray) -> np.ndarray:
        """p_h * (arm-1 cell - arm-0 cell) of a (2H, T) column, one row per history."""
        H = len(self.prob)
        return self.prob[:, None] * (column[H:] - column[:H])


@dataclass(frozen=True)
class DgpSpec:
    """Full population model: horizon, instrument share, histories, noise."""

    T: int
    pz: float
    histories: tuple[HistorySpec, ...]
    noise_sd: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "histories", tuple(self.histories))
        if not is_integer(self.T) or self.T < 1:
            raise SpecValidationError(f"T must be an integer >= 1, got {self.T!r}")
        object.__setattr__(self, "T", int(self.T))
        if not 0.0 <= self.pz <= 1.0:
            raise SpecValidationError(f"pz must be in [0, 1], got {self.pz!r}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise SpecValidationError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if not self.histories:
            raise SpecValidationError("at least one history is required")
        seen = set()
        for h in self.histories:
            if h.T != self.T:
                raise SpecValidationError(
                    f"history {h.pair} has horizon {h.T}, spec has {self.T}"
                )
            for s in (h.pair.s1, h.pair.s0):
                if s != NEVER and s > self.T:
                    raise SpecValidationError(
                        f"history {h.pair}: adoption period beyond horizon {self.T}"
                    )
            if h.pair.is_first_period_defier:
                raise SpecValidationError(
                    f"history {h.pair} is a first-period defier (s0 = 1 < s1)"
                )
            if h.pair in seen:
                raise SpecValidationError(f"duplicate history {h.pair}")
            seen.add(h.pair)
        total = math.fsum(h.prob for h in self.histories)
        if abs(total - 1.0) > 1e-12:
            raise SpecValidationError(
                f"history probabilities sum to {total!r}, expected 1 within 1e-12"
            )
        # every contrast p_h * gap is then finite, and so is each fsum of them
        cells, H = self.cells, len(self.histories)
        with np.errstate(over="ignore"):
            gap = cells.effect[H:] - cells.effect[:H]
        for what, table in (("cell mean", cells.mean), ("arm effect difference", gap)):
            bad = np.argwhere(~np.isfinite(table))
            if len(bad):
                row, t = bad[0]
                raise SpecValidationError(
                    f"history {self.histories[row % H].pair}: {what} at t={t + 1}"
                    " overflows the float range"
                )
        if not is_positive(self.p_c1, "population"):
            raise SpecValidationError(
                "relevance fails: no first-period compliers (P(C1) is zero)"
            )

    @property
    def p_c1(self) -> float:
        """P(C1) of first-period compliers (s1 = 1, s0 >= 2): FS_1, as defiers are refused."""
        return math.fsum(self.cells.contrasts(self.cells.d)[:, 0])

    @cached_property
    def cells(self) -> _Cells:
        """The spec's :class:`_Cells`, built with it: validation reads it."""
        H, periods = len(self.histories), range(1, self.T + 1)
        prob = np.array([h.prob for h in self.histories], dtype=np.float64)
        cdf = prob.cumsum()
        cdf /= cdf[-1]
        cells = [(h, h.pair.adoption(z)) for z in (0, 1) for h in self.histories]
        d = np.array([[a <= t for t in periods] for _, a in cells], dtype=np.int8)
        effect = np.array([[h.treated_effect(t, a) for t in periods] for h, a in cells])
        with np.errstate(over="ignore"):  # validation refuses a mean past the float range
            mean = np.array([h.baseline for h, _ in cells]) + effect + 0.0  # -0.0 to +0.0
        features = moment_features(np.repeat([0, 1], H), d, np.zeros(d.shape)).astype(np.intp)
        table = _Cells(prob, cdf, d, effect, mean, features)
        for column in vars(table).values():
            column.flags.writeable = False
        return table

    @cached_property
    def groups(self) -> MappingProxyType[GroupLabel, tuple[int, tuple[HistorySpec, ...]]]:
        """Each group with positive-probability members: label -> (sign, members).

        Members run in spec order, entries in ``decompose``'s: C1 (+1), then at
        each switch period k the groups switching under z=0 (-1) and under z=1
        (+1). Only the (k, arm) at which some member adopts are enumerated; a
        label with no entry has no members."""
        at = {h.pair: i for i, h in enumerate(self.histories) if h.prob > 0.0}
        s0, s1 = ({p.adoption(z) for p in at} for z in (0, 1))
        labelled = [(C1, +1)]
        for k in sorted((s0 | s1) - {1, NEVER}):
            plus, minus = switcher_group_labels(k)
            labelled += [(x, -1) for x in minus if k in s0] + [(x, +1) for x in plus if k in s1]
        table = {}
        for label, sign in labelled:
            found = sorted(at[p] for p in label.members(self.T) if p in at)
            if found:
                table[label] = (sign, tuple(self.histories[i] for i in found))
        return MappingProxyType(table)

    def group_effect(self, label: GroupLabel, t: int, tau: int) -> float | None:
        """Probability-weighted mean of effects[t][tau] over the label's members."""
        total, raw = _group_sums(self.groups.get(label, (0, ()))[1], t, tau)
        return None if total == 0.0 else raw / total


def _group_sums(members: tuple[HistorySpec, ...], t: int, tau: int) -> tuple[float, float]:
    """The members' probability and their weighted effects[t][tau] sum."""
    return math.fsum(h.prob for h in members), math.fsum(h.prob * h.effect(t, tau) for h in members)


def population_estimands(spec: DgpSpec) -> EstimandSet:
    """Exact per-period estimands, ``math.fsum`` sums over the spec's histories.

    Baselines cancel within a history, so rf_t sums p_h * (effect_1 -
    effect_0) of its cells, fs_t sums p_h * (d_1 - d_0), and P(d_t > d_1 | z)
    sums p_h over the histories whose arm-z path has switched by t.
    """
    cells, H = spec.cells, len(spec.histories)
    switched = cells.d[:, 1:] > cells.d[:, :1]
    return EstimandSet(
        T=spec.T,
        rf=tuple(math.fsum(col) for col in cells.contrasts(cells.effect).T),
        fs=tuple(math.fsum(col) for col in cells.contrasts(cells.d).T),
        switch_z0=tuple(math.fsum(cells.prob[col]) for col in switched[:H].T),
        switch_z1=tuple(math.fsum(cells.prob[col]) for col in switched[H:].T),
        kind="population",
    )


def true_dynamic_lates(spec: DgpSpec) -> tuple[float, ...]:
    """Mean effect at each period t of adoption at t=1, among first-period compliers."""
    return tuple(spec.group_effect(C1, t, t - 1) for t in range(1, spec.T + 1))


@dataclass(frozen=True)
class DecompositionTerm:
    """One weighted causal-effect term of the period-t reduced form."""

    label: GroupLabel
    members: tuple[AdoptionPair, ...]
    switch_period: int
    exposure: int
    sign: int
    probability: float
    effect: float
    signed_value: float
    weight: float | None


@dataclass(frozen=True)
class DecompositionReport:
    """Period-t reduced form split into the lead term and switcher terms.

    ``lead`` carries the first-period compliers; ``terms`` carries one
    entry per positive-probability switcher group at each switch period
    k in 2..t, signed + for groups switching under z=1 and - for groups
    switching under z=0. Signed values sum back to the reduced form and
    signed probabilities to the first stage.
    """

    t: int
    rf_t: float
    fs_t: float
    lead: DecompositionTerm
    terms: tuple[DecompositionTerm, ...]

    @property
    def iv_defined(self) -> bool:
        return not is_zero(self.fs_t, "population")

    @property
    def reconstructed_rf(self) -> float:
        return math.fsum([self.lead.signed_value, *(x.signed_value for x in self.terms)])

    @property
    def reconstructed_fs(self) -> float:
        return math.fsum(
            [self.lead.probability, *(x.sign * x.probability for x in self.terms)]
        )

    @property
    def all_terms(self) -> tuple[DecompositionTerm, ...]:
        return (self.lead, *self.terms)

    @property
    def negative_terms(self) -> tuple[DecompositionTerm, ...]:
        """Terms carrying negative weight in the period-t IV estimand; when
        fs_t = 0 it is undefined, and the terms with a negative signed value
        stand in for the (undefined) weights."""
        if self.iv_defined:
            return tuple(x for x in self.all_terms if x.weight < 0.0)
        return tuple(x for x in self.all_terms if x.signed_value < 0.0)


def _make_term(spec: DgpSpec, label: GroupLabel, t: int, fs_t: float) -> DecompositionTerm:
    sign, members = spec.groups[label]
    k = label.switch
    prob, raw = _group_sums(members, t, t - k)
    return DecompositionTerm(
        label=label,
        members=tuple(h.pair for h in members),
        switch_period=k,
        exposure=t - k,
        sign=sign,
        probability=prob,
        effect=raw / prob,
        signed_value=sign * raw,
        weight=None if is_zero(fs_t, "population") else sign * prob / fs_t,
    )


def decompose(spec: DgpSpec, t: int) -> DecompositionReport:
    """Exact decomposition of the period-t reduced form by latent group."""
    t = _check_period(t, spec.T, lo=2)
    pop = population_estimands(spec)
    fs_t = pop.fs_at(t)
    lead, *terms = (_make_term(spec, label, t, fs_t) for label in spec.groups if label.switch <= t)
    return DecompositionReport(
        t=t, rf_t=pop.rf_at(t), fs_t=fs_t, lead=lead, terms=tuple(terms)
    )


def contaminating_effect_range(spec: DgpSpec) -> tuple[float, float]:
    """Envelope [lo, hi] of all switcher-group effect entries, widened to 0.

    Scans exactly the (t, exposure) entries that enter some period-t
    decomposition through a switcher group: effects of cells treated at t
    but not at 1, in positive-probability histories whose arms' paths
    differ. Static-compliance specs have none and yield (0, 0).
    """
    cells, H = spec.cells, len(spec.histories)
    moves = (cells.prob > 0.0) & (cells.d[H:] != cells.d[:H]).any(axis=1)
    switched = (cells.d > cells.d[:, :1]) & np.tile(moves, 2)[:, None]
    values = [0.0, *cells.effect[switched].tolist()]
    return min(values), max(values)


def make_calendar_homogeneous(
    T: int,
    pz: float,
    history_probs,
    baselines,
    delta_profile,
    noise_sd: float = 0.0,
) -> DgpSpec:
    """Build a DGP whose effects depend on exposure only, not calendar time.

    Every history receives effects[t][tau] = delta_profile[tau], which
    makes all group-level effects at exposure tau equal across periods
    and across groups. ``history_probs`` maps adoption pairs (or (s1, s0)
    tuples) to probabilities; ``baselines`` is one length-T sequence of
    untreated means, shared by all histories.
    """
    profile = tuple(float(x) for x in delta_profile)
    if len(profile) != T:
        raise SpecValidationError(
            f"delta_profile must have length {T}, got {len(profile)}"
        )
    effects = tuple(tuple(profile[tau] for tau in range(t)) for t in range(1, T + 1))
    base = tuple(baselines)
    histories = tuple(
        HistorySpec(
            key if isinstance(key, AdoptionPair) else AdoptionPair(*key), float(prob), base, effects
        )
        for key, prob in history_probs.items()
    )
    return DgpSpec(T=T, pz=pz, histories=histories, noise_sd=noise_sd)


def check_calendar_homogeneity(spec: DgpSpec) -> bool:
    """Whether effects depend on exposure only, wherever estimands can see them.

    Requires the complier-group effect at each exposure to be constant
    across calendar periods, and every positive-probability switcher
    group's effect to match the complier value at the same exposure, each
    within POPULATION_ZERO_TOL.
    """
    for tau in range(spec.T):
        ref = spec.group_effect(C1, tau + 1, tau)
        for t in range(tau + 1, spec.T + 1):
            if abs(spec.group_effect(C1, t, tau) - ref) > POPULATION_ZERO_TOL:
                return False
        for t in range(tau + 2, spec.T + 1):
            if any(abs(e - ref) > POPULATION_ZERO_TOL for e in _switcher_effects(spec, t, tau)):
                return False
    return True


def check_cross_group_homogeneity(spec: DgpSpec) -> bool:
    """Whether, per (period, exposure), all switcher group effects agree within
    POPULATION_ZERO_TOL."""
    for t in range(2, spec.T + 1):
        for tau in range(0, t - 1):
            values = list(_switcher_effects(spec, t, tau))
            if values and max(values) - min(values) > POPULATION_ZERO_TOL:
                return False
    return True


def _switcher_effects(spec: DgpSpec, t: int, tau: int):
    """Effects at (t, tau) of every positive-probability group switching at t - tau."""
    return (spec.group_effect(x, t, tau) for x in spec.groups if x.switch == t - tau)


# ---------------------------------------------------------------------------
# Spec files


def spec_to_dict(spec: DgpSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "T": spec.T,
        "pz": spec.pz,
        "noise_sd": spec.noise_sd,
        "histories": [
            {
                "s1": "never" if h.pair.s1 == NEVER else int(h.pair.s1),
                "s0": "never" if h.pair.s0 == NEVER else int(h.pair.s0),
                "prob": h.prob,
                "baseline": list(h.baseline),
                "effects": [list(row) for row in h.effects],
            }
            for h in spec.histories
        ],
    }


_TOP_KEYS = {"schema_version", "T", "pz", "noise_sd", "histories"}
_HISTORY_KEYS = {"s1", "s0", "prob", "baseline", "effects"}


def spec_from_dict(doc: dict) -> DgpSpec:
    if not isinstance(doc, dict):
        raise SchemaMismatch("spec document must be a mapping")
    version = doc.get("schema_version")
    if not is_integer(version) or version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaMismatch(f"unknown spec fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise SchemaMismatch(f"missing spec fields: {sorted(missing)}")
    histories = []
    if not isinstance(doc["histories"], list):
        raise SchemaMismatch("histories must be an array")
    for i, h in enumerate(doc["histories"]):
        if not isinstance(h, dict):
            raise SchemaMismatch(f"history {i} must be a mapping")
        unknown = set(h) - _HISTORY_KEYS
        if unknown:
            raise SchemaMismatch(f"history {i}: unknown fields {sorted(unknown)}")
        missing = _HISTORY_KEYS - set(h)
        if missing:
            raise SchemaMismatch(f"history {i}: missing fields {sorted(missing)}")
        try:
            pair = AdoptionPair(_adoption_time(h["s1"]), _adoption_time(h["s0"]))
        except ValueError as err:
            raise SchemaMismatch(f"history {i}: {err}") from None
        effects = h["effects"]
        if not isinstance(effects, list):
            raise SchemaMismatch(
                f"history {i}: effects must be an array of arrays, got {effects!r}"
            )
        histories.append(
            HistorySpec(
                pair=pair,
                prob=_number(h["prob"], f"history {i}: prob"),
                baseline=_numbers(h["baseline"], f"history {i}: baseline"),
                effects=tuple(
                    _numbers(row, f"history {i}: effects[{t}]") for t, row in enumerate(effects)
                ),
            )
        )
    T = doc["T"]
    if not is_integer(T):
        raise SchemaMismatch(f"T must be an integer, got {T!r}")
    return DgpSpec(
        T=T,
        pz=_number(doc["pz"], "pz"),
        histories=tuple(histories),
        noise_sd=_number(doc["noise_sd"], "noise_sd"),
    )


def _number(v, what: str) -> float:
    """A spec scalar: a real number, as JSON, YAML and TOML parse it (not a bool)."""
    if not (is_integer(v) or isinstance(v, float)):
        raise SchemaMismatch(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise SchemaMismatch(f"{what} is out of range: {v!r}") from None


def _numbers(v, what: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise SchemaMismatch(f"{what} must be an array of numbers, got {v!r}")
    return tuple(_number(x, f"{what}[{k}]") for k, x in enumerate(v))


def _adoption_time(v) -> float:
    if v == "never":
        return NEVER
    if not is_integer(v):
        raise ValueError(f"adoption period must be an integer or 'never', got {v!r}")
    return v


def load_spec(path: str) -> DgpSpec:
    """Load a DGP spec file. JSON is canonical; YAML and TOML are accepted.

    The file must be UTF-8; one leading byte-order mark is ignored.
    """
    lower = str(path).lower()
    if lower.endswith(".json"):
        name, parse, error = "JSON", json.loads, ValueError
    elif lower.endswith((".yaml", ".yml")):
        import yaml

        name, parse, error = "YAML", yaml.safe_load, yaml.YAMLError
    elif lower.endswith(".toml"):
        import tomllib

        name, parse, error = "TOML", tomllib.loads, tomllib.TOMLDecodeError
    else:
        raise SchemaMismatch(
            f"unrecognized spec extension for {path!r}; use .json, .yaml, or .toml"
        )
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SchemaMismatch(
            f"spec file {path!r} is not UTF-8 text: byte {raw[err.start]:#04x}, {err.reason}"
        ) from None
    try:
        doc = parse(text)
    except error as err:
        raise SchemaMismatch(f"invalid {name} in {path!r}: {err}") from None
    return spec_from_dict(doc)


def save_spec(spec: DgpSpec, path: str) -> None:
    """Write a spec as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
