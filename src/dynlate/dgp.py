"""Population data-generating processes over latent adoption histories.

A DGP assigns each adoption pair a probability, a no-treatment mean path,
and a triangular effect surface (period t, exposure tau <= t-1). Because
the history list is finite, every estimand, every term of the reduced-form
decomposition, and every group-level average effect can be computed
exactly by enumeration. That makes this module the oracle the estimator
and simulation tests are checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import SchemaMismatch, SpecValidationError
from .estimands import POPULATION_ZERO_TOL, EstimandSet, _check_period, is_zero
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

    def mean_outcome(self, t: int, s: float) -> float:
        return self.baseline[t - 1] + self.treated_effect(t, s)


@dataclass(frozen=True)
class DgpSpec:
    """Full population model: horizon, instrument share, histories, noise."""

    T: int
    pz: float
    histories: tuple[HistorySpec, ...]
    noise_sd: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "histories", tuple(self.histories))
        if not isinstance(self.T, int) or self.T < 1:
            raise SpecValidationError(f"T must be an integer >= 1, got {self.T!r}")
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
        if self.p_c1 <= POPULATION_ZERO_TOL:
            raise SpecValidationError(
                "relevance fails: no first-period compliers (P(C1) is zero)"
            )

    @property
    def p_c1(self) -> float:
        """Probability of first-period compliers (s1 = 1, s0 >= 2)."""
        return math.fsum(
            h.prob for h in self.histories if h.pair.s1 == 1 and h.pair.s0 >= 2
        )

    @cached_property
    def _positions(self) -> dict[AdoptionPair, int]:
        """Index in ``histories`` of each positive-probability history's pair."""
        return {h.pair: i for i, h in enumerate(self.histories) if h.prob > 0.0}

    @cached_property
    def _members(self) -> dict[GroupLabel, tuple[HistorySpec, ...]]:
        """``members_of`` by label, filled on first use of each label."""
        return {}

    def members_of(self, label: GroupLabel) -> tuple[HistorySpec, ...]:
        """Positive-probability histories belonging to a group label, in spec order."""
        found = self._members.get(label)
        if found is None:
            at = self._positions
            found = tuple(
                self.histories[i] for i in sorted(at[p] for p in label.members(self.T) if p in at)
            )
            self._members[label] = found
        return found

    def _group_sums(self, label: GroupLabel, t: int, tau: int):
        """The label's members, their probability and their weighted effects[t][tau] sum."""
        members = self.members_of(label)
        prob = math.fsum(h.prob for h in members)
        return members, prob, math.fsum(h.prob * h.effect(t, tau) for h in members)

    def group_effect(self, label: GroupLabel, t: int, tau: int) -> float | None:
        """Probability-weighted mean of effects[t][tau] over the label's members."""
        _, total, raw = self._group_sums(label, t, tau)
        return None if total == 0.0 else raw / total


def population_estimands(spec: DgpSpec) -> EstimandSet:
    """Exact per-period estimands by enumeration over the history list.

    For each history, the arm-z mean at period t is the baseline plus the
    effect at the arm's exposure when treated; baselines cancel within a
    history, so arm contrasts reduce to effect and indicator contrasts.
    """
    periods = range(1, spec.T + 1)
    return EstimandSet(
        T=spec.T,
        rf=tuple(_population_rf(spec, t) for t in periods),
        fs=tuple(_population_fs(spec, t) for t in periods),
        switch_z0=tuple(
            math.fsum(h.prob for h in spec.histories if 2 <= h.pair.s0 <= t) for t in periods[1:]
        ),
        switch_z1=tuple(
            math.fsum(h.prob for h in spec.histories if 2 <= h.pair.s1 <= t) for t in periods[1:]
        ),
        kind="population",
    )


def _population_rf(spec: DgpSpec, t: int) -> float:
    return math.fsum(
        h.prob * (h.treated_effect(t, h.pair.s1) - h.treated_effect(t, h.pair.s0))
        for h in spec.histories
    )


def _population_fs(spec: DgpSpec, t: int) -> float:
    return math.fsum(h.prob * ((h.pair.s1 <= t) - (h.pair.s0 <= t)) for h in spec.histories)


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


def _make_term(
    spec: DgpSpec, label: GroupLabel, t: int, sign: int, fs_t: float
) -> DecompositionTerm | None:
    k = label.switch
    members, prob, raw = spec._group_sums(label, t, t - k)
    if not members:
        return None
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
    _check_period(t, spec.T, lo=2)
    fs_t = _population_fs(spec, t)
    lead = _make_term(spec, C1, t, +1, fs_t)
    terms = []
    for k in range(2, t + 1):
        plus_labels, minus_labels = switcher_group_labels(k)
        for sign, labels in ((-1, minus_labels), (+1, plus_labels)):
            for label in labels:
                term = _make_term(spec, label, t, sign, fs_t)
                if term is not None:
                    terms.append(term)
    return DecompositionReport(
        t=t, rf_t=_population_rf(spec, t), fs_t=fs_t, lead=lead, terms=tuple(terms)
    )


@dataclass(frozen=True)
class NegativeWeightReport:
    """Negatively weighted terms of the period-t IV estimand.

    When the period-t first stage is zero the IV estimand is undefined;
    the report then flags that and lists terms whose raw signed value is
    negative instead of using (undefined) normalized weights.
    """

    t: int
    fs_t: float
    iv_defined: bool
    entries: tuple[DecompositionTerm, ...]
    decomposition: DecompositionReport = field(repr=False)


def negative_weight_report(spec: DgpSpec, t: int) -> NegativeWeightReport:
    """Terms of the period-t decomposition carrying negative weight."""
    report = decompose(spec, t)
    if report.iv_defined:
        entries = tuple(x for x in report.all_terms if x.weight < 0.0)
    else:
        entries = tuple(x for x in report.all_terms if x.signed_value < 0.0)
    return NegativeWeightReport(
        t=t,
        fs_t=report.fs_t,
        iv_defined=report.iv_defined,
        entries=entries,
        decomposition=report,
    )


def contaminating_effect_range(spec: DgpSpec) -> tuple[float, float]:
    """Envelope [lo, hi] of all switcher-group effect entries, widened to 0.

    Scans exactly the (t, exposure) entries that enter some period-t
    decomposition through a switcher group. Static-compliance specs have
    none and yield (0, 0).
    """
    values = []
    for h in spec.histories:
        if h.prob <= 0.0:
            continue
        for s in {h.pair.s1, h.pair.s0}:
            if s == NEVER or s < 2 or h.pair.s1 == h.pair.s0:
                continue
            for t in range(int(s), spec.T + 1):
                values.append(h.effect(t, t - int(s)))
    if not values:
        return 0.0, 0.0
    return min(0.0, min(values)), max(0.0, max(values))


def make_calendar_homogeneous(
    T: int,
    pz: float,
    history_probs,
    baselines,
    delta_profile,
    noise_sd: float = 0.0,
    effects_overrides=None,
) -> DgpSpec:
    """Build a DGP whose effects depend on exposure only, not calendar time.

    Every history receives effects[t][tau] = delta_profile[tau], which
    makes all group-level effects at exposure tau equal across periods
    and across groups. ``history_probs`` maps adoption pairs (or (s1, s0)
    tuples) to probabilities; ``baselines`` is either one length-T
    sequence shared by all histories or a mapping pair -> sequence.
    ``effects_overrides`` may replace the effect surface of histories
    whose adoption does not depend on the instrument (s1 = s0); those
    never enter any arm contrast, so the homogeneity structure survives.
    """
    profile = tuple(float(x) for x in delta_profile)
    if len(profile) != T:
        raise SpecValidationError(
            f"delta_profile must have length {T}, got {len(profile)}"
        )
    overrides = {_as_pair(k): v for k, v in (effects_overrides or {}).items()}
    for pair in overrides:
        if pair.s1 != pair.s0:
            raise SpecValidationError(
                f"effects_overrides only allowed for histories with s1 = s0, got {pair}"
            )
    histories = []
    for key, prob in history_probs.items():
        pair = _as_pair(key)
        base = baselines[key] if isinstance(baselines, dict) else baselines
        effects = overrides.get(
            pair, tuple(tuple(profile[tau] for tau in range(t)) for t in range(1, T + 1))
        )
        histories.append(HistorySpec(pair, float(prob), tuple(base), effects))
    return DgpSpec(T=T, pz=pz, histories=tuple(histories), noise_sd=noise_sd)


def _as_pair(key) -> AdoptionPair:
    if isinstance(key, AdoptionPair):
        return key
    return AdoptionPair(*key)


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
    for labels in switcher_group_labels(t - tau):
        for label in labels:
            eff = spec.group_effect(label, t, tau)
            if eff is not None:
                yield eff


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
    if not _is_integer(version) or version != SCHEMA_VERSION:
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
    if not _is_integer(T):
        raise SchemaMismatch(f"T must be an integer, got {T!r}")
    return DgpSpec(
        T=T,
        pz=_number(doc["pz"], "pz"),
        histories=tuple(histories),
        noise_sd=_number(doc["noise_sd"], "noise_sd"),
    )


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v, what: str) -> float:
    """A spec scalar: a real number, as JSON, YAML and TOML parse it (not a bool)."""
    if not (_is_integer(v) or isinstance(v, float)):
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
    if not _is_integer(v):
        raise ValueError(f"adoption period must be an integer or 'never', got {v!r}")
    return v


def load_spec(path: str) -> DgpSpec:
    """Load a DGP spec file. JSON is canonical; YAML and TOML are accepted.

    TOML needs the stdlib tomllib (Python 3.11+); on older interpreters a
    SchemaMismatch explains the limitation.
    """
    lower = str(path).lower()
    if lower.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:
                raise SchemaMismatch(f"invalid JSON in {path!r}: {err}") from None
    elif lower.endswith((".yaml", ".yml")):
        import yaml

        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as err:
                raise SchemaMismatch(f"invalid YAML in {path!r}: {err}") from None
    elif lower.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError:
            raise SchemaMismatch(
                "reading TOML specs requires Python 3.11+; use JSON or YAML"
            ) from None
        with open(path, "rb") as fh:
            try:
                doc = tomllib.load(fh)
            except tomllib.TOMLDecodeError as err:
                raise SchemaMismatch(f"invalid TOML in {path!r}: {err}") from None
    else:
        raise SchemaMismatch(
            f"unrecognized spec extension for {path!r}; use .json, .yaml, or .toml"
        )
    return spec_from_dict(doc)


def save_spec(spec: DgpSpec, path: str) -> None:
    """Write a spec as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")
