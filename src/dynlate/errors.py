"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``code`` so the CLI can emit
``error[CODE]: message`` lines with a stable vocabulary.
"""

from __future__ import annotations


class DynlateError(Exception):
    """Base class for all user-facing errors."""

    code = "E_INTERNAL"


class MalformedRow(DynlateError):
    """A CSV row could not be parsed (bad field, wrong arity, missing column)."""

    code = "E_MALFORMED_ROW"


class UnbalancedPanel(DynlateError):
    """A unit is missing periods or has duplicate (unit, period) rows."""

    code = "E_UNBALANCED"


class InstrumentVariesWithinUnit(DynlateError):
    """The instrument changes over time for some unit."""

    code = "E_Z_VARIES"


class TreatmentReversal(DynlateError):
    """A unit leaves treatment after entering it."""

    code = "E_REVERSAL"

    def __init__(self, unit_id: str, period: int):
        self.unit_id = unit_id
        self.period = period
        super().__init__(
            f"treatment reverses for unit {unit_id!r} at period {period}"
        )


class DegenerateInstrument(DynlateError):
    """Only one instrument arm is present."""

    code = "E_DEGENERATE"


class SpecValidationError(DynlateError):
    """A DGP specification violates its invariants."""

    code = "E_SPEC"


class SchemaMismatch(SpecValidationError):
    """A spec or report file has an unsupported schema version or layout."""

    code = "E_SCHEMA"


class RelevanceFailure(DynlateError):
    """The first-period first stage is zero (or has the wrong sign for bounds)."""

    code = "E_RELEVANCE"


class SignedBoundViolation(DynlateError):
    """Effect bounds violate the sign restriction required by the chosen method."""

    code = "E_SIGNED_BOUNDS"


class PeriodOutOfRange(DynlateError):
    """A period argument falls outside the valid range for the operation."""

    code = "E_PERIOD"


class AllReplicationsFailed(DynlateError):
    """Every bootstrap resample failed (e.g. zero first stage in each)."""

    code = "E_ALL_FAILED"


class NonFiniteResult(DynlateError, ValueError):
    """A result is not finite: a report float with no JSON text, or an
    outcome range that overflows the float range."""

    code = "E_NONFINITE"


class AssumptionRequired(DynlateError):
    """An output was requested without declaring the assumption it relies on."""

    code = "E_ASSUME"
