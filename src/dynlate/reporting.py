"""Machine-readable reports and human tables.

JSON output is written by a small dedicated serializer so that floats are
rendered with 17 significant digits (lossless round-trip) and byte-for-byte
stable across runs. Report dictionaries are built in a fixed key order.
A float that is not finite has no JSON text and is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from .dgp import DecompositionReport
from .estimators import NegativeWeightFlag

REPORT_SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal text; parses back bit-exactly."""
    return format(float(x), ".17g")


_INDENT = "  "


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars to JSON with deterministic float text."""
    pieces: list[str] = []
    _write(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def dump(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps(obj))


def _write(obj, out: list[str], level: int) -> None:
    pad = _INDENT * (level + 1)
    closing = _INDENT * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite float {obj!r} to JSON")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}{json.dumps(key)}: ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


# ---------------------------------------------------------------------------
# Dataclass -> report dict converters (fixed key order)


# these reports are the dataclasses' own fields, in declaration order
profile_to_dict = monte_carlo_to_dict = bootstrap_to_dict = diagnostics_to_dict = asdict


def _set_fields(obj) -> dict:
    """The dataclass's fields, without the ones left unset (None)."""
    return {key: value for key, value in asdict(obj).items() if value is not None}


# a bound method leaves its unused fields None, population estimands their sample sizes
bounds_to_dict = estimands_to_dict = _set_fields


def _term(x) -> dict:
    """One decomposition term; negative-weight entries keep some of its keys."""
    return {
        "group": str(x.label),
        "members": [str(p) for p in x.members],
        "switch_period": x.switch_period,
        "exposure": x.exposure,
        "sign": x.sign,
        "probability": x.probability,
        "effect": x.effect,
        "signed_value": x.signed_value,
        "weight": x.weight,
    }


def decomposition_to_dict(rep: DecompositionReport) -> dict:
    return {
        "t": rep.t,
        "rf_t": rep.rf_t,
        "fs_t": rep.fs_t,
        "iv_defined": rep.iv_defined,
        "lead": _term(rep.lead),
        "terms": [_term(x) for x in rep.terms],
        "reconstructed_rf": rep.reconstructed_rf,
        "reconstructed_fs": rep.reconstructed_fs,
    }


def negative_weights_to_dict(rep: DecompositionReport) -> dict:
    shown = ("group", "sign", "probability", "effect", "weight")
    return {
        "t": rep.t,
        "fs_t": rep.fs_t,
        "iv_defined": rep.iv_defined,
        "entries": [{k: v for k, v in _term(x).items() if k in shown} for x in rep.negative_terms],
    }


def flags_to_dicts(flags: tuple[NegativeWeightFlag, ...]) -> list[dict]:
    return [
        {"t": f.t, "status": f.status.value, "decreasing_k": f.decreasing_k}
        for f in flags
    ]


# ---------------------------------------------------------------------------
# Human tables


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def fnum(x) -> str:
    if x is None:
        return "-"
    return format(x, ".6g")
