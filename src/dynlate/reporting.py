"""Machine-readable reports and human tables.

JSON output is written by a small dedicated serializer so that floats are
rendered with 17 significant digits (lossless round-trip) and byte-for-byte
stable across runs. Report dictionaries are built in a fixed key order.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .dgp import DecompositionReport, NegativeWeightReport
from .estimands import EstimandSet
from .estimators import BoundsReport, NegativeWeightFlag

REPORT_SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal text; parses back bit-exactly."""
    return format(float(x), ".17g")


def dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/scalars to JSON with deterministic float text."""
    pieces: list[str] = []
    _write(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def dump(obj, path: str, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps(obj, indent=indent))


def _write(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
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
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


# ---------------------------------------------------------------------------
# Dataclass -> report dict converters (fixed key order)


def estimands_to_dict(est: EstimandSet) -> dict:
    out = {
        "T": est.T,
        "kind": est.kind,
        "rf": list(est.rf),
        "fs": list(est.fs),
        "iv": list(est.iv),
        "rho": list(est.rho),
        "switch_z0": list(est.switch_z0),
        "switch_z1": list(est.switch_z1),
    }
    if est.n is not None:
        out["n"] = est.n
        out["n_z1"] = est.n_z1
        out["n_z0"] = est.n_z0
    return out


# these reports are the dataclasses' own fields, in declaration order
profile_to_dict = monte_carlo_to_dict = bootstrap_to_dict = diagnostics_to_dict = asdict


def bounds_to_dict(rep: BoundsReport) -> dict:
    """The report's fields, without the ones its method leaves unset (None)."""
    return {key: value for key, value in asdict(rep).items() if value is not None}


def decomposition_to_dict(rep: DecompositionReport) -> dict:
    def term(x):
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

    return {
        "t": rep.t,
        "rf_t": rep.rf_t,
        "fs_t": rep.fs_t,
        "iv_defined": rep.iv_defined,
        "lead": term(rep.lead),
        "terms": [term(x) for x in rep.terms],
        "reconstructed_rf": rep.reconstructed_rf,
        "reconstructed_fs": rep.reconstructed_fs,
    }


def negative_weights_to_dict(rep: NegativeWeightReport) -> dict:
    return {
        "t": rep.t,
        "fs_t": rep.fs_t,
        "iv_defined": rep.iv_defined,
        "entries": [
            {
                "group": str(x.label),
                "sign": x.sign,
                "probability": x.probability,
                "effect": x.effect,
                "weight": x.weight,
            }
            for x in rep.entries
        ],
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


def fnum(x, digits: int = 6) -> str:
    if x is None:
        return "-"
    return format(x, f".{digits}g")
