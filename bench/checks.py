"""Correctness checks on job outputs.

Each check returns a list of problems; an empty list means the output is
correct. The checks take outputs as values so that tests can hand them
corrupted copies.
"""

from __future__ import annotations

import json
import math

BIAS_SIGMAS = 6.0
"""Monte Carlo bias bound in standard errors; the largest seen in profiling was 3.2."""


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def cli_report(command: str, data: bytes, first: bytes | None, est, prof) -> list[str]:
    """A CLI ``--json`` report against the in-memory reference.

    ``est`` and ``prof`` are ``estimate``/``identify`` on the panel the
    CSV was written from. rf, fs and delta must agree bit for bit, and the
    report must be byte-identical to the first report of the same command.
    """
    problems = []
    if first is not None and data != first:
        problems.append(f"{command}: report bytes differ from the first {command} report")
    try:
        outputs = json.loads(data)["outputs"]
    except (ValueError, KeyError, TypeError) as err:
        return problems + [f"{command}: unreadable report: {err!r}"]
    if command == "bounds":
        entries = outputs.get("bounds") or []
        if not entries:
            problems.append("bounds: report has no intervals")
        for b in entries:
            t = b["t"]
            got = _bits([b["rf_t"], b["fs1"], b["fs_t"]])
            if got != _bits([est.rf_at(t), est.fs[0], est.fs_at(t)]):
                problems.append(f"bounds: rf/fs at t={t} differ from estimate()")
        return problems
    estimands = outputs["estimands"]
    if _bits(estimands["rf"]) != _bits(est.rf) or _bits(estimands["fs"]) != _bits(est.fs):
        problems.append(f"{command}: rf/fs differ from estimate()")
    if command == "identify" and _bits(outputs["profile"]["deltas"]) != _bits(prof.deltas):
        problems.append("identify: deltas differ from identify()")
    return problems


def same_bytes(label: str, digest: str, first: str | None) -> list[str]:
    if first is None or digest == first:
        return []
    return [f"{label}: sha256 {digest[:12]} differs from the first file's {first[:12]}"]


def round_trip(ingested, drawn) -> list[str]:
    """``ingest`` of a written file must equal the panel it was drawn as."""
    if ingested == drawn:
        return []
    return ["csv round trip: ingest(file) != draw_panel(spec, n, seed)"]


def bootstrap(res, est) -> list[str]:
    """No failed resamples, ordered intervals, point values equal ``estimate``."""
    problems = []
    if res.n_failed_resamples != 0:
        problems.append(f"bootstrap: {res.n_failed_resamples} failed resamples")
    for t in res.targets:
        if not t.lower <= t.upper:
            problems.append(f"bootstrap: {t.name} has lower > upper")
    for t in range(1, est.T + 1):
        for name, want in (("rf", est.rf_at(t)), ("fs", est.fs_at(t)), ("iv", est.iv_at(t))):
            try:
                got = res.target(f"{name}[{t}]").point
            except KeyError:
                got = None
            if want is None or got is None or _bits([got]) != _bits([want]):
                problems.append(f"bootstrap: point {name}[{t}] differs from estimate()")
    return problems


def monte_carlo(summary) -> list[str]:
    """Every target succeeds in every replication and is unbiased within 6 sd/sqrt(n)."""
    problems = []
    for r in summary.rows:
        if r.n_failed != 0:
            problems.append(f"monte carlo: {r.name} failed in {r.n_failed} replications")
        if r.sd is None or r.bias is None or r.n_ok < 2:
            problems.append(f"monte carlo: {r.name} has no spread")
        elif abs(r.bias) > BIAS_SIGMAS * r.sd / math.sqrt(r.n_ok):
            problems.append(
                f"monte carlo: {r.name} bias {r.bias:.3g} exceeds "
                f"{BIAS_SIGMAS:g} x {r.sd:.3g}/sqrt({r.n_ok})"
            )
    return problems
