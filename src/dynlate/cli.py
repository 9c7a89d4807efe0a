"""Command-line interface.

Subcommands: check, estimate, identify, bounds, decompose, simulate,
montecarlo, bootstrap. Every subcommand ends in one runner, ``_finish``:
it echoes the human-readable table to stdout, then one ``warning: ...``
line per warning (on stderr when stdout carries a panel CSV), then writes
the versioned machine-readable report to ``--json`` if given. Exit codes:
0 success, 2 validation/usage errors (one ``error[CODE]: ...`` line on
stderr), 1 internal errors.
"""

from __future__ import annotations

import math
import sys

import click

from . import dgp as dgp_mod
from . import inference, reporting, simulate
from .errors import AssumptionRequired, DynlateError, PeriodOutOfRange
from .estimators import (
    ALL_TARGETS,
    CALENDAR_HOMOGENEITY,
    CROSS_GROUP_HOMOGENEITY,
    KNOWN_ASSUMPTIONS,
    NO_LATE_SWITCHERS,
    NegativeWeightStatus,
    amplification_warnings,
    bound_report,
    check_assumptions,
    estimate as estimate_fn,
    identify as identify_fn,
    negative_weight_diagnostic,
    outcome_range_bounds,
    selected_methods,
)
from .panel import ingest, serialize
from .reporting import fnum, render_table


def _parse_bounds(ctx, param, value):
    if value is None:
        return None
    parts = value.split(",")
    if len(parts) != 2:
        raise click.BadParameter("expected two comma-separated numbers: lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise click.BadParameter(f"could not parse {value!r} as lo,hi") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.BadParameter(f"lo and hi must be finite, got {value!r}")
    if lo > hi:
        raise click.BadParameter(f"lo must be <= hi, got {value!r}")
    return lo, hi


def _comma_list(chunks) -> list[str]:
    """The non-blank names of the comma-separated ``chunks``, in order."""
    return [x.strip() for chunk in chunks for x in chunk.split(",") if x.strip()]


def _parse_assume(ctx, param, value):
    names = _comma_list(value)
    unknown = [x for x in names if x not in KNOWN_ASSUMPTIONS]
    if unknown:
        raise click.BadParameter(
            f"unknown assumption(s) {unknown}; valid: {', '.join(KNOWN_ASSUMPTIONS)}"
        )
    return tuple(dict.fromkeys(names))


def _parse_targets(ctx, param, value):
    if value is None:
        return ALL_TARGETS
    names = tuple(_comma_list([value]))
    if not names:
        raise click.BadParameter("expected at least one target")
    unknown = set(names) - set(ALL_TARGETS)
    if unknown:
        raise click.BadParameter(
            f"unknown target(s) {sorted(unknown)}; valid: {', '.join(ALL_TARGETS)}"
        )
    return names


panel_opt = click.option("--panel", "panel_path", type=str, help="Panel CSV file.")
dgp_opt = click.option("--dgp", "dgp_path", type=str, help="DGP spec file.")
json_opt = click.option("--json", "json_path", type=str, help="Write a JSON report here.")
seed_opt = click.option(
    "--seed", type=click.IntRange(min=0), envvar="DYNLATE_SEED", required=True,
    help="RNG seed, at least 0 (falls back to DYNLATE_SEED).",
)
threads_opt = click.option(
    "--threads", type=click.IntRange(min=1), default=lambda: simulate._usable_cores(),
    help="Worker threads for bootstrap resamples and Monte Carlo replications"
    " (default and cap: the usable cores; small runs use one thread;"
    " results are thread-count invariant).",
)
assume_opt = click.option(
    "--assume", multiple=True, callback=_parse_assume,
    help="Declare assumptions (comma-separated or repeated): "
    + ", ".join(KNOWN_ASSUMPTIONS),
)
bounds_opt = click.option(
    "--bounds", "effect_bounds", callback=_parse_bounds, default=None,
    help="Effect bounds lo,hi (default: observed outcome range).",
)


@click.group()
def cli():
    """Dynamic treatment-effect estimation with a one-shot binary instrument."""


def _required(path, flag):
    """``path``, or the usage error that ``flag`` is required."""
    if not path:
        raise click.UsageError(f"{flag} is required")
    return path


def _load_inputs(panel_path, dgp_path):
    """(panel, spec) of exactly one of --panel and --dgp; the other input is None."""
    if panel_path and dgp_path:
        raise click.UsageError("--panel and --dgp are mutually exclusive")
    _required(panel_path or dgp_path, "one of --panel or --dgp")
    if panel_path:
        return ingest(panel_path), None
    return None, dgp_mod.load_spec(dgp_path)


def _estimands(panel, spec):
    """A panel's sample estimands, or a spec's population ones."""
    return estimate_fn(panel) if panel is not None else dgp_mod.population_estimands(spec)


def _negative_weight_warnings(flags):
    return [
        f"negative weights guaranteed in the period-{flag.t} reduced form "
        f"(first stage decreases at k={flag.decreasing_k})"
        for flag in flags
        if flag.status is NegativeWeightStatus.GUARANTEED
    ]


def _single_arm_warnings(spec):
    """The warning for a spec whose instrument share leaves one arm empty."""
    if 0.0 < spec.pz < 1.0:
        return []
    return [f"pz = {spec.pz} puts every unit in one instrument arm: "
            "no --panel command can read a panel drawn from this spec"]


def _tight_declared(assume):
    """Tight bounds are reported only under an assumption that makes them valid."""
    return CROSS_GROUP_HOMOGENEITY in assume or NO_LATE_SWITCHERS in assume


def _finish(command, json_path, inputs, outputs, lines=(), assume=(), warnings=(),
            warn_err=False):
    """End a subcommand: echo ``lines``, then each warning (on stderr if ``warn_err``), then
    write the ``--json`` report (schema, command, inputs, assume, warnings, outputs)."""
    for line in lines:
        click.echo(line)
    for text in warnings:
        click.echo(f"warning: {text}", err=warn_err)
    if json_path:
        report = {
            "schema_version": reporting.REPORT_SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "assume": list(assume),
            "warnings": list(warnings),
            "outputs": outputs,
        }
        reporting.dump(report, json_path)


def _estimands_table(est):
    headers = ["t", "rf", "fs", "iv", "rho", "switch_z0", "switch_z1"]
    rows = [
        [str(t), fnum(est.rf_at(t)), fnum(est.fs_at(t)), fnum(est.iv_at(t))]
        + ([fnum(est.rho[t - 2]), fnum(est.switch_z0[t - 2]), fnum(est.switch_z1[t - 2])]
           if t >= 2 else ["-"] * 3)
        for t in range(1, est.T + 1)
    ]
    return render_table(headers, rows)


@cli.command()
@panel_opt
@dgp_opt
@json_opt
def check(panel_path, dgp_path, json_path):
    """Validate a panel or DGP spec and report assumption diagnostics."""
    panel, spec = _load_inputs(panel_path, dgp_path)
    if panel is not None:
        diag = check_assumptions(panel)
        outputs = {"diagnostics": reporting.diagnostics_to_dict(diag)}
        lines = [
            f"panel ok: n={diag.n} T={diag.T} (z=1: {diag.n_z1}, z=0: {diag.n_z0})",
            f"sample fs_1 = {fnum(diag.fs1)}"
            + ("" if diag.relevance_ok else "  [relevance FAILS]"),
            *(f"note: {note}" for note in diag.notes),
        ]
        warnings = [] if diag.relevance_ok else ["relevance at t=1 fails (fs_1 = 0)"]
    else:
        outputs = {
            "spec": {
                "T": spec.T,
                "pz": spec.pz,
                "noise_sd": spec.noise_sd,
                "histories": len(spec.histories),
                "p_c1": spec.p_c1,
                "calendar_homogeneity": dgp_mod.check_calendar_homogeneity(spec),
                "cross_group_homogeneity": dgp_mod.check_cross_group_homogeneity(spec),
            }
        }
        lines = [
            f"spec ok: T={spec.T} histories={len(spec.histories)} P(C1)={fnum(spec.p_c1)}",
            "calendar homogeneity: "
            + ("holds" if outputs["spec"]["calendar_homogeneity"] else "does not hold"),
        ]
        warnings = _single_arm_warnings(spec)
    inputs = {"panel": panel_path, "dgp": dgp_path}
    _finish("check", json_path, inputs, outputs, lines, warnings=warnings)


@cli.command()
@panel_opt
@dgp_opt
@json_opt
def estimate(panel_path, dgp_path, json_path):
    """Per-period reduced forms, first stages, and IV ratios."""
    est = _estimands(*_load_inputs(panel_path, dgp_path))
    flags = negative_weight_diagnostic(est)
    outputs = {
        "estimands": reporting.estimands_to_dict(est),
        "negative_weight_flags": reporting.flags_to_dicts(flags),
    }
    inputs = {"panel": panel_path, "dgp": dgp_path}
    _finish("estimate", json_path, inputs, outputs, [_estimands_table(est)],
            warnings=_negative_weight_warnings(flags))


@cli.command()
@panel_opt
@dgp_opt
@assume_opt
@json_opt
def identify(panel_path, dgp_path, assume, json_path):
    """Identify the effect-by-exposure profile (needs --assume calendar-homogeneity)."""
    if CALENDAR_HOMOGENEITY not in assume:
        raise AssumptionRequired(f"identification requires --assume {CALENDAR_HOMOGENEITY}")
    est = _estimands(*_load_inputs(panel_path, dgp_path))
    prof = identify_fn(est)
    outputs = {
        "estimands": reporting.estimands_to_dict(est),
        "profile": reporting.profile_to_dict(prof),
    }
    rows = [[str(tau), fnum(v)] for tau, v in enumerate(prof.deltas)]
    warnings = [*prof.warnings, *_negative_weight_warnings(negative_weight_diagnostic(est))]
    inputs = {"panel": panel_path, "dgp": dgp_path}
    _finish("identify", json_path, inputs, outputs, [render_table(["exposure", "delta"], rows)],
            assume, warnings)


@cli.command()
@panel_opt
@dgp_opt
@click.option("--period", type=int, default=None, help="Single period t (default: all).")
@bounds_opt
@assume_opt
@json_opt
def bounds(panel_path, dgp_path, period, effect_bounds, assume, json_path):
    """Partial-identification intervals for the dynamic effects."""
    panel, spec = _load_inputs(panel_path, dgp_path)
    est = _estimands(panel, spec)
    if est.T < 2:
        raise PeriodOutOfRange(f"bounds need T >= 2 periods: the input has T = {est.T}")
    if effect_bounds is None:
        if panel is not None:
            effect_bounds = outcome_range_bounds(panel)
        else:
            effect_bounds = dgp_mod.contaminating_effect_range(spec)
    lo, hi = effect_bounds
    periods = [period] if period is not None else list(range(2, est.T + 1))
    tight_declared = _tight_declared(assume)
    methods = selected_methods(lo, hi, tight_declared)
    reports = [bound_report(m, est, t, lo, hi) for t in periods for m in methods]
    warnings = [] if tight_declared else [
        "tight bounds skipped: declare --assume cross-group-homogeneity "
        "or --assume no-late-switchers"
    ]
    outputs = {"bounds": [reporting.bounds_to_dict(r) for r in reports]}
    rows = [[str(r.t), r.method, fnum(r.lower), fnum(r.upper)] for r in reports]
    inputs = {"panel": panel_path, "dgp": dgp_path, "period": period, "bounds": [lo, hi]}
    _finish("bounds", json_path, inputs, outputs,
            [render_table(["t", "method", "lower", "upper"], rows)], assume, warnings)


@cli.command()
@dgp_opt
@click.option("--period", type=int, required=True, help="Period t >= 2 to decompose.")
@json_opt
def decompose(dgp_path, period, json_path):
    """Exact latent-group decomposition of a period's reduced form."""
    spec = dgp_mod.load_spec(_required(dgp_path, "--dgp"))
    rep = dgp_mod.decompose(spec, period)
    headers = ["group", "switch", "exposure", "sign", "prob", "effect", "signed", "weight"]
    rows = [
        [str(x.label), str(x.switch_period), str(x.exposure), "+" if x.sign > 0 else "-",
         fnum(x.probability), fnum(x.effect), fnum(x.signed_value), fnum(x.weight)]
        for x in rep.all_terms
    ]
    lines = [
        render_table(headers, rows),
        f"rf[{rep.t}] = {fnum(rep.rf_t)} (reconstructed {fnum(rep.reconstructed_rf)}); "
        f"fs[{rep.t}] = {fnum(rep.fs_t)} (reconstructed {fnum(rep.reconstructed_fs)})",
    ]
    warnings = []
    if rep.negative_terms:
        warnings.append(
            f"negatively weighted groups at t={period}: "
            + ", ".join(str(x.label) for x in rep.negative_terms)
        )
    if not rep.iv_defined:
        warnings.append(f"iv undefined at t={period} (fs_t = 0)")
    outputs = {
        "decomposition": reporting.decomposition_to_dict(rep),
        "negative_weights": reporting.negative_weights_to_dict(rep),
    }
    inputs = {"dgp": dgp_path, "period": period}
    _finish("decompose", json_path, inputs, outputs, lines, warnings=warnings)


@cli.command("simulate")
@dgp_opt
@click.option("--n", type=click.IntRange(min=1), required=True, help="Units to draw.")
@seed_opt
@click.option("--out", "out_path", type=str, default=None,
              help="Panel CSV destination (default: stdout).")
@json_opt
def simulate_cmd(dgp_path, n, seed, out_path, json_path):
    """Draw a panel from a DGP spec and write it as CSV."""
    spec = dgp_mod.load_spec(_required(dgp_path, "--dgp"))
    panel = simulate.draw_panel(spec, n, seed)
    lines = []
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            serialize(panel, fh)
        lines.append(f"wrote {panel.n} units x {panel.T} periods to {out_path}")
    else:
        click.echo(serialize(panel), nl=False)
    inputs = {"dgp": dgp_path, "n": n, "seed": seed, "out": out_path}
    outputs = {"n": panel.n, "T": panel.T, "n_z1": panel.n_z1, "n_z0": panel.n_z0}
    _finish("simulate", json_path, inputs, outputs, lines,
            warnings=_single_arm_warnings(spec), warn_err=not out_path)


@cli.command()
@dgp_opt
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Units per replication.")
@click.option("--reps", type=click.IntRange(min=1), required=True, help="Replications.")
@seed_opt
@click.option("--targets", callback=_parse_targets, default=None,
              help="Comma-separated subset of: " + ", ".join(ALL_TARGETS))
@bounds_opt
@threads_opt
@json_opt
def montecarlo(dgp_path, n, reps, seed, targets, effect_bounds, threads, json_path):
    """Monte Carlo study of the estimators against the population oracle."""
    spec = dgp_mod.load_spec(_required(dgp_path, "--dgp"))
    lo, hi = effect_bounds if effect_bounds else (None, None)
    summary = simulate.monte_carlo(
        spec, n=n, reps=reps, seed=seed, targets=targets, lo=lo, hi=hi, threads=threads
    )
    headers = ["target", "oracle", "mean", "bias", "sd", "ok", "failed"]
    rows = [
        [r.name, fnum(r.oracle), fnum(r.mean), fnum(r.bias), fnum(r.sd),
         str(r.n_ok), str(r.n_failed)]
        for r in summary.rows
    ]
    outputs = {"monte_carlo": reporting.monte_carlo_to_dict(summary)}
    inputs = {"dgp": dgp_path, "n": n, "reps": reps, "seed": seed, "targets": list(targets)}
    _finish("montecarlo", json_path, inputs, outputs, [render_table(headers, rows)])


@cli.command("bootstrap")
@panel_opt
@click.option("--reps", type=click.IntRange(min=2), required=True,
              help="Bootstrap resamples.")
@click.option("--alpha", type=click.FloatRange(0, 1, min_open=True, max_open=True),
              default=0.05, show_default=True,
              help="1 - confidence level.")
@seed_opt
@bounds_opt
@assume_opt
@threads_opt
@json_opt
def bootstrap_cmd(panel_path, reps, alpha, seed, effect_bounds, assume, threads, json_path):
    """Unit-level percentile bootstrap intervals for all reported estimands."""
    panel = ingest(_required(panel_path, "--panel"))
    lo, hi = effect_bounds if effect_bounds else (None, None)
    identified = CALENDAR_HOMOGENEITY in assume
    res = inference.bootstrap(
        panel, reps=reps, alpha=alpha, seed=seed, lo=lo, hi=hi,
        targets=("estimands",) + ("identify",) * identified + ("bounds",),
        include_tight=_tight_declared(assume), threads=threads,
    )
    fs = [res.target(f"fs[{t}]").point for t in range(1, panel.T + 1)]  # estimate(panel).fs
    warnings = (
        list(amplification_warnings(fs)) if identified
        else ["identified profile skipped: declare --assume calendar-homogeneity"]
    )
    if res.n_failed_resamples:
        warnings.append(
            f"{res.n_failed_resamples} of {reps} resamples failed the relevance screen"
        )
    headers = ["target", "point", "lower", "upper", "ok", "failed"]
    rows = [
        [t.name, fnum(t.point), fnum(t.lower), fnum(t.upper), str(t.n_ok), str(t.n_failed)]
        for t in res.targets
    ]
    outputs = {"bootstrap": reporting.bootstrap_to_dict(res)}
    inputs = {
        "panel": panel_path, "reps": reps, "alpha": alpha, "seed": seed,
        "bounds": None if res.lo is None else [res.lo, res.hi],
    }
    _finish("bootstrap", json_path, inputs, outputs, [render_table(headers, rows)],
            assume, warnings)


def main(argv=None) -> int:
    """Entry point with the documented exit-code and error-line contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:  # UsageError and BadParameter among them
        click.echo(f"error[E_ARGS]: {exc.format_message()}", err=True)
        return 2
    except DynlateError as exc:
        click.echo(f"error[{exc.code}]: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error[E_IO]: {exc}", err=True)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        click.echo(f"error[E_INTERNAL]: {exc!r}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
