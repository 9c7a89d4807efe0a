"""The public surface: README's quick start runs, dynlate's top-level
names are pinned, so a name the README or the benchmark uses cannot go
unnoticed, and the ``dynlate`` console script is ``cli.main``, whose
module also runs here in fresh processes. The golden reports are also
checked in a fresh process with one BLAS thread."""

import hashlib
import os
import re
import subprocess
import sys
import tomllib
import types
from pathlib import Path

import dynlate
from dynlate.dgp import load_spec, save_spec

from conftest import GOLDEN_DIR

ROOT = Path(__file__).parent.parent

PUBLIC_NAMES = {
    # the population oracle
    "DgpSpec", "HistorySpec", "check_calendar_homogeneity", "check_cross_group_homogeneity",
    "contaminating_effect_range", "decompose", "load_spec", "make_calendar_homogeneous",
    "population_estimands", "save_spec", "true_dynamic_lates",
    # errors
    "AllReplicationsFailed", "AssumptionRequired", "DegenerateInstrument", "DynlateError",
    "InstrumentVariesWithinUnit", "MalformedRow", "NonFiniteResult", "PeriodOutOfRange",
    "RelevanceFailure", "SchemaMismatch", "SignedBoundViolation", "SpecValidationError",
    "TreatmentReversal", "UnbalancedPanel",
    # estimands, estimators and inference
    "EstimandSet", "BoundsReport", "IdentifiedProfile", "NegativeWeightFlag",
    "NegativeWeightStatus", "PanelDiagnostics", "bounds_general", "bounds_general_unrestricted",
    "bounds_tight", "check_assumptions", "estimate", "identify", "negative_weight_diagnostic",
    "outcome_range_bounds", "BootstrapResult", "bootstrap",
    # latent groups
    "NEVER", "AdoptionPair", "GroupLabel", "IvType", "switcher_group_labels",
    # panels and simulation
    "Panel", "ingest", "serialize", "MonteCarloSummary", "draw_panel", "monte_carlo",
}


def test_top_level_names_are_pinned():
    names = {
        name for name, value in vars(dynlate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_benchmark_uses_only_public_names():
    used = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        used |= set(re.findall(r"\bdl\.(\w+)", path.read_text(encoding="utf-8")))
    assert used
    assert used <= PUBLIC_NAMES


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1
    save_spec(load_spec(GOLDEN_DIR / "spec_t4_six_history.json"), str(tmp_path / "spec.json"))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["ci"].targets


def test_console_script_is_cli_main():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"dynlate": "dynlate.cli:main"}


def run_module(monkeypatch, *argv):
    """``python -m dynlate.cli argv`` in a fresh process that imports ``src``."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    return subprocess.run([sys.executable, "-m", "dynlate.cli", *argv], capture_output=True)


def test_entry_point_prints_the_simulate_golden(monkeypatch):
    done = run_module(
        monkeypatch, "simulate", "--dgp", str(GOLDEN_DIR / "spec_t4_six_history.json"),
        "--n", "5000", "--seed", "4",
    )
    assert (done.returncode, done.stderr) == (0, b"")
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert f"{digest}\n" == (GOLDEN_DIR / "simulate_t4_six_history.sha256").read_text()


def test_entry_point_refuses_a_nul_id(monkeypatch, tmp_path):
    bad = tmp_path / "nul_id.csv"
    bad.write_bytes(b"unit_id,period,z,d,y\na\x00,1,1,1,2.0\nb,1,0,0,0.0\n")
    done = run_module(monkeypatch, "estimate", "--panel", str(bad))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error[E_MALFORMED_ROW]: ")
    assert done.stderr.count(b"\n") == 1


def test_golden_reports_with_one_blas_thread(monkeypatch):
    """Bootstrap and Monte Carlo moment rows make no BLAS call, so the golden
    reports keep their bits when OpenBLAS runs one thread; every other test
    compares values computed in one process at one BLAS setting."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_cli.py::TestGoldenReports", "tests/test_cli.py::test_stdout_golden",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    summary = done.stdout.splitlines()[-1] if done.stdout else ""
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.fullmatch(r"\d+ passed in [\d.]+s", summary), summary
