"""CLI behaviour: exit codes, error lines, reports, golden stability."""

import hashlib
import json
from pathlib import Path

import pytest

from dynlate.cli import main
from dynlate.panel import ingest

from conftest import GOLDEN_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErrorContract:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "estimate", "--bogus")
        assert code == 2
        assert err.startswith("error[E_ARGS]:")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "estimate", "--panel", "nope.csv")
        assert code == 2
        assert err.startswith("error[E_IO]:")

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,period,z,d,y\nA,1,1,0,oops\n")
        code, _, err = run(capsys, "estimate", "--panel", str(bad))
        assert code == 2
        assert err.startswith("error[E_MALFORMED_ROW]:")

    def test_treatment_reversal_names_the_unit(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,period,z,d,y\nA,1,1,1,0.0\nA,2,1,0,0.0\nB,1,0,0,0.0\nB,2,0,0,0.0\n")
        code, _, err = run(capsys, "estimate", "--panel", str(bad))
        assert code == 2
        assert err == "error[E_REVERSAL]: treatment reverses for unit 'A' at period 2\n"

    def test_schema_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        code, _, err = run(capsys, "decompose", "--dgp", str(bad), "--period", "2")
        assert code == 2
        assert err.startswith("error[E_SCHEMA]:")

    @pytest.mark.parametrize(
        "history, field, value, message",
        [
            (None, "T", 4.5, "T must be an integer, got 4.5"),
            (0, "prob", None, "history 0: prob must be a number, got None"),
        ],
    )
    def test_malformed_spec_scalar(self, capsys, tmp_path, spec_file, history, field, value,
                                   message):
        doc = json.loads(Path(spec_file).read_text())
        (doc if history is None else doc["histories"][history])[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--dgp", str(bad))
        assert (code, out, err) == (2, "", f"error[E_SCHEMA]: {message}\n")

    def test_missing_required_input(self, capsys):
        code, _, err = run(capsys, "estimate")
        assert code == 2
        assert err.startswith("error[E_ARGS]:")

    def test_period_out_of_range(self, capsys, spec_file):
        code, _, err = run(capsys, "decompose", "--dgp", spec_file, "--period", "9")
        assert code == 2
        assert err.startswith("error[E_PERIOD]:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "0"),
            ("montecarlo", "--dgp", "SPEC", "--n", "-5", "--reps", "2"),
            ("montecarlo", "--dgp", "SPEC", "--n", "0", "--reps", "2"),
            ("simulate", "--dgp", "SPEC", "--n", "0"),
            ("bootstrap", "--panel", "PANEL", "--reps", "1"),
            ("bootstrap", "--panel", "PANEL", "--reps", "10", "--alpha", "1.5"),
            ("bootstrap", "--panel", "PANEL", "--reps", "10", "--alpha", "0"),
            ("bounds", "--panel", "PANEL", "--bounds=nan,1"),
            ("bounds", "--panel", "PANEL", "--bounds=-inf,inf"),
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2", "--bounds=nan,1"),
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2", "--targets", ","),
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2", "--threads", "0"),
            ("bootstrap", "--panel", "PANEL", "--reps", "10", "--threads", "-1"),
        ],
    )
    def test_out_of_range_option(self, capsys, spec_file, small_panel_csv, argv):
        files = {"SPEC": spec_file, "PANEL": small_panel_csv}
        seed = () if argv[0] == "bounds" else ("--seed", "1")  # bounds takes no seed
        code, _, err = run(capsys, *(files.get(a, a) for a in argv), *seed)
        assert code == 2
        assert err.startswith("error[E_ARGS]:")
        assert err.count("\n") == 1
        assert "Invalid value for '--" in err  # the option's value, not the command line

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "bootstrap" in out


class TestCheck:
    def test_panel(self, capsys, small_panel_csv):
        code, out, _ = run(capsys, "check", "--panel", small_panel_csv)
        assert code == 0
        assert "fs_1 = 0.5" in out
        assert "assumed" in out

    def test_dgp(self, capsys, spec_file, tmp_path):
        report = tmp_path / "check.json"
        code, out, _ = run(capsys, "check", "--dgp", spec_file, "--json", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["outputs"]["spec"]["p_c1"] == pytest.approx(0.4)


class TestEstimate:
    def test_report_contents_and_warning(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "est.json"
        code, out, _ = run(
            capsys, "estimate", "--panel", small_panel_csv, "--json", str(report)
        )
        assert code == 0
        doc = json.loads(report.read_text())
        est = doc["outputs"]["estimands"]
        assert est["rf"] == [0.625, 0.78125]
        assert est["fs"] == [0.5, 0.25]
        assert est["iv"] == [1.25, 3.125]
        # fs decreases from t=1 to t=2, so negative weights are guaranteed
        assert any("guaranteed" in w for w in doc["warnings"])
        flags = doc["outputs"]["negative_weight_flags"]
        assert flags[0]["status"] == "guaranteed"

    def test_byte_order_mark_panel(self, capsys, small_panel_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(small_panel_csv).read_bytes())
        outputs = []
        for path in (small_panel_csv, bom):
            report = tmp_path / "est.json"
            code, _, err = run(capsys, "estimate", "--panel", str(path), "--json", str(report))
            assert code == 0, err
            outputs.append(json.loads(report.read_text())["outputs"])
        assert outputs[0] == outputs[1]

    def test_population_input(self, capsys, spec_file):
        code, out, _ = run(capsys, "estimate", "--dgp", spec_file)
        assert code == 0
        assert "0.65" in out


class TestIdentify:
    def test_requires_declared_assumption(self, capsys, small_panel_csv):
        code, _, err = run(capsys, "identify", "--panel", small_panel_csv)
        assert code == 2
        assert err.startswith("error[E_ASSUME]:")

    def test_with_assumption(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "id.json"
        code, out, _ = run(
            capsys, "identify", "--panel", small_panel_csv,
            "--assume", "calendar-homogeneity", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        deltas = doc["outputs"]["profile"]["deltas"]
        # forward substitution: 0.625/0.5; (0.78125 + 0.25*1.25)/0.5
        assert deltas == pytest.approx([1.25, 2.1875])
        assert doc["assume"] == ["calendar-homogeneity"]

    def test_population_identify(self, capsys, spec_file):
        code, out, _ = run(
            capsys, "identify", "--dgp", spec_file, "--assume", "calendar-homogeneity"
        )
        assert code == 0


class TestBounds:
    def test_default_outcome_range(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "b.json"
        code, out, _ = run(
            capsys, "bounds", "--panel", small_panel_csv, "--json", str(report)
        )
        assert code == 0
        doc = json.loads(report.read_text())
        methods = {b["method"] for b in doc["outputs"]["bounds"]}
        assert methods == {"general", "general_unrestricted"}
        assert doc["inputs"]["bounds"] == [-2.5, 2.5]  # y range is [0, 2.5]
        assert any("tight bounds skipped" in w for w in doc["warnings"])

    def test_tight_requires_declaration(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "bounds", "--panel", small_panel_csv,
            "--assume", "cross-group-homogeneity", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        methods = {b["method"] for b in doc["outputs"]["bounds"]}
        assert "tight" in methods

    def test_positive_lo_drops_sign_restricted_methods(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "bounds", "--panel", small_panel_csv, "--bounds", "0.1,1",
            "--assume", "cross-group-homogeneity", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        methods = {b["method"] for b in doc["outputs"]["bounds"]}
        assert methods == {"general_unrestricted"}

    def test_single_period(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "bounds", "--panel", small_panel_csv, "--period", "2",
            "--bounds", "-1,1", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert all(b["t"] == 2 for b in doc["outputs"]["bounds"])

    def test_bad_bounds_flag(self, capsys, small_panel_csv):
        code, _, err = run(
            capsys, "bounds", "--panel", small_panel_csv, "--bounds", "1"
        )
        assert code == 2
        assert err.startswith("error[E_ARGS]:")


class TestDecompose:
    def test_table_and_report(self, capsys, spec_file, tmp_path):
        report = tmp_path / "d.json"
        code, out, _ = run(
            capsys, "decompose", "--dgp", spec_file, "--period", "2",
            "--json", str(report),
        )
        assert code == 0
        assert "C1,AT2" in out
        doc = json.loads(report.read_text())
        dec = doc["outputs"]["decomposition"]
        assert dec["lead"]["signed_value"] == pytest.approx(0.8)
        assert dec["terms"][0]["signed_value"] == pytest.approx(-0.15)
        assert dec["reconstructed_rf"] == pytest.approx(0.65)
        assert doc["outputs"]["negative_weights"]["entries"][0]["group"] == "C1,AT2"


class TestSimulate:
    def test_stdout_round_trip(self, capsys, spec_file):
        code, out, _ = run(capsys, "simulate", "--dgp", spec_file, "--n", "40", "--seed", "3")
        assert code == 0
        panel = ingest(out)
        assert panel.n == 40
        assert panel.T == 2

    def test_out_file_and_determinism(self, capsys, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", "--dgp", spec_file, "--n", "60", "--seed", "5",
                   "--out", str(a))[0] == 0
        assert run(capsys, "simulate", "--dgp", spec_file, "--n", "60", "--seed", "5",
                   "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, capsys, spec_file, monkeypatch, tmp_path):
        monkeypatch.setenv("DYNLATE_SEED", "5")
        out_path = tmp_path / "env.csv"
        code, _, _ = run(capsys, "simulate", "--dgp", spec_file, "--n", "60",
                         "--out", str(out_path))
        assert code == 0
        direct = tmp_path / "direct.csv"
        monkeypatch.delenv("DYNLATE_SEED")
        run(capsys, "simulate", "--dgp", spec_file, "--n", "60", "--seed", "5",
            "--out", str(direct))
        assert out_path.read_bytes() == direct.read_bytes()

    def test_seed_required_without_env(self, capsys, spec_file, monkeypatch):
        monkeypatch.delenv("DYNLATE_SEED", raising=False)
        code, _, err = run(capsys, "simulate", "--dgp", spec_file, "--n", "10")
        assert code == 2
        assert err.startswith("error[E_ARGS]:")


class TestMonteCarlo:
    def test_thread_invariant_reports(self, capsys, spec_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["montecarlo", "--dgp", spec_file, "--n", "200", "--reps", "8",
                "--seed", "13"]
        assert run(capsys, *base, "--threads", "1", "--json", str(a))[0] == 0
        assert run(capsys, *base, "--threads", "3", "--json", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["outputs"]["monte_carlo"]["rows"]

    def test_targets_subset(self, capsys, spec_file, tmp_path):
        report = tmp_path / "mc.json"
        code, _, _ = run(
            capsys, "montecarlo", "--dgp", spec_file, "--n", "100", "--reps", "4",
            "--seed", "1", "--targets", "identify", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        names = {r["name"] for r in doc["outputs"]["monte_carlo"]["rows"]}
        assert names == {"delta[0]", "delta[1]"}


class TestBootstrapCommand:
    def test_gating_and_report(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "boot.json"
        code, _, _ = run(
            capsys, "bootstrap", "--panel", small_panel_csv, "--reps", "25",
            "--seed", "2", "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        names = {t["name"] for t in doc["outputs"]["bootstrap"]["targets"]}
        assert "rf[1]" in names and "iv[2]" in names
        assert not any(n.startswith("delta") for n in names)
        assert not any(n.startswith("tight") for n in names)
        assert any("identified profile skipped" in w for w in doc["warnings"])

    def test_full_targets_with_assumptions(self, capsys, small_panel_csv, tmp_path):
        report = tmp_path / "boot.json"
        code, _, _ = run(
            capsys, "bootstrap", "--panel", small_panel_csv, "--reps", "25",
            "--seed", "2", "--assume", "calendar-homogeneity,cross-group-homogeneity",
            "--json", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        names = {t["name"] for t in doc["outputs"]["bootstrap"]["targets"]}
        assert "delta[1]" in names
        assert "tight_lower[2]" in names

    def test_thread_invariance(self, capsys, small_panel_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["bootstrap", "--panel", small_panel_csv, "--reps", "30", "--seed", "7"]
        assert run(capsys, *base, "--threads", "1", "--json", str(a))[0] == 0
        assert run(capsys, *base, "--threads", "4", "--json", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestGoldenReports:
    """Pinned inputs must produce byte-identical JSON reports."""

    def _current(self, capsys, tmp_path, name, argv):
        out = tmp_path / f"{name}.json"
        code, _, err = run(capsys, *argv, "--json", str(out))
        assert code == 0, err
        return out.read_bytes()

    def _assert_golden(self, capsys, tmp_path, golden_name, argv, **inputs):
        """The --json report of ``argv`` run on ``inputs`` (option -> file) equals the golden."""
        from dynlate import reporting

        flags = [a for key, path in inputs.items() for a in (f"--{key}", str(path))]
        doc = json.loads(self._current(capsys, tmp_path, argv[0], [*argv, *flags]))
        for key, path in inputs.items():
            doc["inputs"][key] = Path(path).name  # machine-dependent directory
        assert reporting.dumps(doc).encode() == (GOLDEN_DIR / golden_name).read_bytes()

    def test_estimate_golden(self, capsys, small_panel_csv, tmp_path):
        self._assert_golden(
            capsys, tmp_path, "estimate_small_panel.json", ["estimate"], panel=small_panel_csv
        )

    def test_identify_golden(self, capsys, small_panel_csv, tmp_path):
        # dyadic data: the recursion is exact, so any change in it shows here
        self._assert_golden(
            capsys, tmp_path, "identify_small_panel.json",
            ["identify", "--assume", "calendar-homogeneity"], panel=small_panel_csv,
        )

    def test_bounds_golden(self, capsys, small_panel_csv, tmp_path):
        # pins all three bound methods and the CLI's report order
        self._assert_golden(
            capsys, tmp_path, "bounds_small_panel.json",
            ["bounds", "--assume", "cross-group-homogeneity"], panel=small_panel_csv,
        )

    def test_bootstrap_golden(self, capsys, small_panel_csv, tmp_path):
        # dyadic data keeps the moment product exact, whatever the BLAS kernel
        self._assert_golden(
            capsys, tmp_path, "bootstrap_small_panel.json",
            ["bootstrap", "--reps", "200", "--seed", "16",
             "--assume", "calendar-homogeneity,cross-group-homogeneity"],
            panel=small_panel_csv,
        )

    def test_estimate_dgp_golden(self, capsys, tmp_path):
        self._assert_golden(
            capsys, tmp_path, "estimate_t4_six_history.json", ["estimate"],
            dgp=GOLDEN_DIR / "spec_t4_six_history.json",
        )

    def test_bounds_dgp_golden(self, capsys, tmp_path):
        self._assert_golden(
            capsys, tmp_path, "bounds_t4_six_history.json",
            ["bounds", "--assume", "cross-group-homogeneity"],
            dgp=GOLDEN_DIR / "spec_t4_six_history.json",
        )

    def test_montecarlo_golden(self, capsys, tmp_path):
        # unit-variance noise on a T=4 six-history spec: pins the draw
        # stream and the summation order of every replication's moments
        self._assert_golden(
            capsys, tmp_path, "montecarlo_t4_six_history.json",
            ["montecarlo", "--n", "3000", "--reps", "40", "--seed", "11"],
            dgp=GOLDEN_DIR / "spec_t4_six_history.json",
        )

    def test_simulate_golden(self, capsys, tmp_path):
        out = tmp_path / "panel.csv"
        code, _, err = run(
            capsys, "simulate", "--dgp", str(GOLDEN_DIR / "spec_t4_six_history.json"),
            "--n", "5000", "--seed", "4", "--out", str(out),
        )
        assert code == 0, err
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert f"{digest}\n" == (GOLDEN_DIR / "simulate_t4_six_history.sha256").read_text()

    def test_decompose_all_group_kinds_golden(self, capsys, tmp_path):
        # all 21 T=4 histories with distinct effects: the period-4 report
        # names every group of all six kinds and lists its members
        self._assert_golden(
            capsys, tmp_path, "decompose_t4_all_histories.json",
            ["decompose", "--period", "4"], dgp=GOLDEN_DIR / "spec_t4_all_histories.json",
        )

    def test_decompose_golden(self, capsys, tmp_path):
        # regenerate the spec file at a fixed path-independent location
        from dynlate.dgp import save_spec
        from conftest import make_three_history_spec

        spec_path = tmp_path / "spec.json"
        save_spec(make_three_history_spec(), str(spec_path))
        out = tmp_path / "d.json"
        code, _, _ = run(capsys, "decompose", "--dgp", str(spec_path),
                         "--period", "2", "--json", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        golden_doc = json.loads((GOLDEN_DIR / "decompose_three_history.json").read_text())
        # paths under tmp_path differ; everything else must match exactly
        doc["inputs"]["dgp"] = golden_doc["inputs"]["dgp"]
        assert doc == golden_doc

    def test_repeated_runs_identical(self, capsys, small_panel_csv, tmp_path):
        a = self._current(capsys, tmp_path, "a", ["estimate", "--panel", small_panel_csv])
        b = self._current(capsys, tmp_path, "b", ["estimate", "--panel", small_panel_csv])
        assert a == b
