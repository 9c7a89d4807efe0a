"""CLI behaviour: exit codes, error lines, reports, golden stability."""

import hashlib
import json
import os
from pathlib import Path

import pytest

from dynlate import cli, dgp, estimators, inference, simulate
from dynlate.cli import main
from dynlate.latent import NEVER, AdoptionPair
from dynlate.panel import ingest

from conftest import DATA_DIR, GOLDEN_DIR, make_homogeneity_spec, make_weak_long_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    """``parse_constant`` of a strict ``json.loads``: NaN and Infinity are not JSON."""
    raise ValueError(f"non-finite constant {name} in a report")


def write_weak_panel(tmp_path, T):
    """fs_1 = 1/24 against rho_2 = 1 over T periods.

    One of 24 z=1 units is treated from t=1, and all 4 z=0 units from t=2,
    so each exposure of the identified profile grows about 24-fold.
    """
    rows = ["unit_id,period,z,d,y"]
    for i in range(28):
        z = int(i < 24)
        start = 1 if i == 0 else 2 if z == 0 else T + 1
        for t in range(1, T + 1):
            d = int(t >= start)
            rows.append(f"u{i},{t},{z},{d},{d + (i * t % 7) / 8}")
    path = tmp_path / f"weak{T}.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def single_arm_spec_file(tmp_path, pz):
    """The T=4 six-history golden spec with every unit in one instrument arm."""
    doc = json.loads((GOLDEN_DIR / "spec_t4_six_history.json").read_text())
    doc["pz"] = pz
    path = tmp_path / f"pz{pz}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def one_period_inputs(tmp_path):
    """A T=1 spec (half first-period compliers) and a T=1 panel with both arms."""
    spec = dgp.DgpSpec(1, 0.5, (
        dgp.HistorySpec(AdoptionPair(1, NEVER), 0.5, (0.0,), ((1.0,),)),
        dgp.HistorySpec(AdoptionPair(NEVER, NEVER), 0.5, (0.0,), ((0.0,),)),
    ))
    spec_path = tmp_path / "t1.json"
    dgp.save_spec(spec, str(spec_path))
    panel_path = tmp_path / "t1.csv"
    panel_path.write_text("unit_id,period,z,d,y\nA,1,1,1,1.0\nB,1,0,0,0.0\n")
    return str(spec_path), str(panel_path)


def single_arm_warning(pz):
    return (f"pz = {pz} puts every unit in one instrument arm: "
            "no --panel command can read a panel drawn from this spec")


@pytest.fixture
def weak_long_panel(tmp_path):
    """The weak panel over T = 240 periods: the last exposures pass the float range."""
    return write_weak_panel(tmp_path, 240)


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

    @pytest.mark.parametrize(
        "rows",
        [
            "A,1,1,0,oops\n",
            # unit ids are fixed-width text, which cannot hold a trailing NUL
            "a\x00,1,1,1,2.0\nb,1,0,0,0.0\n",
            # one id sets every id's slot width, so an id over 256 code points is refused
            "a" * 257 + ",1,1,1,2.0\nb,1,0,0,0.0\n",
        ],
        ids=["value", "nul-id", "long-id"],
    )
    def test_malformed_csv(self, capsys, tmp_path, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,period,z,d,y\n" + rows)
        code, out, err = run(capsys, "estimate", "--panel", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error[E_MALFORMED_ROW]:")
        assert err.count("\n") == 1

    def test_non_utf8_panel(self, capsys, tmp_path):
        # Windows-1252 / Latin-1 "café" in a unit id
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"unit_id,period,z,d,y\ncaf\xe9,1,1,1,2.0\nB,1,0,0,0.0\n")
        code, out, err = run(capsys, "estimate", "--panel", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error[E_MALFORMED_ROW]: panel file {str(bad)!r} is not UTF-8 text:"
            " byte 0xe9, invalid continuation byte\n"
        )

    @pytest.mark.parametrize("name", ["spec.yaml", "spec.toml"])
    def test_non_utf8_spec(self, capsys, tmp_path, name):
        bad = tmp_path / name
        bad.write_bytes(b"T: 2\n# caf\xe9\n" if name.endswith(".yaml") else b"T = 2\n# caf\xe9\n")
        code, out, err = run(capsys, "estimate", "--dgp", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error[E_SCHEMA]: spec file {str(bad)!r} is not UTF-8 text:"
            " byte 0xe9, invalid continuation byte\n"
        )

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
            ("simulate", "--dgp", "SPEC", "--n", "5", "--seed", "-1"),
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2", "--seed", "-3"),
            ("bootstrap", "--panel", "PANEL", "--reps", "10", "--seed", "-1"),
            ("DYNLATE_SEED=-4", "simulate", "--dgp", "SPEC", "--n", "5"),
            ("DYNLATE_SEED=-4", "montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2"),
            ("DYNLATE_SEED=-4", "bootstrap", "--panel", "PANEL", "--reps", "10"),
            ("bounds", "--panel", "PANEL", "--bounds=a,b"),
            ("bounds", "--panel", "PANEL", "--bounds=1,0"),
            ("identify", "--panel", "PANEL", "--assume", "bogus"),
            ("montecarlo", "--dgp", "SPEC", "--n", "10", "--reps", "2", "--targets", "bogus"),
        ],
    )
    def test_out_of_range_option(self, capsys, monkeypatch, spec_file, small_panel_csv, argv):
        files = {"SPEC": spec_file, "PANEL": small_panel_csv}
        # the seed comes from DYNLATE_SEED unless the row passes --seed; bounds takes none
        env, argv = (argv[0], argv[1:]) if "=" in argv[0] else ("DYNLATE_SEED=1", argv)
        monkeypatch.setenv(*env.split("="))
        code, _, err = run(capsys, *(files.get(a, a) for a in argv))
        assert code == 2
        assert err.startswith("error[E_ARGS]:")
        assert err.count("\n") == 1
        assert "Invalid value for '--" in err  # the option's value, not the command line

    def test_panel_and_dgp_together(self, capsys, spec_file, small_panel_csv):
        code, out, err = run(capsys, "estimate", "--panel", small_panel_csv, "--dgp", spec_file)
        assert (code, out) == (2, "")
        assert err == "error[E_ARGS]: --panel and --dgp are mutually exclusive\n"

    def test_huge_period_is_unbalanced(self, capsys, tmp_path):
        # refused before any n x T array is sized (10**12 periods would be terabytes)
        bad = tmp_path / "huge.csv"
        bad.write_text("unit_id,period,z,d,y\na,1,1,0,0.0\nb,1000000000000,0,0,0.0\n")
        code, out, err = run(capsys, "estimate", "--panel", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            "error[E_UNBALANCED]: unit 'a' has periods [1], expected 1..1000000000000\n"
        )

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "bootstrap" in out


def write_panel(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("\n".join(["unit_id,period,z,d,y", *rows]) + "\n")
    return str(path)


@pytest.fixture
def edge_panel(tmp_path):
    """A valid panel with y of +-1e308: max(y) - min(y) and iv[1] = 3e308 pass the float range."""
    return write_panel(tmp_path, "edge.csv", [
        "a,1,1,1,1e308", "a,2,1,1,1e308", "b,1,0,0,-1e308", "b,2,0,0,-1e308",
        "c,1,1,0,0", "c,2,1,1,0",
    ])


class TestFloatRangeEdge:
    """Results past the float range are refused or dropped, never an internal error.

    Tier-1 turns every RuntimeWarning into an error, so an overflow that
    warns would exit 1 here.
    """

    @pytest.mark.parametrize("argv, message", [
        (["bounds"], "the outcome range max(y) - min(y) overflows the float range;"
                     " give the effect bounds with --bounds lo,hi"),
        (["bootstrap", "--reps", "50", "--seed", "1"],
         "the outcome range max(y) - min(y) overflows the float range;"
         " give the effect bounds with --bounds lo,hi"),
        (["estimate"], "cannot write the non-finite float inf to JSON"),
        (["bounds", "--bounds", "-1,1"], "cannot write the non-finite float inf to JSON"),
    ], ids=["bounds", "bootstrap", "estimate-json", "bounds-json"])
    def test_refused_with_one_error_line(self, capsys, edge_panel, tmp_path, argv, message):
        report = tmp_path / "report.json"
        report.write_text("kept\n")
        code, _, err = run(
            capsys, argv[0], "--panel", edge_panel, *argv[1:], "--json", str(report)
        )
        assert (code, err) == (2, f"error[E_NONFINITE]: {message}\n")
        assert report.read_text() == "kept\n"

    def test_bootstrap_with_bounds_drops_what_overflows(self, capsys, edge_panel, tmp_path):
        report = tmp_path / "boot.json"
        code, _, err = run(
            capsys, "bootstrap", "--panel", edge_panel, "--reps", "50", "--seed", "1",
            "--bounds", "-1,1", "--json", str(report),
        )
        assert (code, err) == (0, "")
        doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
        names = {t["name"] for t in doc["outputs"]["bootstrap"]["targets"]}
        # iv[1] = rf_1 / fs_1 and the bounds' rf_2 / fs_1 overflow in every resample
        assert "rf[1]" in names and "iv[1]" not in names and "general_lower[2]" not in names

    def test_arm_means_a_float_range_apart(self, capsys, tmp_path):
        # rf_1 = 1e308 - (-1e308) overflows in the difference of the arm means
        panel = write_panel(tmp_path, "two.csv", [
            "a,1,1,1,1e308", "a,2,1,1,1e308", "b,1,0,0,-1e308", "b,2,0,0,-1e308",
        ])
        code, out, err = run(capsys, "estimate", "--panel", panel)
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split()[:3] == ["1", "inf", "1"]
        code, _, err = run(
            capsys, "bootstrap", "--panel", panel, "--reps", "30", "--seed", "1",
            "--bounds", "-1,1",
        )
        assert (code, err) == (0, "")


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
        assert doc["warnings"] == []
        assert "warning:" not in out

    def test_dgp_cross_group_heterogeneity(self, capsys, tmp_path):
        spec = make_homogeneity_spec(with_ntf2=True)
        spec_path, report = tmp_path / "b.json", tmp_path / "check.json"
        dgp.save_spec(spec, str(spec_path))
        code, out, _ = run(capsys, "check", "--dgp", str(spec_path), "--json", str(report))
        assert code == 0
        assert "calendar homogeneity: does not hold" in out
        assert '"cross_group_homogeneity": false' in report.read_text()

    @pytest.mark.parametrize("pz", [0.0, 1.0])
    def test_single_arm_dgp_warns(self, capsys, tmp_path, pz):
        report = tmp_path / "check.json"
        code, out, _ = run(capsys, "check", "--dgp", single_arm_spec_file(tmp_path, pz),
                           "--json", str(report))
        assert code == 0
        assert out.startswith("spec ok:")
        assert out.splitlines()[-1] == f"warning: {single_arm_warning(pz)}"
        assert json.loads(report.read_text())["warnings"] == [single_arm_warning(pz)]

    @pytest.mark.parametrize(
        "command, source, estimates, populations",
        [
            ("check", "--panel", 1, 0),
            ("check", "--dgp", 0, 0),
            ("estimate", "--panel", 1, 0),
            ("estimate", "--dgp", 0, 1),
        ],
    )
    def test_estimands_built_once_and_only_when_read(
        self, capsys, monkeypatch, small_panel_csv, spec_file, command, source, estimates,
        populations,
    ):
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        est = counting("estimate", estimators.estimate)
        monkeypatch.setattr(estimators, "estimate", est)
        monkeypatch.setattr(cli, "estimate_fn", est)
        monkeypatch.setattr(
            dgp, "population_estimands", counting("population", dgp.population_estimands)
        )
        path = small_panel_csv if source == "--panel" else spec_file
        code, _, _ = run(capsys, command, source, path)
        assert code == 0
        assert calls.count("estimate") == estimates
        assert calls.count("population") == populations

    @pytest.mark.parametrize(
        "argv", [["estimate"], ["identify", "--assume", "calendar-homogeneity"]]
    )
    def test_negative_weights_scanned_once(self, capsys, monkeypatch, small_panel_csv, argv):
        # the report's flags and the warnings read one scan
        calls = []

        def counting(est):
            calls.append(est)
            return estimators.negative_weight_diagnostic(est)

        monkeypatch.setattr(cli, "negative_weight_diagnostic", counting)
        code, _, _ = run(capsys, *argv, "--panel", small_panel_csv)
        assert code == 0
        assert len(calls) == 1

    def test_bootstrap_estimates_once(self, capsys, monkeypatch, small_panel_csv):
        # the amplification warning reads fs off the bootstrap's point row
        calls = []

        def counting(panel):
            calls.append(panel)
            return estimators.estimate(panel)

        monkeypatch.setattr(cli, "estimate_fn", counting)
        monkeypatch.setattr(inference, "estimate", counting)
        code, _, _ = run(
            capsys, "bootstrap", "--panel", small_panel_csv, "--reps", "20", "--seed", "1",
            "--assume", "calendar-homogeneity",
        )
        assert code == 0
        assert len(calls) == 1


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

    def test_overflowing_profile_is_refused(self, capsys, weak_long_panel, tmp_path):
        report = tmp_path / "id.json"
        code, out, err = run(
            capsys, "identify", "--panel", weak_long_panel,
            "--assume", "calendar-homogeneity", "--json", str(report),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error[E_RELEVANCE]: identified profile overflows: |fs_1| = 0.0417 is too small"
            " for T = 240 periods\n"
        )
        assert not report.exists()

    def test_amplified_profile_warns(self, capsys, tmp_path):
        # 12 periods: every delta is finite, and an rf error can grow 1e16-fold
        panel, report = write_weak_panel(tmp_path, 12), tmp_path / "id.json"
        code, out, err = run(
            capsys, "identify", "--panel", panel,
            "--assume", "calendar-homogeneity", "--json", str(report),
        )
        assert (code, err) == (0, "")
        doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
        amplified = [w for w in doc["warnings"] if w.startswith("identification amplifies")]
        assert len(amplified) == 1 and "e+16-fold" in amplified[0]
        assert f"warning: {amplified[0]}\n" in out
        for boot_args, warned in [(("--assume", "calendar-homogeneity"), True), ((), False)]:
            code, out, err = run(
                capsys, "bootstrap", "--panel", panel, "--reps", "20", "--seed", "1",
                *boot_args, "--json", str(report),
            )
            assert (code, err) == (0, "")
            doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
            assert (amplified[0] in doc["warnings"]) == warned
            assert (f"warning: {amplified[0]}\n" in out) == warned

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

    @pytest.mark.parametrize(
        "argv",
        [("--dgp", "SPEC"), ("--panel", "PANEL"), ("--dgp", "SPEC", "--period", "2")],
        ids=["dgp", "panel", "period"],
    )
    def test_one_period_input_is_refused(self, capsys, tmp_path, argv):
        spec_path, panel_path = one_period_inputs(tmp_path)
        argv = [{"SPEC": spec_path, "PANEL": panel_path}.get(a, a) for a in argv]
        report = tmp_path / "b.json"
        code, out, err = run(capsys, "bounds", *argv, "--json", str(report))
        assert (code, out) == (2, "")
        assert err == "error[E_PERIOD]: bounds need T >= 2 periods: the input has T = 1\n"
        assert not report.exists()

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

    def test_zero_first_stage(self, capsys, tmp_path):
        """fs_2 = 0: the IV estimand is undefined, and the negatively signed
        terms stand in for the weights."""
        P = AdoptionPair
        spec = dgp.DgpSpec(2, 0.5, (
            dgp.HistorySpec(P(1, NEVER), 0.25, (0, 0), ((1.0,), (0.5, 1.0))),
            dgp.HistorySpec(P(NEVER, 2), 0.375, (0, 0), ((0.0,), (0.5, 0.0))),
            dgp.HistorySpec(P(2, NEVER), 0.125, (0, 0), ((0.0,), (0.5, 0.0))),
            dgp.HistorySpec(P(NEVER, NEVER), 0.25, (0, 0), ((0.0,), (0.0, 0.0))),
        ))
        spec_path = tmp_path / "fs0.json"
        dgp.save_spec(spec, str(spec_path))
        report = tmp_path / "d.json"
        code, out, err = run(
            capsys, "decompose", "--dgp", str(spec_path), "--period", "2",
            "--json", str(report),
        )
        assert (code, err) == (0, "")
        assert out.endswith(
            "warning: negatively weighted groups at t=2: NT1,F2\n"
            "warning: iv undefined at t=2 (fs_t = 0)\n"
        )
        neg = json.loads(report.read_text(), parse_constant=_refuse_constant)[
            "outputs"]["negative_weights"]
        assert neg["iv_defined"] is False
        assert [(x["group"], x["weight"]) for x in neg["entries"]] == [("NT1,F2", None)]

    def test_one_period_spec_names_its_empty_range(self, capsys, tmp_path):
        spec_path, _ = one_period_inputs(tmp_path)
        code, out, err = run(capsys, "decompose", "--dgp", spec_path, "--period", "2")
        assert (code, out) == (2, "")
        assert err == "error[E_PERIOD]: no period in 2..1: the input has T = 1\n"


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

    @pytest.mark.parametrize("pz", [0.0, 1.0])
    def test_single_arm_spec_warns(self, capsys, tmp_path, pz):
        spec = single_arm_spec_file(tmp_path, pz)
        csv, report = tmp_path / "one_arm.csv", tmp_path / "sim.json"
        code, out, _ = run(capsys, "simulate", "--dgp", spec, "--n", "30", "--seed", "2",
                           "--out", str(csv), "--json", str(report))
        assert code == 0
        assert out.splitlines()[-1] == f"warning: {single_arm_warning(pz)}"
        assert json.loads(report.read_text())["warnings"] == [single_arm_warning(pz)]
        code, _, err = run(capsys, "estimate", "--panel", str(csv))
        assert code == 2
        assert err.startswith("error[E_DEGENERATE]:")
        # on stdout the panel stays the whole output, and the warning goes to stderr
        code, out, err = run(capsys, "simulate", "--dgp", spec, "--n", "30", "--seed", "2")
        assert code == 0
        assert out == csv.read_text()
        assert err == f"warning: {single_arm_warning(pz)}\n"

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

    def test_overflowing_summary_is_written(self, capsys, tmp_path):
        # finite deltas whose squared deviations pass the float range
        spec_path, report = tmp_path / "weak.json", tmp_path / "mc.json"
        dgp.save_spec(make_weak_long_spec(200), str(spec_path))
        code, _, err = run(
            capsys, "montecarlo", "--dgp", str(spec_path), "--n", "500", "--reps", "10",
            "--seed", "1", "--targets", "identify", "--json", str(report),
        )
        assert (code, err) == (0, "")
        doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
        rows = doc["outputs"]["monte_carlo"]["rows"]
        assert any(r["sd"] is None and r["n_ok"] >= 2 for r in rows)


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

    def test_overflowing_resamples_count_as_failed(self, capsys, weak_long_panel, tmp_path):
        report = tmp_path / "boot.json"
        code, out, err = run(
            capsys, "bootstrap", "--panel", weak_long_panel, "--reps", "20", "--seed", "1",
            "--assume", "calendar-homogeneity", "--json", str(report),
        )
        assert (code, err) == (0, "")
        doc = json.loads(report.read_text(), parse_constant=_refuse_constant)
        boot = doc["outputs"]["bootstrap"]
        late = next(t for t in boot["targets"] if t["name"] == "delta[239]")
        # the point profile overflows, and so do most resamples that pass the relevance screen
        assert late["point"] is None
        assert late["n_failed"] > boot["n_failed_resamples"]
        assert late["n_ok"] + late["n_failed"] == 20

    def test_thread_invariance(self, capsys, small_panel_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["bootstrap", "--panel", small_panel_csv, "--reps", "30", "--seed", "7"]
        assert run(capsys, *base, "--threads", "1", "--json", str(a))[0] == 0
        assert run(capsys, *base, "--threads", "4", "--json", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


def test_threads_default_to_the_usable_cores(
    capsys, monkeypatch, spec_file, small_panel_csv
):
    # ``taskset -c 0`` on a 2-CPU machine: one usable core
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []
    for module, name in ((simulate, "monte_carlo"), (inference, "bootstrap")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, **k: seen.append(k["threads"]) or real(*a, **k)
        )
    assert run(capsys, "montecarlo", "--dgp", spec_file, "--n", "50", "--reps", "2",
               "--seed", "1")[0] == 0
    assert run(capsys, "bootstrap", "--panel", small_panel_csv, "--reps", "10",
               "--seed", "1")[0] == 0
    assert seen == [1, 1]


@pytest.fixture(scope="class")
def non_dyadic_panel(tmp_path_factory):
    """The panel ``simulate`` draws from the T=4 six-history spec at n = 20000, seed 3."""
    panel = tmp_path_factory.mktemp("simulate") / "panel_t4_six_history_n20000.csv"
    code = main(["simulate", "--dgp", str(GOLDEN_DIR / "spec_t4_six_history.json"),
                 "--n", "20000", "--seed", "3", "--out", str(panel)])
    assert code == 0
    return panel


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
        # dyadic data keeps every resample row exact, in any summation order
        self._assert_golden(
            capsys, tmp_path, "bootstrap_small_panel.json",
            ["bootstrap", "--reps", "200", "--seed", "16",
             "--assume", "calendar-homogeneity,cross-group-homogeneity"],
            panel=small_panel_csv,
        )

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_bootstrap_non_dyadic_golden(
        self, capsys, monkeypatch, threaded_pools, tmp_path, non_dyadic_panel, pooled
    ):
        # unit-variance noise: every resample's y sums round, so a change
        # in their summation order shows in the intervals' last bits; with
        # the floors lowered, two workers must write the same bytes
        threads = []
        if pooled:
            monkeypatch.setattr(inference, "_FILL_MIN_N", 1)
            monkeypatch.setattr(inference, "_FILL_MIN_UNITS", 1)
            monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
            threads = ["--threads", "2"]
        self._assert_golden(
            capsys, tmp_path, "bootstrap_t4_six_history.json",
            ["bootstrap", "--reps", "200", "--seed", "3",
             "--assume", "calendar-homogeneity,cross-group-homogeneity", *threads],
            panel=non_dyadic_panel,
        )
        assert threaded_pools == ([2] if pooled else [])

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


_SMALL = str(DATA_DIR / "panel_small.csv")
_SIX = str(GOLDEN_DIR / "spec_t4_six_history.json")
STDOUT_GOLDENS = {
    "check_panel": ["check", "--panel", _SMALL],
    # fs_1 = 0: the relevance warning is echoed, as every command echoes its warnings
    "check_panel_zero_fs1": ["check", "--panel", str(DATA_DIR / "panel_zero_fs1.csv")],
    "check_dgp": ["check", "--dgp", _SIX],
    "estimate_panel": ["estimate", "--panel", _SMALL],
    "estimate_dgp": ["estimate", "--dgp", _SIX],
    "identify_panel": ["identify", "--panel", _SMALL, "--assume", "calendar-homogeneity"],
    "identify_dgp": ["identify", "--dgp", _SIX, "--assume", "calendar-homogeneity"],
    "bounds_panel": ["bounds", "--panel", _SMALL],
    "bounds_dgp": ["bounds", "--dgp", _SIX, "--assume", "cross-group-homogeneity"],
    "decompose_dgp": ["decompose", "--dgp", str(GOLDEN_DIR / "spec_t4_all_histories.json"),
                      "--period", "4"],
    "montecarlo_dgp": ["montecarlo", "--dgp", _SIX, "--n", "3000", "--reps", "40",
                       "--seed", "11"],
    "bootstrap_panel": ["bootstrap", "--panel", _SMALL, "--reps", "25", "--seed", "2"],
    "bootstrap_panel_assumed": [
        "bootstrap", "--panel", _SMALL, "--reps", "200", "--seed", "16",
        "--assume", "calendar-homogeneity,cross-group-homogeneity",
    ],
}
"""Commands whose stdout is pinned in ``golden/stdout/<name>.txt``."""


@pytest.mark.parametrize("name", STDOUT_GOLDENS)
def test_stdout_golden(capsys, name):
    code, out, err = run(capsys, *STDOUT_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "stdout" / f"{name}.txt").read_bytes().decode()
