"""Command-line interface: subcommands, exit codes, and golden parity with
direct library evaluation."""

import argparse
import collections
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ringsfwm import (
    CouplingConfig,
    TabulatedSpectrum,
    cw_observables,
    optima_table,
    pulsed_single_prob,
    pulsed_single_prob_numeric,
    save_spectrum,
)
from ringsfwm.cli import _build_parser, main
from ringsfwm.config import load_config, loss_rates_from_config, pump_from_config, ring_from_config

from conftest import write_config


@pytest.fixture()
def cw_config(tmp_path):
    return write_config(tmp_path / "cw.ini", extra="""
[sweep]
axis1 = gamma_a
axis1_min = 0.05
axis1_max = 5
axis1_points = 40
axis1_scale = log
outputs = Rs, Rsi
""")


@pytest.fixture()
def pulsed_config(tmp_path):
    return write_config(
        tmp_path / "pulsed.ini",
        geometry="add-drop-distinct",
        knobs="tgamma_a_over_gamma_c = 1.37\ngamma_b_over_gamma_c = 1.83",
        pump="mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10",
    )


@pytest.fixture()
def spectrum_config(tmp_path, algaas):
    """Pulsed all-pass config with a tabulated flattop of width 10*tgamma."""
    _, gc = algaas
    path = tmp_path / "pump.txt"
    save_spectrum(TabulatedSpectrum.flattop(10.0 * 2.0 * gc, n_samples=201), path)
    return write_config(
        tmp_path / "spectrum.ini",
        pump=f"mode = pulsed\npulse_energy_pj = 0.1\nspectrum_file = {path}",
        extra="""
[sweep]
axis1 = gamma_a
axis1_min = 0.5
axis1_max = 2
axis1_points = 3
outputs = ps, K
""",
    )


class TestRates:
    def test_matches_library(self, cw_config, capsys, algaas):
        ring, gc = algaas
        assert main(["rates", "--config", str(cw_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        obs = cw_observables(ring, CouplingConfig.all_pass(gc, gc), 10e-6)
        assert report["cw"]["Rs_per_s"] == pytest.approx(obs.Rs, rel=1e-12)
        assert report["cw"]["Rsi_per_s"] == pytest.approx(obs.Rsi, rel=1e-12)
        assert report["cw"]["CAR"] > 1.0
        assert report["quality_factors"]["Qc"] == pytest.approx(2.72e6, rel=1e-2)

    def test_pulsed_point(self, pulsed_config, capsys, algaas):
        ring, gc = algaas
        # 1 pJ at this optimum sits above the 10% per-pulse comfort zone
        with pytest.warns(UserWarning, match="single-pair"):
            assert main(["rates", "--config", str(pulsed_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        cfg = CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc)
        expected = pulsed_single_prob(ring, cfg, 1e-12, 10.0 * cfg.tgamma)
        assert report["pulsed"]["ps_per_pulse"] == pytest.approx(expected, rel=1e-12)


    def test_spectrum_file_is_used(self, spectrum_config, capsys, algaas):
        ring, gc = algaas
        assert main(["rates", "--config", str(spectrum_config)]) == 0
        pulsed = json.loads(capsys.readouterr().out)["pulsed"]
        spectrum = TabulatedSpectrum.flattop(10.0 * 2.0 * gc, n_samples=201)
        expected = pulsed_single_prob_numeric(
            ring, CouplingConfig.all_pass(gc, gc), 1e-13, spectrum
        )
        assert pulsed["method"] == "numeric-quadrature"
        assert pulsed["ps_per_pulse"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert pulsed["pi_per_pulse"] == pulsed["ps_per_pulse"]
        assert pulsed["p_acc_per_pulse"] == pulsed["ps_per_pulse"] ** 2
        assert 0.0 < pulsed["quad_rel_err"] < 1e-6
        assert "psi_per_pulse" not in pulsed

    def test_spectrum_file_golden_value(self, spectrum_config, capsys):
        """Pinned to the value of the QUADPACK qagp integration this rule
        replaced: same panels, so agreement to roundoff."""
        assert main(["rates", "--config", str(spectrum_config)]) == 0
        pulsed = json.loads(capsys.readouterr().out)["pulsed"]
        assert pulsed["ps_per_pulse"] == pytest.approx(0.001832397591177774, rel=1e-12, abs=0.0)
        assert pulsed["quad_rel_err"] == pytest.approx(7.237249867786356e-07, rel=1e-9)

    def test_spectrum_file_with_bandwidth_rejected(self, spectrum_config, capsys):
        """A flattop bandwidth next to a spectrum would be ignored."""
        text = spectrum_config.read_text()
        spectrum_config.write_text(text.replace("spectrum_file =", "bandwidth_factor = 10\nspectrum_file =", 1))
        assert main(["rates", "--config", str(spectrum_config)]) == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "optimize", "schmidt", "figure2", "figure3"])
    def test_spectrum_file_rejected_elsewhere(self, spectrum_config, tmp_path, capsys, command):
        argv = [command, "--config", str(spectrum_config), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "spectrum_file" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_json_rows_equal_optima_table(self, cw_config, capsys):
        cp = load_config(cw_config)
        expected = optima_table(
            ring_from_config(cp), loss_rates_from_config(cp)[0], power=pump_from_config(cp).power
        )
        assert main(["optimize", "--config", str(cw_config), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["optima"]
        assert len(rows) == 12
        assert rows == expected

    def test_text_report_has_twelve_rows(self, cw_config, capsys):
        assert main(["optimize", "--config", str(cw_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
        assert len(lines[rule + 1:]) == 12

    def test_csv_format_rejected(self, cw_config, capsys):
        """The optimum report has no CSV form."""
        assert main(["optimize", "--config", str(cw_config), "--format", "csv"]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_output(self, cw_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", str(cw_config), "--format", "csv",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma_a_over_gamma_c,Rs,Rsi,error"
        assert len(lines) == 41

    def test_grid_override(self, cw_config, tmp_path):
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--config", str(cw_config), "--grid", "11", "--out", str(out),
        ]) == 0
        assert len(json.loads(out.read_text())["rows"]) == 11


class TestSchmidtCommand:
    def test_point_report(self, pulsed_config, capsys):
        assert main(["schmidt", "--config", str(pulsed_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"] == pytest.approx(1.119, abs=5e-3)
        assert report["K_minus_1"] == pytest.approx(report["K"] - 1.0)

    @pytest.mark.parametrize("flag", [["--grid", "24"], ["--format", "csv"]])
    def test_point_mode_rejects_grid_flags(self, pulsed_config, capsys, flag):
        """Without a [sweep] section there is no grid to size or format."""
        assert main(["schmidt", "--config", str(pulsed_config), *flag]) == 1
        assert "[sweep]" in capsys.readouterr().err

    def test_grid_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "grid.ini",
            geometry="add-drop-distinct",
            knobs="tgamma_a_over_gamma_c = 1.0\ngamma_b_over_gamma_c = 1.0",
            pump="mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10",
            extra="""
[sweep]
axis1 = tgamma_a
axis1_min = 0.5
axis1_max = 3
axis1_points = 3
axis2 = gamma_b
axis2_min = 0.5
axis2_max = 3
axis2_points = 3
outputs = K
schmidt_points = 96
""",
        )
        out = tmp_path / "k.json"
        assert main(["schmidt", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 9
        assert all(row["K"] >= 1.0 for row in data["rows"])
        assert all(row["K_minus_1"] == row["K"] - 1.0 for row in data["rows"])


class TestValidateCommand:
    def test_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "12/12" in out

    def test_mismatch_exits_with_computation_failure(self, capsys, monkeypatch):
        import ringsfwm.cli as cli_mod
        from ringsfwm import Geometry, Objective, PumpRegime, analytic_optimum
        from ringsfwm.optimize import OptimizationTarget, cross_validate_optima

        clean = analytic_optimum(
            Geometry.ALL_PASS_IDENTICAL,
            OptimizationTarget(Objective.ONE_PHOTON, PumpRegime.CW),
        )
        key = (Geometry.ALL_PASS_IDENTICAL, Objective.ONE_PHOTON, PumpRegime.CW)

        def rigged():
            return cross_validate_optima(
                overrides={key: (clean.couplings, clean.peak_value * 1.5)}
            )

        monkeypatch.setattr(cli_mod, "cross_validate_optima", rigged)
        assert main(["validate"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_programming_error_propagates(self, monkeypatch):
        """A bug is not reported as a computation failure."""
        import ringsfwm.cli as cli_mod

        def broken():
            raise NotImplementedError("bug")

        monkeypatch.setattr(cli_mod, "cross_validate_optima", broken)
        with pytest.raises(NotImplementedError, match="bug"):
            main(["validate"])


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        assert main(["sweep", "--no-such-flag"]) == 1

    @pytest.mark.parametrize("command, flag", [
        ("rates", ["--format", "json"]),
        ("rates", ["--grid", "5"]),
        ("rates", ["--refine"]),
        ("optimize", ["--grid", "5"]),
        ("optimize", ["--refine"]),
        ("schmidt", ["--refine"]),
        ("validate", ["--config", "/nonexistent.ini"]),
        ("validate", ["--format", "csv"]),
        ("validate", ["--grid", "3"]),
        ("validate", ["--refine"]),
    ])
    def test_unhonoured_flag_rejected(self, pulsed_config, capsys, command, flag):
        """A subcommand accepts only the flags it acts on."""
        config = [] if command == "validate" else ["--config", str(pulsed_config)]
        assert main([command, *config, *flag]) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self):
        assert main(["rates", "--config", "/nonexistent/x.ini"]) == 3

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[ring]\nn2_m2_per_w = 2.6e-17\n")
        assert main(["rates", "--config", str(bad)]) == 1

    def test_unwritable_output_is_io_error(self, cw_config, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main([
            "sweep", "--config", str(cw_config), "--format", "csv", "--out", str(out),
        ]) == 3


class TestFigureCommands:
    def test_figure2_panels(self, tmp_path, capsys):
        stem = tmp_path / "fig2"
        code = main(["figure2", "--grid", "24", "--refine", "--out", str(stem)])
        assert code == 0
        for label in ("a", "b", "c"):
            data = json.loads((tmp_path / f"fig2_{label}.json").read_text())
            n = 24 if label == "a" else 24 * 24
            assert len(data["rows"]) == n
            assert data["meta"]["optima"]["Rsi"]["peak_normalized"] > 0

    def test_figure3_has_schmidt_panel(self, tmp_path, capsys):
        stem = tmp_path / "fig3"
        code = main(["figure3", "--grid", "12", "--out", str(stem)])
        assert code == 0
        data = json.loads((tmp_path / "fig3_c_schmidt.json").read_text())
        ks = [row["K"] for row in data["rows"]]
        assert all(k >= 1.0 for k in ks)
        rates = json.loads((tmp_path / "fig3_c.json").read_text())
        assert rates["meta"]["optima"]["psi"]["couplings_over_gamma_c"] == [1.46, 3.17]


class TestModuleEntryPoint:
    def test_python_dash_m(self, cw_config, tmp_path):
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ringsfwm", "rates",
             "--config", str(cw_config), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["geometry"] == "all-pass-identical"

    def test_import_loads_no_scipy(self):
        """scipy is a test-only oracle: importing the package and its CLI
        must not load it."""
        code = (
            "import sys, ringsfwm, ringsfwm.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["rates", "optimize"])
def test_each_warning_once_per_command(tmp_path, capsys, command):
    """A marginal bandwidth (B = 7) is reported once per distinct message,
    even with no de-duplication by the warnings filter."""
    cfg = write_config(
        tmp_path / "b7.ini",
        geometry="add-drop-distinct",
        knobs="tgamma_a_over_gamma_c = 1.37\ngamma_b_over_gamma_c = 1.83",
        pump="mode = pulsed\npulse_energy_pj = 0.1\nbandwidth_factor = 7",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg)]) == 0
    counts = collections.Counter(str(w.message) for w in caught)
    assert any("B = 7 < 10" in message for message in counts)
    assert set(counts.values()) == {1}, counts


def test_readme_flag_table_matches_parser():
    """The README's subcommand table lists exactly each subcommand's flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {
        m[1]: set(re.findall(r"--[a-z-]+", m[2]))
        for m in re.finditer(r"^\| `(\w+)` +\|[^|\n]*\|([^|\n]*)\|$", readme, re.MULTILINE)
    }
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert documented == declared
