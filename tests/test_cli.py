"""Command-line interface: subcommands, exit codes, and golden parity with
direct library evaluation."""

import argparse
import collections
import configparser
import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsfwm import (
    CouplingConfig,
    Geometry,
    Objective,
    PumpRegime,
    PumpSpec,
    TabulatedSpectrum,
    cw_observables,
    load_spectrum,
    optima_table,
    pulsed_single_prob,
    pulsed_single_prob_numeric,
    run_sweep,
    save_spectrum,
)
from ringsfwm import __version__
from ringsfwm import sweep as sweep_module
from ringsfwm.cli import (
    _FIGURE_K_GRID,
    _COMMANDS,
    _CliValidationError,
    _build_parser,
    _figure_panels,
    _plain_args,
    main,
)
from ringsfwm.core import BroadbandAssumptionWarning
from ringsfwm.config import (
    _READS,
    load_config,
    loss_rates_from_config,
    pump_from_config,
    ring_from_config,
)
from ringsfwm.sweep import _split, render

from conftest import solve_distinct_pulsed_optimum, write_config


CW_SWEEP = """
[sweep]
axis1 = gamma_a
axis1_min = 0.05
axis1_max = 5
axis1_points = 40
axis1_scale = log
outputs = Rs, Rsi
"""

PULSED_SWEEP = """
[sweep]
axis1 = gamma_a
axis1_min = 0.5
axis1_max = 2
axis1_points = 3
outputs = ps, K
"""


@pytest.fixture()
def cw_config(tmp_path):
    """CW all-pass design with a coincidence window: what ``rates`` reads."""
    return write_config(tmp_path / "cw.ini")


@pytest.fixture()
def cw_sweep_config(tmp_path):
    return write_config(tmp_path / "cw_sweep.ini", knobs="", extra=CW_SWEEP)


@pytest.fixture()
def cw_optimize_config(tmp_path):
    return write_config(tmp_path / "cw_optimize.ini", geometry=None, knobs="", window=False)


PULSED_DESIGN = {
    "geometry": "add-drop-distinct",
    "knobs": "tgamma_a_over_gamma_c = 1.37\ngamma_b_over_gamma_c = 1.83",
    "pump": "mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10",
}


@pytest.fixture()
def pulsed_config(tmp_path):
    """Pulsed add-drop-distinct design with the ring: what ``rates`` reads."""
    return write_config(tmp_path / "pulsed.ini", **PULSED_DESIGN)


@pytest.fixture()
def schmidt_config(tmp_path):
    """The same design without ``[ring]``: what ``schmidt`` reads."""
    return write_config(tmp_path / "schmidt.ini", ring=False, **PULSED_DESIGN)


@pytest.fixture()
def spectrum_config(tmp_path, algaas):
    """Pulsed all-pass config with a tabulated flattop of width 10*tgamma."""
    _, gc = algaas
    path = tmp_path / "pump.txt"
    save_spectrum(TabulatedSpectrum.flattop(10.0 * 2.0 * gc, n_samples=201), path)
    return write_config(
        tmp_path / "spectrum.ini",
        pump=f"mode = pulsed\npulse_energy_pj = 0.1\nspectrum_file = {path}",
    )


class TestRatesPerturbativeLimit:
    """The broadband and the tabulated branch of ``rates`` share one
    perturbative-limit rule: all-pass at gamma_a = 1.5 gamma_c, a flattop
    pump of 10 pump linewidths, closed form or 401 samples."""

    @pytest.fixture(params=["broadband", "tabulated"])
    def bandwidth(self, request, tmp_path, algaas):
        if request.param == "broadband":
            return "bandwidth_factor = 10"
        _, gc = algaas
        path = tmp_path / "flattop.txt"
        save_spectrum(TabulatedSpectrum.flattop(10.0 * 2.5 * gc, n_samples=401), path)
        return f"spectrum_file = {path}"

    def _rates(self, tmp_path, bandwidth, energy_pj):
        path = write_config(
            tmp_path / "limit.ini", knobs="gamma_a_over_gamma_c = 1.5",
            pump=f"mode = pulsed\npulse_energy_pj = {energy_pj}\n{bandwidth}",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rates", "--config", str(path)])
        return code, [w for w in caught if w.category is UserWarning]

    def test_strained_point_warns_once(self, tmp_path, bandwidth, capsys):
        code, caught = self._rates(tmp_path, bandwidth, 1)  # ps ~ 0.2
        assert code == 0
        assert len(caught) == 1 and "single-pair" in str(caught[0].message)
        assert 0.1 < json.loads(capsys.readouterr().out)["pulsed"]["ps_per_pulse"] < 1.0

    def test_probability_above_one_is_refused(self, tmp_path, bandwidth, capsys):
        code, caught = self._rates(tmp_path, bandwidth, 10)  # ps ~ 20
        assert code == 1 and len(caught) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"ringsfwm: validation error: PulsedObservables requires "
            r"0 <= psi_pair <= ps <= 1, got psi_pair=\S+, ps=\S+\n", err)


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
        with pytest.warns(UserWarning, match="single-pair") as caught:
            assert main(["rates", "--config", str(pulsed_config)]) == 0
        assert {w.filename for w in caught} == {__file__}  # the caller of main
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

    def test_spectrum_file_pair_probability(self, spectrum_config, capsys, algaas):
        """``psi = eta * ps`` holds for any spectrum: the Lorentzian pair
        factor is shared.  Checked on an add-drop design, where eta is not 1/2."""
        _, gc = algaas
        text = spectrum_config.read_text().replace("all-pass-identical", "add-drop-distinct")
        spectrum_config.write_text(text.replace(
            "gamma_a_over_gamma_c = 1.0", "tgamma_a_over_gamma_c = 1.37\ngamma_b_over_gamma_c = 1.83"
        ))
        assert main(["rates", "--config", str(spectrum_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        eta = CouplingConfig.distinct(1.37 * gc, 1.83 * gc, gc).heralding_efficiency
        assert report["heralding_efficiency"] == eta
        pulsed = report["pulsed"]
        assert pulsed["psi_per_pulse"] / pulsed["ps_per_pulse"] == pytest.approx(eta, rel=1e-15)

    def test_spectrum_file_golden_value(self, spectrum_config, capsys):
        """Pinned to the value of the QUADPACK qagp integration this rule
        replaced: same panels, so agreement to roundoff."""
        assert main(["rates", "--config", str(spectrum_config)]) == 0
        pulsed = json.loads(capsys.readouterr().out)["pulsed"]
        assert pulsed["ps_per_pulse"] == pytest.approx(0.001832397591177774, rel=1e-12, abs=0.0)
        assert pulsed["quad_rel_err"] == pytest.approx(7.237249867786356e-07, rel=1e-9)

    def test_relative_spectrum_file_is_next_to_the_config(self, spectrum_config, tmp_path,
                                                          monkeypatch, capsys):
        """A relative ``spectrum_file`` names a file in the config file's
        directory, whatever the working directory; an absolute one is kept."""
        assert main(["rates", "--config", str(spectrum_config)]) == 0  # absolute path
        expected = json.loads(capsys.readouterr().out)
        text = spectrum_config.read_text().replace(str(tmp_path / "pump.txt"), "pump.txt")
        (tmp_path / "cfg").mkdir()
        (tmp_path / "pump.txt").rename(tmp_path / "cfg" / "pump.txt")
        (tmp_path / "cfg" / "r.ini").write_text(text)
        (tmp_path / "elsewhere").mkdir()
        for cwd, config in ((tmp_path, "cfg/r.ini"), (tmp_path / "cfg", "r.ini"),
                            (tmp_path / "elsewhere", str(tmp_path / "cfg" / "r.ini"))):
            monkeypatch.chdir(cwd)
            assert main(["rates", "--config", config]) == 0, (cwd, config)
            assert json.loads(capsys.readouterr().out) == expected

    def test_spectrum_file_with_bandwidth_rejected(self, spectrum_config, capsys):
        """A flattop bandwidth next to a spectrum would be ignored."""
        text = spectrum_config.read_text()
        spectrum_config.write_text(text.replace("spectrum_file =", "bandwidth_factor = 10\nspectrum_file =", 1))
        assert main(["rates", "--config", str(spectrum_config)]) == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# pump spectral amplitude samples\n# columns\n"],
                             ids=["empty", "comments-only"])
    def test_spectrum_file_without_samples_rejected(self, spectrum_config, tmp_path, capsys,
                                                    text):
        """Exit 1, naming the file, and no numpy warning."""
        path = tmp_path / "pump.txt"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["rates", "--config", str(spectrum_config)]) == 1
        assert capsys.readouterr().err == (
            f"ringsfwm: validation error: spectrum file {path} holds no samples\n")
        assert caught == []

    @pytest.mark.parametrize("command", ["sweep", "optimize", "schmidt", "figure2", "figure3"])
    def test_spectrum_file_rejected_elsewhere(self, spectrum_config, tmp_path, capsys, command):
        if command == "sweep":
            spectrum_config.write_text(spectrum_config.read_text() + PULSED_SWEEP)
        argv = [command, "--config", str(spectrum_config), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "spectrum_file" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_json_rows_equal_optima_table(self, cw_optimize_config, capsys):
        cp = load_config(cw_optimize_config, "optimize")
        expected = optima_table(
            ring_from_config(cp), loss_rates_from_config(cp)[0], power=pump_from_config(cp).power
        )
        assert main(["optimize", "--config", str(cw_optimize_config), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["optima"]
        assert len(rows) == 12
        assert rows == expected

    def test_text_report_has_twelve_rows(self, cw_optimize_config, capsys):
        assert main(["optimize", "--config", str(cw_optimize_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
        assert len(lines[rule + 1:]) == 12

    def test_csv_format_rejected(self, cw_optimize_config, capsys):
        """The optimum report has no CSV form."""
        assert main(["optimize", "--config", str(cw_optimize_config), "--format", "csv"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_distinct_pump_loss_rejected(self, tmp_path, capsys):
        """The optimum table assumes tgamma_c = gamma_c, so a distinct pump
        loss would be dropped."""
        cfg = write_config(
            tmp_path / "distinct.ini", geometry="add-drop-distinct", window=False,
            knobs="tgamma_a_over_gamma_c = 1.0\ngamma_b_over_gamma_c = 1.0\n"
            "tgamma_c_over_2pi_mhz = 80",
        )
        out = tmp_path / "optima.json"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[coupling] tgamma_c_over_2pi_mhz" in err and "tgamma_c = gamma_c" in err
        assert not out.exists()

    def test_pulse_bandwidth_without_factor_rejected(self, tmp_path, capsys):
        """The absolute pulsed scale p0 is set by bandwidth_factor; beside a
        delta_omega the pulse energy would go unused."""
        cfg = write_config(
            tmp_path / "delta.ini",
            pump="mode = pulsed\npulse_energy_pj = 1\ndelta_omega_over_2pi_ghz = 5",
        )
        out = tmp_path / "optima.json"
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[pump] delta_omega_over_2pi_ghz" in err
        assert "p0 needs bandwidth_factor" in err
        assert not out.exists()


class TestSweepCommand:
    def test_csv_output(self, cw_sweep_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", str(cw_sweep_config), "--format", "csv",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma_a_over_gamma_c,Rs,Rsi,error"
        assert len(lines) == 41

    def test_tied_pump_loss_accepted(self, tmp_path):
        """On all-pass a tgamma_c equal to gamma_c is the tie: sweep takes it,
        as rates does, and records it in meta.spec."""
        tied = "tgamma_c_over_2pi_mhz = 71.1"
        sweep_cfg = write_config(tmp_path / "sweep.ini", knobs=tied, extra=CW_SWEEP)
        rates_cfg = write_config(tmp_path / "rates.ini", knobs=f"gamma_a_over_gamma_c = 1.0\n{tied}")
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
        assert main(["rates", "--config", str(rates_cfg), "--out", str(tmp_path / "rates")]) == 0
        spec = json.loads(out.read_text())["meta"]["spec"]
        assert spec["tgamma_c_rad_per_s"] == spec["gamma_c_rad_per_s"]

    def test_grid_override(self, cw_sweep_config, tmp_path):
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--config", str(cw_sweep_config), "--grid", "11", "--out", str(out),
        ]) == 0
        assert len(json.loads(out.read_text())["rows"]) == 11

    def test_axis_scale_any_case(self, cw_sweep_config, tmp_path):
        """``axis1_scale = Log`` is read as ``log``, as the geometry and the
        pump mode are read in any case: the same bytes."""
        text, outs = cw_sweep_config.read_text(), []
        for scale in ("log", "Log"):
            cw_sweep_config.write_text(text.replace("axis1_scale = log", f"axis1_scale = {scale}"))
            outs.append(tmp_path / f"{scale}.json")
            assert main(["sweep", "--config", str(cw_sweep_config), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_equals_file(self, cw_sweep_config, tmp_path, capsys, fmt):
        """Without ``--out`` the result goes to stdout in the same bytes, on a
        grid of more than one block of rows."""
        out = tmp_path / f"sweep.{fmt}"
        grid = ["--grid", str(2 * sweep_module._BLOCK_ROWS + 1), "--format", fmt]
        assert main(["sweep", "--config", str(cw_sweep_config), *grid, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["sweep", "--config", str(cw_sweep_config), *grid]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestSchmidtCommand:
    def test_point_report(self, schmidt_config, capsys):
        """The exact spectrum: K and K - 1 from their closed forms at
        r = tgamma/gamma = 2.37/2.83, the leading 8 coefficients and the mass
        of the rest; no grid size or grid norm."""
        assert main(["schmidt", "--config", str(schmidt_config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "geometry", "K", "K_minus_1", "leading_schmidt_coefficients", "tail_mass"}
        r = 2.37 / 2.83
        assert report["K"] == pytest.approx(
            (2 * r + 1) * (3 * r + 1) / (r * (6 * r + 5)), rel=1e-15, abs=0.0)
        assert report["K_minus_1"] == pytest.approx(1 / (r * (6 * r + 5)), rel=1e-15, abs=0.0)
        coefficients = report["leading_schmidt_coefficients"]
        assert len(coefficients) == 8 and coefficients == sorted(coefficients, reverse=True)
        assert sum(coefficients) + report["tail_mass"] == pytest.approx(1.0, abs=1e-14)

    def test_ring_section_rejected(self, pulsed_config, tmp_path, capsys):
        """K does not depend on the ring, so a [ring] section would be ignored."""
        out = tmp_path / "k.json"
        assert main(["schmidt", "--config", str(pulsed_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ringsfwm schmidt does not read [ring]" in err
        assert not out.exists()

    def test_sweep_section_points_to_sweep(self, schmidt_config, tmp_path, capsys):
        """schmidt reports one point; a [sweep] grid is the sweep command's."""
        schmidt_config.write_text(schmidt_config.read_text() + """
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
""")
        out = tmp_path / "k.json"
        assert main(["schmidt", "--config", str(schmidt_config), "--out", str(out)]) == 1
        assert "ringsfwm sweep" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "12/12" in out

    def test_mismatch_exits_with_computation_failure(self, capsys, monkeypatch):
        import ringsfwm.optimize as optimize_mod
        from ringsfwm.optimize import OptimizationTarget

        clean = optimize_mod.analytic_optimum
        key = (Geometry.ALL_PASS_IDENTICAL, OptimizationTarget(Objective.ONE_PHOTON, PumpRegime.CW))

        def rigged(geometry, target):
            rec = clean(geometry, target)
            if (geometry, target) == key:
                return dataclasses.replace(rec, peak_value=rec.peak_value * 1.5)
            return rec

        monkeypatch.setattr(optimize_mod, "analytic_optimum", rigged)
        assert main(["validate"]) == 2
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1

    def test_programming_error_propagates(self, monkeypatch):
        """A bug is not reported as a computation failure."""
        import ringsfwm.cli as cli_mod

        def broken():
            raise NotImplementedError("bug")

        monkeypatch.setattr(cli_mod, "cross_validate_optima", broken)
        with pytest.raises(NotImplementedError, match="bug"):
            main(["validate"])


COMMANDS = ("rates", "sweep", "optimize", "schmidt", "validate", "figure2", "figure3")


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


FLAGS = ("--config", "--out", "--format", "--grid", "--refine")
# flags argparse reads (an abbreviation, an attached value, help) or rejects
NEAR_MISS_FLAGS = ("--conf", "--ref", "--out=x", "--grid=9", "-h", "--", "--bogus")
VALUES = ("-", "-5", "1e3", "5", " 7", "0", "JSON", "json", "csv", "", "out.txt",
          "dir/cfg.ini", "/a path/x.ini", "x=1")


# values each flag accepts, drawn four times as often as each of VALUES
ACCEPTED = {"--config": ("c.ini", "dir/cfg.ini"), "--out": ("out.txt", ""),
            "--format": ("json", "csv"), "--grid": ("5", " 7")}


@st.composite
def _command_lines(draw):
    """A command, then some of its own flags and, half the time, one or two
    others (repeats, near misses, flags it does not declare) in any order,
    each followed more often than not by the number of values it takes."""
    command = draw(st.sampled_from(COMMANDS + ("valdiate",)))
    own = list(_COMMANDS[command][1] if command in _COMMANDS else ())
    flags = draw(st.permutations(own))[:draw(st.integers(0, len(own)))]
    if draw(st.booleans()):
        flags += draw(st.lists(st.sampled_from(FLAGS + NEAR_MISS_FLAGS), min_size=1, max_size=2))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        counts = (0,) * 6 + (1,) if flag == "--refine" else (1,) * 6 + (0, 2)
        value = st.sampled_from(VALUES + ACCEPTED.get(flag, ()) * 4)
        argv += [flag, *draw(st.lists(value, min_size=2, max_size=2))[:draw(st.sampled_from(counts))]]
    return argv


def _argparse_reading(argv):
    """``vars()`` of argparse's namespace for ``argv``, or None where it
    exits (help) or raises (an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser(argv[0]).parse_args(argv))
        except (_CliValidationError, SystemExit):
            return None


class TestParser:
    @settings(max_examples=400, deadline=None)
    @given(argv=_command_lines())
    def test_plain_reading_is_argparse_reading(self, argv):
        """Where the flag table reads a command line, argparse reads the
        same namespace; where argparse exits or raises, the table declines."""
        plain = _plain_args(argv)
        if plain is not None:
            assert vars(plain) == _argparse_reading(argv)

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["validate", "--out", "validate.txt"],
        ["figure2", "--refine", "--format", "json", "--config", "c.ini", "--out", "fig2",
         "--grid", "200"],
        ["figure3", "--format", "csv", "--config", "c.ini", "--out", "fig3"],
        ["rates", "--config", "c.ini"],
        ["optimize", "--format", "json", "--config", "c.ini"],
        ["schmidt", "--out", "", "--config", "c.ini"],
        ["sweep", "--grid", " 7", "--config", "/a path/c.ini"],
    ])
    def test_plain_lines_are_read_from_the_table(self, argv):
        assert vars(_plain_args(argv)) == _argparse_reading(argv)

    def test_builds_the_named_subcommand_only(self):
        for command in COMMANDS:
            assert list(_subcommands(_build_parser(command))) == [command]
        for first in (None, "-h", "--version", "valdiate"):
            assert list(_subcommands(_build_parser(first))) == list(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_as_in_the_full_parser(self, command, capsys):
        with pytest.raises(SystemExit) as full:
            _build_parser().parse_args([command, "-h"])
        want = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == full.value.code == 0
        assert want.startswith(f"usage: ringsfwm {command} ")
        assert capsys.readouterr().out == want

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out

    def test_unknown_subcommand_lists_every_choice(self, capsys):
        assert main(["valdiate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ringsfwm: error: argument command: invalid choice: 'valdiate'")
        assert re.search(r"\(choose from '?" + r"'?, '?".join(COMMANDS) + r"'?\)", err)
        assert main([]) == 1
        assert "required: command" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"ringsfwm {__version__}\n"


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
        ("schmidt", ["--grid", "5"]),
        ("schmidt", ["--format", "csv"]),
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

    def test_percent_in_value_is_validation_error(self, tmp_path, capsys):
        """A "%" is an ordinary character: the bad number is named, with no
        interpolation traceback."""
        bad = write_config(tmp_path / "percent.ini")
        bad.write_text(bad.read_text().replace("wavelength_nm = 1550", "wavelength_nm = 1550%"))
        assert main(["rates", "--config", str(bad)]) == 1
        assert "[ring] wavelength_nm = '1550%' is not a number" in capsys.readouterr().err

    def test_unknown_config_key_is_validation_error(self, cw_config, capsys):
        """A misspelt unit suffix no longer drops CAR silently."""
        cw_config.write_text(cw_config.read_text().replace(
            "coincidence_window_ns = 1", "coincidence_window_us = 1"))
        assert main(["rates", "--config", str(cw_config)]) == 1
        err = capsys.readouterr().err
        assert str(cw_config) in err and "[detector] coincidence_window_us" in err

    @pytest.mark.parametrize("command", ["rates", "sweep"])
    @pytest.mark.parametrize("key", ["coincidence_window_ns", "coincidence_window_s"])
    def test_pulsed_coincidence_window_rejected(self, tmp_path, capsys, command, key):
        """A pulsed pump has no CAR output, so the window would be dropped."""
        cfg = write_config(
            tmp_path / "pulsed.ini", pump="mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10",
            extra=f"\n[detector]\n{key} = 1\n" + (PULSED_SWEEP if command == "sweep" else ""),
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and f"[detector] {key}" in err
        assert not out.exists()

    def test_file_without_section_header_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "headless.ini"
        bad.write_text("n2_m2_per_w = 2.6e-17\n")
        assert main(["rates", "--config", str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("line, replacement, named", [
        ("axis1_min = 0.05\n", "", "[sweep] axis1_min"),
        ("axis1_max = 5\n", "axis1_max = five\n", "[sweep] axis1_max"),
        ("axis1_points = 40\n", "axis1_points = 4.5\n", "[sweep] axis1_points"),
        ("axis1_points = 40\n", "axis1_points = many\n", "[sweep] axis1_points"),
        ("axis1_points = 40\n", "axis1_points = 1\n", "n_points must be >= 2"),
        ("outputs = Rs, Rsi\n", "outputs = Rs, Rsi\nschmidt_points = 192\n",
         "[sweep] schmidt_points (unknown)"),
        ("outputs = Rs, Rsi\n", "outputs = Rs, Rsi\nt_max_over_gamma = 20\n",
         "[sweep] t_max_over_gamma (unknown)"),
        ("outputs = Rs, Rsi\n", "outputs = Rs, Rsi\naxis2_min = 0.5\n", "[sweep] axis2_min"),
    ], ids=["missing", "word", "fraction", "integer-word", "too-few-points",
            "removed-schmidt-points", "removed-t-max-over-gamma", "axis2-key-without-axis2"])
    def test_bad_sweep_key_is_validation_error(self, cw_sweep_config, capsys, line, replacement,
                                               named):
        cw_sweep_config.write_text(cw_sweep_config.read_text().replace(line, replacement))
        assert main(["sweep", "--config", str(cw_sweep_config)]) == 1
        assert named in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, cw_sweep_config, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main([
            "sweep", "--config", str(cw_sweep_config), "--format", "csv", "--out", str(out),
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
        (x, y), _ = solve_distinct_pulsed_optimum(Objective.TWO_PHOTON)
        assert rates["meta"]["optima"]["psi"]["couplings_over_gamma_c"] == pytest.approx(
            [x, y], rel=1e-12
        )

    @pytest.mark.parametrize("command, section, key", [
        ("figure2", "ring", "n2_m2_per_w = 1e-17"),
        ("figure3", "coupling", "geometry = all-pass-identical"),
        ("figure2", "detector", "coincidence_window_ns = 1"),
    ], ids=["figure2-ring", "figure3-coupling", "figure2-detector"])
    def test_config_sections_beyond_pump_rejected(self, command, section, key, tmp_path, capsys):
        """The figures run on the AlGaAs example ring, so any section but
        [pump] would be ignored; the file is rejected before writing."""
        pump = "mode = cw\npower_uw = 10" if command == "figure2" else (
            "mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10")
        path = tmp_path / "figure.ini"
        path.write_text(f"[{section}]\n{key}\n\n[pump]\n{pump}\n")
        assert main([command, "--grid", "5", "--config", str(path), "--out", str(tmp_path / "fig")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and f"[{section}]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["figure.ini"]

    def test_config_with_pump_only(self, tmp_path, capsys):
        path = tmp_path / "figure.ini"
        path.write_text("[pump]\nmode = pulsed\npulse_energy_pj = 2\nbandwidth_factor = 10\n")
        assert main(["figure3", "--grid", "3", "--config", str(path), "--out", str(tmp_path / "fig")]) == 0
        meta = json.loads((tmp_path / "fig_a.json").read_text())["meta"]
        assert meta["spec"]["pump"]["pulse_energy_j"] == 2e-12

    @pytest.mark.parametrize("command", ["figure2", "figure3"])
    def test_zero_grid_rejected(self, command, tmp_path, capsys):
        assert main([command, "--grid", "0", "--out", str(tmp_path / "fig")]) == 1
        assert "n_points must be >= 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


# Each figure command's pump and outputs, as the command sets them.
FIGURE_DRIVES = {
    "figure2": (PumpSpec.cw(10e-6), ("Rs", "Rsi")),
    "figure3": (PumpSpec.pulsed(1e-12, bandwidth_factor=10.0), ("ps", "psi")),
}


def _figure_files(command, grid, fmt, refine):
    """Each file name a figure command writes at stem ``fig``, in its printed
    order, and the text rendered for it in this process."""
    pump, outputs = FIGURE_DRIVES[command]
    files = {f"fig_{label}.{fmt}": render(run_sweep(spec, refine=refine), fmt)
             for label, spec in _figure_panels(pump, outputs, grid).items()}
    if command == "figure3":
        spec = _figure_panels(pump, ("K",), min(grid, _FIGURE_K_GRID))["c"]
        files[f"fig_c_schmidt.{fmt}"] = render(run_sweep(spec), fmt)
    return files


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _strained(ps: str) -> str:
    """The perturbative-limit warning for a largest ``ps`` printed as ``ps``."""
    return (f"per-pulse probability ps = {ps} > 0.1: the single-pair (perturbative) "
            "assumption is strained")


# figure3's perturbative-limit message at B = 7 and 1 pJ: the largest ps of
# panels a and c at --grid 4
STRAINED_B7 = _strained("0.445")
# every command's broadband-margin message at B = 7
MARGINAL_B7 = "delta_omega = 7*tgamma < 10*tgamma: broadband closed forms are marginal here"


class TestFigureFiles:
    """The figure commands compute and write their panels in two processes;
    the files and warnings are those of one process, and no child outlives
    the command."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("fmt, refine", [("csv", False), ("json", False), ("json", True)],
                             ids=["csv-plain", "json-plain", "json-refine"])
    @pytest.mark.parametrize("command", ["figure2", "figure3"])
    def test_files_equal_in_process_render(self, command, fmt, refine, workers, tmp_path,
                                           capsys, monkeypatch, forks):
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        argv = [command, "--grid", "6", "--format", fmt, "--out", str(tmp_path / "fig")]
        assert main(argv + ["--refine"] * refine) == 0
        printed = capsys.readouterr().out.splitlines()
        expected = _figure_files(command, 6, fmt, refine)
        assert printed == [str(tmp_path / name) for name in expected]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
        assert len(forks) == (workers > 1)
        _assert_no_child_left()

    def test_child_write_failure_exits_3(self, tmp_path, capsys, monkeypatch, forks):
        """A panel a child owns cannot be written: exit 3, naming its path."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 2)
        child_panel = _split([5, 25, 25])  # rows of panels a, b, c at --grid 5
        blocked = tmp_path / f"fig_{'abc'[child_panel]}.csv"
        blocked.mkdir()
        assert main(["figure2", "--grid", "5", "--format", "csv", "--out", str(tmp_path / "fig")]) == 3
        assert len(forks) == 1
        err = capsys.readouterr().err
        assert err.startswith("ringsfwm: I/O error:") and str(blocked) in err
        _assert_no_child_left()

    @pytest.mark.parametrize("workers, blocked", [(2, "bc"), (1, "ab"), (2, "ab")])
    def test_first_failing_panel_reported(self, workers, blocked, tmp_path, capsys,
                                          monkeypatch):
        """Two panels cannot be written; the error names the earlier of the
        two in the printed order, on one CPU as on two: b before the child's
        c, and a before b, both the caller's."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        for label in blocked:
            (tmp_path / f"fig_{label}.json").mkdir()
        assert main(["figure2", "--grid", "5", "--out", str(tmp_path / "fig")]) == 3
        err = capsys.readouterr().err
        first, later = blocked
        assert str(tmp_path / f"fig_{first}.json") in err and f"fig_{later}.json" not in err
        _assert_no_child_left()

    def test_child_killed_without_report(self, tmp_path, capsys, monkeypatch):
        """A child that dies before it reports fails the command with an I/O
        error naming the files it owned."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 2)
        parent, real_emit = os.getpid(), sweep_module.emit

        def emit_or_die(result, fmt, path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            real_emit(result, fmt, path)

        monkeypatch.setattr(sweep_module, "emit", emit_or_die)
        assert main(["figure2", "--grid", "5", "--out", str(tmp_path / "fig")]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "fig_c.json") in err and "without a report" in err
        _assert_no_child_left()

    def test_marginal_bandwidth_warnings_reach_the_caller(self, tmp_path, capsys, monkeypatch):
        """figure3 at B = 7: the broadband-margin warning, once per panel,
        and the perturbative-limit warning of panels a and c (panel b peaks
        below ps = 0.1) reach the caller's warning filters and name the line
        that called main, with children forked for the rendering."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 2)
        path = tmp_path / "b7.ini"
        path.write_text("[pump]\nmode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 7\n")
        argv = ["figure3", "--grid", "4", "--config", str(path), "--out", str(tmp_path / "fig")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            assert main(argv) == 0
        counts = collections.Counter(str(w.message) for w in caught)
        assert counts.pop(STRAINED_B7) == 2, counts
        assert counts == {MARGINAL_B7: 4}, counts
        assert {(w.category, w.filename, w.lineno) for w in caught} == {
            (BroadbandAssumptionWarning, __file__, line), (UserWarning, __file__, line)}

    @staticmethod
    def _b7_argv(tmp_path):
        """figure3 at B = 7, where every panel warns."""
        path = tmp_path / "b7.ini"
        path.write_text("[pump]\nmode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 7\n")
        return ["figure3", "--grid", "4", "--config", str(path), "--out", str(tmp_path / "fig")]

    def test_default_filter_shows_the_same_warnings_on_one_and_two_cpus(
            self, tmp_path, capsys, monkeypatch, forks):
        """Under the default filter figure3 at B = 7 shows each warning once,
        naming the line that called main, whether the child computes panel c
        or the caller computes every panel."""
        shown = []
        for workers in (1, 2):
            monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                line = sys._getframe().f_lineno + 1
                assert main(self._b7_argv(tmp_path)) == 0
            shown.append(collections.Counter(
                (str(w.message), w.category, w.filename, w.lineno) for w in caught))
        assert len(forks) == 1
        assert shown[0] == shown[1]
        assert len(shown[0]) == 2 and set(shown[0].values()) == {1}, shown[0]
        assert {key[1:] for key in shown[0]} == {
            (BroadbandAssumptionWarning, __file__, line), (UserWarning, __file__, line)}
        assert (STRAINED_B7, UserWarning, __file__, line) in shown[0]

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="os.fork() warns from Python 3.12 "
                        "on, and the catch_warnings() around it clears the warning registries")
    def test_repeated_call_shows_no_warning_again(self, tmp_path, capsys, monkeypatch, forks):
        """Under the default filter a second figure3 call at B = 7 in the
        same process shows none of the warnings the first showed, on two
        CPUs as on one: nothing around the fork clears the registries."""
        argv = self._b7_argv(tmp_path)
        argv[argv.index("--grid") + 1] = "9"
        for workers in (1, 2):
            monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
            shown = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                for _ in range(2):
                    assert main(argv) == 0
                    shown.append(len(caught) - sum(shown))
            assert shown == [2, 0], (workers, shown)
        assert len(forks) == 2

    def test_perturbative_warnings_equal_on_one_and_two_cpus(
            self, tmp_path, capsys, monkeypatch, forks):
        """The default figure3 pump peaks at ps = 0.218 on panels a and c at
        --grid 4: each of those panels warns once, and no other warning is
        issued.  Each warning has the category, file and line it has in a
        one-process run (the line that called main), whether the child
        computes panel c or the caller computes every panel."""
        shown = []
        for workers in (1, 2):
            monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                line = sys._getframe().f_lineno + 1
                assert main(["figure3", "--grid", "4", "--out", str(tmp_path / "fig")]) == 0
            shown.append(collections.Counter(
                (str(w.message), w.category, w.filename, w.lineno) for w in caught))
        assert len(forks) == 1
        assert shown[0] == shown[1]
        assert shown[0] == {(_strained("0.218"), UserWarning, __file__, line): 2}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warning_as_error_ends_main_alike(self, workers, tmp_path, capsys, monkeypatch,
                                              forks):
        """With BroadbandAssumptionWarning an error, main raises it, the
        first panel's marginal warning, and leaves no child."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BroadbandAssumptionWarning)
            with pytest.raises(BroadbandAssumptionWarning, match=r"delta_omega = 7\*tgamma"):
                main(self._b7_argv(tmp_path))
        assert len(forks) == (workers > 1)
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_computation_failure_in_panel_c_exits_2(self, workers, tmp_path, capsys,
                                                    monkeypatch):
        """A computation error in panel c's run_sweep, in the child when
        there are two CPUs, ends main as it does in one process."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: workers)
        pids, real_evaluate = tmp_path / "pids", sweep_module._evaluate

        def failing_evaluate(spec, output, point):
            if spec.geometry is Geometry.ADD_DROP_DISTINCT and output == "ps":
                with open(pids, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise FloatingPointError("overflow in panel c")
            return real_evaluate(spec, output, point)

        monkeypatch.setattr(sweep_module, "_evaluate", failing_evaluate)
        assert main(["figure3", "--grid", "4", "--out", str(tmp_path / "fig")]) == 2
        assert capsys.readouterr().err == "ringsfwm: computation failed: overflow in panel c\n"
        assert (pids.read_text().split() == [str(os.getpid())]) == (workers == 1)
        _assert_no_child_left()

    def test_fork_warning_not_passed_on(self, tmp_path, capsys, monkeypatch):
        """Python 3.12+ warn when a multi-threaded process forks; there
        emit_all ignores exactly that warning around its own fork, so
        figure3's caller sees no DeprecationWarning.  The fork is made to
        warn, and emit_all to expect it, on any Python."""
        monkeypatch.setattr(sweep_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(sweep_module, "_FORK_WARNS", True)
        real_fork, calls = os.fork, []

        def warning_fork():
            pid = real_fork()
            if pid != 0:  # the parent warns, as CPython 3.12 does
                calls.append(pid)
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["figure3", "--grid", "4", "--out", str(tmp_path / "fig")]) == 0
        assert len(calls) == 1
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)], caught
        _assert_no_child_left()

    @pytest.mark.parametrize("command", ["sweep", "figure2", "figure3"])
    def test_refine_with_csv_rejected(self, command, cw_sweep_config, tmp_path, capsys, forks):
        """--refine changes only meta, which CSV does not write: exit 1 and
        no file."""
        config = ["--config", str(cw_sweep_config)] if command == "sweep" else []
        argv = [command, *config, "--grid", "4", "--refine", "--format", "csv",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "CSV carries no meta" in err and err.startswith("ringsfwm: validation")
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")] and not forks


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

    def test_python_dash_m_warning_names_no_package_line(self, tmp_path):
        """Under -m the entry module runs as __main__; a library warning is
        still printed once, and names no file inside the package but the
        entry module itself: no user line called in, and ``runpy``'s frame
        above it is not one either."""
        config = write_config(tmp_path / "limit.ini", knobs="gamma_a_over_gamma_c = 1.5",
                              pump="mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10")
        proc = subprocess.run([sys.executable, "-m", "ringsfwm", "rates", "--config", str(config)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "Warning: " in line]
        assert len(warned) == 1 and "single-pair" in warned[0], proc.stderr
        entry = Path(sweep_module.__file__).with_name("__main__.py")
        assert warned[0].startswith(f"{entry}:"), proc.stderr
        assert proc.stderr.count(str(entry.parent)) == 1, proc.stderr

    def test_python_dash_m_figure3_warnings_name_the_entry_module(self, tmp_path):
        """``python -m ringsfwm figure3`` warns that its strongest pulsed
        points strain the single-pair assumption, at the line of the entry
        module that called into the package, not at ``<frozen runpy>``."""
        proc = subprocess.run(
            [sys.executable, "-m", "ringsfwm", "figure3", "--grid", "9",
             "--out", str(tmp_path / "fig3")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "Warning: " in line]
        entry = Path(sweep_module.__file__).with_name("__main__.py")
        assert warned and all(line.startswith(f"{entry}:") for line in warned), proc.stderr
        assert "runpy" not in proc.stderr, proc.stderr

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


class TestDeferredImports:
    """Each command imports only what it runs: the grid, Schmidt and
    config-reading modules, ``json`` and ``argparse`` (with the ``gettext``
    and ``locale`` its messages load) load on first use, in a fresh
    interpreter."""

    DEFERRED = ("ringsfwm.sweep", "ringsfwm.schmidt", "ringsfwm.config", "configparser",
                "argparse", "gettext", "locale", "json")

    def _loaded(self, code: str, *argv) -> list[str]:
        """Which of ``DEFERRED`` a fresh interpreter holds after ``code``."""
        code += (f"\nloaded = [m for m in {self.DEFERRED!r} if m in sys.modules]\n"
                 f"import json\nprint(json.dumps(loaded))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_none(self):
        assert self._loaded("import sys, ringsfwm, ringsfwm.cli") == []

    def test_validate_loads_none(self, tmp_path):
        code = ("import sys, ringsfwm.cli\n"
                "assert ringsfwm.cli.main(['validate', '--out', sys.argv[1]]) == 0")
        assert self._loaded(code, str(tmp_path / "validate.txt")) == []

    def test_help_and_errors_still_come_from_argparse(self):
        code = textwrap.dedent("""
            import contextlib, io, sys, ringsfwm.cli
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert ringsfwm.cli.main(["validate", "--otu", "v.txt"]) == 1
            want = "ringsfwm: error: unrecognized arguments: --otu v.txt\\n"
            assert err.getvalue() == want, err.getvalue()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
                ringsfwm.cli.main(["validate", "-h"])
            assert out.getvalue().startswith("usage: ringsfwm validate [-h] [--out OUT]\\n")
        """)
        assert "argparse" in self._loaded(code)

    def test_tabulated_singles_probability_loads_none(self):
        code = ("import sys, ringsfwm as r\n"
                "cfg = r.CouplingConfig.all_pass(1.0, 1.0)\n"
                "ring = r.RingParams(n2=1.0, vg=1.0, area=1.0, circumference=1.0, omega0=1.0)\n"
                "spectrum = r.TabulatedSpectrum.flattop(20.0 * cfg.tgamma)\n"
                "assert r.pulsed_single_prob_numeric(ring, cfg, 1e-3, spectrum) > 0.0")
        assert self._loaded(code) == []

    def test_every_public_name_resolves_and_is_listed(self):
        """``__all__``, ``dir``, star-import and the submodule attributes
        behave as with eager imports; an unknown name still raises."""
        code = textwrap.dedent("""
            import sys, ringsfwm
            listed = dir(ringsfwm)
            missing = [n for n in ringsfwm.__all__ if n not in listed]
            assert not missing, missing
            assert ringsfwm.run_sweep is sys.modules["ringsfwm.sweep"].run_sweep
            assert ringsfwm.schmidt is sys.modules["ringsfwm.schmidt"]
            assert ringsfwm.sweep is sys.modules["ringsfwm.sweep"]
            namespace = {}
            exec("from ringsfwm import *", namespace)
            assert all(namespace[n] is getattr(ringsfwm, n) for n in ringsfwm.__all__)
            from ringsfwm import SchmidtResult, emit
            try:
                ringsfwm.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc), exc
            else:
                raise AssertionError("ringsfwm.no_such_name resolved")
        """)
        assert self._loaded(code) == ["ringsfwm.sweep", "ringsfwm.schmidt", "json"]


class TestTextEncoding:
    """Config and spectrum files are UTF-8 whatever the locale: no file is
    opened in the locale's encoding, and a file that is not UTF-8 is named
    in the error."""

    STRICT = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]

    def test_no_file_opened_in_the_locale_encoding(self, tmp_path, spectrum_config):
        cw = tmp_path / "cw.ini"
        cw.write_text("[pump]\nmode = cw\npower_uw = 10\n", encoding="utf-8")
        save = ("import sys, ringsfwm as r; "
                "r.save_spectrum(r.TabulatedSpectrum.flattop(1.0, 5), sys.argv[1])")
        for argv in (
            ["-m", "ringsfwm", "figure2", "--config", str(cw), "--grid", "5",
             "--out", str(tmp_path / "fig2")],
            ["-m", "ringsfwm", "rates", "--config", str(spectrum_config)],
            ["-c", save, str(tmp_path / "saved.txt")],
        ):
            proc = subprocess.run(self.STRICT + argv, capture_output=True, text=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            assert "EncodingWarning" not in proc.stderr
        assert load_spectrum(tmp_path / "saved.txt").omega.size == 5

    def test_undecodable_files_named(self, tmp_path, spectrum_config):
        config = tmp_path / "bad.ini"
        config.write_bytes(b"[pump]\nmode = cw\npower_uw = 10 \xff\n")
        spectrum = tmp_path / "pump.txt"
        spectrum.write_bytes(spectrum.read_bytes() + b"# \xff\n")
        for argv, path in ((["figure2", "--config", str(config), "--grid", "5",
                             "--out", str(tmp_path / "fig2")], config),
                           (["rates", "--config", str(spectrum_config)], spectrum)):
            proc = subprocess.run(self.STRICT + ["-m", "ringsfwm", *argv],
                                  capture_output=True, text=True)
            assert proc.returncode == 1, proc.stderr
            assert f"file {path}: 'utf-8' codec can't decode byte 0xff" in proc.stderr
            assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("fig2*"))


# Per pump mode: the [pump] body, a [sweep] section, and the keys of the
# other mode.
PUMP_MODES = {
    "cw": ("mode = cw\npower_uw = 10", CW_SWEEP,
           ("spectrum_file", "pulse_energy_pj", "bandwidth_factor")),
    "pulsed": ("mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10", PULSED_SWEEP,
               ("power_uw",)),
}


# One key of each kind in [coupling]: the geometry, a coupling knob, the
# distinct pump loss.
COUPLING_KEYS = ("geometry", "gamma_a_over_gamma_c", "tgamma_c_over_2pi_mhz")


def _unread_entries():
    """(command, pump mode, section, key or None) for each section a command
    does not read, each [coupling] key of COUPLING_KEYS it does not read and
    each other-mode pump key, walked from the table."""
    sections = set().union(*_READS.values())
    for command, reads in _READS.items():
        for section in sorted(sections - set(reads)):
            yield command, "cw", section, None
        for key in COUPLING_KEYS:
            if "coupling" in reads and key not in reads["coupling"]:
                yield command, "cw", "coupling", key
        if "pump" in reads:
            for mode, (_, _, keys) in PUMP_MODES.items():
                for key in keys:
                    yield command, mode, "pump", key


@pytest.mark.parametrize("command, mode, section, key", list(_unread_entries()))
def test_unread_config_entry_rejected(tmp_path, capsys, command, mode, section, key):
    """Each command accepts a file holding what it reads, and exits 1 once
    one entry it does not read is added, naming the file, the entry and the
    command, and writing nothing."""
    pump, sweep, _ = PUMP_MODES[mode]
    full = configparser.ConfigParser(interpolation=None)
    full.read(write_config(tmp_path / "full.ini", pump=pump, extra=sweep))
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_dict({s: {k: v for k, v in full[s].items() if k in keys}
                   for s, keys in _READS[command].items() if full.has_section(s)})
    path = tmp_path / "design.ini"
    with path.open("w") as fh:
        cfg.write(fh)
    load_config(path, command)
    if key is None:
        key = next(iter(full[section]))
        cfg.read_dict({section: {key: full[section][key]}})
    else:
        cfg[section][key] = "1"
    with path.open("w") as fh:
        cfg.write(fh)
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(path), "--out", str(out / "x")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"[{section}] {key}" in err
    assert f"ringsfwm {command} does not read" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["rates", "optimize"])
def test_each_warning_once_per_command(tmp_path, capsys, command):
    """A marginal bandwidth (B = 7) is reported once, in one text (that of
    figure3's panels), even with no de-duplication by the warnings filter:
    rates' probabilities and p0 check one rule."""
    design = {"geometry": "add-drop-distinct",
              "knobs": "tgamma_a_over_gamma_c = 1.37\ngamma_b_over_gamma_c = 1.83"}
    cfg = write_config(
        tmp_path / "b7.ini",
        **(design if command == "rates" else {"geometry": None, "knobs": ""}),
        pump="mode = pulsed\npulse_energy_pj = 0.1\nbandwidth_factor = 7",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg)]) == 0
    counts = collections.Counter(str(w.message) for w in caught)
    assert set(counts.values()) == {1}, counts
    assert {str(w.message) for w in caught
            if w.category is BroadbandAssumptionWarning} == {MARGINAL_B7}


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


def test_readme_output_table_matches_sweep():
    """The README's sweep-output table lists exactly the outputs a sweep
    accepts, each with the pump mode it needs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = dict(re.findall(r"^\| `(\w+)` \| (cw|pulsed) \|", readme, re.MULTILINE))
    mode = {PumpRegime.CW: "cw", PumpRegime.BROADBAND_PULSE: "pulsed"}
    assert documented == {output: mode[r] for output, r in sweep_module._REGIMES.items()}


def test_readme_quick_start_runs():
    """The README's quick-start Python block runs against the current API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL)[1]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_config_example_runs(tmp_path, monkeypatch):
    """Each INI block of the README (its first line names the file) is
    accepted by every ``ringsfwm <cmd> --config`` line that uses it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    files = re.findall(r"```ini\n# (\S+)\n(.*?)```", readme, re.DOTALL)
    commands = re.findall(r"^ringsfwm (\w+ --config .*)$", readme, re.MULTILINE)
    assert len(files) >= 2 and len(commands) >= 2
    monkeypatch.chdir(tmp_path)
    for name, text in files:
        (tmp_path / name).write_text(text)
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[argv.index("--config") + 1] in dict(files), line
        assert main(argv) == 0, line
