"""Config-file parsing: unit-suffixed keys and section validation."""

import math

import pytest

from ringsfwm.config import (
    load_config,
    loss_rates_from_config,
    point_config_from_config,
    pump_from_config,
    ring_from_config,
    sweep_spec_from_config,
)

from conftest import write_config

TWO_PI = 2.0 * math.pi


def test_linewidth_unit_suffixes_agree(tmp_path):
    per_mhz = write_config(tmp_path / "a.ini")
    cp = load_config(per_mhz)
    gamma_c, tgamma_c = loss_rates_from_config(cp)
    assert gamma_c == pytest.approx(TWO_PI * 71.1e6, rel=1e-15)
    assert tgamma_c is None

    in_hz = tmp_path / "b.ini"
    in_hz.write_text(
        per_mhz.read_text().replace(
            "gamma_c_over_2pi_mhz = 71.1", "gamma_c_over_2pi_hz = 71.1e6"
        )
    )
    assert loss_rates_from_config(load_config(in_hz))[0] == pytest.approx(
        gamma_c, rel=1e-15
    )


def test_ring_geometry_unit_equivalences(tmp_path, algaas):
    ring_ref, _ = algaas
    base = write_config(tmp_path / "a.ini")
    ring = ring_from_config(load_config(base))
    assert ring.circumference == pytest.approx(ring_ref.circumference, rel=1e-15)
    assert ring.area == pytest.approx(0.330e-12, rel=1e-15)
    assert ring.omega0 == pytest.approx(ring_ref.omega0, rel=1e-15)

    alt = tmp_path / "b.ini"
    alt.write_text(
        base.read_text()
        .replace("radius_um = 143", f"circumference_m = {2 * math.pi * 143e-6!r}")
        .replace("area_um2 = 0.330", "area_m2 = 0.330e-12")
        .replace("wavelength_nm = 1550", f"omega0_rad_per_s = {ring_ref.omega0!r}")
    )
    ring2 = ring_from_config(load_config(alt))
    assert ring2.circumference == pytest.approx(ring.circumference, rel=1e-12)
    assert ring2.area == ring.area
    assert ring2.omega0 == ring_ref.omega0


def test_duplicate_unit_keys_rejected(tmp_path):
    cfg = write_config(tmp_path / "a.ini")
    text = cfg.read_text().replace(
        "area_um2 = 0.330", "area_um2 = 0.330\narea_m2 = 3.3e-13"
    )
    cfg.write_text(text)
    with pytest.raises(ValueError, match="exactly one"):
        ring_from_config(load_config(cfg))


def test_missing_section_is_named(tmp_path):
    cfg = tmp_path / "a.ini"
    cfg.write_text("[ring]\nn2_m2_per_w = 2.6e-17\n")
    with pytest.raises(ValueError, match=r"\[ring\] must contain"):
        ring_from_config(load_config(cfg))
    with pytest.raises(ValueError, match=r"\[pump\]"):
        pump_from_config(load_config(cfg))


def test_point_coupling_in_loss_units_or_absolute(tmp_path):
    rel = write_config(tmp_path / "a.ini")
    cfg1 = point_config_from_config(load_config(rel))
    absolute = tmp_path / "b.ini"
    absolute.write_text(
        rel.read_text().replace(
            "gamma_a_over_gamma_c = 1.0", "gamma_a_over_2pi_mhz = 71.1"
        )
    )
    cfg2 = point_config_from_config(load_config(absolute))
    assert cfg2.gamma_a == pytest.approx(cfg1.gamma_a, rel=1e-12)


def test_pulsed_pump_parsing(tmp_path):
    cfg = write_config(
        tmp_path / "a.ini",
        pump="mode = pulsed\npulse_energy_pj = 1\nbandwidth_factor = 10",
    )
    pump = pump_from_config(load_config(cfg))
    assert pump.energy == pytest.approx(1e-12)
    assert pump.bandwidth_factor == 10.0

    bad = write_config(
        tmp_path / "b.ini",
        pump="mode = pulsed\npulse_energy_pj = 1",
    )
    with pytest.raises(ValueError, match="exactly one"):
        pump_from_config(load_config(bad))


def test_sweep_section(tmp_path):
    cfg = write_config(tmp_path / "a.ini", extra="""
[sweep]
axis1 = gamma_a
axis1_min = 0.05
axis1_max = 5
axis1_points = 20
axis1_scale = log
outputs = Rs, Rsi, CAR
""")
    spec = sweep_spec_from_config(load_config(cfg))
    assert spec.axis1.n_points == 20
    assert spec.outputs == ("Rs", "Rsi", "CAR")
    assert spec.coincidence_window == pytest.approx(1e-9)


def test_tgamma_c_only_for_distinct_geometry(tmp_path):
    tied = {
        "all-pass-identical": "gamma_a_over_gamma_c = 1.0",
        "add-drop-identical": "gamma_a_over_gamma_c = 1.0\ngamma_b_over_gamma_c = 1.0",
    }
    for geometry, knobs in tied.items():
        cfg = write_config(
            tmp_path / "a.ini", geometry=geometry,
            knobs=knobs + "\ntgamma_c_over_2pi_mhz = 80",
        )
        with pytest.raises(ValueError, match="tgamma_c applies to add-drop-distinct"):
            point_config_from_config(load_config(cfg))
    distinct = write_config(
        tmp_path / "b.ini", geometry="add-drop-distinct",
        knobs="tgamma_a_over_gamma_c = 1.0\ngamma_b_over_gamma_c = 1.0\n"
        "tgamma_c_over_2pi_mhz = 80",
    )
    assert point_config_from_config(load_config(distinct)).tgamma_c == pytest.approx(
        TWO_PI * 80e6, rel=1e-15
    )


def test_unreadable_config_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.ini")
