"""Atmosphere, thrust, drag, fuel-flow and envelope monitor tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cruiseopt.atmosphere import (AircraftModel, Atmosphere,
                                  calibrated_airspeed, check_envelope,
                                  air_density, fuel_flow_slope, load_aircraft,
                                  mach_number, max_thrust)
from cruiseopt.errors import DomainError, ValidationError

from model_oracle import (default_aircraft_path, drag, drag_partials,
                          fuel_flow_coeff)

ATM = Atmosphere()
AC = load_aircraft(default_aircraft_path())


def test_sea_level_reference_values():
    assert ATM.temperature(0.0) == 288.15
    assert ATM.pressure(0.0) == 101325.0


def test_temperature_lapse():
    # linear troposphere: 288.15 - 0.0065 * 10000
    assert ATM.temperature(10000.0) == pytest.approx(223.15, abs=1e-12)


def test_pressure_against_barometric_formula():
    # independent inline evaluation of the barometric exponent
    for h in (0.0, 2500.0, 5000.0, 10000.0):
        expo = ATM.g / (ATM.R * ATM.beta)
        expected = ATM.P0 * (1.0 - ATM.beta * h / ATM.Theta0) ** expo
        assert ATM.pressure(h) == pytest.approx(expected, rel=1e-14)


def test_density_at_cruise_altitude():
    # frozen oracle: p(1e4)/(R T(1e4)) evaluated independently
    rho = air_density(ATM, 10000.0)
    assert rho == pytest.approx(0.4127047353692698, rel=1e-12)


def test_speed_of_sound():
    a = ATM.speed_of_sound(10000.0)
    assert a == pytest.approx(math.sqrt(1.4 * 287.05 * 223.15), rel=1e-14)


@given(st.floats(min_value=0.0, max_value=11000.0))
@settings(max_examples=50)
def test_density_positive_and_below_sea_level_value(h):
    rho = air_density(ATM, h)
    assert 0.0 < rho <= air_density(ATM, 0.0) + 1e-15


def test_max_thrust_sea_level_is_first_coefficient():
    assert max_thrust(AC, 0.0) == pytest.approx(AC.C_T1, rel=1e-15)


def test_max_thrust_cruise_frozen_value():
    # C_T1 (1 - h/C_T2 + h^2 C_T3) at h = 1e4
    t = 141040.0 * (1.0 - 1e4 / 47180.0 + 1e8 * 6.6e-11)
    assert max_thrust(AC, 10000.0) == pytest.approx(t, rel=1e-14)


def test_max_thrust_domain():
    with pytest.raises(DomainError):
        max_thrust(AC, -1.0)
    with pytest.raises(DomainError):
        max_thrust(AC, AC.C_T2)


def test_drag_frozen_value():
    # independent oracle: qS(C_D1 + C_D2 CL^2) expanded by hand
    rho = air_density(ATM, 10000.0)
    qs = 0.5 * rho * AC.s * 200.0 ** 2
    cl = 2.0 * 59000.0 * ATM.g / (rho * AC.s * 200.0 ** 2)
    expected = qs * (AC.C_D1 + AC.C_D2 * cl * cl)
    assert drag(AC, ATM, 59000.0, 200.0, 10000.0) == pytest.approx(
        expected, rel=1e-14)
    assert expected == pytest.approx(36692.418286564, rel=1e-9)


def test_drag_domain_errors():
    with pytest.raises(DomainError):
        drag(AC, ATM, 59000.0, 0.0, 10000.0)
    with pytest.raises(DomainError):
        drag(AC, ATM, -1.0, 200.0, 10000.0)


@given(st.floats(min_value=120.0, max_value=280.0),
       st.floats(min_value=40000.0, max_value=59000.0))
@settings(max_examples=60)
def test_drag_partials_match_finite_differences(v, m):
    dv, dm = drag_partials(AC, ATM, m, v, 10000.0)
    hv, hm = 1e-3, 1e-1
    fd_v = (drag(AC, ATM, m, v + hv, 10000.0)
            - drag(AC, ATM, m, v - hv, 10000.0)) / (2 * hv)
    fd_m = (drag(AC, ATM, m + hm, v, 10000.0)
            - drag(AC, ATM, m - hm, v, 10000.0)) / (2 * hm)
    assert dv == pytest.approx(fd_v, rel=1e-7, abs=1e-7)
    assert dm == pytest.approx(fd_m, rel=1e-7)


def test_fuel_flow_affine_and_slope():
    v = 213.0
    assert fuel_flow_coeff(AC, v) == pytest.approx(
        AC.C_s1 * (1.0 + v / AC.C_s2), rel=1e-15)
    h = 1e-3
    fd = (fuel_flow_coeff(AC, v + h) - fuel_flow_coeff(AC, v - h)) / (2 * h)
    assert fuel_flow_slope(AC) == pytest.approx(fd, rel=1e-9)


def test_mach_number():
    assert mach_number(ATM, 200.0, 10000.0) == pytest.approx(
        200.0 / ATM.speed_of_sound(10000.0), rel=1e-15)


def test_cas_equals_tas_at_sea_level():
    for v in (80.0, 150.0, 250.0):
        assert calibrated_airspeed(ATM, v, 0.0) == pytest.approx(v, rel=1e-12)


def test_cas_below_tas_at_altitude():
    # thinner air: the same true airspeed reads lower on the pitot scale
    assert calibrated_airspeed(ATM, 200.0, 10000.0) < 200.0


@given(st.floats(min_value=60.0, max_value=280.0))
@settings(max_examples=40)
def test_cas_monotone_in_tas(v):
    dv = 0.5
    assert (calibrated_airspeed(ATM, v + dv, 10000.0)
            > calibrated_airspeed(ATM, v, 10000.0))


def test_envelope_monitor_flags():
    ok = check_envelope(AC, ATM, 220.0, 10000.0)
    assert ok.ok
    slow = check_envelope(AC, ATM, 70.0, 10000.0)
    assert not slow.mach_low_ok and not slow.ok
    fast = check_envelope(AC, ATM, 290.0, 10000.0)
    assert not fast.mach_high_ok


def test_load_aircraft_rejects_unknown_key(tmp_path):
    import json
    from dataclasses import asdict
    doc = asdict(AC)
    doc["C_T9"] = 1.0
    p = tmp_path / "ac.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="C_T9"):
        load_aircraft(p)


def test_load_aircraft_rejects_missing_key(tmp_path):
    import json
    from dataclasses import asdict
    doc = asdict(AC)
    del doc["C_D1"]
    p = tmp_path / "ac.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="C_D1"):
        load_aircraft(p)


def test_aircraft_invariant_validation():
    with pytest.raises(ValidationError):
        AircraftModel(C_T1=-1.0, C_T2=AC.C_T2, C_T3=AC.C_T3, s=AC.s,
                      C_D1=AC.C_D1, C_D2=AC.C_D2, C_s1=AC.C_s1, C_s2=AC.C_s2,
                      m_min=AC.m_min, M_min=AC.M_min, M_max=AC.M_max,
                      v_CAS_min=AC.v_CAS_min, v_CAS_max=AC.v_CAS_max)
