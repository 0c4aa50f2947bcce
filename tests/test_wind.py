"""Wind field tests: divergence-free construction, gradient oracles, the
fused lookup and the textbook-form oracle."""

import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wind_oracle
from cruiseopt.errors import ValidationError
from cruiseopt.scenario import (default_scenario_path, load_scenario,
                                save_scenario)
from cruiseopt.wind import ConstantWind, PolynomialWind

SCN = load_scenario(default_scenario_path())
WIND = SCN.wind


def _fd_gradients(field, x, y, h=1e4):
    # central differences are exact (up to roundoff) for a quadratic field
    wxp, wyp = field.wind_at(x + h, y)
    wxm, wym = field.wind_at(x - h, y)
    dwx_dx = (wxp - wxm) / (2 * h)
    dwy_dx = (wyp - wym) / (2 * h)
    wxp, wyp = field.wind_at(x, y + h)
    wxm, wym = field.wind_at(x, y - h)
    dwx_dy = (wxp - wxm) / (2 * h)
    dwy_dy = (wyp - wym) / (2 * h)
    return dwx_dx, dwx_dy, dwy_dx, dwy_dy


def test_shipped_field_is_table_configuration():
    assert isinstance(WIND, PolynomialWind)
    assert WIND.a0 == 0.77406
    assert WIND.wxb == 40.0
    assert WIND.wyb == -20.0


def test_divergence_free_at_1000_random_points():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.5 * SCN.xf, 1.5 * SCN.xf, 1000)
    ys = rng.uniform(-0.5 * SCN.yf, 1.5 * SCN.yf, 1000)
    worst = 0.0
    for x, y in zip(xs, ys):
        grads = _fd_gradients(WIND, x, y)
        scale = max(abs(g) for g in grads)
        worst = max(worst, abs(grads[0] + grads[3]) / scale)
    assert worst < 1e-12


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0.0, SCN.xf)
        y = rng.uniform(0.0, SCN.yf)
        ana = WIND.wind_gradients(x, y)
        fd = _fd_gradients(WIND, x, y)
        for a, f in zip(ana, fd):
            assert a == pytest.approx(f, rel=1e-6, abs=1e-12)


def test_corner_value_oracle():
    # at (x_f, y_f) both normalized coordinates are 1: wx = wxb * sum(a)
    wx, wy = WIND.wind_at(WIND.x_f, WIND.y_f)
    expected_wx = WIND.wxb * (WIND.a0 + WIND.a1 + WIND.a2 + WIND.a3
                              + WIND.a4 + WIND.a5)
    expected_wy = (-WIND.wxb * (WIND.a1 + 2.0 * WIND.a2 + 0.5 * WIND.a5)
                   * WIND.y_f / WIND.x_f
                   + WIND.wyb * (1.0 + WIND.b0 + WIND.b1))
    assert wx == pytest.approx(expected_wx, rel=1e-14)
    assert wy == pytest.approx(expected_wy, rel=1e-14)


def test_constant_wind_uniform():
    cw = ConstantWind(40.0, -20.0)
    assert cw.wind_at(0.0, 0.0) == (40.0, -20.0)
    assert cw.wind_at(1e6, -3e5) == (40.0, -20.0)
    assert cw.wind_gradients(5.0, 5.0) == (0.0, 0.0, 0.0, 0.0)


def test_zero_scale_rejected():
    with pytest.raises(ValidationError):
        PolynomialWind(a0=0.1, a1=0.1, a2=0.1, a3=0.1, a4=0.1, a5=0.1,
                       b0=0.1, b1=0.1, wxb=40.0, wyb=-20.0, x_f=0.0, y_f=7e5)


def test_oversized_coefficient_warns():
    with pytest.warns(UserWarning, match="outside"):
        PolynomialWind(a0=1.5, a1=0.0, a2=0.0, a3=0.0, a4=0.0, a5=0.0,
                       b0=0.0, b1=0.0, wxb=40.0, wyb=-20.0,
                       x_f=1.5e6, y_f=7e5)


@given(st.floats(min_value=-2e6, max_value=2e6),
       st.floats(min_value=-2e6, max_value=2e6))
@settings(max_examples=60)
def test_divergence_free_property(x, y):
    grads = _fd_gradients(WIND, x, y)
    scale = max(abs(g) for g in grads)
    assert abs(grads[0] + grads[3]) / scale < 1e-10


def _points(field):
    """Positions over [-0.5, 2.5] times the field's scales."""
    return st.tuples(st.floats(-0.5, 2.5), st.floats(-0.5, 2.5)).map(
        lambda p: (p[0] * field.x_f, p[1] * field.y_f))


@given(_points(WIND), st.sampled_from([WIND, ConstantWind(40.0, -20.0)]))
@settings(max_examples=200)
def test_fused_lookup_is_the_separate_lookups(point, field):
    x, y = point
    wg = field.wind_and_gradients(x, y)
    # repr: equal bits, signed zeros included
    assert repr(wg) == repr(field.wind_at(x, y) + field.wind_gradients(x, y))
    if isinstance(field, PolynomialWind):
        assert repr(wg[5]) == repr(-wg[2])


COEFF = st.floats(-1.0, 1.0)
# wind scales of 0 or 0.1 to 60 m/s: below about 1e-290 m/s the expanded
# coefficients (scale over x_f^2) underflow into subnormals
WIND_SCALE = st.one_of(st.just(0.0), st.floats(0.1, 60.0),
                       st.floats(-60.0, -0.1))
FIELDS = st.one_of(st.just(WIND), st.builds(
    PolynomialWind, COEFF, COEFF, COEFF, COEFF, COEFF, COEFF, COEFF, COEFF,
    WIND_SCALE, WIND_SCALE, st.floats(1e5, 3e6), st.floats(1e5, 3e6)))


@given(FIELDS, st.floats(-0.5, 2.5), st.floats(-0.5, 2.5))
@settings(max_examples=300)
def test_expanded_form_matches_the_textbook_form(field, u, w):
    """The dimensional monomials agree with the normalized definition to
    rounding: within 1e-12 of |wxb| + |wyb| for the wind, and of that over
    min(x_f, y_f) for its gradients (the shipped field: 1.4e-13 m/s and
    8e-20 1/s)."""
    x, y = u * field.x_f, w * field.y_f
    scale = abs(field.wxb) + abs(field.wyb)
    ref = wind_oracle.wind_at(field, x, y)
    assert (np.max(np.abs(np.subtract(field.wind_at(x, y), ref)))
            <= 1e-12 * scale)
    ref = wind_oracle.wind_gradients(field, x, y)
    assert (np.max(np.abs(np.subtract(field.wind_gradients(x, y), ref)))
            <= 1e-12 * scale / min(field.x_f, field.y_f))


def test_cached_coefficients_stay_out_of_the_fields_identity(tmp_path):
    params = {f.name: getattr(WIND, f.name) for f in fields(WIND) if f.init}
    assert repr(WIND) == "PolynomialWind(" + ", ".join(
        f"{k}={v!r}" for k, v in params.items()) + ")"
    twin = PolynomialWind(**params)
    assert twin == WIND and hash(twin) == hash(WIND)
    point = (4.1e5, 3.3e5)
    back = pickle.loads(pickle.dumps(WIND))
    assert back == WIND
    assert repr(back.wind_and_gradients(*point)) == repr(
        WIND.wind_and_gradients(*point))
    # replace() recomputes the coefficients from the new parameters
    moved = replace(WIND, a2=0.5, x_f=2.0e6)
    assert moved != WIND
    assert moved.wind_at(*point) == pytest.approx(
        wind_oracle.wind_at(moved, *point), rel=1e-14)
    # the scenario file carries the parameters only
    save_scenario(SCN, tmp_path / "s.json")
    saved = json.loads((tmp_path / "s.json").read_text())["wind"]
    assert saved == {"type": "polynomial", **{
        {"wxb": "wxb_mps", "wyb": "wyb_mps", "x_f": "x_scale_m",
         "y_f": "y_scale_m"}.get(k, k): v for k, v in params.items()}}
