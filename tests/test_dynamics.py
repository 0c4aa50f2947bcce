"""Dynamics tests: control affinity, analytic Jacobians against central FD."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cruiseopt.atmosphere import Atmosphere
from cruiseopt.dynamics import eval_F, eval_P, eval_Q, zermelo_rhs
from cruiseopt.pmp import STATE_SCALES
from cruiseopt.scenario import default_scenario_path, load_scenario, make_context

from model_oracle import (dQ_dchi, drag, drag_partials, jacobian_P, jacobian_Q,
                          zermelo_rhs_tan_form)

SCN = load_scenario(default_scenario_path())
CTX = make_context(SCN)


def random_point(rng):
    """One admissible (x, y, v, m, chi) sample for derivative oracles."""
    return (
        rng.uniform(-0.5 * SCN.xf, 1.5 * SCN.xf),
        rng.uniform(-0.5 * SCN.yf, 1.5 * SCN.yf),
        rng.uniform(150.0, 280.0),
        rng.uniform(45000.0, SCN.m0),
        rng.uniform(-math.pi, math.pi),
    )


def fd_jacobian(fn, xs, scales, rel=1e-7):
    """Central-difference Jacobian of a tuple-valued function of a tuple."""
    n = len(xs)
    cols = []
    for i in range(n):
        h = rel * max(scales[i], abs(xs[i]))
        up = list(xs)
        up[i] += h
        dn = list(xs)
        dn[i] -= h
        fp = fn(*up)
        fm = fn(*dn)
        cols.append([(fp[k] - fm[k]) / (2.0 * h) for k in range(len(fp))])
    return np.array(cols).T


def test_dynamics_affine_in_throttle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y, v, m, chi = random_point(rng)
        q = np.array(eval_Q(CTX, x, y, v, m, chi))
        p = np.array(eval_P(CTX, v, m))
        for pi in (0.0, 0.37, 1.0):
            f = np.array(eval_F(CTX, x, y, v, m, chi, pi))
            assert f == pytest.approx(q + pi * p, rel=1e-14)


def test_jacobian_Q_matches_fd():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x, y, v, m, chi = random_point(rng)
        ana = np.array(jacobian_Q(CTX, x, y, v, m, chi))
        fd = fd_jacobian(lambda *s: eval_Q(CTX, *s, chi), (x, y, v, m),
                         STATE_SCALES)
        scale = np.max(np.abs(fd)) or 1.0
        worst = max(worst, float(np.max(np.abs(ana - fd)) / scale))
    assert worst < 1e-6


def test_jacobian_P_matches_fd():
    rng = np.random.default_rng(6)
    for _ in range(100):
        _, _, v, m, _ = random_point(rng)
        ana = np.array(jacobian_P(CTX, v, m))
        fd = fd_jacobian(lambda vv, mm: eval_P(CTX, vv, mm), (v, m),
                         STATE_SCALES[2:])
        full = np.zeros((4, 4))
        full[:, 2:] = fd
        scale = np.max(np.abs(full))
        assert np.max(np.abs(ana - full)) / scale < 1e-6


def test_dQ_dchi_matches_fd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y, v, m, chi = random_point(rng)
        ana = np.array(dQ_dchi(v, chi))
        h = 1e-7
        fp = np.array(eval_Q(CTX, x, y, v, m, chi + h))
        fm = np.array(eval_Q(CTX, x, y, v, m, chi - h))
        fd = (fp - fm) / (2.0 * h)
        assert ana == pytest.approx(fd, rel=1e-6, abs=1e-4)


def test_drag_partials_match_fd():
    rng = np.random.default_rng(8)
    atm = Atmosphere()
    for _ in range(100):
        v = rng.uniform(120.0, 280.0)
        m = rng.uniform(40000.0, 60000.0)
        dv, dm = drag_partials(SCN.aircraft, atm, m, v, SCN.h)
        hv, hm = 1e-7 * v, 1e-7 * m
        fdv = (drag(SCN.aircraft, atm, m, v + hv, SCN.h)
               - drag(SCN.aircraft, atm, m, v - hv, SCN.h)) / (2.0 * hv)
        fdm = (drag(SCN.aircraft, atm, m + hm, v, SCN.h)
               - drag(SCN.aircraft, atm, m - hm, v, SCN.h)) / (2.0 * hm)
        assert dv == pytest.approx(fdv, rel=1e-6)
        assert dm == pytest.approx(fdm, rel=1e-6)


def test_context_drag_matches_model_drag():
    # the hot-path closed form must agree with the lift-coefficient chain
    atm = Atmosphere()
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.uniform(120.0, 280.0)
        m = rng.uniform(40000.0, 60000.0)
        assert CTX.drag(m, v) == pytest.approx(
            drag(SCN.aircraft, atm, m, v, SCN.h), rel=1e-12)


def test_heading_rate_sincos_equals_tan_form():
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = rng.uniform(0.0, SCN.xf)
        y = rng.uniform(0.0, SCN.yf)
        chi = rng.uniform(-1.4, 1.4)
        grads = SCN.wind.wind_gradients(x, y)
        assert zermelo_rhs(chi, grads) == pytest.approx(
            zermelo_rhs_tan_form(chi, grads), rel=1e-10, abs=1e-14)


def test_heading_rate_finite_at_right_angles():
    grads = SCN.wind.wind_gradients(0.5 * SCN.xf, 0.5 * SCN.yf)
    for chi in (math.pi / 2, -math.pi / 2):
        val = zermelo_rhs(chi, grads)
        assert math.isfinite(val)
        # at chi = +-pi/2 only the dwy/dx term survives
        assert val == pytest.approx(grads[2], rel=1e-12)


@given(st.floats(min_value=150.0, max_value=280.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50)
def test_speed_rate_interpolates_between_bang_levels(v, chi, pi):
    m = 52000.0
    f0 = eval_F(CTX, 1e5, 1e5, v, m, chi, 0.0)
    f1 = eval_F(CTX, 1e5, 1e5, v, m, chi, 1.0)
    fp = eval_F(CTX, 1e5, 1e5, v, m, chi, pi)
    for k in range(4):
        expect = (1.0 - pi) * f0[k] + pi * f1[k]
        assert fp[k] == pytest.approx(expect, rel=1e-12, abs=1e-12)
