"""Pontryagin machinery tests: brackets, algebraic co-states, feedback."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cruiseopt.dynamics import eval_P, eval_Q
from cruiseopt.errors import IllConditionedSystemError
from cruiseopt.pmp import (STATE_SCALES, costate_rhs, evaluate_feedback,
                           hamiltonian, legendre_clebsch, lie_B_D,
                           scaled_det, singular_throttle,
                           solve_costates_on_singular, switching_function)
from cruiseopt.scenario import default_scenario_path, load_scenario, make_context

import pmp_oracle
from pmp_oracle import lie_A, solve_costates_unit

SCN = load_scenario(default_scenario_path())
CTX = make_context(SCN)


def random_point(rng):
    return (
        rng.uniform(0.0, SCN.xf),
        rng.uniform(0.0, SCN.yf),
        rng.uniform(160.0, 270.0),
        rng.uniform(45000.0, SCN.m0),
        rng.uniform(-1.2, 1.2),
    )


def fd_field_jacobian(fn, x, y, v, m, rel=1e-7):
    """Central-difference Jacobian of a 4-vector field over (x, y, v, m)."""
    xs = (x, y, v, m)
    cols = []
    for i in range(4):
        h = rel * max(STATE_SCALES[i], abs(xs[i]))
        up = list(xs)
        up[i] += h
        dn = list(xs)
        dn[i] -= h
        fp = fn(*up)
        fm = fn(*dn)
        cols.append([(fp[k] - fm[k]) / (2.0 * h) for k in range(4)])
    return np.array(cols).T


def test_lie_A_matches_fd_bracket():
    """A = (dP/dX) Q - (dQ/dX) P with both Jacobians taken numerically."""
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        x, y, v, m, chi = random_point(rng)
        jq = fd_field_jacobian(lambda *s: eval_Q(CTX, *s, chi), x, y, v, m)
        jp = fd_field_jacobian(lambda _x, _y, vv, mm: eval_P(CTX, vv, mm),
                               x, y, v, m)
        q = np.array(eval_Q(CTX, x, y, v, m, chi))
        p = np.array(eval_P(CTX, v, m))
        bracket = jp @ q - jq @ p
        ana = np.array(lie_A(CTX, v, m, chi))
        scale = np.max(np.abs(bracket))
        worst = max(worst, float(np.max(np.abs(ana - bracket)) / scale))
    assert worst < 1e-6


def test_lie_A_is_wind_independent():
    # the bracket cancels the wind, so it only depends on (v, m, chi)
    a = lie_A(CTX, 230.0, 52000.0, 0.4)
    jq_home = np.array(eval_Q(CTX, 0.0, 0.0, 230.0, 52000.0, 0.4))
    jq_far = np.array(eval_Q(CTX, SCN.xf, SCN.yf, 230.0, 52000.0, 0.4))
    assert not np.allclose(jq_home[:2], jq_far[:2])  # wind actually varies
    assert lie_A(CTX, 230.0, 52000.0, 0.4) == a


def test_costate_rhs_is_minus_hamiltonian_gradient():
    rng = np.random.default_rng(22)
    for _ in range(100):
        x, y, v, m, chi = random_point(rng)
        lam = (rng.uniform(-1, 1) * 1e-6, rng.uniform(-1, 1) * 1e-6,
               rng.uniform(-1, 1) * 1e-2, rng.uniform(-1, 1))
        pi = rng.uniform(0.0, 1.0)
        ana = np.array(costate_rhs(CTX, v, m, chi,
                                   CTX.wind.wind_gradients(x, y), pi, lam))
        xs = (x, y, v, m)
        fd = np.empty(4)
        for i in range(4):
            h = 1e-7 * max(STATE_SCALES[i], abs(xs[i]))
            up = list(xs)
            up[i] += h
            dn = list(xs)
            dn[i] -= h
            fd[i] = -(hamiltonian(CTX, *up, chi, pi, lam)
                      - hamiltonian(CTX, *dn, chi, pi, lam)) / (2.0 * h)
        scale = max(np.max(np.abs(fd)), 1e-30)
        assert np.max(np.abs(ana - fd)) / scale < 1e-6


def test_algebraic_costate_satisfies_defining_equations():
    rng = np.random.default_rng(23)
    for _ in range(30):
        x, y, v, m, chi = random_point(rng)
        alpha = rng.uniform(0.05, 0.95)
        lam = solve_costates_on_singular(CTX, x, y, v, m, chi, alpha).as_tuple()
        p = eval_P(CTX, v, m)
        a = lie_A(CTX, v, m, chi)
        q = eval_Q(CTX, x, y, v, m, chi)
        # rows of the system: S = 0, dS/dt = 0, H = -alpha, heading alignment
        assert sum(lam[i] * p[i] for i in range(4)) == pytest.approx(
            0.0, abs=1e-12 * alpha)
        assert sum(lam[i] * a[i] for i in range(4)) == pytest.approx(
            0.0, abs=1e-12 * alpha)
        assert sum(lam[i] * q[i] for i in range(3)) == pytest.approx(
            -alpha, rel=1e-10)
        assert lam[0] * math.tan(chi) - lam[1] == pytest.approx(
            0.0, abs=1e-15)
        assert (lam[0] * math.sin(chi) - lam[1] * math.cos(chi)
                == pytest.approx(0.0, abs=1e-15))
        assert switching_function(CTX, v, m, lam) == pytest.approx(
            0.0, abs=1e-9 * alpha)


def test_costate_scales_linearly_with_cost_weight():
    x, y, v, m, chi = 4e5, 2e5, 235.0, 54000.0, 0.6
    unit, _ = solve_costates_unit(CTX, x, y, v, m, chi)
    for alpha in (1e-3, 0.3, 0.9):
        lam = solve_costates_on_singular(CTX, x, y, v, m, chi, alpha)
        assert lam.as_tuple() == pytest.approx(
            tuple(alpha * u for u in unit), rel=1e-14)


def test_adjugate_oracle_matches_closed_form_solve():
    rng = np.random.default_rng(24)
    for _ in range(30):
        x, y, v, m, chi = random_point(rng)
        lu = solve_costates_on_singular(CTX, x, y, v, m, chi, 0.4).as_tuple()
        adj = pmp_oracle.costates_adjugate(
            CTX, x, y, v, m, chi, 0.4).as_tuple()
        for a, b in zip(lu, adj):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-18)


def test_singular_feedback_throttle_is_weight_invariant():
    # the feedback ratio is homogeneous of degree zero in the co-state
    x, y, v, m, chi = 5e5, 2.5e5, 228.0, 53000.0, 0.65
    wind = CTX.wind.wind_at(x, y)
    grads = CTX.wind.wind_gradients(x, y)
    fb1 = singular_throttle(CTX, v, m, chi, wind, grads, 0.1)
    fb2 = singular_throttle(CTX, v, m, chi, wind, grads, 0.9)
    assert fb1.throttle == pytest.approx(fb2.throttle, rel=1e-12)
    assert fb1.lc / 0.1 == pytest.approx(fb2.lc / 0.9, rel=1e-12)


def test_legendre_clebsch_matches_direct_inner_product():
    rng = np.random.default_rng(25)
    x, y, v, m, chi = random_point(rng)
    lam = solve_costates_on_singular(CTX, x, y, v, m, chi, 0.4).as_tuple()
    _, d = lie_B_D(CTX, x, y, v, m, chi)
    expect = -sum(lam[i] * d[i] for i in range(4))
    assert legendre_clebsch(CTX, x, y, v, m, chi, lam) == pytest.approx(
        expect, rel=1e-14)


def test_hamiltonian_linear_in_costate():
    x, y, v, m, chi = 3e5, 1e5, 240.0, 55000.0, 0.5
    l1 = (1e-6, -2e-6, 1e-2, -0.5)
    l2 = (-3e-6, 1e-6, -2e-2, 0.2)
    h1 = hamiltonian(CTX, x, y, v, m, chi, 0.5, l1)
    h2 = hamiltonian(CTX, x, y, v, m, chi, 0.5, l2)
    both = tuple(a + b for a, b in zip(l1, l2))
    assert hamiltonian(CTX, x, y, v, m, chi, 0.5, both) == pytest.approx(
        h1 + h2, rel=1e-12)


def test_degenerate_system_raises():
    x, y, v, m, chi = 4e5, 2e5, 230.0, 52000.0, 0.5
    with pytest.raises(IllConditionedSystemError):
        # forcing the determinant guard up must trip the error path
        solve_costates_unit(CTX, x, y, v, m, chi, eps_det=1.0)
    with pytest.raises(ValueError):
        solve_costates_on_singular(CTX, x, y, v, m, chi, 0.0)


def test_scaled_det_bounded_by_one():
    rng = np.random.default_rng(26)
    for _ in range(50):
        x, y, v, m, chi = random_point(rng)
        assert abs(scaled_det(CTX, x, y, v, m, chi)) <= 1.0 + 1e-12


def test_zero_weight_feedback_has_no_costate():
    # dispatching on alpha: the zero-weight route reports the determinant
    # it is transporting instead of a co-state vector
    fb = evaluate_feedback(CTX, 5e5, 2.5e5, 228.0, 53000.0, 0.65, 0.0)
    assert fb.lam is None
    assert math.isnan(fb.lc)
    assert math.isfinite(fb.throttle)
    fb_pos = evaluate_feedback(CTX, 5e5, 2.5e5, 228.0, 53000.0, 0.65, 0.4)
    assert fb_pos.lam is not None


# admissible states with every heading, including both sides of the poles of
# the former tan-form heading row
_NEAR_POLES = [sgn * math.pi / 2 + eps for sgn in (1.0, -1.0)
               for eps in (-1e-9, 0.0, 1e-9)] + [math.pi, -math.pi]
STATES = st.tuples(
    st.floats(0.0, SCN.xf), st.floats(0.0, SCN.yf), st.floats(160.0, 270.0),
    st.floats(45000.0, SCN.m0),
    st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(_NEAR_POLES)))


@given(STATES)
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_matrix_oracle(state):
    """Co-state, determinant, throttle and Legendre-Clebsch value against a
    dense solve of the 4x4 system with finite-difference brackets."""
    lam = np.array(solve_costates_on_singular(CTX, *state, 0.4).as_tuple())
    ref = np.array(pmp_oracle.costates_solve(CTX, *state, 0.4).as_tuple())
    scales = np.array(STATE_SCALES)
    assert (np.max(np.abs((lam - ref) * scales))
            <= 1e-9 * np.max(np.abs(ref * scales)))
    det = scaled_det(CTX, *state)
    assert det == pytest.approx(pmp_oracle.scaled_det(CTX, *state), rel=1e-9)
    fb = evaluate_feedback(CTX, *state, 0.4)
    throttle, lc = pmp_oracle.singular_throttle(CTX, *state, 0.4)
    assert fb.det_scaled == det
    assert fb.lc == pytest.approx(
        legendre_clebsch(CTX, *state, fb.lam), rel=1e-12)
    assert fb.throttle == pytest.approx(throttle, rel=1e-9, abs=1e-9)
    # the oracle's brackets carry central-difference error of about 1e-10
    assert fb.lc == pytest.approx(lc, rel=1e-8)


@given(STATES,
       st.tuples(st.floats(-1e-5, 1e-5), st.floats(-1e-5, 1e-5),
                 st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
       st.sampled_from([SCN.pi_min, SCN.pi_max]))
@settings(max_examples=300, deadline=None)
def test_costate_rhs_matches_dense_jacobian_oracle(state, lam, pi):
    """The written-out co-state equation against -(dQ/dX + pi dP/dX)^T lam
    with both Jacobians built densely."""
    x, y, v, m, chi = state
    ana = costate_rhs(CTX, v, m, chi, CTX.wind.wind_gradients(x, y), pi, lam)
    ref = pmp_oracle.costate_rhs(CTX, x, y, v, m, chi, pi, lam)
    assert ana == pytest.approx(ref, rel=1e-12, abs=0.0)


@given(STATES)
@settings(max_examples=300, deadline=None)
def test_zero_weight_throttle_matches_fd_determinant_transport(state):
    """The zero-weight throttle differentiates the same equilibrated
    determinant that `scaled_det` returns."""
    fb = evaluate_feedback(CTX, *state, 0.0)
    assert fb.det_scaled == scaled_det(CTX, *state)
    assert fb.throttle == pytest.approx(
        pmp_oracle.throttle_alpha0(CTX, *state), rel=1e-7, abs=1e-7)
