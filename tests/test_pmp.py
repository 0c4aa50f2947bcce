"""Pontryagin machinery tests: brackets, algebraic co-states, feedback."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cruiseopt import pmp
from cruiseopt.dynamics import eval_P, eval_Q
from cruiseopt.errors import (CruiseOptError, IllConditionedSystemError,
                              SingularDenominatorError)
from cruiseopt.pmp import (STATE_SCALES, costate_coefficients,
                           evaluate_feedback, hamiltonian,
                           legendre_clebsch, lie_B_D, scaled_det,
                           singular_throttle, singular_throttle_alpha0,
                           solve_costates_on_singular, switching_function)
from cruiseopt.scenario import default_scenario_path, load_scenario, make_context

import pmp_oracle
from pmp_oracle import closed_costate_rhs, lie_A, solve_costates_unit

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
        ana = np.array(closed_costate_rhs(CTX, v, m, chi,
                                          CTX.wind.wind_gradients(x, y), pi,
                                          lam))
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
        lam = solve_costates_on_singular(CTX, x, y, v, m, chi, alpha)
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
        assert lam == pytest.approx(tuple(alpha * u for u in unit), rel=1e-14)


def test_adjugate_oracle_matches_closed_form_solve():
    rng = np.random.default_rng(24)
    for _ in range(30):
        x, y, v, m, chi = random_point(rng)
        lu = solve_costates_on_singular(CTX, x, y, v, m, chi, 0.4)
        adj = pmp_oracle.costates_adjugate(CTX, x, y, v, m, chi, 0.4)
        for a, b in zip(lu, adj):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-18)


def test_singular_feedback_throttle_is_weight_invariant():
    # the feedback ratio is homogeneous of degree zero in the co-state
    x, y, v, m, chi = 5e5, 2.5e5, 228.0, 53000.0, 0.65
    throttle = singular_throttle(CTX, v, m, chi,
                                 CTX.wind.wind_and_gradients(x, y))
    b, d = lie_B_D(CTX, x, y, v, m, chi)
    lcs = []
    for alpha in (0.1, 0.9):
        lam = solve_costates_on_singular(CTX, x, y, v, m, chi, alpha)
        num = sum(lam[i] * b[i] for i in range(4))
        den = sum(lam[i] * d[i] for i in range(4))
        assert throttle == pytest.approx(-num / den, rel=1e-12)
        lcs.append(legendre_clebsch(CTX, x, y, v, m, chi, lam) / alpha)
    assert lcs[0] == pytest.approx(lcs[1], rel=1e-12)


def test_legendre_clebsch_matches_direct_inner_product():
    rng = np.random.default_rng(25)
    x, y, v, m, chi = random_point(rng)
    lam = solve_costates_on_singular(CTX, x, y, v, m, chi, 0.4)
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


def test_degenerate_system_raises(monkeypatch):
    x, y, v, m, chi = 4e5, 2e5, 230.0, 52000.0, 0.5
    # forcing the determinant guard up must trip the error path
    monkeypatch.setattr(pmp, "EPS_DET", 1.0)
    with pytest.raises(IllConditionedSystemError):
        solve_costates_unit(CTX, x, y, v, m, chi)
    with pytest.raises(ValueError):
        solve_costates_on_singular(CTX, x, y, v, m, chi, 0.0)


def test_scaled_det_bounded_by_one():
    rng = np.random.default_rng(26)
    for _ in range(50):
        x, y, v, m, chi = random_point(rng)
        assert abs(scaled_det(CTX, x, y, v, m, chi)) <= 1.0 + 1e-12


def test_zero_weight_feedback_has_no_costate():
    # dispatching on alpha: the zero-weight route transports the
    # determinant, because there is no algebraic co-state to solve for
    x, y, v, m, chi = 5e5, 2.5e5, 228.0, 53000.0, 0.65
    wg = CTX.wind.wind_and_gradients(x, y)
    pi0 = evaluate_feedback(CTX, x, y, v, m, chi, 0.0)
    assert math.isfinite(pi0)
    assert pi0 == singular_throttle_alpha0(CTX, v, m, chi, wg)
    with pytest.raises(ValueError):
        solve_costates_on_singular(CTX, x, y, v, m, chi, 0.0)
    assert evaluate_feedback(CTX, x, y, v, m, chi, 0.4) == singular_throttle(
        CTX, v, m, chi, wg)
    lam = solve_costates_on_singular(CTX, x, y, v, m, chi, 0.4)
    assert math.isfinite(legendre_clebsch(CTX, x, y, v, m, chi, lam))


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
    lam = np.array(solve_costates_on_singular(CTX, *state, 0.4))
    ref = np.array(pmp_oracle.costates_solve(CTX, *state, 0.4))
    scales = np.array(STATE_SCALES)
    assert (np.max(np.abs((lam - ref) * scales))
            <= 1e-9 * np.max(np.abs(ref * scales)))
    det = scaled_det(CTX, *state)
    assert det == pytest.approx(pmp_oracle.scaled_det(CTX, *state), rel=1e-9)
    x, y, v, m, chi = state
    fb = pmp_oracle.composed_feedback(CTX, v, m, chi, CTX.wind.wind_at(x, y),
                                      CTX.wind.wind_gradients(x, y), 0.4)
    throttle, lc = pmp_oracle.singular_throttle(CTX, *state, 0.4)
    lc_lib = legendre_clebsch(CTX, *state, tuple(lam))
    # the feedback's guard reads the determinant and its denominator is
    # the Legendre-Clebsch value over alpha
    assert fb.det_scaled == det
    assert fb.lc == pytest.approx(lc_lib, rel=1e-12)
    assert evaluate_feedback(CTX, *state, 0.4) == pytest.approx(
        throttle, rel=1e-9, abs=1e-9)
    # the oracle's brackets carry central-difference error of about 1e-10
    assert lc_lib == pytest.approx(lc, rel=1e-8)


def _feedback_outcome(fn):
    """The value `fn()` returns, or the type, message and guard values of
    the package error it raises, as a repr: equal reprs mean equal bits."""
    try:
        return repr(fn())
    except CruiseOptError as exc:
        return repr((type(exc), str(exc), getattr(exc, "det", None),
                     getattr(exc, "cond", None)))


# the wind and its gradients at (5e5, 2.5e5) on the shipped field
_WG = (28.06934013605442, -11.79132222222222, -2.8973600000000003e-05,
       5.370367346938776e-05, 6.899911111111111e-06, 2.8973600000000003e-05)
FEEDBACK_INPUTS = st.tuples(
    st.floats(50.0, 400.0), st.floats(30000.0, SCN.m0),
    st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(_NEAR_POLES)),
    st.one_of(
        st.tuples(st.floats(0.0, SCN.xf), st.floats(0.0, SCN.yf)).map(
            lambda p: CTX.wind.wind_and_gradients(*p)),
        st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
                  *[st.floats(-1e-4, 1e-4)] * 4)))


@given(FEEDBACK_INPUTS)
# either side of |det| = EPS_DET, where the speed makes the co-state
# system singular at 40 t and heading 0.65
@example((168.54782764700983, 40000.0, 0.65, _WG))
@example((168.54782764700985, 40000.0, 0.65, _WG))
@example((168.5478586426646, 40000.0, 0.65, _WG))
@example((168.54785864266464, 40000.0, 0.65, _WG))
# either side of |<lambda, D>| = EPS_DEN, which an along-track wind of
# about 1.1e11 m/s reaches by shrinking the co-state
@example((200.0, 40000.0, 0.65, (112054006171.38957,) + _WG[1:]))
@example((200.0, 40000.0, 0.65, (112054006171.38959,) + _WG[1:]))
@example((200.0, 40000.0, 0.65, (-112054006310.7824,) + _WG[1:]))
@example((200.0, 40000.0, 0.65, (-112054006310.78238,) + _WG[1:]))
@settings(max_examples=300, deadline=None)
def test_singular_throttle_is_bit_identical_to_composed_form(inputs):
    """The written-out feedback returns the composed form's throttle bit for
    bit, or raises its error with the same message and guard values."""
    v, m, chi, wg = inputs
    assert _feedback_outcome(
        lambda: singular_throttle(CTX, v, m, chi, wg)) == _feedback_outcome(
        lambda: pmp_oracle.composed_feedback(CTX, v, m, chi, wg[:2], wg[2:],
                                             0.4).throttle)


def test_feedback_inputs_reach_both_guards():
    """The pinned examples above straddle both guards."""
    singular_throttle(CTX, 168.54782764700983, 40000.0, 0.65, _WG)
    with pytest.raises(IllConditionedSystemError):
        singular_throttle(CTX, 168.54782764700985, 40000.0, 0.65, _WG)
    singular_throttle(CTX, 200.0, 40000.0, 0.65,
                      (112054006171.38957,) + _WG[1:])
    with pytest.raises(SingularDenominatorError):
        singular_throttle(CTX, 200.0, 40000.0, 0.65,
                          (112054006171.38959,) + _WG[1:])


def test_costate_coefficients_over_arrays_match_one_state_at_a_time():
    """Over arrays of states the adjoint coefficients equal, bit for bit,
    those computed for one state of plain floats at a time, which cube the
    speed in the drag slope through libm's pow; NumPy's `**` over arrays
    rounds that cube differently at a few percent of speeds."""
    rng = np.random.default_rng(23)
    pts = np.array([random_point(rng) for _ in range(2000)])
    x, y, v, m, chi = pts.T
    grads = CTX.wind.wind_gradients(x, y)
    for pi in (SCN.pi_min, SCN.pi_max):
        got = np.broadcast_arrays(*costate_coefficients(CTX, v, m, chi,
                                                         grads, pi))
        ref = [pmp_oracle.scalar_costate_coefficients(
            CTX, *s[2:], CTX.wind.wind_gradients(*s[:2]), pi)
            for s in pts.tolist()]
        assert np.column_stack(got).tobytes() == np.array(ref).tobytes()


@given(STATES,
       st.tuples(st.floats(-1e-5, 1e-5), st.floats(-1e-5, 1e-5),
                 st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
       st.sampled_from([SCN.pi_min, SCN.pi_max]))
@settings(max_examples=300, deadline=None)
def test_costate_rhs_matches_dense_jacobian_oracle(state, lam, pi):
    """The written-out co-state equation against -(dQ/dX + pi dP/dX)^T lam
    with both Jacobians built densely."""
    x, y, v, m, chi = state
    ana = closed_costate_rhs(CTX, v, m, chi, CTX.wind.wind_gradients(x, y),
                             pi, lam)
    ref = pmp_oracle.costate_rhs(CTX, x, y, v, m, chi, pi, lam)
    assert ana == pytest.approx(ref, rel=1e-12, abs=0.0)


@given(STATES)
# the oracle's worst states for a step too long (truncation: a slow
# aircraft heading due north) and too short (rounding: throttle -22)
@example((0.0, 0.0, 166.5, 57237.0, 1.5707963257948965))
@example((722227.0, 667491.0, 258.625, 45005.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_zero_weight_throttle_matches_fd_determinant_transport(state):
    """The zero-weight throttle differentiates the same equilibrated
    determinant that `scaled_det` returns."""
    assert evaluate_feedback(CTX, *state, 0.0) == pytest.approx(
        pmp_oracle.throttle_alpha0(CTX, *state), rel=1e-7, abs=1e-7)
