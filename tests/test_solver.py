"""Switching-point solver tests: decode, start grid, verification, sweeps."""

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cruiseopt.cli import write_solution_dir
from cruiseopt import solver
from cruiseopt.errors import DegenerateGeometryError, ValidationError
from cruiseopt.integrate import ArcSchedule, integrate_arcs
from cruiseopt.pmp import TIME_SCALE
from cruiseopt.scenario import Scenario, make_context
from cruiseopt.solver import (SolverOptions, _LMShooting, _start_grid,
                              chi0_constant_wind, realize_solution,
                              solve_indirect, sweep_alpha, verify_solution)
from cruiseopt.wind import ConstantWind

from conftest import census_script, fast_options


class TestConstantWindHeading:
    def test_zero_wind_reduces_to_geometry(self, scenario_cw):
        still = Scenario(
            scenario_cw.x0, scenario_cw.y0, scenario_cw.xf, scenario_cw.yf,
            scenario_cw.v0, scenario_cw.vf, scenario_cw.m0, scenario_cw.h,
            scenario_cw.alpha, scenario_cw.pi_min, scenario_cw.pi_max,
            ConstantWind(0.0, 0.0), scenario_cw.aircraft,
            scenario_cw.aircraft_file)
        expect = math.atan2(still.yf - still.y0, still.xf - still.x0)
        assert chi0_constant_wind(still, 6000.0) == pytest.approx(expect)

    def test_wind_drift_rotates_heading(self, scenario_cw):
        tf = 6000.0
        chi = chi0_constant_wind(scenario_cw, tf)
        expect = math.atan2(
            scenario_cw.yf - scenario_cw.wind.W_y * tf,
            scenario_cw.xf - scenario_cw.wind.W_x * tf)
        assert chi == pytest.approx(expect, abs=1e-15)

    def test_rejects_varying_wind(self, scenario):
        with pytest.raises(ValueError):
            chi0_constant_wind(scenario, 6000.0)

    def test_degenerate_geometry(self, scenario_cw):
        # endpoints that coincide after drift leave the heading undefined
        bad = Scenario(
            0.0, 0.0, 40.0, -20.0, scenario_cw.v0, scenario_cw.vf,
            scenario_cw.m0, scenario_cw.h, scenario_cw.alpha,
            scenario_cw.pi_min, scenario_cw.pi_max, ConstantWind(40.0, -20.0),
            scenario_cw.aircraft, scenario_cw.aircraft_file)
        with pytest.raises(DegenerateGeometryError):
            chi0_constant_wind(bad, 1.0)


class TestStartGrid:
    def test_distinct_starts_in_fixed_order(self, scenario, scenario_cw):
        for scn, constant_wind, n in ((scenario, False, 18),
                                      (scenario_cw, True, 6)):
            grid = _start_grid(scn, constant_wind)
            assert len({tuple(z) for z in grid}) == len(grid) == n
            for a, b in zip(grid, _start_grid(scn, constant_wind)):
                assert np.array_equal(a, b)
        # the first start turns 0.2 rad left of the direct bearing, with
        # the shortest final time and the shortest first arc
        chi_base = math.atan2(scenario.yf - scenario.y0,
                              scenario.xf - scenario.x0)
        tf = scenario.great_circle_distance() / scenario.v0 * 0.9
        assert np.array_equal(_start_grid(scenario, False)[0], [
            chi_base + 0.2, 0.02 * tf / TIME_SCALE, 0.97 * tf / TIME_SCALE,
            tf / TIME_SCALE])

    def test_constant_wind_drops_heading_variable(self, scenario_cw):
        g = _start_grid(scenario_cw, constant_wind=True)
        assert all(len(z) == 3 for z in g)


class TestRolloutDecode:
    def test_round_trip(self, context, scenario):
        ro = _LMShooting(context, scenario.replace_alpha(0.4), 50, None)
        z = np.array([0.7, 0.05, 6.0, 6.1])
        sched = ro.decode(z)
        assert sched.chi0 == 0.7
        assert sched.t1 == pytest.approx(0.05 * TIME_SCALE)
        assert sched.tf == pytest.approx(6.1 * TIME_SCALE)


def test_solved_schedule_and_cost_are_plain_floats(sol_04, sol_cw):
    """The shooting solve decodes its unknowns into Python floats, so the
    rollouts run plain-float arithmetic on the schedule times."""
    for sol in (sol_04, sol_cw):
        s = sol.schedule
        assert {type(v) for v in (s.t1, s.t2, s.tf, s.chi0, sol.cost)} == {
            float}


def test_verify_report_round_trip(sol_04):
    assert sol_04.converged
    rep = verify_solution(sol_04)
    assert rep.all_passed, rep.summary()
    assert rep.by_name("hamiltonian_constancy").passed
    with pytest.raises(KeyError):
        rep.by_name("nonexistent_check")
    text = rep.summary()
    assert "PASS" in text and "FAIL" not in text


def _windows(detail):
    """The (arc, start, end) windows a check's detail names."""
    return [(arc, float(a), float(b)) for arc, a, b in re.findall(
        r"(first|singular|final) arc t in \[([-\d.]+), ([-\d.]+)\] s", detail)]


def test_failing_checks_name_their_arcs_and_windows(monkeypatch, sol_05):
    """At alpha = 0.5 the flight leaves the envelope; tolerances that no
    solution meets fail every co-state check as well.  Each failing check
    names arcs and time windows that lie inside those arcs."""
    sched = sol_05.schedule
    spans = {"first": (0.0, sched.t1), "singular": (sched.t1, sched.t2),
             "final": (sched.t2, sched.tf)}
    env = verify_solution(sol_05).by_name("envelope_monitors")
    assert env.passed is False
    for name, tol in (("_TOL_H", 0.0), ("_TOL_LC", -math.inf),
                      ("_TOL_LAM_M", 0.0), ("_TOL_CHI", 0.0)):
        monkeypatch.setattr(solver, name, tol)
    strict = verify_solution(sol_05)
    checks = [env] + [strict.by_name(name) for name in (
        "hamiltonian_constancy", "legendre_clebsch",
        "heading_costate_consistency")]
    for check in checks:
        assert check.passed is False
        windows = _windows(check.detail)
        assert windows, check
        for arc, a, b in windows:
            lo, hi = spans[arc]
            assert lo - 0.05 <= a <= b <= hi + 0.05, check
    # the Legendre-Clebsch value is checked on every singular sample
    t_sing = sol_05.trajectory.t[sol_05.trajectory.arc_id == 1]
    assert _windows(checks[2].detail) == [
        ("singular", float(f"{t_sing[0]:.1f}"), float(f"{t_sing[-1]:.1f}"))]
    lam_m = strict.by_name("transversality_lam_m")
    assert lam_m.passed is False
    assert f"at tf={sched.tf:.1f} s" in lam_m.detail


def _rotated(scn, sched, bearing):
    """The constant-wind problem rotated about its origin so that the
    heading of `sched` points at `bearing`; rotation leaves the optimal
    schedule unchanged.  The endpoint is the rotated wind drift plus the
    still-air leg along the bearing, so the pinned heading is the bearing
    to rounding."""
    tf = sched.tf
    rot = bearing - sched.chi0
    c, s = math.cos(rot), math.sin(rot)
    wx = c * scn.wind.W_x - s * scn.wind.W_y
    wy = s * scn.wind.W_x + c * scn.wind.W_y
    leg = math.hypot(scn.xf - scn.wind.W_x * tf, scn.yf - scn.wind.W_y * tf)
    rotated = Scenario(
        0.0, 0.0, wx * tf + leg * math.cos(bearing),
        wy * tf + leg * math.sin(bearing), scn.v0, scn.vf, scn.m0, scn.h,
        scn.alpha, scn.pi_min, scn.pi_max, ConstantWind(wx, wy),
        scn.aircraft, scn.aircraft_file)
    return rotated, replace(sched, chi0=chi0_constant_wind(rotated, tf))


def _verify_route(sol_cw, bearing):
    """Realize and verify `sol_cw` rotated to `bearing`; returns the
    pinned heading."""
    assert sol_cw.scenario.x0 == sol_cw.scenario.y0 == 0.0
    scn, sched = _rotated(sol_cw.scenario, sol_cw.schedule, bearing)
    assert abs(sched.chi0 - bearing) <= 1e-15
    sol = realize_solution(scn, sched, alpha=sol_cw.scenario.alpha,
                           steps=200)
    assert np.all(sol.trajectory.states[:, 4] == sched.chi0)
    assert np.max(np.abs(sol.residuals)) < 1.0
    rep = verify_solution(sol)
    assert rep.all_passed, rep.summary()
    assert rep.by_name("heading_costate_consistency").extreme <= 1e-6
    return sched.chi0


def test_due_north_route_verifies(sol_cw):
    # chi = pi/2 is a pole of tan(chi); the heading/co-state check must
    # measure alignment without it
    assert _verify_route(sol_cw, math.pi / 2) == math.pi / 2


@given(st.floats(-math.pi, math.pi))
@example(math.pi / 2)
@example(-math.pi / 2)
@example(math.pi)
@example(-math.pi)
@example(0.0)
@settings(max_examples=50, deadline=None)
def test_every_route_bearing_verifies(sol_cw, bearing):
    _verify_route(sol_cw, bearing)


def test_cold_solve_reports_endgame_optimality(monkeypatch, tmp_path,
                                               scenario_cw, sol_cw):
    """A feasible result whose co-state equation did not close is not
    converged; the same result with it closed is.  The flag is a plain
    bool, so it serializes, and the unconverged result is the realized
    feasible schedule, not a penalty value."""
    sched = sol_cw.schedule
    z_opt = np.array([sched.t1, sched.t2, sched.tf]) / TIME_SCALE
    opts = fast_options(steps=60)
    converged = {}
    for costate_resid in (0.0, 1e-3):
        # the stubbed shooting solve decides the outcome; it ends on the
        # rollout at z_opt, which a closed solve's Solution is built on
        monkeypatch.setattr(
            _LMShooting, "_levenberg_marquardt",
            lambda self, z, square, search=None, _c=costate_resid: (
                z_opt, np.array([0.0, 0.0, 0.0, _c]),
                self._shoot(z_opt, square)[1]))
        sol = solve_indirect(scenario_cw, opts)
        assert type(sol.converged) is bool
        assert sol.cost == pytest.approx(sol_cw.cost, rel=1e-9)
        write_solution_dir(sol, tmp_path / str(costate_resid), steps=20)
        converged[costate_resid] = sol.converged
    assert converged == {0.0: True, 1e-3: False}


@pytest.mark.parametrize("fixture", ["sol_01", "sol_04", "sol_05", "sol_cw"])
def test_cold_solve_converges(request, fixture):
    ref = request.getfixturevalue(fixture)
    sol = solve_indirect(ref.scenario, fast_options(steps=60))
    assert sol.converged
    assert sol.cost == pytest.approx(ref.cost, rel=1e-6)


@pytest.mark.parametrize("t1, t2, limit", [
    (1e-13, 90.0, (0.0, 90.0, 100.0)),
    (10.0, 10.0 + 1e-13, (10.0, 10.0, 100.0)),
    (10.0, 100.0 - 1e-13, (10.0, 100.0, 100.0)),
    # 1e-11 s is 11 doubles apart near 6100 s: 20 samples cannot rise
    # strictly across it
    (46.37, 6102.6 - 1e-11, (46.37, 6102.6, 6102.6)),
])
def test_collapsed_arc_realizes_as_its_limit(scenario, t1, t2, limit):
    """The rollout skips an arc of 1e-12 s or less, or one too short for
    its samples to rise strictly, and realizing the schedule follows the
    same rule: a collapsed singular arc realizes as bang-bang, without
    co-states."""
    tf = limit[2]
    got = realize_solution(scenario, ArcSchedule(t1, t2, tf, 0.45),
                           steps=20)
    want = realize_solution(scenario, ArcSchedule(*limit, 0.45), steps=20)
    assert got.trajectory.final_state == pytest.approx(
        want.trajectory.final_state, rel=1e-12)
    if limit[0] == limit[1]:
        assert got.trajectory.costates is None
        assert want.trajectory.costates is None
    else:
        np.testing.assert_allclose(got.trajectory.costates,
                                   want.trajectory.costates, rtol=1e-9)


@pytest.mark.parametrize("fixture", ["sol_04", "sol_01", "sol_cw",
                                     "sol_alpha_eps"])
def test_solution_is_built_on_the_last_shooting_rollout(request, fixture):
    """A closed solve's Solution is built on the rollout its shooting solve
    ended on, not on a second integration of the schedule: its trajectory,
    co-states, diagnostics, clamp count, cost and residuals equal those of
    the realized schedule bit for bit.  sol_01 closes through the retry
    with a max-throttle final arc, and sol_alpha_eps (alpha = 1e-6) in the
    asymptotic regime, whose solve drives the co-state equation after
    feasibility."""
    sol = request.getfixturevalue(fixture)
    assert sol.converged
    if fixture == "sol_01":
        assert sol.schedule.final_throttle == sol.scenario.pi_max
    if fixture == "sol_alpha_eps":
        assert sol.scenario.alpha < solver._ALPHA_ASYMPTOTIC
    ref = realize_solution(sol.scenario, sol.schedule,
                           steps=fast_options().steps)

    def bits(a):
        return np.where(np.isnan(a), np.nan, a).tobytes()

    for col in ("t", "states", "throttle", "arc_id", "costates", "S", "H",
                "lc", "detM", "mach", "envelope_ok"):
        got, want = (getattr(s.trajectory, col) for s in (sol, ref))
        assert bits(got) == bits(want), col
    assert sol.trajectory.clamp_count == ref.trajectory.clamp_count
    assert sol.cost == ref.cost
    assert sol.residuals.tobytes() == ref.residuals.tobytes()


def test_realize_solution_reproduces_cost(sol_04):
    rebuilt = realize_solution(sol_04.scenario, sol_04.schedule,
                               alpha=sol_04.scenario.alpha, steps=200)
    assert rebuilt.cost == pytest.approx(sol_04.cost, rel=1e-12)
    assert np.max(np.abs(rebuilt.residuals - sol_04.residuals)) < 1e-6


def test_warm_start_short_circuits_multistart(monkeypatch, scenario,
                                              sol_04):
    rollouts = []

    def counted(*args, **kwargs):
        rollouts.append(args[1])
        return integrate_arcs(*args, **kwargs)

    monkeypatch.setattr(solver, "integrate_arcs", counted)
    sol = solve_indirect(scenario.replace_alpha(0.4), fast_options(),
                         warm_start=sol_04.schedule)
    assert sol.converged
    assert sol.start_index == -1  # never entered the multistart search
    assert sol.cost == pytest.approx(sol_04.cost, rel=1e-9)
    # every shooting rollout is counted, and the solution is built on the
    # last one instead of integrating the schedule again
    assert 0 < sol.n_fev == len(rollouts)
    assert sol.n_fev <= 1   # the warm start closes the system at once


def test_collapsed_final_arc_switches_structure_early(monkeypatch, scenario,
                                                     sol_02):
    """From the idle alpha = 0.2 schedule the alpha = 0.1 optimum needs a
    max-throttle final arc.  The idle structure collapses its final arc
    onto the ordering margin and stalls there; the shooting solve drops it
    then instead of spending its whole trial budget (197 rollouts).  With
    secant Jacobians, each taken at 20 RK4 steps per arc from a rollout at
    the point and eight perturbed ones that reuse its unchanged arcs, the
    solve spends 18 rollouts at 40 steps per arc and 36 at 20, 54 in
    all."""
    steps = Counter()

    def counted(*args, **kwargs):
        steps[kwargs["steps_per_arc"]] += 1
        return integrate_arcs(*args, **kwargs)

    assert sol_02.schedule.final_throttle is None
    monkeypatch.setattr(solver, "integrate_arcs", counted)
    sol = solve_indirect(scenario.replace_alpha(0.1), SolverOptions(steps=40),
                         warm_start=sol_02.schedule)
    assert sol.converged
    assert sol.schedule.final_throttle == scenario.pi_max
    # the continuation chain's cost at 40 steps per arc
    assert sol.cost == pytest.approx(-47626.2379829, rel=1e-6)
    # Solution.n_fev counts the rollouts at every resolution
    assert sol.n_fev == sum(steps.values())
    assert set(steps) == {solver._SEARCH_STEPS, 40}
    assert steps[40] <= 18 and steps[solver._SEARCH_STEPS] <= 36


def test_sweep_returns_input_order_and_growing_bang_arc(scenario):
    sols = sweep_alpha(scenario, [0.35, 0.4], fast_options())
    assert [s.scenario.alpha for s in sols] == [0.35, 0.4]
    assert all(s.converged for s in sols)
    assert sols[0].schedule.t1 < sols[1].schedule.t1


def test_sweep_bisects_a_continuation_step_that_does_not_close(
        monkeypatch, scenario_cw):
    """Under constant wind at 40 RK4 steps per arc, the warm step from
    alpha = 0.4 straight to 0 ends unconverged after 982 rollouts; the
    sweep then bisects it, closes alpha = 0.2 and reaches 0 from there in
    34 rollouts.  Without the bisection the sweep ends unconverged at
    -52835.95."""
    calls = []
    solve = solver.solve_indirect

    def spy(scn, options=None, warm_start=None):
        sol = solve(scn, options, warm_start)
        calls.append((scn.alpha, warm_start is None, sol.converged))
        return sol

    monkeypatch.setattr(solver, "solve_indirect", spy)
    sols = sweep_alpha(scenario_cw, [0.4, 0.0], SolverOptions(steps=40))
    assert calls == [(0.4, True, True), (0.0, False, False),
                     (0.2, False, True), (0.0, False, True)]
    assert [s.scenario.alpha for s in sols] == [0.4, 0.0]
    assert sols[1].converged
    assert sols[1].cost == pytest.approx(-53703.3238, rel=1e-6)


def test_options_need_one_step_per_arc(scenario):
    for steps in (0, -2):
        with pytest.raises(ValidationError):
            SolverOptions(steps=steps)
        with pytest.raises(ValidationError):
            realize_solution(scenario, ArcSchedule(10.0, 20.0, 30.0, 0.5),
                             steps=steps)


def _lm_log(monkeypatch, fail=()):
    """Spy on the Levenberg-Marquardt loop.  Returns the log it fills, in
    call order: ("point", z, r) for the start point and each trial point,
    ("jacobian", z, J) for each central-difference Jacobian, ("broyden", J,
    s, y, J_new) for each secant update, and ("damping", d) for the
    diagonal of the damping rows of each trial step's least-squares
    system.  The trial points numbered in `fail` (the start point is 0)
    fail as a failed rollout does."""
    log = []
    shoot, jacobian = _LMShooting._shoot, _LMShooting._jacobian
    broyden, lstsq = solver._broyden, np.linalg.lstsq

    def shoot_spy(self, z, square, base=None):
        if base is not None:        # a Jacobian's perturbed rollout
            return shoot(self, z, square, base)
        n = sum(e[0] == "point" for e in log)
        r, rollout = (None, None) if n in fail else shoot(self, z, square)
        log.append(("point", z.copy(), r))
        return r, rollout

    def jacobian_spy(self, z, square, rollout, search=None):
        jac = jacobian(self, z, square, rollout, search)
        log.append(("jacobian", z.copy(), jac))
        return jac

    def broyden_spy(jac, s, y):
        new = broyden(jac, s, y)
        log.append(("broyden", jac, s, y, new))
        return new

    def lstsq_spy(a, b, rcond=None):
        n = a.shape[1]
        log.append(("damping", np.diag(a[-n:]).copy()))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(_LMShooting, "_shoot", shoot_spy)
    monkeypatch.setattr(_LMShooting, "_jacobian", jacobian_spy)
    monkeypatch.setattr(solver, "_broyden", broyden_spy)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
    return log


def _z(sched):
    """The scaled shooting unknowns of a polynomial-wind schedule."""
    return np.array([sched.chi0, sched.t1, sched.t2, sched.tf]) / np.array(
        [1.0, TIME_SCALE, TIME_SCALE, TIME_SCALE])


def _near_optimum(context, scenario):
    """A 20-step shooting solve at alpha = 0.4 and a start near its
    optimum."""
    sched = ArcSchedule(t1=46.37409392679744, t2=6102.6089917743075,
                        tf=6157.216316030232, chi0=0.6936718863233733)
    return _LMShooting(context, scenario.replace_alpha(0.4), 20,
                       None), _z(sched) + [1e-3, 2e-3, 3e-3, -3e-3]


def test_accepted_steps_update_the_jacobian_by_the_secant(monkeypatch,
                                                          context, scenario):
    """After an accepted step the Jacobian is the good Broyden update for
    the projected step s from the last accepted point and the change y in
    the residual: J_new s = y, and J_new v = J v for every v orthogonal to
    s.  The solve closes with one central-difference Jacobian."""
    shooting, z0 = _near_optimum(context, scenario)
    log = _lm_log(monkeypatch)
    z, r, rollout = shooting._levenberg_marquardt(z0, True)
    assert solver._closed(r)
    assert rollout.schedule == shooting.decode(z)
    kinds = [e[0] for e in log]
    assert kinds.count("jacobian") == 1 and kinds.count("broyden") >= 2
    current = trial = log[0]
    for event in log:
        if event[0] == "point":
            trial = event
        elif event[0] == "broyden":
            _, jac, s, y, new = event
            np.testing.assert_array_equal(s, trial[1] - current[1])
            np.testing.assert_array_equal(y, trial[2] - current[2])
            np.testing.assert_allclose(new @ s, y, rtol=1e-9, atol=1e-15)
            v = np.linalg.svd(s[None, :])[2][1:]    # orthogonal to s
            np.testing.assert_allclose(new @ v.T, jac @ v.T, rtol=1e-9,
                                       atol=1e-12)
            current = trial
    np.testing.assert_array_equal(z, current[1])


def test_rejected_secant_step_refreshes_the_jacobian(monkeypatch, context,
                                                     scenario):
    """A trial step rejected while the Jacobian is a Broyden update is
    retried from the same point with a central-difference Jacobian and the
    same damping; one rejected under a fresh Jacobian raises the damping
    instead.  The damping scale is that of the last central-difference
    Jacobian throughout."""
    shooting, z0 = _near_optimum(context, scenario)
    log = _lm_log(monkeypatch, fail=(2, 3))
    shooting._levenberg_marquardt(z0, True)
    kinds = [e[0] for e in log]
    assert kinds[:10] == ["point", "jacobian", "damping", "point", "broyden",
                          "damping", "point", "jacobian", "damping", "point"]
    (_, p0, _), (_, j0_at, j0), (_, d1), (_, p1, _), _, (_, d2), _, (
        _, j1_at, j1), (_, d3), _ = log[:10]
    assert kinds[10] == "damping"      # no Jacobian after the fourth trial
    d4 = log[10][1]
    np.testing.assert_array_equal(j0_at, p0)
    np.testing.assert_array_equal(j1_at, p1)   # the accepted first trial

    def lam(d, jac):
        return (d / np.sqrt(np.sum(jac * jac, axis=0))) ** 2

    # the secant step is damped on the first Jacobian's scale, the retry
    # with the same damping on the refreshed one's, and the step after
    # the rejected retry with twice that damping
    for d, jac in ((d1, j0), (d2, j0), (d3, j1)):
        assert np.ptp(lam(d, jac)) <= 1e-12 * lam(d, jac)[0]
    assert lam(d3, j1)[0] == pytest.approx(lam(d2, j0)[0], rel=1e-12)
    assert lam(d4, j1)[0] == pytest.approx(2.0 * lam(d3, j1)[0], rel=1e-12)



def _spy_stages(monkeypatch):
    """Record the `square` flag of each Levenberg-Marquardt stage and each
    `terminal_costates` call of the shooting solve."""
    stages, costates = [], []
    lm, batch = _LMShooting._levenberg_marquardt, solver.terminal_costates

    def lm_spy(self, z, square, search=None):
        stages.append(square)
        return lm(self, z, square, search)

    def batch_spy(*args):
        costates.append(len(args[1]))
        return batch(*args)

    monkeypatch.setattr(_LMShooting, "_levenberg_marquardt", lm_spy)
    monkeypatch.setattr(solver, "terminal_costates", batch_spy)
    return stages, costates


def test_zero_weight_solve_stops_after_feasibility(monkeypatch, scenario,
                                                   sol_alpha_eps):
    """At alpha = 0 the shooting solve closes the terminal conditions and
    ends: no co-state stage and no co-state at tf.  The stage it drops
    (the asymptotic regime's second one, forced here) ends on the same
    point and rollout, bit for bit, after more rollouts."""
    scn = scenario.replace_alpha(0.0)
    ctx = make_context(scn)
    z0 = _z(sol_alpha_eps.schedule)
    stages, costates = _spy_stages(monkeypatch)
    shooting = _LMShooting(ctx, scn, 40, scn.pi_max)
    z, closed, rollout = shooting.solve(z0)
    assert closed and stages == [False] and costates == []
    two_stage = _LMShooting(ctx, scn, 40, scn.pi_max)
    two_stage.fourth = "asymptotic"
    stages.clear()
    z2, closed2, rollout2 = two_stage.solve(z0)
    assert closed2 and stages == [False, True] and costates
    assert z2.tobytes() == z.tobytes()
    assert rollout2.schedule == rollout.schedule
    assert (rollout2.trajectory.states.tobytes()
            == rollout.trajectory.states.tobytes())
    assert shooting.n_fev < two_stage.n_fev


def test_small_positive_weight_keeps_both_stages(monkeypatch, scenario,
                                                 sol_alpha_eps):
    """Below `_ALPHA_ASYMPTOTIC` but above zero the solve still drives the
    co-state equation after feasibility."""
    scn = scenario.replace_alpha(1e-6)
    stages, costates = _spy_stages(monkeypatch)
    shooting = _LMShooting(make_context(scn), scn, 40, scn.pi_max)
    _, closed, _ = shooting.solve(_z(sol_alpha_eps.schedule))
    assert closed and stages == [False, True] and costates


@pytest.mark.parametrize("mu_m", [0.0, math.inf, math.nan])
def test_a_zero_or_non_finite_mass_costate_fails_the_residual(
        monkeypatch, context, scenario, mu_m):
    """The fourth residual is 1/mu_m(tf): a mass co-state at tf that is
    zero or not finite fails the point, as a failed rollout does, while
    the terminal rows alone do not read it."""
    shooting, z = _near_optimum(context, scenario)
    assert shooting._shoot(z, True)[0] is not None
    monkeypatch.setattr(solver, "terminal_costates",
                        lambda ctx, rollouts, alpha: [(1.0, 1.0, 1.0, mu_m)]
                        * len(rollouts))
    r, rollout = shooting._shoot(z, True)
    assert r is None and rollout is None
    assert shooting._shoot(z, False)[0] is not None


def test_coarse_solve_lends_its_last_rollout_to_the_fine_jacobian(
        monkeypatch, scenario):
    """When the coarse solve from a start closes, the fine solve's first
    Jacobian takes its 20-step rollout over instead of rolling the same
    schedule out again: no 20-step schedule is rolled out twice from
    scratch, and the result keeps its bits."""
    calls = []

    def counted(*args, **kwargs):
        fresh = kwargs.get("reuse") is None
        calls.append((args[1], kwargs["steps_per_arc"], fresh))
        return integrate_arcs(*args, **kwargs)

    def from_scratch_at_20():
        return Counter(s for s, steps, fresh in calls if steps == 20 and fresh)

    monkeypatch.setattr(solver, "integrate_arcs", counted)
    sol = solve_indirect(scenario, SolverOptions(steps=60))
    assert sol.converged and sol.n_fev == len(calls) == 31
    assert max(from_scratch_at_20().values()) == 1
    # the same solve with the hand-over cut rolls one schedule out twice
    solve = _LMShooting.solve
    monkeypatch.setattr(_LMShooting, "solve",
                        lambda self, z0, search=None: solve(self, z0))
    calls.clear()
    ref = solve_indirect(scenario, SolverOptions(steps=60))
    assert ref.n_fev == len(calls) == 32
    assert sorted(from_scratch_at_20().values())[-2:] == [1, 2]
    assert ref.schedule == sol.schedule and ref.cost == sol.cost
    assert (ref.trajectory.states.tobytes()
            == sol.trajectory.states.tobytes())


CENSUS = census_script()


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_converged_random_routes_pass_every_costate_check(scenario, data):
    """Random routes from the route census's generator (bearing, length,
    weight 0.1-0.7, wind amplitude 0-2x, final speed 170-240 m/s), solved
    cold at 60 RK4 steps per arc: a route that reports `converged` passes
    every co-state check.  It may end unconverged, and then says so."""
    scn, _ = CENSUS.random_route(
        scenario, lambda lo, hi: data.draw(st.floats(lo, hi)))
    sol, verified = CENSUS.solve_route(scn, 60)
    assert verified or not sol.converged
