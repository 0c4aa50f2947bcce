"""Switching-point solver tests: decode, start grid, verification, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cruiseopt.cli import write_solution_dir
from cruiseopt import solver
from cruiseopt.errors import DegenerateGeometryError
from cruiseopt.integrate import ArcSchedule, integrate_arcs
from cruiseopt.pmp import TIME_SCALE
from cruiseopt.scenario import Scenario
from cruiseopt.solver import (SolverOptions, _start_grid, _TerminalPolish,
                              chi0_constant_wind,
                              realize_solution, solve_indirect, sweep_alpha,
                              verify_solution)
from cruiseopt.wind import ConstantWind

from conftest import fast_options


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
    def test_deterministic_for_fixed_seed(self, scenario):
        opts = SolverOptions(seed=7)
        g1 = _start_grid(scenario, opts, constant_wind=False)
        g2 = _start_grid(scenario, opts, constant_wind=False)
        assert len(g1) == opts.n_starts
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)

    def test_seed_changes_ordering(self, scenario):
        g1 = _start_grid(scenario, SolverOptions(seed=0), False)
        g2 = _start_grid(scenario, SolverOptions(seed=1), False)
        assert any(not np.array_equal(a, b) for a, b in zip(g1, g2))

    def test_constant_wind_drops_heading_variable(self, scenario_cw):
        g = _start_grid(scenario_cw, SolverOptions(), constant_wind=True)
        assert all(len(z) == 3 for z in g)


class TestRolloutDecode:
    def test_round_trip(self, context, scenario):
        ro = _TerminalPolish(context, scenario, 0.4, 50)
        z = np.array([0.7, 0.05, 6.0, 6.1])
        sched = ro.decode(z)
        assert sched.chi0 == 0.7
        assert sched.t1 == pytest.approx(0.05 * TIME_SCALE)
        assert sched.tf == pytest.approx(6.1 * TIME_SCALE)


def test_verify_report_round_trip(sol_04):
    assert sol_04.converged
    rep = verify_solution(sol_04)
    assert rep.all_passed, rep.summary()
    assert rep.by_name("hamiltonian_constancy").passed
    with pytest.raises(KeyError):
        rep.by_name("nonexistent_check")
    text = rep.summary()
    assert "PASS" in text and "FAIL" not in text


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
    sol = realize_solution(scn, sched, alpha=sol_cw.alpha, steps=200)
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
    opts = fast_options(n_starts=2, nlp_steps=20, steps=60)
    converged = {}
    for costate_resid in (0.0, 1e-3):
        # the stubbed shooting solve decides the outcome
        monkeypatch.setattr(
            _TerminalPolish, "_levenberg_marquardt",
            lambda self, z, square, _c=costate_resid: (
                z_opt, np.array([0.0, 0.0, 0.0, _c])))
        sol = solve_indirect(scenario_cw, opts)
        assert type(sol.converged) is bool
        assert sol.cost == pytest.approx(sol_cw.cost, rel=1e-9)
        write_solution_dir(sol, tmp_path / str(costate_resid), steps=20)
        converged[costate_resid] = sol.converged
    assert converged == {0.0: True, 1e-3: False}


@pytest.mark.parametrize("fixture", ["sol_04", "sol_cw"])
@pytest.mark.parametrize("seed", range(4))
def test_cold_solve_converges(request, fixture, seed):
    ref = request.getfixturevalue(fixture)
    sol = solve_indirect(ref.scenario,
                         fast_options(seed=seed, nlp_steps=20, steps=60))
    assert sol.converged
    assert sol.cost == pytest.approx(ref.cost, rel=1e-6)


@pytest.mark.parametrize("t1, t2, limit", [
    (1e-13, 90.0, (0.0, 90.0)),
    (10.0, 10.0 + 1e-13, (10.0, 10.0)),
    (10.0, 100.0 - 1e-13, (10.0, 100.0)),
])
def test_collapsed_arc_realizes_as_its_limit(scenario, t1, t2, limit):
    """The rollout skips an arc of 1e-12 s or less, and realizing the
    schedule follows the same rule: a collapsed singular arc realizes as
    bang-bang, without co-states."""
    got = realize_solution(scenario, ArcSchedule(t1, t2, 100.0, 0.45),
                           steps=20)
    want = realize_solution(scenario, ArcSchedule(*limit, 100.0, 0.45),
                            steps=20)
    assert got.trajectory.final_state == pytest.approx(
        want.trajectory.final_state, rel=1e-12)
    if limit[0] == limit[1]:
        assert got.trajectory.costates is None
        assert want.trajectory.costates is None
    else:
        np.testing.assert_allclose(got.trajectory.costates,
                                   want.trajectory.costates, rtol=1e-9)


def test_realize_solution_reproduces_cost(sol_04):
    rebuilt = realize_solution(sol_04.scenario, sol_04.schedule,
                               alpha=sol_04.alpha, steps=200)
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
    # every endgame rollout is counted; the last one realizes the solution
    assert 0 < sol.n_fev == len(rollouts) - 1


def test_sweep_returns_input_order_and_growing_bang_arc(scenario):
    sols = sweep_alpha(scenario, [0.35, 0.4], fast_options())
    assert [s.alpha for s in sols] == [0.35, 0.4]
    assert all(s.converged for s in sols)
    assert sols[0].schedule.t1 < sols[1].schedule.t1
