"""Switching-point solver tests: decode, start grid, verification, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cruiseopt.cli import write_solution_dir
from cruiseopt.errors import DegenerateGeometryError
from cruiseopt.pmp import TIME_SCALE
from cruiseopt.scenario import Scenario
from cruiseopt.solver import (SolverOptions, _IndirectRollout, _start_grid,
                              _TerminalPolish, chi0_constant_wind,
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
        g1 = _start_grid(scenario, 0.4, opts, constant_wind=False)
        g2 = _start_grid(scenario, 0.4, opts, constant_wind=False)
        assert len(g1) == opts.n_starts
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)

    def test_seed_changes_ordering(self, scenario):
        g1 = _start_grid(scenario, 0.4, SolverOptions(seed=0), False)
        g2 = _start_grid(scenario, 0.4, SolverOptions(seed=1), False)
        assert any(not np.array_equal(a, b) for a, b in zip(g1, g2))

    def test_constant_wind_drops_heading_variable(self, scenario_cw):
        g = _start_grid(scenario_cw, 0.4, SolverOptions(), constant_wind=True)
        assert all(len(z) == 3 for z in g)


class TestRolloutDecode:
    def test_round_trip(self, context, scenario):
        ro = _IndirectRollout(context, scenario, 0.4, 50)
        z = np.array([0.7, 0.05, 6.0, 6.1])
        sched = ro.decode(z)
        assert sched.chi0 == 0.7
        assert sched.t1 == pytest.approx(0.05 * TIME_SCALE)
        assert sched.tf == pytest.approx(6.1 * TIME_SCALE)

    def test_ordering_violation_returns_graded_penalty(self, context,
                                                       scenario):
        ro = _IndirectRollout(context, scenario, 0.4, 50)
        j_small, r = ro(np.array([0.7, 1.0, 0.5, 6.0]))
        j_big, _ = ro(np.array([0.7, 4.0, 0.5, 6.0]))
        assert j_big > j_small > 1e8
        assert np.all(r == 10.0)

    def test_failed_rollout_graded_by_survival(self, context, scenario):
        ro = _IndirectRollout(context, scenario, 0.4, 50)
        # an all-idle schedule stalls early: penalized but finite
        j, _ = ro(np.array([0.7, 0.0, 0.0, 6.0]))
        assert 1e8 < j < 1e12


def test_verify_report_round_trip(sol_04):
    assert sol_04.converged
    rep = verify_solution(sol_04)
    assert rep.all_passed, rep.summary()
    assert rep.by_name("hamiltonian_constancy").passed
    with pytest.raises(KeyError):
        rep.by_name("nonexistent_check")
    text = rep.summary()
    assert "PASS" in text and "FAIL" not in text


def _due_north(scn, sched):
    """The constant-wind problem rotated about its origin so that the
    heading of `sched` points due north; rotation leaves the optimal
    schedule unchanged.  The endpoint's east coordinate is set to the
    wind's drift exactly, so the pinned heading is exactly pi/2."""
    rot = math.pi / 2 - sched.chi0
    c, s = math.cos(rot), math.sin(rot)
    wx = c * scn.wind.W_x - s * scn.wind.W_y
    wy = s * scn.wind.W_x + c * scn.wind.W_y
    north = Scenario(
        0.0, 0.0, wx * sched.tf, s * scn.xf + c * scn.yf, scn.v0, scn.vf,
        scn.m0, scn.h, scn.alpha, scn.pi_min, scn.pi_max,
        ConstantWind(wx, wy), scn.aircraft, scn.aircraft_file)
    return north, replace(sched, chi0=chi0_constant_wind(north, sched.tf))


def test_due_north_route_verifies(sol_cw):
    # chi = pi/2 is a pole of tan(chi); the heading/co-state check must
    # measure alignment without it
    assert sol_cw.scenario.x0 == sol_cw.scenario.y0 == 0.0
    north, sched = _due_north(sol_cw.scenario, sol_cw.schedule)
    assert sched.chi0 == math.pi / 2
    sol = realize_solution(north, sched, alpha=sol_cw.alpha, steps=200)
    assert np.all(sol.trajectory.states[:, 4] == math.pi / 2)
    assert np.max(np.abs(sol.residuals)) < 1.0
    rep = verify_solution(sol)
    assert rep.all_passed, rep.summary()
    assert rep.by_name("heading_costate_consistency").extreme <= 1e-6


def test_cold_solve_reports_endgame_optimality(monkeypatch, tmp_path,
                                               scenario_cw, sol_cw):
    """A feasible endgame result whose co-state equation did not close is
    not converged; the same result with it closed is.  The flag is a plain
    bool even when the endgame reports a NumPy one, so it serializes."""
    sched = sol_cw.schedule
    z_opt = np.array([sched.t1, sched.t2, sched.tf]) / TIME_SCALE
    # a short multistart: the stubbed endgame decides the outcome
    opts = fast_options(n_starts=1, screen_maxfev=8, nm_maxfev=8,
                        polish_maxfev=8, screen_outer=1, max_outer=1,
                        polish_outer=1, nlp_steps=20)
    converged = {}
    for opt_ok in (True, False):
        monkeypatch.setattr(
            _TerminalPolish, "run",
            lambda self, z0, feas_tol, max_iter=8, _ok=opt_ok: (
                z_opt, True, np.bool_(_ok)))
        sol = solve_indirect(scenario_cw, opts)
        assert type(sol.converged) is bool
        write_solution_dir(sol, tmp_path / str(opt_ok), steps=20)
        converged[opt_ok] = sol.converged
    assert converged == {True: True, False: False}


def test_realize_solution_reproduces_cost(sol_04):
    rebuilt = realize_solution(sol_04.scenario, sol_04.schedule,
                               alpha=sol_04.alpha, steps=200)
    assert rebuilt.cost == pytest.approx(sol_04.cost, rel=1e-12)
    assert np.max(np.abs(rebuilt.residuals - sol_04.residuals)) < 1e-6


def test_warm_start_short_circuits_multistart(scenario, sol_04):
    sol = solve_indirect(scenario.replace_alpha(0.4), fast_options(),
                         warm_start=sol_04.schedule)
    assert sol.converged
    assert sol.start_index == -1  # never entered the multistart search
    assert sol.cost == pytest.approx(sol_04.cost, rel=1e-9)


def test_sweep_returns_input_order_and_growing_bang_arc(scenario):
    sols = sweep_alpha(scenario, [0.35, 0.4], fast_options())
    assert [s.alpha for s in sols] == [0.35, 0.4]
    assert all(s.converged for s in sols)
    assert sols[0].schedule.t1 < sols[1].schedule.t1
