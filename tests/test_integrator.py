"""Arc integrator tests: order, degenerate arcs, co-state reconstruction."""

import math

import numpy as np
import pytest

from cruiseopt.atmosphere import check_envelope
from cruiseopt.errors import IntegrationError, ValidationError
from cruiseopt.integrate import (ArcSchedule, Trajectory, _Rhs, diagnose,
                                 integrate_arcs, reconstruct_costates)
from cruiseopt.pmp import solve_costates_on_singular
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)

SCN = load_scenario(default_scenario_path())
CTX = make_context(SCN)
X0 = (SCN.x0, SCN.y0, SCN.v0, SCN.m0)


def bang_schedule(tf=120.0, chi0=0.45):
    # t1 = t2 = 0 leaves only the final (idle) bang arc; idle arcs much
    # longer than this decelerate through the stall floor
    return ArcSchedule(t1=0.0, t2=0.0, tf=tf, chi0=chi0)


class TestArcSchedule:
    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            ArcSchedule(t1=10.0, t2=5.0, tf=100.0, chi0=0.0)
        with pytest.raises(ValidationError):
            ArcSchedule(t1=1.0, t2=2.0, tf=1.5, chi0=0.0)
        with pytest.raises(ValidationError):
            ArcSchedule(t1=-1.0, t2=2.0, tf=3.0, chi0=0.0)

    def test_degenerate_equal_times_allowed(self):
        s = ArcSchedule(t1=5.0, t2=5.0, tf=5.0, chi0=0.1)
        assert s.tf == 5.0


class TestTrajectoryInvariants:
    def test_times_strictly_increasing(self):
        traj = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                              SCN.pi_max, steps_per_arc=50)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(120.0)
        assert np.all(np.diff(traj.t) > 0.0)

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValidationError):
            Trajectory(t=np.array([0.0, 1.0, 1.0]),
                       states=np.zeros((3, 5)),
                       throttle=np.zeros(3),
                       arc_id=np.zeros(3, dtype=int))


def test_rk4_fourth_order_convergence():
    """Halving the step on a pure bang arc cuts the error by about 2^4."""
    ref = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                         SCN.pi_max, steps_per_arc=1600).final_state
    errs = []
    for n in (25, 50, 100):
        fin = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                             SCN.pi_max, steps_per_arc=n).final_state
        errs.append(np.max(np.abs(fin - ref)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 10.0 < r1 < 22.0
    assert 10.0 < r2 < 22.0


def test_pure_bang_schedule_never_evaluates_feedback():
    traj = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                          SCN.pi_max, steps_per_arc=40)
    assert not np.any(traj.arc_id == 1)
    assert traj.clamp_count == 0
    assert np.all(traj.throttle == SCN.pi_min)


def test_final_throttle_override_changes_last_arc():
    sched_idle = ArcSchedule(t1=0.0, t2=0.0, tf=120.0, chi0=0.45)
    sched_max = ArcSchedule(t1=0.0, t2=0.0, tf=120.0, chi0=0.45,
                            final_throttle=SCN.pi_max)
    idle = integrate_arcs(CTX, sched_idle, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=50)
    accel = integrate_arcs(CTX, sched_max, X0, 0.4, SCN.pi_min, SCN.pi_max,
                           steps_per_arc=50)
    assert np.all(accel.throttle == SCN.pi_max)
    assert accel.final_state[2] > idle.final_state[2]
    assert accel.final_mass < idle.final_mass  # burning fuel to accelerate


def test_max_arc_only_accelerates_and_burns():
    sched = ArcSchedule(t1=200.0, t2=200.0, tf=200.0, chi0=0.45)
    traj = integrate_arcs(CTX, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=50)
    assert np.all(np.diff(traj.states[:, 2]) > 0.0)
    assert np.all(np.diff(traj.states[:, 3]) < 0.0)


def test_constant_wind_keeps_heading_frozen():
    scn = load_scenario(default_constant_wind_scenario_path())
    ctx = make_context(scn)
    # max throttle everywhere keeps the rollout alive for the full span
    sched = ArcSchedule(t1=900.0, t2=900.0, tf=900.0, chi0=0.6)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          0.4, scn.pi_min, scn.pi_max, steps_per_arc=60)
    assert np.max(np.abs(traj.states[:, 4] - 0.6)) < 1e-14


def test_stalled_rollout_reports_time_and_state():
    # a long idle arc decelerates through the stall floor
    sched = bang_schedule(tf=3000.0)
    with pytest.raises(IntegrationError) as exc:
        integrate_arcs(CTX, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                       steps_per_arc=400)
    assert 0.0 < exc.value.t <= 30000.0
    assert exc.value.last_state is not None
    assert all(math.isfinite(s) for s in exc.value.last_state)


class CountingWind:
    """Wraps a wind field and counts its lookups."""

    def __init__(self, field):
        self.field = field
        self.calls = {"wind_at": 0, "wind_gradients": 0}

    def wind_at(self, x, y):
        self.calls["wind_at"] += 1
        return self.field.wind_at(x, y)

    def wind_gradients(self, x, y):
        self.calls["wind_gradients"] += 1
        return self.field.wind_gradients(x, y)


def test_each_rhs_stage_looks_the_wind_up_once():
    ctx = make_context(SCN)
    wind = CountingWind(SCN.wind)
    ctx.wind = wind
    state = (5e5, 2.5e5, 228.0, 53000.0, 0.65)
    lam = (-1e-6, -7e-7, -3e-2, -0.6)
    for rhs, s in ((_Rhs(ctx, SCN.pi_max), state),
                   (_Rhs(ctx, math.nan, 0.4, SCN.pi_min, SCN.pi_max), state),
                   (_Rhs(ctx, math.nan, 0.0, SCN.pi_min, SCN.pi_max), state),
                   (_Rhs(ctx, SCN.pi_min), state + lam)):
        wind.calls = {"wind_at": 0, "wind_gradients": 0}
        rhs(s)
        assert wind.calls == {"wind_at": 1, "wind_gradients": 1}

    # 3 arcs of 20 RK4 steps of 4 stages each
    sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
    wind.calls = {"wind_at": 0, "wind_gradients": 0}
    traj = integrate_arcs(ctx, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=20)
    assert wind.calls == {"wind_at": 240, "wind_gradients": 240}
    # joint sweeps over both bang arcs, plus one algebraic co-state solve
    # per singular sample and at the t1 junction
    wind.calls = {"wind_at": 0, "wind_gradients": 0}
    reconstruct_costates(ctx, traj, sched, 0.4, SCN.pi_min, SCN.pi_max)
    assert wind.calls == {"wind_at": 160 + 21, "wind_gradients": 160}


def test_rollout_leaves_diagnostics_to_the_diagnostics_pass():
    sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
    traj = integrate_arcs(CTX, sched, X0, 0.0, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=20)
    assert not np.any(traj.envelope_ok)
    assert np.all(np.isnan(traj.mach)) and np.all(np.isnan(traj.detM))
    diagnose(CTX, traj, 0.0, SCN.pi_min, SCN.pi_max)
    for i in range(len(traj.t)):
        rep = check_envelope(SCN.aircraft, CTX.atm, traj.states[i, 2], SCN.h)
        assert traj.envelope_ok[i] == rep.ok
        assert traj.mach[i] == rep.mach
    # no co-states at zero weight: determinant only
    assert np.all(np.isfinite(traj.detM))
    assert np.all(np.isnan(traj.S)) and np.all(np.isnan(traj.H))


class TestCostateReconstruction:
    def _solved(self, sol_04):
        assert sol_04.converged
        return sol_04

    def test_requires_positive_weight_and_singular_arc(self):
        traj = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                              SCN.pi_max, steps_per_arc=40)
        with pytest.raises(ValidationError):
            reconstruct_costates(CTX, traj, bang_schedule(), 0.0,
                                 SCN.pi_min, SCN.pi_max)
        with pytest.raises(ValidationError):
            reconstruct_costates(CTX, traj, bang_schedule(), 0.4,
                                 SCN.pi_min, SCN.pi_max)

    def test_singular_samples_use_algebraic_solve(self, sol_04):
        sol = self._solved(sol_04)
        traj = sol.trajectory
        ctx = make_context(sol.scenario)
        mid = np.where(traj.arc_id == 1)[0]
        for i in mid[:: max(1, len(mid) // 7)]:
            x, y, v, m, chi = traj.states[i]
            alg = solve_costates_on_singular(ctx, x, y, v, m, chi, sol.alpha)
            assert traj.costates[i] == pytest.approx(alg.as_tuple(),
                                                     rel=1e-12, abs=1e-18)

    def test_costates_finite_on_all_arcs(self, sol_04):
        sol = self._solved(sol_04)
        assert np.all(np.isfinite(sol.trajectory.costates))

    def test_diagnostics_filled(self, sol_04):
        traj = self._solved(sol_04).trajectory
        for col in (traj.S, traj.H, traj.detM, traj.mach):
            assert np.all(np.isfinite(col))
        assert traj.envelope_ok.dtype == bool
