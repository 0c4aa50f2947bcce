"""Arc integrator tests: order, degenerate arcs, co-state reconstruction,
bit-identity with the oracle stepper, and the endgame's terminal co-state."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import integrate_oracle
from cruiseopt import integrate
from cruiseopt.atmosphere import check_envelope
from cruiseopt.errors import (CruiseOptError, IllConditionedSystemError,
                              IntegrationError, ValidationError)
from cruiseopt.integrate import (ArcSchedule, Trajectory, _Rhs, diagnose,
                                 integrate_arcs, reconstruct_costates,
                                 terminal_costate)
from cruiseopt.pmp import TIME_SCALE, solve_costates_on_singular
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)
from cruiseopt.solver import _TerminalPolish

SCN = load_scenario(default_scenario_path())
CTX = make_context(SCN)
X0 = (SCN.x0, SCN.y0, SCN.v0, SCN.m0)
SCN_CW = load_scenario(default_constant_wind_scenario_path())
SCENARIOS = {"polynomial": SCN, "constant": SCN_CW}

# Optima the continuation chain reaches on the shipped scenarios, as
# (key into SCENARIOS, cost weight, schedule).
COMMITTED = {
    "0.4": ("polynomial", 0.4, ArcSchedule(
        t1=46.37409392679744, t2=6102.6089917743075, tf=6157.216316030232,
        chi0=0.6936718863233733)),
    "0.1": ("polynomial", 0.1, ArcSchedule(
        t1=10.844244165761813, t2=7242.430444247077, tf=7243.180602190709,
        chi0=0.7376991654772383, final_throttle=1.0)),
    "1e-06": ("polynomial", 1e-6, ArcSchedule(
        t1=4.0686445617185365, t2=7500.740688066828, tf=7506.780248474213,
        chi0=0.7482979651741187, final_throttle=1.0)),
    "0": ("polynomial", 0.0, ArcSchedule(
        t1=4.06855820455127, t2=7500.744223779601, tf=7506.783852746405,
        chi0=0.7482981091337462, final_throttle=1.0)),
    "cw": ("constant", 0.4, ArcSchedule(
        t1=41.81516020912325, t2=6042.594294058394, tf=6102.047699105936,
        chi0=0.5795558890876394)),
}
# A zero-weight switch time at which the determinant of the singular-arc
# system, which the zero-weight rollout holds at its t1 value, is about
# 1e-19 at 40 steps per arc: the unit-weight co-state solve refuses it.
T1_DEGENERATE = 4.0684652430360675


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
        # the rollout skips a singular arc of 1e-12 s or less
        sched = ArcSchedule(t1=10.0, t2=10.0 + 1e-13, tf=100.0, chi0=0.45)
        traj = integrate_arcs(CTX, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                              steps_per_arc=40)
        with pytest.raises(ValidationError):
            reconstruct_costates(CTX, traj, sched, 0.4, SCN.pi_min,
                                 SCN.pi_max)

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


def _outcome(mod, wind, alpha, steps, sched):
    """Rollout and co-states of one schedule through `mod` (the library or
    the oracle), with each failure reduced to what a caller can see.  Zero
    weight reconstructs with unit weight, as the Newton endgame does."""
    scn = SCENARIOS[wind]
    ctx = make_context(scn)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    try:
        traj = mod.integrate_arcs(ctx, sched, x0, alpha, scn.pi_min,
                                  scn.pi_max, steps_per_arc=steps)
    except IntegrationError as exc:
        return [("rollout", exc.t, np.array(exc.last_state), str(exc))]
    out = [traj.t, traj.states, traj.throttle, traj.clamp_count]
    try:
        traj = mod.reconstruct_costates(ctx, traj, sched, alpha or 1.0,
                                        scn.pi_min, scn.pi_max)
    except CruiseOptError as exc:
        last = getattr(exc, "last_state", None)
        out.append((type(exc), getattr(exc, "t", None),
                    None if last is None else np.array(last), str(exc)))
    else:
        out.append(traj.costates)
    return out


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


@st.composite
def _schedules(draw):
    t1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 300.0)))
    # the oracle indexes an empty singular arc when it is 1e-12 s or
    # shorter but not zero; the library's ValidationError there is tested
    # on its own
    t2 = t1 + draw(st.one_of(st.just(0.0), st.floats(1e-9, 7000.0)))
    # idle final arcs of a few thousand seconds stall
    tf = t2 + draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0),
                             st.floats(2000.0, 4000.0)))
    return ArcSchedule(t1, t2, tf, draw(st.floats(0.3, 1.1)),
                       draw(st.sampled_from([None, 1.0])))


@given(wind=st.sampled_from(sorted(SCENARIOS)),
       alpha=st.sampled_from([0.0, 1e-6, 0.4, 0.9]),
       steps=st.integers(1, 120), sched=_schedules())
@example(wind="polynomial", alpha=0.4, steps=20,
         sched=ArcSchedule(0.0, 6102.6, 6157.2, 0.6937))          # t1 = 0
@example(wind="polynomial", alpha=0.4, steps=20,
         sched=ArcSchedule(46.37, 46.37, 600.0, 0.6937))          # t1 = t2
@example(wind="polynomial", alpha=0.1, steps=40,
         sched=COMMITTED["0.1"][2])                   # max-throttle last arc
@example(wind="constant", alpha=0.0, steps=60,
         sched=ArcSchedule(20.0, 40.0, 3040.0, 0.58))  # idle arc that stalls
@example(wind="polynomial", alpha=1e-6, steps=60,
         sched=COMMITTED["1e-06"][2])   # the feedback raises mid-rollout
@example(wind="polynomial", alpha=0.0, steps=40,
         sched=replace(COMMITTED["0"][2], t1=T1_DEGENERATE))
@settings(max_examples=60, deadline=None)
def test_rollout_and_costates_match_the_oracle(wind, alpha, steps, sched):
    """The written-out stepper and right-hand side reproduce the tuple-zip
    stepper bit for bit: states, throttles, clamp counts, co-states, and
    the time and last state of every failure."""
    _assert_same(_outcome(integrate_oracle, wind, alpha, steps, sched),
                 _outcome(integrate, wind, alpha, steps, sched))


def _decision(sched, constant_wind=False):
    """The endgame's scaled decision vector of a schedule."""
    z = np.array([sched.t1, sched.t2, sched.tf]) / TIME_SCALE
    return z if constant_wind else np.array([sched.chi0, *z])


@pytest.mark.parametrize("tag", sorted(COMMITTED))
def test_endgame_residual_matches_full_reconstruction(tag):
    wind, alpha, sched = COMMITTED[tag]
    scn = SCENARIOS[wind]
    polish = _TerminalPolish(make_context(scn), scn, alpha, 40,
                             final_throttle=sched.final_throttle)
    z0 = _decision(sched, wind == "constant")
    rng = np.random.default_rng(11)
    for k in range(6):
        z = z0 if k == 0 else z0 + rng.normal(0.0, 1e-3, len(z0))
        got = polish.residual(z, True)
        ref = integrate_oracle.endgame_residual(polish, z, True)
        _assert_same(got is None, ref is None)
        if got is not None:
            _assert_same(got, ref)


def test_endgame_residual_failures_match_full_reconstruction():
    _, alpha, sched = COMMITTED["0"]
    degenerate = replace(sched, t1=T1_DEGENERATE)
    traj = integrate_arcs(CTX, degenerate, X0, alpha, SCN.pi_min,
                          SCN.pi_max, steps_per_arc=40)
    with pytest.raises(IllConditionedSystemError):
        terminal_costate(CTX, traj, degenerate, 1.0, SCN.pi_min)
    # a long idle last arc stalls the rollout
    stall = ArcSchedule(sched.t1, sched.t2, sched.t2 + 3000.0, sched.chi0)
    with pytest.raises(IntegrationError):
        integrate_arcs(CTX, stall, X0, alpha, SCN.pi_min, SCN.pi_max,
                       steps_per_arc=40)
    for s in (degenerate, stall):
        polish = _TerminalPolish(CTX, SCN, alpha, 40,
                                 final_throttle=s.final_throttle)
        assert polish.residual(_decision(s), True) is None
        assert integrate_oracle.endgame_residual(
            polish, _decision(s), True) is None


def test_endgame_residual_skips_the_first_arc_sweep():
    ctx = make_context(SCN)
    wind = CountingWind(SCN.wind)
    ctx.wind = wind
    sched = COMMITTED["0.4"][2]
    polish = _TerminalPolish(ctx, SCN, 0.4, 20)
    polish.residual(_decision(sched), True)
    # the rollout (240 stages), one co-state solve per singular sample and
    # at the t1 junction (21), the forward sweep over the last arc (80);
    # reconstruct_costates also sweeps the first arc (80 more)
    assert wind.calls == {"wind_at": 240 + 21 + 80,
                          "wind_gradients": 240 + 80}
    assert polish.n_fev == 1


def test_costate_sweeps_step_plain_floats(monkeypatch):
    """NumPy scalars (from a NumPy step count) give the same bits at
    several times the cost per operation."""
    types = set()
    call = _Rhs.__call__

    def spy(self, s):
        types.update(map(type, s))
        return call(self, s)

    monkeypatch.setattr(_Rhs, "__call__", spy)
    sched = COMMITTED["0.4"][2]
    traj = integrate_arcs(CTX, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=20)
    reconstruct_costates(CTX, traj, sched, 0.4, SCN.pi_min, SCN.pi_max)
    assert types == {float}
