"""Arc integrator tests: order, degenerate arcs, co-state reconstruction,
bit-identity with the oracle stepper, and the shooting solve's terminal
co-state."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import integrate_oracle
from cruiseopt import integrate
from cruiseopt.atmosphere import calibrated_airspeed, check_envelope
from cruiseopt.errors import (CruiseOptError, IllConditionedSystemError,
                              IntegrationError, ValidationError)
from cruiseopt.integrate import (ArcSchedule, Trajectory, _Rhs, diagnose,
                                 integrate_arcs, reconstruct_costates,
                                 terminal_costate)
from cruiseopt.pmp import (TIME_SCALE, evaluate_feedback,
                           solve_costates_on_singular)
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)
from cruiseopt.solver import _LMShooting, realize_solution, verify_solution

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
# Realized schedules with long first arcs on the shipped scenario: alpha =
# 0.8, and alpha = 0.9, whose singular arc collapses to 2 ms.
ALPHA_08 = ArcSchedule(t1=2441.0655653291233, t2=3640.174201513886,
                       tf=3828.8526841648277, chi0=0.5972725522430959)
ALPHA_09 = ArcSchedule(t1=3630.7444142314694, t2=3630.7444142314694 + 0.002,
                       tf=3821.5345567187255, chi0=0.5971584421414442)


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
    """Wraps a wind field and counts its lookups; `calls` lists the methods
    called at least once."""

    def __init__(self, field):
        self.field = field
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def wind_at(self, x, y):
        self._count("wind_at")
        return self.field.wind_at(x, y)

    def wind_gradients(self, x, y):
        self._count("wind_gradients")
        return self.field.wind_gradients(x, y)

    def wind_and_gradients(self, x, y):
        self._count("wind_and_gradients")
        return self.field.wind_and_gradients(x, y)


def test_each_rhs_stage_looks_the_wind_up_once():
    ctx = make_context(SCN)
    wind = CountingWind(SCN.wind)
    ctx.wind = wind
    state = (5e5, 2.5e5, 228.0, 53000.0, 0.65)
    for rhs in (_Rhs(ctx, SCN.pi_max),
                _Rhs(ctx, math.nan, 0.4, SCN.pi_min, SCN.pi_max),
                _Rhs(ctx, math.nan, 0.0, SCN.pi_min, SCN.pi_max)):
        wind.calls = {}
        rhs(state)
        assert wind.calls == {"wind_and_gradients": 1}

    # 3 arcs of 20 RK4 steps of 4 stages each
    sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
    wind.calls = {}
    traj = integrate_arcs(ctx, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=20)
    assert wind.calls == {"wind_and_gradients": 240}
    # co-state sweeps over both bang arcs, each with one lookup of the wind
    # (for the state rates) and one of its gradients (for the heading rate
    # and the adjoint) over all of its 21 samples, and one of the gradients
    # over all of its 20 step midpoints, plus one algebraic co-state solve
    # over the singular samples and the t1 junction, with one wind lookup
    # for all of them
    wind.calls = {}
    reconstruct_costates(ctx, traj, sched, 0.4, SCN.pi_min, SCN.pi_max)
    assert wind.calls == {"wind_gradients": 2 * 2, "wind_at": 2 * 1 + 1}


@pytest.mark.parametrize("alpha", [0.4, 0.0])
def test_rollout_calls_the_feedback_once_per_singular_stage(monkeypatch,
                                                            alpha):
    """The rollout reaches the singular feedback through
    `cruiseopt.integrate.evaluate_feedback`, once per RK4 stage of the
    singular arc and nowhere else: a feedback-evaluation count taken by
    wrapping that name reads 4 x steps per rollout."""
    calls = []
    feedback = integrate.evaluate_feedback

    def spy(*args, **kwargs):
        calls.append(args)
        return feedback(*args, **kwargs)

    monkeypatch.setattr(integrate, "evaluate_feedback", spy)
    sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
    for steps in (7, 20):
        calls.clear()
        integrate_arcs(CTX, sched, X0, alpha, SCN.pi_min, SCN.pi_max,
                       steps_per_arc=steps)
        assert len(calls) == 4 * steps
    # a schedule without a singular arc never calls it
    calls.clear()
    integrate_arcs(CTX, bang_schedule(), X0, alpha, SCN.pi_min, SCN.pi_max,
                   steps_per_arc=20)
    assert calls == []


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
            alg = solve_costates_on_singular(ctx, x, y, v, m, chi,
                                             sol.scenario.alpha)
            assert traj.costates[i] == pytest.approx(alg, rel=1e-12, abs=1e-18)

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
    weight reconstructs with unit weight, as the shooting solve does."""
    scn = SCENARIOS[wind]
    ctx = make_context(scn)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    try:
        traj = mod.integrate_arcs(ctx, sched, x0, alpha, scn.pi_min,
                                  scn.pi_max, steps_per_arc=steps)
    except IntegrationError as exc:
        return [("rollout", exc.t, np.array(exc.last_state), str(exc))], None
    out = [traj.t, traj.states, traj.throttle, traj.arc_id, traj.clamp_count]
    try:
        traj = mod.reconstruct_costates(ctx, traj, sched, alpha or 1.0,
                                        scn.pi_min, scn.pi_max)
    except CruiseOptError as exc:
        last = getattr(exc, "last_state", None)
        return out, (type(exc), getattr(exc, "t", None),
                     None if last is None else np.array(last), str(exc))
    return out, traj.costates


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
@example(wind="polynomial", alpha=0.9, steps=20,
         sched=ALPHA_09)     # the oracle's backward sweep stalls at 1452 s
@settings(max_examples=60, deadline=None)
def test_rollout_and_costates_match_the_oracle(wind, alpha, steps, sched):
    """The written-out stepper and right-hand side reproduce the tuple-zip
    stepper bit for bit: states, throttles, clamp counts, and the time and
    last state of every rollout failure.  Co-state reconstruction fails
    alike, and where both succeed the singular-arc rows match bit for bit
    and every row is finite.  The one difference allowed: the oracle's
    joint sweep backward over the first arc, which integrates the state
    where it is unstable, fails where the library's co-state sweep returns
    finite co-states."""
    rollout, costates = _outcome(integrate, wind, alpha, steps, sched)
    rollout_ref, costates_ref = _outcome(integrate_oracle, wind, alpha,
                                         steps, sched)
    _assert_same(rollout_ref, rollout)
    if isinstance(costates, np.ndarray) and not isinstance(costates_ref,
                                                           np.ndarray):
        kind, t = costates_ref[:2]
        assert kind is IntegrationError and t <= sched.t1
        assert np.isfinite(costates).all()
    elif isinstance(costates, np.ndarray):
        mid = np.flatnonzero(rollout[3] == 1)
        sing = slice(mid[0] - 1, mid[-1] + 1)
        _assert_same(costates_ref[sing], costates[sing])
        assert np.isfinite(costates).all()
        assert np.isfinite(costates_ref).all()
    else:
        _assert_same(costates_ref, costates)


def _decision(sched, constant_wind=False):
    """The shooting solve's scaled decision vector of a schedule."""
    z = np.array([sched.t1, sched.t2, sched.tf]) / TIME_SCALE
    return z if constant_wind else np.array([sched.chi0, *z])


@pytest.mark.parametrize("tag", sorted(COMMITTED))
def test_endgame_residual_matches_full_reconstruction(tag):
    wind, alpha, sched = COMMITTED[tag]
    scn = SCENARIOS[wind]
    shooting = _LMShooting(make_context(scn), scn.replace_alpha(alpha), 40,
                           final_throttle=sched.final_throttle)
    z0 = _decision(sched, wind == "constant")
    rng = np.random.default_rng(11)
    for k in range(6):
        z = z0 if k == 0 else z0 + rng.normal(0.0, 1e-3, len(z0))
        got = shooting._shoot(z, True)[0]
        ref = integrate_oracle.shooting_residual(shooting, z, True)
        _assert_same(got is None, ref is None)
        if got is not None:
            _assert_same(got, ref)


def test_endgame_residual_failures_match_full_reconstruction():
    _, alpha, sched = COMMITTED["0"]
    degenerate = replace(sched, t1=T1_DEGENERATE)
    traj = integrate_arcs(CTX, degenerate, X0, alpha, SCN.pi_min,
                          SCN.pi_max, steps_per_arc=40)
    with pytest.raises(IllConditionedSystemError):
        terminal_costate(CTX, traj, degenerate, 1.0)
    # a long idle last arc stalls the rollout
    stall = ArcSchedule(sched.t1, sched.t2, sched.t2 + 3000.0, sched.chi0)
    with pytest.raises(IntegrationError):
        integrate_arcs(CTX, stall, X0, alpha, SCN.pi_min, SCN.pi_max,
                       steps_per_arc=40)
    for s in (degenerate, stall):
        shooting = _LMShooting(CTX, SCN.replace_alpha(alpha), 40,
                               final_throttle=s.final_throttle)
        assert shooting._shoot(_decision(s), True)[0] is None
        assert integrate_oracle.shooting_residual(
            shooting, _decision(s), True) is None


def test_endgame_residual_skips_the_first_arc_sweep():
    ctx = make_context(SCN)
    wind = CountingWind(SCN.wind)
    ctx.wind = wind
    sched = COMMITTED["0.4"][2]
    shooting = _LMShooting(ctx, SCN.replace_alpha(0.4), 20, None)
    shooting._shoot(_decision(sched), True)
    # the rollout (240 stages), one co-state solve over the singular
    # samples and the t1 junction (1), the forward sweep over the last arc
    # (the wind and its gradients over its samples, the gradients over its
    # midpoints); reconstruct_costates also sweeps the first arc
    assert wind.calls == {"wind_and_gradients": 240, "wind_gradients": 2,
                          "wind_at": 1 + 1}
    assert shooting.n_fev == 1


def test_costate_sweeps_step_plain_floats(monkeypatch):
    """NumPy scalars (from the stored samples, or from the co-state rows
    that seed the sweeps) give the same bits at several times the cost per
    operation.  The co-state sweeps of `reconstruct_costates` and
    `terminal_costate` take the adjoint coefficients from two array passes
    per arc, one over the samples and one over the step midpoints, evaluate
    no state right-hand side, and step the adjoint on plain floats and
    return tuples of plain floats."""
    types = set()
    rhs_calls = []
    call = _Rhs.__call__
    coefficients = integrate.costate_coefficients
    adjoint = integrate.adjoint_rate
    sweep = integrate._costate_sweep
    passes, sweeps = [], []

    def rhs_spy(self, s):
        rhs_calls.append(s)
        return call(self, s)

    def coefficients_spy(ctx, v, m, chi, grads, throttle):
        assert all(type(a) is np.ndarray for a in (v, m, chi, *grads))
        passes.append(len(v))
        return coefficients(ctx, v, m, chi, grads, throttle)

    def adjoint_spy(coeffs, lam):
        types.update(map(type, (*coeffs, *lam)))
        return adjoint(coeffs, lam)

    def sweep_spy(*args):
        chain = sweep(*args)
        sweeps.append(chain)
        return chain

    sched = COMMITTED["0.4"][2]
    traj = integrate_arcs(CTX, sched, X0, 0.4, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=20)
    monkeypatch.setattr(_Rhs, "__call__", rhs_spy)
    monkeypatch.setattr(integrate, "costate_coefficients", coefficients_spy)
    monkeypatch.setattr(integrate, "adjoint_rate", adjoint_spy)
    monkeypatch.setattr(integrate, "_costate_sweep", sweep_spy)
    reconstruct_costates(CTX, traj, sched, 0.4, SCN.pi_min, SCN.pi_max)
    lam_f = terminal_costate(CTX, traj, sched, 1.0)
    assert types == {float}
    assert rhs_calls == []
    # backward and forward sweep, then the forward sweep alone, each with
    # one pass over its 21 samples and one over its 20 midpoints
    assert passes == [21, 20] * 3
    assert [len(chain) for chain in sweeps] == [20, 20, 20]
    assert all(type(lam) is tuple and all(type(v) is float for v in lam)
               for chain in sweeps for lam in chain)
    assert all(type(v) is float for v in lam_f)


def test_costate_sweep_raises_on_a_non_finite_costate():
    """A co-state that overflows in the first step of a sweep raises with
    the step's end time and the last finite co-state."""
    traj = integrate_arcs(CTX, bang_schedule(), X0, 0.4, SCN.pi_min,
                          SCN.pi_max, steps_per_arc=20)
    lam0 = (1.7e308, 1.7e308, 1.7e308, 1.7e308)
    with pytest.raises(IntegrationError, match="non-finite co-state") as exc:
        integrate._costate_sweep(CTX, SCN.pi_min, traj.t, traj.states, lam0)
    assert exc.value.t == traj.t[1]
    assert exc.value.last_state == lam0


@pytest.mark.parametrize("case", ["0.4", "0.1", "cw", "no final arc"])
def test_terminal_costate_is_the_last_reconstructed_row(case):
    wind, alpha, sched = COMMITTED["0.4" if case == "no final arc" else case]
    if case == "no final arc":
        sched = replace(sched, tf=sched.t2)
    scn = SCENARIOS[wind]
    ctx = make_context(scn)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          alpha, scn.pi_min, scn.pi_max, steps_per_arc=40)
    lam_f = terminal_costate(ctx, traj, sched, alpha)
    traj = reconstruct_costates(ctx, traj, sched, alpha, scn.pi_min,
                                scn.pi_max)
    assert _bits(lam_f) == _bits(traj.costates[-1])


def _costate_error(lam, ref, rows):
    """The largest co-state error over `rows`, per component relative to
    the reference's largest magnitude."""
    err = np.abs(lam - ref)[rows].max(axis=0)
    return float(np.max(err / np.abs(ref).max(axis=0)))


def _costates(mod, scn, alpha, sched, steps):
    """The rollout of a schedule and its co-states from `mod`'s
    reconstruction (the library or the oracle's joint sweeps)."""
    ctx = make_context(scn)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          alpha, scn.pi_min, scn.pi_max, steps_per_arc=steps)
    return mod.reconstruct_costates(ctx, traj, sched, alpha, scn.pi_min,
                                    scn.pi_max)


@pytest.mark.parametrize("fixture", ["sol_01", "sol_04", "sol_05", "sol_cw"])
def test_bang_arc_costates_are_as_accurate_as_the_joint_sweep(request,
                                                              fixture):
    """On the bang arcs the co-state sweep along the stored samples is at
    least as accurate as the joint state/co-state sweep it replaced (within
    10 %), measured against that joint sweep at 1600 steps per arc.  At
    400 steps both errors reach rounding under constant wind (about 5e-15
    of the largest co-state), where their ratio stops measuring truncation;
    against a 3200-step reference it reads 1.37 there."""
    sol = request.getfixturevalue(fixture)
    args = (sol.scenario, sol.scenario.alpha, sol.schedule)
    ref = _costates(integrate_oracle, *args, 1600).costates
    for steps in (40, 100, 400):
        lib = _costates(integrate, *args, steps)
        ora = _costates(integrate_oracle, *args, steps).costates
        # the samples at the same times as the coarse ones
        sub = ref[::1600 // steps]
        assert len(sub) == len(lib.t)
        bang = lib.arc_id != 1
        assert _costate_error(lib.costates, sub, bang) <= \
            1.1 * _costate_error(ora, sub, bang)


def test_long_first_arc_verifies_at_alpha_08():
    """The first arc lasts 2441 s at alpha = 0.8.  Backward in time the
    state equations are unstable, so a joint state/co-state sweep over it
    drifted the Hamiltonian by 2.2e-4 at 200 steps per arc, above tol_H;
    the co-state sweep along the stored samples does not integrate the
    state again."""
    sol = realize_solution(SCN.replace_alpha(0.8), ALPHA_08, steps=200)
    checks = {c.name: c.passed for c in verify_solution(sol).checks}
    assert checks.pop("envelope_monitors") is False
    assert all(passed is True for passed in checks.values()), checks


def test_collapsed_singular_arc_keeps_a_bounded_hamiltonian():
    """At alpha = 0.9 the singular arc collapses to 2 ms and the first arc
    lasts 3631 s; the joint sweep backward over it drifted the Hamiltonian
    by 2.6e17 at 200 steps per arc.  The mass co-state's transversality
    still fails there: the singular-arc algebra forces dS/dt = 0 at a
    switch where it is not zero."""
    sol = realize_solution(SCN.replace_alpha(0.9), ALPHA_09, steps=200)
    checks = {c.name: c.passed for c in verify_solution(sol).checks}
    assert checks["hamiltonian_constancy"] is True
    assert checks["transversality_lam_m"] is False


def test_first_arc_costates_converge_at_fourth_order():
    """Halving the step on alpha = 0.8's 2441 s first arc cuts the co-state
    error by about 2^4."""
    ref = _costates(integrate, SCN, 0.8, ALPHA_08, 1600).costates
    errs = []
    for n in (100, 200, 400):
        lam = _costates(integrate, SCN, 0.8, ALPHA_08, n).costates
        errs.append(_costate_error(lam[:n + 1], ref[:1601:1600 // n],
                                   slice(None)))
    assert 10.0 < errs[0] / errs[1] < 22.0
    assert 10.0 < errs[1] / errs[2] < 22.0


def _bits(a):
    """The bytes of a float array, with every NaN made the same NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _failure_or(fn):
    """The bits `fn()` returns, or the type, message and guard values of
    the package error it raises."""
    try:
        return _bits(fn())
    except CruiseOptError as exc:
        return (type(exc), str(exc), getattr(exc, "det", None),
                getattr(exc, "cond", None))


def _post_rollout_case(request, case):
    """(scenario, cost weight, schedule) of one array-pass test case."""
    fixture = {"0.1": "sol_01", "0.4": "sol_04", "0.5": "sol_05",
               "cw": "sol_cw"}.get(case)
    if fixture is not None:
        sol = request.getfixturevalue(fixture)
        return sol.scenario, sol.scenario.alpha, sol.schedule
    wind, alpha, sched = COMMITTED["0" if case == "0" else "0.4"]
    if case == "t1=t2":
        # a short idle arc: long ones decelerate through the stall floor
        sched = replace(sched, t2=sched.t1, tf=250.0)
    elif case == "no final arc":
        sched = replace(sched, tf=sched.t2)
    return SCENARIOS[wind], alpha, sched


@pytest.mark.parametrize("steps", [40, 400])
@pytest.mark.parametrize("case", ["0.1", "0.4", "0.5", "cw", "0", "t1=t2",
                                  "no final arc"])
def test_array_pass_matches_the_per_sample_oracle(request, case, steps):
    """The singular-arc co-states, the terminal co-state and every
    diagnostic column, from array expressions over whole arcs, equal the
    per-sample loops bit for bit, with both diagnostics passes given the
    library's co-states.  Two co-state rows are made non-finite before the
    diagnostics, which must leave S, H and lc NaN there."""
    scn, alpha, sched = _post_rollout_case(request, case)
    ctx = make_context(scn)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          alpha, scn.pi_min, scn.pi_max, steps_per_arc=steps)
    assert np.any(traj.arc_id == 2) == (case != "no final arc")
    assert np.any(traj.arc_id == 1) == (case != "t1=t2")
    weight = alpha or 1.0
    got = _failure_or(
        lambda: integrate._singular_costates(ctx, traj, sched, weight)[1])
    ref = _failure_or(
        lambda: integrate_oracle.singular_costates(ctx, traj, sched,
                                                   weight)[1])
    assert got == ref
    assert _failure_or(
        lambda: terminal_costate(ctx, traj, sched, 1.0)) == \
        _failure_or(lambda: integrate_oracle.terminal_costate(
            ctx, traj, sched, 1.0))

    lib = replace(traj, throttle=traj.throttle.copy())
    ora = replace(traj, throttle=traj.throttle.copy())
    if alpha > 0.0 and case != "t1=t2":
        lib = reconstruct_costates(ctx, lib, sched, alpha, scn.pi_min,
                                   scn.pi_max)
        ora = integrate_oracle.reconstruct_costates(ctx, ora, sched, alpha,
                                                    scn.pi_min, scn.pi_max)
        # the singular samples and the t1 junction match; the two sweep
        # the bang arcs differently (their accuracy is compared below), so
        # both diagnostics passes read the library's rows
        mid = np.flatnonzero(traj.arc_id == 1)
        sing = slice(mid[0] - 1, mid[-1] + 1)
        assert _bits(lib.costates[sing]) == _bits(ora.costates[sing])
        ora.costates = lib.costates.copy()
        for t in (lib, ora):
            t.costates[3, 1] = np.nan
            t.costates[-2, 0] = np.inf
    diagnose(ctx, lib, alpha, scn.pi_min, scn.pi_max)
    integrate_oracle.diagnose(ctx, ora, alpha, scn.pi_min, scn.pi_max)
    for col in ("throttle", "S", "H", "lc", "detM", "mach"):
        assert _bits(getattr(lib, col)) == _bits(getattr(ora, col)), col
    assert np.array_equal(lib.envelope_ok, ora.envelope_ok)
    assert lib.envelope_ok.dtype == bool
    if lib.costates is None:
        assert np.all(np.isnan(lib.S) & np.isnan(lib.H) & np.isnan(lib.lc))
    else:
        assert np.isnan(lib.S[[3, -2]]).all() and np.isfinite(lib.S[4])
    # CAS goes through NumPy's power over arrays and libm's pow per
    # sample, which may differ in the last bit: no sample sits within two
    # ulps of a CAS bound, where that could flip an envelope flag
    cas = calibrated_airspeed(ctx.atm, traj.states[:, 2], scn.h)
    for bound in (scn.aircraft.v_CAS_min, scn.aircraft.v_CAS_max):
        assert np.all(np.abs(cas - bound) > 2.0 * np.spacing(bound))


def _sweep_or_failure(fn):
    """The bits of the co-states a sweep returns, or the time, last
    co-state and message of its IntegrationError."""
    try:
        return _bits(fn())
    except IntegrationError as exc:
        return ("sweep", exc.t, _bits(exc.last_state), str(exc))


@pytest.mark.parametrize("steps", [40, 400])
@pytest.mark.parametrize("case", ["0.1", "0.4", "0.5", "cw", "0", "t1=t2",
                                  "no final arc"])
def test_array_costate_sweep_matches_the_per_sample_oracle(request, case,
                                                           steps):
    """The co-state sweep, whose state rates, Hermite midpoints and adjoint
    coefficients are array expressions over the arc, equals the per-sample
    sweep bit for bit, backward over the first arc and forward over the
    rest of the flight: the co-states, or the time and last finite
    co-state of the failure, when the seed overflows in the first step and
    when a NaN state row stops the sweep part way.  Under constant wind
    the wind lookups return scalars, which the arrays broadcast."""
    scn, alpha, sched = _post_rollout_case(request, case)
    ctx = make_context(scn)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          alpha, scn.pi_min, scn.pi_max, steps_per_arc=steps)
    j = np.count_nonzero(traj.arc_id == 0) - 1    # the t1 junction
    assert j == steps
    corrupt = traj.states.copy()
    corrupt[j // 2] = corrupt[j + steps // 2] = np.nan
    sweeps = []
    for states in (traj.states, corrupt):
        sweeps += [(scn.pi_max, traj.t[j::-1], states[j::-1]),
                   (float(traj.throttle[-1]), traj.t[j:], states[j:])]
    for seed in ((-2.5e-5, -1.2e-5, -8.0, -0.6), (1.7e308,) * 4):
        for throttle, t, states in sweeps:
            got = _sweep_or_failure(lambda: integrate._costate_sweep(
                ctx, throttle, t, states, seed))
            ref = _sweep_or_failure(lambda: integrate_oracle.costate_sweep(
                ctx, throttle, t, states, seed))
            assert got == ref
            if states is corrupt or seed[0] > 1.0:
                assert got[0] == "sweep"


@pytest.mark.parametrize("case", ["0.4", "0.1", "0", "cw", "t1=0",
                                  "t1=0, alpha=0", "clamped"])
def test_rollout_records_the_clamped_feedback_at_singular_samples(
        monkeypatch, case):
    """Every sample that starts a singular RK4 step holds the clamped
    feedback at its stored state, bit for bit, as that step's first stage
    computed it: the singular samples but the last, and the initial sample
    when the first arc is empty (t1 = 0); after it the first arc's last
    sample holds max throttle.  `diagnose` evaluates the feedback once,
    at the arc's last sample, which then holds it too."""
    key = {"t1=0": "0.4", "t1=0, alpha=0": "0", "clamped": "0.4"}.get(case,
                                                                     case)
    wind, alpha, sched = COMMITTED[key]
    if case.startswith("t1=0"):
        sched = replace(sched, t1=0.0)
    elif case == "clamped":
        alpha, sched = 0.85, REUSE_CASES["0.85, clamped singular arc"][2]
    scn = SCENARIOS[wind]
    ctx = make_context(scn)
    traj = integrate_arcs(ctx, sched, (scn.x0, scn.y0, scn.v0, scn.m0),
                          alpha, scn.pi_min, scn.pi_max, steps_per_arc=40)
    mid = np.flatnonzero(traj.arc_id == 1)

    def clamped_feedback(rows):
        pis = [evaluate_feedback(ctx, *traj.states[i].tolist(), alpha)
               for i in rows]
        return [min(max(pi, scn.pi_min), scn.pi_max) for pi in pis]

    starts = [*([0] if sched.t1 == 0.0 else []), *mid[:-1]]
    assert _bits(traj.throttle[starts]) == _bits(clamped_feedback(starts))
    if sched.t1 > 0.0:
        assert traj.throttle[mid[0] - 1] == scn.pi_max
    if case == "clamped":
        assert traj.clamp_count == 133
        assert np.isin(traj.throttle[mid[:-1]], [scn.pi_min,
                                                 scn.pi_max]).any()
    calls = []
    feedback = integrate.evaluate_feedback

    def spy(*args):
        calls.append(args)
        return feedback(*args)

    monkeypatch.setattr(integrate, "evaluate_feedback", spy)
    diagnose(ctx, traj, alpha, scn.pi_min, scn.pi_max)
    assert len(calls) == 1
    rows = [*starts, mid[-1]]
    assert _bits(traj.throttle[rows]) == _bits(clamped_feedback(rows))


def test_array_costate_solve_fails_at_the_first_ill_conditioned_sample():
    """One ill-conditioned sample (and a worse one later) inside the
    singular arc: the solve over the arc raises the per-sample loop's
    first error, with its determinant and condition number.  A NaN row
    gives a NaN co-state row, as per sample, and the pass warns nothing."""
    _, alpha, sched = COMMITTED["0.4"]
    traj = integrate_arcs(CTX, sched, X0, alpha, SCN.pi_min, SCN.pi_max,
                          steps_per_arc=40)
    states = traj.states.copy()
    states[45] = np.nan
    nan_row = replace(traj, states=states.copy())
    # |det| just below EPS_DET, then further below it, on the shipped field
    states[50] = (5e5, 2.5e5, 168.54782764700985, 40000.0, 0.65)
    states[60] = (5e5, 2.5e5, 168.5478286, 40000.0, 0.65)
    ill = replace(traj, states=states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedSystemError) as got:
            integrate._singular_costates(CTX, ill, sched, alpha)
        with pytest.raises(IllConditionedSystemError) as ref:
            integrate_oracle.singular_costates(CTX, ill, sched, alpha)
        first, lam = integrate._singular_costates(CTX, nan_row, sched, alpha)
        _, lam_ref = integrate_oracle.singular_costates(CTX, nan_row, sched,
                                                        alpha)
    assert (got.value.det, got.value.cond) == (ref.value.det, ref.value.cond)
    assert type(got.value.det) is float
    assert 9.99e-11 < got.value.det < 1e-10
    assert _bits(lam) == _bits(lam_ref)
    assert np.isnan(lam[45 - first]).all()
    assert np.isfinite(np.delete(lam, 45 - first, axis=0)).all()


# (scenario key, cost weight, schedule, whether the shooting system carries
# the fourth condition) of the arc-reuse cases
REUSE_CASES = {
    "0.4, idle final arc": ("polynomial", 0.4, COMMITTED["0.4"][2], True),
    "0.1, max final arc": ("polynomial", 0.1, COMMITTED["0.1"][2], True),
    "0, three rows": ("polynomial", 0.0, COMMITTED["0"][2], False),
    "0, four rows": ("polynomial", 0.0, COMMITTED["0"][2], True),
    "constant wind": ("constant", 0.4, COMMITTED["cw"][2], True),
    # the singular arc held at the shooting solve's ordering margin
    "singular arc at the margin": ("polynomial", 0.9, ALPHA_09, True),
    # a trial point of a cold alpha = 0.85 solve whose singular throttle
    # is clamped at 133 of its stages
    "0.85, clamped singular arc": ("polynomial", 0.85, ArcSchedule(
        t1=2398.0333472092734, t2=3239.8529927941913, tf=3458.1133164685125,
        chi0=0.4788040637750427), True),
}


def _rollout_or_failure(fn):
    """The arrays and clamp count of the rollout `fn()` returns, or the
    time, last state and message of its IntegrationError."""
    try:
        traj = fn()
    except IntegrationError as exc:
        return ("rollout", exc.t, np.array(exc.last_state), str(exc))
    return [traj.t, traj.states, traj.throttle, traj.arc_id,
            traj.clamp_count]


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_perturbed_rollouts_that_reuse_arcs_match_from_scratch(monkeypatch,
                                                               case):
    """Each central-difference neighbour of a shooting point, and a point
    whose final arc lasts 3000 s longer (an idle one stalls), rolled out
    with the point's rollout lent to it: the residual, the rollout and its
    clamp count, or the failure, are byte-identical to those from scratch.
    Only the arcs after the shared ones are integrated: a t2 column keeps
    the first arc, a tf column also the singular arc, except under
    constant wind, where tf moves the heading."""
    wind, alpha, sched, square = REUSE_CASES[case]
    scn = SCENARIOS[wind]
    constant_wind = wind == "constant"
    shooting = _LMShooting(make_context(scn), scn.replace_alpha(alpha), 40,
                           final_throttle=sched.final_throttle)
    z0 = _decision(sched, constant_wind)
    assert shooting._shoot(z0, square)[0] is not None
    base = shooting._shoot(z0, square)[1]
    if case.startswith("0.85"):
        assert base.trajectory.clamp_count == 133
    integrated = []
    rk4 = integrate._rk4

    def counted(rhs, s0, t0, t1, n_steps):
        integrated.append(t0)
        return rk4(rhs, s0, t0, t1, n_steps)

    monkeypatch.setattr(integrate, "_rk4", counted)
    names = ("t1", "t2", "tf") if constant_wind else ("chi0", "t1", "t2",
                                                      "tf")
    kept = {"chi0": 0, "t1": 0, "t2": 1, "tf": 0 if constant_wind else 2}
    points = [(name, z0 + sign * 1e-7 * e) for sign in (1.0, -1.0)
              for name, e in zip(names, np.eye(len(z0)))]
    points.append(("tf", z0 + 3.0 * np.eye(len(z0))[-1]))
    for name, z in points:
        sched_z = shooting.decode(z)

        def rollout(reuse=None):
            return _rollout_or_failure(lambda: integrate_arcs(
                shooting.ctx, sched_z, shooting.x0, alpha, scn.pi_min,
                scn.pi_max, steps_per_arc=40, reuse=reuse))

        integrated.clear()
        reused = rollout((base.schedule, base.trajectory))
        assert len(integrated) == 3 - kept[name]
        _assert_same(rollout(), reused)
        got = shooting._shoot(z, square, base)[0]
        ref = shooting._shoot(z, square)[0]
        _assert_same(ref is None, got is None)
        if got is not None:
            _assert_same(ref, got)
    if sched.final_throttle is None:
        assert isinstance(reused, tuple)   # the idle arc stalled
    # a final arc at another bang level is not shared
    assert integrate.shared_arcs(sched, replace(
        sched, final_throttle=None if sched.final_throttle else 1.0)) == 2
