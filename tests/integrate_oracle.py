"""Test-only oracle for the arc integrator.

`_Rhs` and `_rk4` are the right-hand side and RK4 stepper the library ran
before its stepper was written out per component: every stage point and
the update are built as tuples from `zip` generator expressions, and the
right-hand side composes `dynamics.eval_F`, `dynamics.zermelo_rhs` and
`pmp.costate_rhs`.  `integrate_arcs` and `reconstruct_costates` drive them
over the three arcs exactly as the library does.  The library's rollouts and
co-states must match these bit for bit, failures included.

`endgame_residual` is the Newton endgame's residual as it was computed
through the full `reconstruct_costates`, backward sweep over the first arc
included.
"""

import math

import numpy as np

from cruiseopt.dynamics import CruiseContext, eval_F, zermelo_rhs
from cruiseopt.errors import CruiseOptError, IntegrationError, ValidationError
from cruiseopt.integrate import ArcSchedule, Trajectory
from cruiseopt.integrate import reconstruct_costates as lib_reconstruct
from cruiseopt.integrate import integrate_arcs as lib_integrate
from cruiseopt.pmp import (STATE_SCALES, costate_rhs, evaluate_feedback,
                           solve_costates_on_singular)


class _Rhs:
    """Right-hand side of (x, y, v, m, chi), or of the joint state/co-state
    system when called with the co-state appended (nine components).
    """

    def __init__(self, ctx: CruiseContext, throttle: float,
                 alpha: float | None = None, pi_min: float | None = None,
                 pi_max: float | None = None):
        self.ctx = ctx
        self.throttle = throttle
        self.alpha = alpha
        self.pi_min = pi_min
        self.pi_max = pi_max
        self.clamps = 0

    def __call__(self, s):
        ctx = self.ctx
        x, y, v, m, chi = s[:5]
        wind = ctx.wind.wind_at(x, y)
        grads = ctx.wind.wind_gradients(x, y)
        pi = self.throttle
        if self.alpha is not None:
            pi = evaluate_feedback(ctx, x, y, v, m, chi, self.alpha, wind,
                                   grads).throttle
            if pi < self.pi_min or pi > self.pi_max:
                self.clamps += 1
                pi = min(max(pi, self.pi_min), self.pi_max)
            self.throttle = pi
        f = eval_F(ctx, x, y, v, m, chi, pi, wind) + (
            zermelo_rhs(chi, grads),)
        if len(s) == 5:
            return f
        return f + costate_rhs(ctx, v, m, chi, grads, pi, s[5:])


def _rk4(rhs, s0, t0: float, t1: float, n_steps: int):
    """Classical RK4 with n_steps fixed steps from t0 to t1 on a tuple of
    plain floats of any length."""
    s = tuple(map(float, s0))
    h = float(t1 - t0) / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    states, throttles = [], []
    for k in range(n_steps):
        t = t0 + k * h
        try:
            k1 = rhs(s)
            k2 = rhs(tuple(a + hh * b for a, b in zip(s, k1)))
            k3 = rhs(tuple(a + hh * b for a, b in zip(s, k2)))
            k4 = rhs(tuple(a + h * b for a, b in zip(s, k3)))
        except Exception as exc:
            raise IntegrationError(t, str(exc), last_state=s) from exc
        prev = s
        s = tuple(a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4))
        if not all(math.isfinite(si) for si in s) or s[2] <= 1.0:
            raise IntegrationError(t + h, "non-finite or stalled state",
                                   last_state=prev)
        states.append(s)
        throttles.append(rhs.throttle)
    return states, throttles


def integrate_arcs(ctx: CruiseContext, schedule: ArcSchedule, x0,
                   alpha: float, pi_min: float, pi_max: float,
                   steps_per_arc: int = 400) -> Trajectory:
    """The bang / singular / bang rollout through the oracle stepper."""
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    sing = _Rhs(ctx, math.nan, alpha, pi_min, pi_max)
    arcs = ((0.0, schedule.t1, _Rhs(ctx, pi_max)),
            (schedule.t1, schedule.t2, sing),
            (schedule.t2, schedule.tf, _Rhs(ctx, pi_end)))
    times = [0.0]
    samples = [(x0[0], x0[1], x0[2], x0[3], schedule.chi0)]
    throttles = [pi_max]
    arc_ids = [0]
    for arc, (ta, tb, rhs) in enumerate(arcs):
        if tb - ta <= 1e-12:
            continue
        states, pis = _rk4(rhs, samples[-1], ta, tb, steps_per_arc)
        times.extend(ta + (k + 1) * (tb - ta) / steps_per_arc
                     for k in range(steps_per_arc))
        samples.extend(states)
        throttles.extend(pis)
        arc_ids.extend([arc] * steps_per_arc)
    if schedule.t1 <= 1e-12:
        throttles[0] = throttles[1] if len(throttles) > 1 else pi_min
    return Trajectory(
        t=np.array(times),
        states=np.array(samples),
        throttle=np.array(throttles, dtype=float),
        arc_id=np.array(arc_ids),
        clamp_count=sing.clamps,
    )


def reconstruct_costates(ctx: CruiseContext, traj: Trajectory,
                         schedule: ArcSchedule, alpha: float,
                         pi_min: float, pi_max: float) -> Trajectory:
    """Co-states through the oracle stepper: algebraic on the singular arc,
    then the backward and forward joint sweeps over the bang arcs."""
    if alpha <= 0.0:
        raise ValidationError("co-state reconstruction requires alpha > 0")
    if not schedule.t1 < schedule.t2:
        raise ValidationError("co-state reconstruction requires a singular arc")
    n = len(traj.t)
    lam = np.full((n, 4), np.nan)
    mid = np.where(traj.arc_id == 1)[0]
    first_mid = mid[0] - 1 if mid[0] > 0 else 0
    mid_idx = list(range(first_mid, mid[-1] + 1))
    for i in mid_idx:
        x, y, v, m, chi = traj.states[i]
        cs = solve_costates_on_singular(ctx, x, y, v, m, chi, alpha)
        lam[i] = cs.as_tuple()
    pre = np.where(traj.arc_id == 0)[0]
    if len(pre) > 1 and schedule.t1 > 0.0:
        j = mid_idx[0]
        chain, _ = _rk4(_Rhs(ctx, pi_max), np.append(traj.states[j], lam[j]),
                        traj.t[j], 0.0, j)
        for k, st in enumerate(chain, 1):
            lam[j - k] = st[5:]
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    post = np.where(traj.arc_id == 2)[0]
    if len(post) > 0 and schedule.tf - schedule.t2 > 1e-12:
        j = mid_idx[-1]
        chain, _ = _rk4(_Rhs(ctx, pi_end), np.append(traj.states[j], lam[j]),
                        traj.t[j], traj.t[-1], n - 1 - j)
        for k, st in enumerate(chain, 1):
            lam[j + k] = st[5:]
    traj.costates = lam
    return traj


def endgame_residual(polish, z, with_costate: bool):
    """`_TerminalPolish.residual` with the co-state from the library's full
    `reconstruct_costates`."""
    sched = polish.decode(z)
    if sched is None:
        return None
    scn = polish.scn
    try:
        traj = lib_integrate(polish.ctx, sched, polish.x0, polish.alpha,
                             scn.pi_min, scn.pi_max,
                             steps_per_arc=polish.steps)
        fin = traj.final_state
        r = np.array([(fin[0] - scn.xf) / STATE_SCALES[0],
                      (fin[1] - scn.yf) / STATE_SCALES[0],
                      (fin[2] - scn.vf) / STATE_SCALES[2]])
        if with_costate:
            traj = lib_reconstruct(polish.ctx, traj, sched, 1.0, scn.pi_min,
                                   scn.pi_max)
            mu_m = traj.costates[-1, 3]
            if not np.isfinite(mu_m) or mu_m == 0.0:
                return None
            r = np.append(r, 1.0 / mu_m - polish.alpha / (polish.alpha - 1.0))
        return r
    except CruiseOptError:
        return None
