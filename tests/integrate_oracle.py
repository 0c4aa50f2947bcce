"""Test-only oracle for the arc integrator.

`_Rhs` and `_rk4` are the right-hand side and RK4 stepper the library ran
before its stepper was written out per component: every stage point and
the update are built as tuples from `zip` generator expressions, and the
right-hand side composes `dynamics.eval_F`, `dynamics.zermelo_rhs` and
the co-state equation on plain floats (`pmp.adjoint_rate` applied to
`pmp_oracle.scalar_costate_coefficients`), with the wind and its gradients
from the field's separate lookups and the singular throttle from
`pmp_oracle.composed_feedback`.  `integrate_arcs` drives them over the
three arcs exactly as the library does, each sample holding the throttle
of the step it starts, and the library's rollouts must match it bit for
bit, failures included.

`reconstruct_costates` covers the bang arcs as the library did before it
swept the co-state alone along the stored samples: it integrates the joint
nine-component state/co-state system, backward from t1 over the first arc
and forward from t2 over the last.  Its singular-arc rows must match the
library's bit for bit; on the bang arcs the two integrate different
systems, so there it is the reference for accuracy, not for bits.

`costate_sweep` is the library's co-state sweep along the stored samples
as it ran before its co-state-free part became array expressions: the
state rate, the Hermite midpoint and the adjoint coefficients computed one
sample and one midpoint at a time.  The array form must match it bit for
bit, failures included.

`shooting_residual` is the shooting solve's residual as it was computed
through the library's full `reconstruct_costates`, backward sweep over the
first arc included.

`singular_costates`, `terminal_costate` and `diagnose` are the library's
post-rollout algebra as it ran before it became array expressions over
whole arcs: one call of the closed forms per sample (`terminal_costate`
then runs `costate_sweep` forward over the final arc), and `diagnose`
evaluates the feedback at every singular sample.  The array
forms must match them bit for bit.
"""

import math

import numpy as np

from cruiseopt.atmosphere import check_envelope
from cruiseopt.dynamics import CruiseContext, eval_F, zermelo_rhs
from cruiseopt.errors import CruiseOptError, IntegrationError, ValidationError
from cruiseopt.integrate import ArcSchedule, Trajectory
from cruiseopt.integrate import _Rhs as lib_Rhs
from cruiseopt.integrate import reconstruct_costates as lib_reconstruct
from cruiseopt.integrate import integrate_arcs as lib_integrate
from cruiseopt.pmp import (STATE_SCALES, adjoint_rate, evaluate_feedback,
                           hamiltonian, legendre_clebsch, scaled_det,
                           singular_throttle_alpha0,
                           solve_costates_on_singular, switching_function)

from pmp_oracle import composed_feedback, scalar_costate_coefficients


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
            if self.alpha == 0.0:
                pi = singular_throttle_alpha0(ctx, v, m, chi, wind + grads)
            else:
                pi = composed_feedback(ctx, v, m, chi, wind, grads,
                                       self.alpha).throttle
            if pi < self.pi_min or pi > self.pi_max:
                self.clamps += 1
                pi = min(max(pi, self.pi_min), self.pi_max)
            self.throttle = pi
        f = eval_F(ctx, x, y, v, m, chi, pi, wind) + (
            zermelo_rhs(chi, grads),)
        if len(s) == 5:
            return f
        return f + adjoint_rate(scalar_costate_coefficients(
            ctx, v, m, chi, grads, pi), s[5:])


def _rk4(rhs, s0, t0: float, t1: float, n_steps: int):
    """Classical RK4 with n_steps fixed steps from t0 to t1 on a tuple of
    plain floats of any length: the state after every step and the
    throttle at every step's first stage."""
    s = tuple(map(float, s0))
    h = float(t1 - t0) / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    states, throttles = [], []
    for k in range(n_steps):
        t = t0 + k * h
        try:
            k1 = rhs(s)
            pi = rhs.throttle
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
        throttles.append(pi)
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
    throttles = [pi_min]
    arc_ids = [0]
    for arc, (ta, tb, rhs) in enumerate(arcs):
        k = np.arange(1, steps_per_arc + 1)
        arc_times = ta + k * (tb - ta) / steps_per_arc
        # skipped: 1e-12 s or shorter, or too short to sample strictly
        if tb - ta <= 1e-12 or np.any(np.diff([times[-1], *arc_times]) <= 0):
            continue
        states, pis = _rk4(rhs, samples[-1], ta, tb, steps_per_arc)
        # the first stage at the initial sample, at every sample after it
        # but the arc's last, and the last stage at that one
        if len(samples) == 1:
            throttles[0] = pis[0]
        times.extend(arc_times)
        samples.extend(states)
        throttles.extend(pis[1:] + [rhs.throttle])
        arc_ids.extend([arc] * steps_per_arc)
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
        lam[i] = solve_costates_on_singular(ctx, x, y, v, m, chi, alpha)
    pre = np.where(traj.arc_id == 0)[0]
    if len(pre) > 1 and schedule.t1 > 0.0:
        j = mid_idx[0]
        chain, _ = _rk4(_Rhs(ctx, pi_max), np.append(traj.states[j], lam[j]),
                        traj.t[j], 0.0, j)
        for k, st in enumerate(chain, 1):
            lam[j - k] = st[5:]
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    post = np.where(traj.arc_id == 2)[0]
    if len(post) > 0:
        j = mid_idx[-1]
        chain, _ = _rk4(_Rhs(ctx, pi_end), np.append(traj.states[j], lam[j]),
                        traj.t[j], traj.t[-1], n - 1 - j)
        for k, st in enumerate(chain, 1):
            lam[j + k] = st[5:]
    traj.costates = lam
    return traj


def costate_sweep(ctx: CruiseContext, throttle: float, t, states, lam):
    """The co-state sweep of one bang arc along its stored samples, one
    sample and one midpoint at a time on plain floats."""
    rhs, grads = lib_Rhs(ctx, throttle), ctx.wind.wind_gradients

    def at_sample(s):
        """The state rate and the adjoint coefficients at a sample."""
        return rhs(s), scalar_costate_coefficients(
            ctx, s[2], s[3], s[4], grads(s[0], s[1]), throttle)

    t, states = t.tolist(), states.tolist()
    lam = tuple(map(float, lam))
    ta, sa = t[0], states[0]
    fa, ka = at_sample(sa)
    out = []
    for tb, sb in zip(t[1:], states[1:]):
        fb, kb = at_sample(sb)
        h = tb - ta
        hh, h6, h8 = 0.5 * h, h / 6.0, h / 8.0
        sm = [0.5 * (a + b) + h8 * (c - d)
              for a, b, c, d in zip(sa, sb, fa, fb)]
        km = scalar_costate_coefficients(ctx, *sm[2:], grads(*sm[:2]),
                                         throttle)
        k1 = adjoint_rate(ka, lam)
        k2 = adjoint_rate(km, tuple(a + hh * b for a, b in zip(lam, k1)))
        k3 = adjoint_rate(km, tuple(a + hh * b for a, b in zip(lam, k2)))
        k4 = adjoint_rate(kb, tuple(a + h * b for a, b in zip(lam, k3)))
        new = tuple(a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                    for a, b1, b2, b3, b4 in zip(lam, k1, k2, k3, k4))
        if not all(map(math.isfinite, new)):
            raise IntegrationError(tb, "non-finite co-state", last_state=lam)
        lam = new
        out.append(lam)
        ta, sa, fa, ka = tb, sb, fb, kb
    return out


def shooting_residual(shooting, z, with_costate: bool):
    """The residual of `_LMShooting._shoot` with the co-state from the
    library's full `reconstruct_costates`."""
    sched = shooting.decode(z)
    if sched is None:
        return None
    scn = shooting.scn
    try:
        traj = lib_integrate(shooting.ctx, sched, shooting.x0,
                             scn.alpha, scn.pi_min, scn.pi_max,
                             steps_per_arc=shooting.steps)
        fin = traj.final_state
        r = np.array([(fin[0] - scn.xf) / STATE_SCALES[0],
                      (fin[1] - scn.yf) / STATE_SCALES[0],
                      (fin[2] - scn.vf) / STATE_SCALES[2]])
        if with_costate:
            traj = lib_reconstruct(shooting.ctx, traj, sched, 1.0,
                                   scn.pi_min, scn.pi_max)
            mu_m = traj.costates[-1, 3]
            if not np.isfinite(mu_m) or mu_m == 0.0:
                return None
            alpha = scn.alpha
            r = np.append(r, 1.0 / mu_m - alpha / (alpha - 1.0))
        return r
    except CruiseOptError:
        return None


def singular_costates(ctx: CruiseContext, traj: Trajectory,
                      schedule: ArcSchedule, alpha: float):
    """(index of the t1 junction sample, list of co-states) from one
    algebraic solve per sample, junction sample included."""
    if alpha <= 0.0:
        raise ValidationError("co-state reconstruction requires alpha > 0")
    mid = np.flatnonzero(traj.arc_id == 1).tolist()
    if not (schedule.t1 < schedule.t2 and mid):
        raise ValidationError("co-state reconstruction requires a singular arc")
    first = mid[0] - 1 if mid[0] > 0 else 0
    lams = [solve_costates_on_singular(ctx, x, y, v, m, chi, alpha)
            for x, y, v, m, chi in traj.states[first:mid[-1] + 1]]
    return first, lams


def terminal_costate(ctx: CruiseContext, traj: Trajectory,
                     schedule: ArcSchedule, alpha: float):
    """The co-state at tf from the per-sample singular-arc solves and the
    per-sample forward sweep over the final arc."""
    first, lams = singular_costates(ctx, traj, schedule, alpha)
    if not np.any(traj.arc_id == 2):
        return lams[-1]
    j = first + len(lams) - 1
    return costate_sweep(ctx, float(traj.throttle[-1]), traj.t[j:],
                         traj.states[j:], lams[-1])[-1]


def diagnose(ctx: CruiseContext, traj: Trajectory, alpha: float,
             pi_min: float, pi_max: float) -> None:
    """The diagnostic columns filled one sample at a time on plain floats."""
    n = len(traj.t)
    S, H, lc, det, mach = (np.full(n, np.nan) for _ in range(5))
    ok = np.zeros(n, dtype=bool)
    for i in range(n):
        x, y, v, m, chi = traj.states[i].tolist()
        if traj.arc_id[i] == 1:
            pi = evaluate_feedback(ctx, x, y, v, m, chi, alpha)
            traj.throttle[i] = min(max(pi, pi_min), pi_max)
        det[i] = scaled_det(ctx, x, y, v, m, chi)
        env = check_envelope(ctx.model, ctx.atm, v, ctx.h)
        mach[i], ok[i] = env.mach, env.ok
        if traj.costates is None:
            continue
        li = traj.costates[i].tolist()
        if not all(map(math.isfinite, li)):
            continue
        S[i] = switching_function(ctx, v, m, li)
        H[i] = hamiltonian(ctx, x, y, v, m, chi, traj.throttle[i], li)
        lc[i] = legendre_clebsch(ctx, x, y, v, m, chi, li)
    traj.S, traj.H, traj.lc, traj.detM = S, H, lc, det
    traj.mach, traj.envelope_ok = mach, ok
