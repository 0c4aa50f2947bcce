"""Fixed-structure trajectory integration over the three-arc partition.

The throttle is max on [0, t1), in singular feedback on [t1, t2], and bang
on (t2, tf]: min by default, max when the terminal speed target sits above
the singular-arc speed and the last arc must accelerate.  The five-state
system (x, y, v, m, chi) is integrated with classical RK4 at fixed steps per
arc; switch times are unknowns of the shooting solve, so arcs are
integrated independently with endpoints aligned to the switches and no event
detection is needed.

One RK4 stepper and one right-hand side serve every arc and both uses: the
state rollout and the joint state/co-state sweep that reconstructs the
co-states on the bang arcs.  The stepper works on plain floats with each
stage point and the update written out per component, for the five-state
system and for the nine-component joint system, in the operation order of
the generic tuple form it replaced, so results are bit-identical to it.
Each RK4 stage looks the wind and its gradients up once.  A rollout records
states and throttles only; one diagnostics pass over a realized trajectory
(`diagnose`) fills the exact singular throttle, the switching function,
Hamiltonian, Legendre-Clebsch value, determinant, Mach number and envelope
flags.

The shooting residual reads only the co-state at tf, so `terminal_costate`
runs just the singular-arc solves and the forward sweep over the final arc,
the two steps it shares with `reconstruct_costates`, and skips the backward
sweep over the first arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atmosphere import check_envelope
from .dynamics import CruiseContext
from .errors import IntegrationError, ValidationError
from .pmp import (
    evaluate_feedback,
    hamiltonian,
    legendre_clebsch,
    scaled_det,
    solve_costates_on_singular,
    switching_function,
)


@dataclass(frozen=True)
class ArcSchedule:
    """Switch times, final time, and the initial heading.

    `final_throttle` overrides the bang level on the last arc; None means
    the default idle (min-throttle) deceleration arc.
    """

    t1: float
    t2: float
    tf: float
    chi0: float
    final_throttle: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.t1 <= self.t2 <= self.tf:
            raise ValidationError(
                f"schedule ordering violated: 0 <= {self.t1} <= {self.t2} "
                f"<= {self.tf}"
            )


@dataclass
class Trajectory:
    """Dense sampled histories with per-sample diagnostics.

    Diagnostic columns are NaN, and `envelope_ok` False, until `diagnose`
    has run; S, H and lc stay NaN where no co-state was reconstructed.
    """

    t: np.ndarray                 # (n,), strictly increasing, t[0]=0, t[-1]=tf
    states: np.ndarray            # (n, 5): x, y, v, m, chi
    throttle: np.ndarray          # (n,)
    arc_id: np.ndarray            # (n,) in {0, 1, 2}
    clamp_count: int = 0
    costates: np.ndarray | None = None   # (n, 4)
    S: np.ndarray = field(default_factory=lambda: np.array([]))
    H: np.ndarray = field(default_factory=lambda: np.array([]))
    lc: np.ndarray = field(default_factory=lambda: np.array([]))
    detM: np.ndarray = field(default_factory=lambda: np.array([]))
    mach: np.ndarray = field(default_factory=lambda: np.array([]))
    envelope_ok: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        n = len(self.t)
        if np.any(np.diff(self.t) <= 0.0):
            raise ValidationError("sample times must be strictly increasing")
        for name in ("S", "H", "lc", "detM", "mach"):
            if len(getattr(self, name)) == 0:
                setattr(self, name, np.full(n, np.nan))
        if len(self.envelope_ok) == 0:
            self.envelope_ok = np.zeros(n, dtype=bool)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_mass(self) -> float:
        return float(self.states[-1, 3])


class _Rhs:
    """Right-hand side of (x, y, v, m, chi), or of the joint state/co-state
    system when called with the co-state appended (nine components).

    The wind and its gradients are looked up once per call, through the
    wind field's methods bound at construction, and feed the dynamics
    F = Q + pi P, the heading rate, the singular feedback and the co-state
    equation.  F, the heading rate and the co-state equation are written
    out here, with the context's constants bound at construction, in the
    operation order of `dynamics.eval_F`, `dynamics.zermelo_rhs` and
    `pmp.costate_rhs`: rollouts match those point evaluations bit for bit
    without their calls.  `throttle` is the bang level; given a cost weight
    `alpha`, the throttle comes instead from the singular feedback, clamped
    to [pi_min, pi_max] with clamp events counted, and `throttle` holds the
    value of the last call.
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
        self._wind_at = ctx.wind.wind_at
        self._wind_gradients = ctx.wind.wind_gradients
        self._consts = (ctx.qs_coeff, ctx.ind_coeff, ctx.T_max,
                        ctx.model.C_s1, ctx.model.C_s2,
                        -ctx.cs_slope * ctx.T_max)

    def __call__(self, s):
        x, y, v, m, chi = s[:5]
        wind = self._wind_at(x, y)
        grads = self._wind_gradients(x, y)
        pi = self.throttle
        if self.alpha is not None:
            pi = evaluate_feedback(self.ctx, x, y, v, m, chi, self.alpha,
                                   wind, grads).throttle
            if pi < self.pi_min or pi > self.pi_max:
                self.clamps += 1
                pi = min(max(pi, self.pi_min), self.pi_max)
            self.throttle = pi
        qs, ind, tmax, cs1, cs2, fuel_v = self._consts
        wx, wy = wind
        wxx, wxy, wyx, wyy = grads
        sn, c = math.sin(chi), math.cos(chi)
        drag = qs * v * v + ind * m * m / (v * v)
        f = (v * c + wx,
             v * sn + wy,
             -drag / m + pi * (tmax / m),
             pi * (-(cs1 * (1.0 + v / cs2)) * tmax),
             sn * sn * wyx + sn * c * (wxx - wyy) - c * c * wxy)
        if len(s) == 5:
            return f
        lx, ly, lv, lm = s[5:]
        d_v = 2.0 * qs * v - 2.0 * ind * m * m / v ** 3
        d_m = 2.0 * ind * m / (v * v)
        return f + (-(lx * wxx + ly * wyx),
                    -(lx * wxy + ly * wyy),
                    -(lx * c + ly * sn + lv * (-d_v / m) + lm * (pi * fuel_v)),
                    -(lv * ((-d_m / m + drag / (m * m))
                            + pi * (-tmax / (m * m)))))


def _step5(rhs, s, h, hh, h6):
    """One classical RK4 step of the five-component state (x, y, v, m, chi
    as x, y, v, m, c), written out; x2 is the x rate at the second stage."""
    x, y, v, m, c = s
    x1, y1, v1, m1, c1 = rhs(s)
    x2, y2, v2, m2, c2 = rhs((x + hh * x1, y + hh * y1, v + hh * v1,
                              m + hh * m1, c + hh * c1))
    x3, y3, v3, m3, c3 = rhs((x + hh * x2, y + hh * y2, v + hh * v2,
                              m + hh * m2, c + hh * c2))
    x4, y4, v4, m4, c4 = rhs((x + h * x3, y + h * y3, v + h * v3,
                              m + h * m3, c + h * c3))
    return (x + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            y + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            v + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
            m + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4),
            c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4))


def _step9(rhs, s, h, hh, h6):
    """`_step5` for the joint system, with the co-state as p, q, r, u."""
    x, y, v, m, c, p, q, r, u = s
    x1, y1, v1, m1, c1, p1, q1, r1, u1 = rhs(s)
    x2, y2, v2, m2, c2, p2, q2, r2, u2 = rhs((
        x + hh * x1, y + hh * y1, v + hh * v1, m + hh * m1, c + hh * c1,
        p + hh * p1, q + hh * q1, r + hh * r1, u + hh * u1))
    x3, y3, v3, m3, c3, p3, q3, r3, u3 = rhs((
        x + hh * x2, y + hh * y2, v + hh * v2, m + hh * m2, c + hh * c2,
        p + hh * p2, q + hh * q2, r + hh * r2, u + hh * u2))
    x4, y4, v4, m4, c4, p4, q4, r4, u4 = rhs((
        x + h * x3, y + h * y3, v + h * v3, m + h * m3, c + h * c3,
        p + h * p3, q + h * q3, r + h * r3, u + h * u3))
    return (x + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
            y + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
            v + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
            m + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4),
            c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
            p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            q + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
            r + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
            u + h6 * (u1 + 2.0 * u2 + 2.0 * u3 + u4))


def _rk4(rhs, s0, t0: float, t1: float, n_steps: int):
    """Classical RK4 with n_steps fixed steps from t0 to t1 on the state
    (five components) or the joint state/co-state system (nine), as plain
    floats.

    Returns the state and `rhs.throttle` after every step.  A failing
    right-hand side or a non-finite or stalled state raises IntegrationError
    with the last good state.
    """
    s = tuple(map(float, s0))
    step = _step5 if len(s) == 5 else _step9
    call = rhs.__call__     # bound once, not looked up on the type per stage
    h = float(t1 - t0) / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    isfinite = math.isfinite
    states, throttles = [], []
    for k in range(n_steps):
        try:
            s_new = step(call, s, h, hh, h6)
        except Exception as exc:
            raise IntegrationError(t0 + k * h, str(exc), last_state=s) from exc
        if not (s_new[2] > 1.0 and all(map(isfinite, s_new))):
            raise IntegrationError(t0 + k * h + h,
                                   "non-finite or stalled state",
                                   last_state=s)
        s = s_new
        states.append(s)
        throttles.append(rhs.throttle)
    return states, throttles


def integrate_arcs(ctx: CruiseContext, schedule: ArcSchedule, x0, alpha: float,
                   pi_min: float, pi_max: float,
                   steps_per_arc: int = 400) -> Trajectory:
    """Integrate the bang / singular / bang trajectory for one schedule.

    `x0` is (x, y, v, m); heading starts at schedule.chi0.  Zero-length arcs
    are skipped, so a degenerate t1 == t2 schedule is pure bang-bang and the
    middle-arc feedback is never evaluated.  The result carries states,
    throttles and the clamp count; `diagnose` fills the rest.
    """
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

    # throttle at the initial sample reflects the first nonempty arc
    if schedule.t1 <= 1e-12:
        throttles[0] = throttles[1] if len(throttles) > 1 else pi_min

    return Trajectory(
        t=np.array(times),
        states=np.array(samples),
        throttle=np.array(throttles, dtype=float),
        arc_id=np.array(arc_ids),
        clamp_count=sing.clamps,
    )


def _singular_costates(ctx: CruiseContext, traj: Trajectory,
                       schedule: ArcSchedule, alpha: float):
    """The algebraic co-state at the t1 junction sample and at each singular
    sample, as (index of the junction sample, list of co-states).

    Raises when the weight or the schedule leaves no co-state to
    reconstruct, and, through the determinant guard of the solve, at an
    ill-conditioned sample.
    """
    if alpha <= 0.0:
        raise ValidationError("co-state reconstruction requires alpha > 0")
    # Python ints: a NumPy step count would turn the sweeps' step size, and
    # with it all their arithmetic, into slower NumPy scalars
    mid = np.flatnonzero(traj.arc_id == 1).tolist()
    # a singular arc of 1e-12 s or less is skipped by the rollout
    if not (schedule.t1 < schedule.t2 and mid):
        raise ValidationError("co-state reconstruction requires a singular arc")
    first = mid[0] - 1 if mid[0] > 0 else 0
    lams = [solve_costates_on_singular(ctx, x, y, v, m, chi, alpha).as_tuple()
            for x, y, v, m, chi in traj.states[first:mid[-1] + 1]]
    return first, lams


def _final_arc_costates(ctx: CruiseContext, traj: Trajectory,
                        schedule: ArcSchedule, j: int, lam_j,
                        pi_min: float) -> list:
    """Co-states at the samples after j, the last singular sample, from the
    joint state/co-state sweep forward over the final bang arc; empty when
    that arc has zero length."""
    if not (np.any(traj.arc_id == 2) and schedule.tf - schedule.t2 > 1e-12):
        return []
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    chain, _ = _rk4(_Rhs(ctx, pi_end), (*traj.states[j], *lam_j),
                    traj.t[j], traj.t[-1], len(traj.t) - 1 - j)
    return [st[5:] for st in chain]


def reconstruct_costates(ctx: CruiseContext, traj: Trajectory,
                         schedule: ArcSchedule, alpha: float,
                         pi_min: float, pi_max: float) -> Trajectory:
    """Fill the co-state samples of a converged trajectory.

    On the singular arc the co-state comes from the algebraic solve at each
    sample; the bang arcs are covered by integrating the joint
    state/co-state system backward from t1 and forward from t2.
    """
    first, lams = _singular_costates(ctx, traj, schedule, alpha)
    last = first + len(lams) - 1
    lam = np.full((len(traj.t), 4), np.nan)
    lam[first:last + 1] = lams

    # backward sweep over the max-throttle arc
    if np.count_nonzero(traj.arc_id == 0) > 1 and schedule.t1 > 0.0:
        chain, _ = _rk4(_Rhs(ctx, pi_max), (*traj.states[first], *lams[0]),
                        traj.t[first], 0.0, first)
        lam[:first] = [st[5:] for st in reversed(chain)]

    tail = _final_arc_costates(ctx, traj, schedule, last, lams[-1], pi_min)
    if tail:
        lam[last + 1:] = tail
    traj.costates = lam
    return traj


def terminal_costate(ctx: CruiseContext, traj: Trajectory,
                     schedule: ArcSchedule, alpha: float, pi_min: float):
    """The co-state at tf, bit for bit as `reconstruct_costates` fills it,
    without the backward sweep over the first arc that it does not depend
    on: the singular-arc solves (and their determinant guard), then the
    forward sweep over the final arc."""
    first, lams = _singular_costates(ctx, traj, schedule, alpha)
    tail = _final_arc_costates(ctx, traj, schedule, first + len(lams) - 1,
                               lams[-1], pi_min)
    return (tail or lams)[-1]


def diagnose(ctx: CruiseContext, traj: Trajectory, alpha: float,
             pi_min: float, pi_max: float) -> None:
    """Fill the diagnostic columns of a realized trajectory in one pass.

    Every sample gets the equilibrated determinant, Mach and the envelope
    flag; singular-arc samples get the exact clamped feedback throttle at
    the stored state (the rollout stores the value of the last RK4 stage);
    samples with reconstructed co-states get S, H and the Legendre-Clebsch
    value.
    """
    n = len(traj.t)
    S, H, lc, det, mach = (np.full(n, np.nan) for _ in range(5))
    ok = np.zeros(n, dtype=bool)
    lams = (np.full((n, 4), np.nan) if traj.costates is None
            else traj.costates).tolist()
    for i, (x, y, v, m, chi) in enumerate(traj.states.tolist()):
        if traj.arc_id[i] == 1:
            fb = evaluate_feedback(ctx, x, y, v, m, chi, alpha)
            traj.throttle[i] = min(max(fb.throttle, pi_min), pi_max)
        det[i] = scaled_det(ctx, x, y, v, m, chi)
        env = check_envelope(ctx.model, ctx.atm, v, ctx.h)
        mach[i], ok[i] = env.mach, env.ok
        li = lams[i]
        if not all(map(math.isfinite, li)):
            continue
        S[i] = switching_function(ctx, v, m, li)
        H[i] = hamiltonian(ctx, x, y, v, m, chi, traj.throttle[i], li)
        lc[i] = legendre_clebsch(ctx, x, y, v, m, chi, li)
    traj.S, traj.H, traj.lc, traj.detM = S, H, lc, det
    traj.mach, traj.envelope_ok = mach, ok
