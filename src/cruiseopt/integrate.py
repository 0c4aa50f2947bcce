"""Fixed-structure trajectory integration over the three-arc partition.

The throttle is max on [0, t1), in singular feedback on [t1, t2], and bang
on (t2, tf]: min by default, max when the terminal speed target sits above
the singular-arc speed and the last arc must accelerate.  The five-state
system (x, y, v, m, chi) is integrated with classical RK4 at fixed steps per
arc; switch times are decision variables of the outer NLP, so arcs are
integrated independently with endpoints aligned to the switches and no event
detection is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atmosphere import check_envelope
from .dynamics import CruiseContext, eval_P, eval_Q, zermelo_rhs
from .errors import IntegrationError, ValidationError
from .pmp import (
    costate_rhs,
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

    Diagnostic columns are NaN until co-states have been reconstructed.
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
            self.envelope_ok = np.ones(n, dtype=bool)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_mass(self) -> float:
        return float(self.states[-1, 3])


def _rhs_bang(ctx: CruiseContext, s, throttle: float):
    x, y, v, m, chi = s
    q = eval_Q(ctx, x, y, v, m, chi)
    p = eval_P(ctx, v, m)
    grads = ctx.wind.wind_gradients(x, y)
    return (
        q[0] + throttle * p[0],
        q[1] + throttle * p[1],
        q[2] + throttle * p[2],
        q[3] + throttle * p[3],
        zermelo_rhs(chi, grads),
    )


class _SingularRhs:
    """Middle-arc RHS; the throttle comes from the co-state feedback and is
    clamped to the admissible interval, counting clamp events."""

    def __init__(self, ctx: CruiseContext, alpha: float, pi_min: float,
                 pi_max: float):
        self.ctx = ctx
        self.alpha = alpha
        self.pi_min = pi_min
        self.pi_max = pi_max
        self.clamps = 0
        self.last_throttle = math.nan

    def throttle_at(self, x, y, v, m, chi) -> float:
        fb = evaluate_feedback(self.ctx, x, y, v, m, chi, self.alpha)
        pi = fb.throttle
        if pi < self.pi_min or pi > self.pi_max:
            self.clamps += 1
            pi = min(max(pi, self.pi_min), self.pi_max)
        self.last_throttle = pi
        return pi

    def __call__(self, s):
        x, y, v, m, chi = s
        pi = self.throttle_at(x, y, v, m, chi)
        q = eval_Q(self.ctx, x, y, v, m, chi)
        p = eval_P(self.ctx, v, m)
        grads = self.ctx.wind.wind_gradients(x, y)
        return (
            q[0] + pi * p[0],
            q[1] + pi * p[1],
            q[2] + pi * p[2],
            q[3] + pi * p[3],
            zermelo_rhs(chi, grads),
        )


def _rk4_arc(rhs, s0, t0: float, t1: float, n_steps: int, record):
    """Classical RK4 with n_steps fixed steps from t0 to t1.

    `record(t, s)` is called after every accepted step.
    """
    s = tuple(s0)
    h = (t1 - t0) / n_steps
    for k in range(n_steps):
        t = t0 + k * h
        try:
            k1 = rhs(s)
            s2 = tuple(s[i] + 0.5 * h * k1[i] for i in range(5))
            k2 = rhs(s2)
            s3 = tuple(s[i] + 0.5 * h * k2[i] for i in range(5))
            k3 = rhs(s3)
            s4 = tuple(s[i] + h * k3[i] for i in range(5))
            k4 = rhs(s4)
        except IntegrationError:
            raise
        except Exception as exc:
            raise IntegrationError(t, str(exc), last_state=s) from exc
        prev = s
        s = tuple(
            s[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(5)
        )
        if not all(math.isfinite(si) for si in s) or s[2] <= 1.0:
            raise IntegrationError(t + h, "non-finite or stalled state",
                                   last_state=prev)
        record(t0 + (k + 1) * (t1 - t0) / n_steps, s)
    return s


def integrate_arcs(ctx: CruiseContext, schedule: ArcSchedule, x0, alpha: float,
                   pi_min: float, pi_max: float,
                   steps_per_arc: int = 400) -> Trajectory:
    """Integrate the bang / singular / bang trajectory for one schedule.

    `x0` is (x, y, v, m); heading starts at schedule.chi0.  Zero-length arcs
    are skipped, so a degenerate t1 == t2 schedule is pure bang-bang and the
    middle-arc feedback is never evaluated.
    """
    times = [0.0]
    samples = [(x0[0], x0[1], x0[2], x0[3], schedule.chi0)]
    throttles = [pi_max if schedule.t1 > 0.0 else math.nan]
    arc_ids = [0]
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    sing = _SingularRhs(ctx, alpha, pi_min, pi_max)

    def make_recorder(arc: int, pi_value):
        def rec(t, s):
            times.append(t)
            samples.append(s)
            throttles.append(pi_value() if callable(pi_value) else pi_value)
            arc_ids.append(arc)
        return rec

    s = samples[0]
    spans = [
        (0.0, schedule.t1, 0),
        (schedule.t1, schedule.t2, 1),
        (schedule.t2, schedule.tf, 2),
    ]
    for ta, tb, arc in spans:
        if tb - ta <= 1e-12:
            continue
        if arc == 0:
            s = _rk4_arc(lambda st: _rhs_bang(ctx, st, pi_max), s, ta, tb,
                         steps_per_arc, make_recorder(0, pi_max))
        elif arc == 1:
            s = _rk4_arc(sing, s, ta, tb, steps_per_arc,
                         make_recorder(1, lambda: sing.last_throttle))
        else:
            s = _rk4_arc(lambda st: _rhs_bang(ctx, st, pi_end), s, ta, tb,
                         steps_per_arc, make_recorder(2, pi_end))

    # throttle at the initial sample reflects the first nonempty arc
    if schedule.t1 <= 1e-12:
        throttles[0] = throttles[1] if len(throttles) > 1 else pi_min

    traj = Trajectory(
        t=np.array(times),
        states=np.array(samples),
        throttle=np.array(throttles, dtype=float),
        arc_id=np.array(arc_ids),
        clamp_count=sing.clamps,
    )
    _fill_envelope(ctx, traj)
    return traj


def _fill_envelope(ctx: CruiseContext, traj: Trajectory) -> None:
    mach = np.empty(len(traj.t))
    ok = np.empty(len(traj.t), dtype=bool)
    for i, s in enumerate(traj.states):
        rep = check_envelope(ctx.model, ctx.atm, float(s[2]), ctx.h)
        mach[i] = rep.mach
        ok[i] = rep.ok
    traj.mach = mach
    traj.envelope_ok = ok


def refine_singular_throttle(ctx: CruiseContext, traj: Trajectory,
                             alpha: float, pi_min: float,
                             pi_max: float) -> None:
    """Replace stored singular-arc throttle samples with the exact feedback
    value at each stored state (the integrator stores the last stage value)."""
    for i in np.where(traj.arc_id == 1)[0]:
        x, y, v, m, chi = traj.states[i]
        fb = evaluate_feedback(ctx, x, y, v, m, chi, alpha)
        traj.throttle[i] = min(max(fb.throttle, pi_min), pi_max)


def _rhs_with_costate(ctx: CruiseContext, s, throttle: float):
    """RHS of the joint (state, heading, co-state) system on a bang arc."""
    x, y, v, m, chi = s[:5]
    lam = s[5:]
    base = _rhs_bang(ctx, s[:5], throttle)
    lrhs = costate_rhs(ctx, x, y, v, m, chi, throttle, lam)
    return base + lrhs


def _rk4_joint(ctx, s0, throttle, t0, t1, n_steps):
    """Integrate the 9-dim joint system, returning co-states at each node."""
    s = tuple(s0)
    out = [s]
    h = (t1 - t0) / n_steps
    for k in range(n_steps):
        k1 = _rhs_with_costate(ctx, s, throttle)
        s2 = tuple(s[i] + 0.5 * h * k1[i] for i in range(9))
        k2 = _rhs_with_costate(ctx, s2, throttle)
        s3 = tuple(s[i] + 0.5 * h * k2[i] for i in range(9))
        k3 = _rhs_with_costate(ctx, s3, throttle)
        s4 = tuple(s[i] + h * k3[i] for i in range(9))
        k4 = _rhs_with_costate(ctx, s4, throttle)
        s = tuple(
            s[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(9)
        )
        out.append(s)
    return out


def reconstruct_costates(ctx: CruiseContext, traj: Trajectory,
                         schedule: ArcSchedule, alpha: float,
                         pi_min: float, pi_max: float) -> Trajectory:
    """Fill co-state samples and diagnostics on a converged trajectory.

    On the singular arc the co-state comes from the algebraic solve at each
    sample; the bang arcs are covered by integrating the joint
    state/co-state system backward from t1 and forward from t2.
    """
    if alpha <= 0.0:
        raise ValidationError("co-state reconstruction requires alpha > 0")
    if not schedule.t1 < schedule.t2:
        raise ValidationError("co-state reconstruction requires a singular arc")
    n = len(traj.t)
    lam = np.full((n, 4), np.nan)
    mid = np.where(traj.arc_id == 1)[0]
    first_mid = mid[0] - 1 if mid[0] > 0 else 0
    mid_idx = list(range(first_mid, mid[-1] + 1))  # includes the t1 junction
    for i in mid_idx:
        x, y, v, m, chi = traj.states[i]
        cs = solve_costates_on_singular(ctx, x, y, v, m, chi, alpha)
        lam[i] = cs.as_tuple()

    # backward sweep over the max-throttle arc
    pre = np.where(traj.arc_id == 0)[0]
    if len(pre) > 1 and schedule.t1 > 0.0:
        j = mid_idx[0]
        s0 = tuple(traj.states[j]) + tuple(lam[j])
        chain = _rk4_joint(ctx, s0, pi_max, traj.t[j], 0.0, j)
        for k, st in enumerate(chain):
            lam[j - k] = st[5:]

    # forward sweep over the final bang arc
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    post = np.where(traj.arc_id == 2)[0]
    if len(post) > 0 and schedule.tf - schedule.t2 > 1e-12:
        j = mid_idx[-1]
        s0 = tuple(traj.states[j]) + tuple(lam[j])
        chain = _rk4_joint(ctx, s0, pi_end, traj.t[j], traj.t[-1], n - 1 - j)
        for k, st in enumerate(chain):
            lam[j + k] = st[5:]

    traj.costates = lam
    _fill_diagnostics(ctx, traj, alpha, pi_min, pi_max)
    return traj


def _fill_diagnostics(ctx: CruiseContext, traj: Trajectory, alpha: float,
                      pi_min: float, pi_max: float) -> None:
    n = len(traj.t)
    S = np.full(n, np.nan)
    H = np.full(n, np.nan)
    lc = np.full(n, np.nan)
    det = np.full(n, np.nan)
    for i in range(n):
        x, y, v, m, chi = traj.states[i]
        det[i] = scaled_det(ctx, x, y, v, m, chi)
        if traj.arc_id[i] == 1:
            # exact feedback throttle at the stored sample state
            fb = evaluate_feedback(ctx, x, y, v, m, chi, alpha)
            traj.throttle[i] = min(max(fb.throttle, pi_min), pi_max)
        li = traj.costates[i]
        if not np.all(np.isfinite(li)):
            continue
        S[i] = switching_function(ctx, v, m, li)
        pi = traj.throttle[i]
        if math.isnan(pi):
            pi = 0.0
        H[i] = hamiltonian(ctx, x, y, v, m, chi, pi, li)
        lc[i] = legendre_clebsch(ctx, x, y, v, m, chi, li)
    traj.S, traj.H, traj.lc, traj.detM = S, H, lc, det
