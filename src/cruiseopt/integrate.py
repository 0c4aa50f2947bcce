"""Fixed-structure trajectory integration over the three-arc partition.

The throttle is max on [0, t1), in singular feedback on [t1, t2], and bang
on (t2, tf]: min by default, max when the terminal speed target sits above
the singular-arc speed and the last arc must accelerate.  The five-state
system (x, y, v, m, chi) is integrated with classical RK4 at fixed steps per
arc; switch times are decision variables of the outer NLP, so arcs are
integrated independently with endpoints aligned to the switches and no event
detection is needed.

One RK4 stepper and one right-hand side serve every arc and both uses: the
state rollout and the joint state/co-state sweep that reconstructs the
co-states on the bang arcs.  Each RK4 stage looks the wind and its
gradients up once.  A rollout records states and throttles only; one
diagnostics pass over a realized trajectory (`diagnose`) fills the exact
singular throttle, the switching function, Hamiltonian, Legendre-Clebsch
value, determinant, Mach number and envelope flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atmosphere import check_envelope
from .dynamics import CruiseContext, eval_F, zermelo_rhs
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

    The wind and its gradients are looked up once per call and feed the
    dynamics F = Q + pi P, the heading rate, the singular feedback and the
    co-state equation.  `throttle` is the bang level; given a cost weight
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
    plain floats of any length.

    Returns the state and `rhs.throttle` after every step.  A failing
    right-hand side or a non-finite or stalled state raises IntegrationError
    with the last good state.
    """
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


def reconstruct_costates(ctx: CruiseContext, traj: Trajectory,
                         schedule: ArcSchedule, alpha: float,
                         pi_min: float, pi_max: float) -> Trajectory:
    """Fill the co-state samples of a converged trajectory.

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
        chain, _ = _rk4(_Rhs(ctx, pi_max), np.append(traj.states[j], lam[j]),
                        traj.t[j], 0.0, j)
        for k, st in enumerate(chain, 1):
            lam[j - k] = st[5:]

    # forward sweep over the final bang arc
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
