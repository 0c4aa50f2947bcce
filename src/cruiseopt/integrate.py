"""Fixed-structure trajectory integration over the three-arc partition.

The throttle is max on [0, t1), in singular feedback on [t1, t2], and bang
on (t2, tf]: min by default, max when the terminal speed target sits above
the singular-arc speed and the last arc must accelerate.  The five-state
system (x, y, v, m, chi) is integrated with classical RK4 at fixed steps per
arc; switch times are unknowns of the shooting solve, so arcs are
integrated independently with endpoints aligned to the switches and no event
detection is needed.

One RK4 stepper and one right-hand side serve every arc.  The stepper works
on plain floats with its stages and update written out per component, and
passes the right-hand side five floats, in the operation order of the
generic tuple form it replaced, so results are bit-identical to it.  Each
stage makes one fused lookup of the wind and its gradients
(`wind_and_gradients`), which feeds the dynamics, the heading rate and the
singular feedback.  A rollout records states and throttles only: each
sample holds the throttle of the step it starts, on the singular arc the
clamped feedback of that step's first stage.

After a rollout the closed forms run once per arc on NumPy arrays, not once
per sample.  The algebraic co-state on the singular arc is one
`solve_costates_on_singular` call on the arc's state columns.  It seeds the
co-state sweeps over the bang arcs, which integrate the adjoint equation
alone along the stored states, backward over the first arc and forward
over the last, so no state is integrated twice or backward.  What a sweep
needs besides the co-state (`pmp.costate_coefficients`) is array
expressions over its arc; only the adjoint's RK4 recurrence, its stage
rates written out, loops on plain floats.  The diagnostics pass
(`diagnose`) evaluates the feedback at the singular arc's last sample only,
then computes the determinant, Mach number, envelope flags, switching
function, Hamiltonian and Legendre-Clebsch value as array expressions.

The shooting residual reads only the co-state at tf, so `terminal_costates`
runs just the singular-arc solve and the forward sweep over the final arc,
for a batch of rollouts at once: the perturbed rollouts of a Jacobian.  It
makes one `solve_costates_on_singular` call over the singular samples of
every rollout, and one array pass of the sweep's co-state-free terms over
the final arcs that share a sample count and a level, stacked; then each
rollout's adjoint recurrence runs on plain floats.  Every result has the
bits of the rollout's co-state alone, and `terminal_costate` is the batch
of one.  The shooting solve's central differences move one unknown at a
time, so a perturbed rollout can take over the leading arcs it shares with
the unperturbed one (`integrate_arcs(..., reuse=...)`, `shared_arcs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atmosphere import check_envelope
from .dynamics import CruiseContext, eval_P, eval_Q
from .errors import IntegrationError, ValidationError
from .pmp import (
    costate_coefficients,
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
    """Right-hand side of the state (x, y, v, m, chi).

    The wind and its gradients come from one lookup per call, through the
    wind field's `wind_and_gradients` bound at construction, and feed the
    dynamics F = Q + pi P, the heading rate and the singular feedback.  F
    and the heading rate are written out here, with the context's constants
    bound at construction, in the operation order of `dynamics.eval_F` and
    `dynamics.zermelo_rhs`: rollouts match those point evaluations bit for
    bit without their calls.  `throttle` is the bang level; given a cost
    weight `alpha`, the throttle comes instead from the singular feedback,
    clamped to [pi_min, pi_max] with clamp events counted, and `throttle`
    holds the value of the last call.
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
        self._wind = ctx.wind.wind_and_gradients
        self._consts = (ctx.qs_coeff, ctx.ind_coeff, ctx.T_max,
                        ctx.model.C_s1, ctx.model.C_s2)

    def __call__(self, x, y, v, m, chi):
        wg = self._wind(x, y)
        pi = self.throttle
        if self.alpha is not None:
            pi = evaluate_feedback(self.ctx, x, y, v, m, chi, self.alpha, wg)
            if pi < self.pi_min or pi > self.pi_max:
                self.clamps += 1
                pi = min(max(pi, self.pi_min), self.pi_max)
            self.throttle = pi
        qs, ind, tmax, cs1, cs2 = self._consts
        wx, wy, wxx, wxy, wyx, wyy = wg
        sn, c = math.sin(chi), math.cos(chi)
        drag = qs * v * v + ind * m * m / (v * v)
        return (v * c + wx,
                v * sn + wy,
                -drag / m + pi * (tmax / m),
                pi * (-(cs1 * (1.0 + v / cs2)) * tmax),
                sn * sn * wyx + sn * c * (wxx - wyy) - c * c * wxy)


def _rk4(rhs, s0, t0: float, t1: float, n_steps: int):
    """Classical RK4 with n_steps fixed steps from t0 to t1 on the state, as
    plain floats: the state after every step, and `rhs.throttle` at the
    first stage of every step, which is the throttle at the state the step
    starts from.  Stages are written out per component (x, y, v, m, chi as
    x, y, v, m, c; x2 is the x rate at the second stage).  A failing
    right-hand side or a non-finite or stalled state raises
    IntegrationError with the last good state.
    """
    s = tuple(map(float, s0))
    call = rhs.__call__     # bound once, not looked up on the type per stage
    h = float(t1 - t0) / n_steps
    hh, h6 = 0.5 * h, h / 6.0
    isfinite = math.isfinite
    states, throttles = [], []
    for k in range(n_steps):
        x, y, v, m, c = s
        try:
            x1, y1, v1, m1, c1 = call(x, y, v, m, c)
            throttles.append(rhs.throttle)
            x2, y2, v2, m2, c2 = call(x + hh * x1, y + hh * y1, v + hh * v1,
                                      m + hh * m1, c + hh * c1)
            x3, y3, v3, m3, c3 = call(x + hh * x2, y + hh * y2, v + hh * v2,
                                      m + hh * m2, c + hh * c2)
            x4, y4, v4, m4, c4 = call(x + h * x3, y + h * y3, v + h * v3,
                                      m + h * m3, c + h * c3)
        except Exception as exc:
            raise IntegrationError(t0 + k * h, str(exc), last_state=s) from exc
        s_new = (x + h6 * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
                 y + h6 * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
                 v + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
                 m + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4),
                 c + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4))
        if not (s_new[2] > 1.0 and all(map(isfinite, s_new))):
            raise IntegrationError(t0 + k * h + h,
                                   "non-finite or stalled state",
                                   last_state=s)
        s = s_new
        states.append(s)
    return states, throttles


def _costate_sweep(ctx: CruiseContext, throttle: float, t, states, lam):
    """Classical RK4 on the co-state alone along the stored samples of one
    bang arc, from `lam` at the first sample: forward when the sample times
    `t` rise, backward when they fall.  Each step takes its end states from
    the samples and its midpoint state from their cubic Hermite interpolant
    (s_a + s_b)/2 + h/8 (f_a - f_b), fourth order like the rollout, with
    the state rates f at the arc's constant `throttle`.  The rates, the
    midpoints and the adjoint coefficients at samples and midpoints do not
    depend on the co-state: they are array expressions over the arc.  Only
    the adjoint's RK4 recurrence steps sample by sample, on plain floats.
    Returns the co-states at the samples after the first, as tuples of
    plain floats.  A non-finite co-state raises IntegrationError with its
    time and the last finite one.

    Given a stack of k arcs of n samples each, flown at the same level
    (`t` of shape (k, n), `states` (k, n, 5), one seed co-state per arc),
    the co-state-free terms are one array pass over all k arcs, the
    recurrence runs arc by arc, and the result is the list of the k arcs'
    co-states.
    """
    stacked = np.ndim(t) == 2
    t = np.atleast_2d(t)
    k, n = t.shape
    states = np.reshape(states, (k, n, 5))
    x, y, v, m, chi = states.reshape(-1, 5).T
    grads = ctx.wind.wind_gradients(x, y)
    wxx, wxy, wyx, wyy = grads
    fq, fp = eval_Q(ctx, x, y, v, m, chi), eval_P(ctx, v, m)
    sn, c = np.sin(chi), np.cos(chi)
    rates = np.column_stack((
        fq[0], fq[1], fq[2] + throttle * fp[2], throttle * fp[3],
        sn * sn * wyx + sn * c * (wxx - wyy) - c * c * wxy)).reshape(k, n, 5)
    dt = np.diff(t)
    mid = (0.5 * (states[:, :-1] + states[:, 1:])
           + (dt / 8.0)[..., None] * (rates[:, :-1] - rates[:, 1:])
           ).reshape(-1, 5).T
    # rows of plain floats per arc; a constant wind's gradients are scalars
    k_sample, k_mid = (
        np.column_stack(np.broadcast_arrays(*co)).reshape(k, -1, 9).tolist()
        for co in (
            costate_coefficients(ctx, v, m, chi, grads, throttle),
            costate_coefficients(ctx, *mid[2:],
                                 ctx.wind.wind_gradients(*mid[:2]), throttle)))
    seeds = np.reshape(lam, (k, 4)).tolist()
    chains = [_adjoint_chain(*arc) for arc in zip(
        t[:, 1:].tolist(), dt.tolist(), k_sample, k_mid, seeds)]
    return chains if stacked else chains[0]


def _adjoint_chain(t, dt, k_sample, k_mid, lam):
    """The adjoint's RK4 recurrence of `_costate_sweep` over one arc, on
    plain floats: `t` the sample times after the first, `dt` the steps and
    the adjoint coefficients at the samples and the step midpoints.  Each
    stage's rate is written out from the nine coefficients of its point
    (wind gradients xx, xy, yx, yy, cosine, sine, vv, vm, mm), suffixed a
    at a step's first sample, m at its midpoint, b at its last sample."""
    p, q, r, u = lam
    out = []
    for tb, h, ka, km, kb in zip(t, dt, k_sample, k_mid, k_sample[1:]):
        xxa, xya, yxa, yya, ca, sa, vva, vma, mma = ka
        xxm, xym, yxm, yym, cm, sm, vvm, vmm, mmm = km
        xxb, xyb, yxb, yyb, cb, sb, vvb, vmb, mmb = kb
        hh, h6 = 0.5 * h, h / 6.0
        p1, q1 = -(p * xxa + q * yxa), -(p * xya + q * yya)
        r1, u1 = -(p * ca + q * sa + r * vva + u * vma), -(r * mma)
        lx, ly, lv, lm = p + hh * p1, q + hh * q1, r + hh * r1, u + hh * u1
        p2, q2 = -(lx * xxm + ly * yxm), -(lx * xym + ly * yym)
        r2, u2 = -(lx * cm + ly * sm + lv * vvm + lm * vmm), -(lv * mmm)
        lx, ly, lv, lm = p + hh * p2, q + hh * q2, r + hh * r2, u + hh * u2
        p3, q3 = -(lx * xxm + ly * yxm), -(lx * xym + ly * yym)
        r3, u3 = -(lx * cm + ly * sm + lv * vvm + lm * vmm), -(lv * mmm)
        lx, ly, lv, lm = p + h * p3, q + h * q3, r + h * r3, u + h * u3
        p4, q4 = -(lx * xxb + ly * yxb), -(lx * xyb + ly * yyb)
        r4, u4 = -(lx * cb + ly * sb + lv * vvb + lm * vmb), -(lv * mmb)
        new = (p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
               q + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
               r + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
               u + h6 * (u1 + 2.0 * u2 + 2.0 * u3 + u4))
        if not all(map(math.isfinite, new)):
            raise IntegrationError(tb, "non-finite co-state",
                                   last_state=(p, q, r, u))
        p, q, r, u = new
        out.append(new)
    return out


def _arc_times(t_last: float, ta: float, tb: float, steps: int):
    """The sample times of the arc [ta, tb] at `steps` RK4 steps, or None
    when the rollout skips it as empty: when it lasts 1e-12 s or less, or
    when its samples do not rise strictly past `t_last`, the sample before
    the arc, and each other in double precision (an arc of a few
    picoseconds late in the flight)."""
    if tb - ta <= 1e-12:
        return None
    ts = [ta + (k + 1) * (tb - ta) / steps for k in range(steps)]
    if not all(a < b for a, b in zip([t_last, *ts], ts)):
        return None
    return ts


def shared_arcs(a: ArcSchedule, b: ArcSchedule) -> int:
    """How many leading arcs two schedules of one problem roll out alike:
    the first arc needs the same heading and t1, the singular arc also the
    same t2, and the final arc also the same tf and bang level."""
    keys_a = ((a.chi0, a.t1), a.t2, (a.tf, a.final_throttle))
    keys_b = ((b.chi0, b.t1), b.t2, (b.tf, b.final_throttle))
    n = 0
    while n < 3 and keys_a[n] == keys_b[n]:
        n += 1
    return n


def integrate_arcs(ctx: CruiseContext, schedule: ArcSchedule, x0, alpha: float,
                   pi_min: float, pi_max: float, steps_per_arc: int = 400,
                   reuse: tuple[ArcSchedule, Trajectory] | None = None
                   ) -> Trajectory:
    """Integrate the bang / singular / bang trajectory for one schedule.

    `x0` is (x, y, v, m); heading starts at schedule.chi0.  Empty arcs (see
    `_arc_times`) are skipped, so a degenerate t1 == t2 schedule is pure
    bang-bang and the middle-arc feedback is never evaluated.  The result
    carries states, throttles and the clamp count; `diagnose` fills the
    rest.

    `reuse` is another schedule of the same problem (the same `x0`, weight,
    throttle bounds and steps per arc) with its rollout: the leading arcs
    the two schedules share (`shared_arcs`) are taken over from it
    unchanged, with the singular arc's clamp count, and only the arcs after
    them are integrated.  The result is the same, bit for bit, as rolling
    the schedule out from scratch.
    """
    pi_end = pi_min if schedule.final_throttle is None else schedule.final_throttle
    sing = _Rhs(ctx, math.nan, alpha, pi_min, pi_max)
    arcs = ((0.0, schedule.t1, _Rhs(ctx, pi_max)),
            (schedule.t1, schedule.t2, sing),
            (schedule.t2, schedule.tf, _Rhs(ctx, pi_end)))
    kept = 0 if reuse is None else shared_arcs(reuse[0], schedule)
    if kept:
        base = reuse[1]
        n = int(np.searchsorted(base.arc_id, kept))  # samples of those arcs
        times = base.t[:n].tolist()
        samples = base.states[:n].tolist()
        throttles = base.throttle[:n].tolist()
        arc_ids = base.arc_id[:n].tolist()
        if kept > 1:
            sing.clamps = base.clamp_count
    else:
        times = [0.0]
        samples = [(x0[0], x0[1], x0[2], x0[3], schedule.chi0)]
        throttles = [pi_min]    # until the first nonempty arc sets it
        arc_ids = [0]
    for arc, (ta, tb, rhs) in enumerate(arcs[kept:], kept):
        arc_times = _arc_times(times[-1], ta, tb, steps_per_arc)
        if arc_times is None:
            continue
        states, pis = _rk4(rhs, samples[-1], ta, tb, steps_per_arc)
        # each sample holds the throttle of the step it starts, an arc's
        # last sample its last stage's (`diagnose` fixes the singular one)
        if len(samples) == 1:
            throttles[0] = pis[0]
        times.extend(arc_times)
        samples.extend(states)
        throttles.extend(pis[1:])
        throttles.append(rhs.throttle)
        arc_ids.extend([arc] * steps_per_arc)

    return Trajectory(
        t=np.array(times),
        states=np.array(samples),
        throttle=np.array(throttles, dtype=float),
        arc_id=np.array(arc_ids),
        clamp_count=sing.clamps,
    )


def _singular_span(traj: Trajectory, schedule: ArcSchedule,
                   alpha: float) -> tuple[int, int]:
    """The samples that get the algebraic co-state, as (the t1 junction
    sample, one past the last singular sample).  Raises when the weight or
    the schedule leaves no co-state to reconstruct."""
    if alpha <= 0.0:
        raise ValidationError("co-state reconstruction requires alpha > 0")
    # Python ints: a NumPy step count would turn the sweeps' step size, and
    # with it all their arithmetic, into slower NumPy scalars
    mid = np.flatnonzero(traj.arc_id == 1).tolist()
    # the rollout skips an empty singular arc (see `_arc_times`)
    if not (schedule.t1 < schedule.t2 and mid):
        raise ValidationError("co-state reconstruction requires a singular arc")
    return (mid[0] - 1 if mid[0] > 0 else 0), mid[-1] + 1


def _singular_costates(ctx: CruiseContext, traj: Trajectory,
                       schedule: ArcSchedule, alpha: float):
    """The algebraic co-state at the t1 junction sample and at each singular
    sample, as (index of the junction sample, array of co-state rows), from
    one solve over the arc's state columns.

    Raises as `_singular_span` does, and, through the determinant guard of
    the solve, at an ill-conditioned sample.
    """
    first, stop = _singular_span(traj, schedule, alpha)
    x, y, v, m, chi = traj.states[first:stop].T
    lam = solve_costates_on_singular(ctx, x, y, v, m, chi, alpha)
    return first, np.column_stack(lam)


def reconstruct_costates(ctx: CruiseContext, traj: Trajectory,
                         schedule: ArcSchedule, alpha: float,
                         pi_min: float, pi_max: float) -> Trajectory:
    """Fill the co-state samples of a converged trajectory.

    On the singular arc the co-state comes from the algebraic solve over its
    samples; the bang arcs are covered by co-state sweeps along the stored
    states, backward from t1 and forward from t2.
    """
    first, lams = _singular_costates(ctx, traj, schedule, alpha)
    last = first + len(lams) - 1
    lam = np.full((len(traj.t), 4), np.nan)
    lam[first:last + 1] = lams

    # backward sweep over the max-throttle arc
    if np.count_nonzero(traj.arc_id == 0) > 1 and schedule.t1 > 0.0:
        chain = _costate_sweep(ctx, pi_max, traj.t[first::-1],
                               traj.states[first::-1], lams[0])
        lam[:first] = chain[::-1]

    # forward sweep over the final arc, at the level the rollout flew it
    if last + 1 < len(traj.t):
        lam[last + 1:] = _costate_sweep(ctx, float(traj.throttle[-1]),
                                        traj.t[last:], traj.states[last:],
                                        lams[-1])
    traj.costates = lam
    return traj


def terminal_costates(ctx: CruiseContext, rollouts, alpha: float) -> list:
    """The co-state at tf of each rollout of one problem, given as
    (schedule, trajectory) pairs, as a tuple of plain floats, bit for bit
    as `reconstruct_costates` fills it, without the backward sweep over the
    first arc that it does not depend on.

    The rollouts go through as one batch: one `solve_costates_on_singular`
    call over the singular-arc samples of them all, then one
    `_costate_sweep` forward over the final arcs that share a sample count
    and a level.  Any rollout that fails fails the batch, with the error
    it raises alone: no singular arc, a sample under the determinant guard,
    a non-finite co-state.
    """
    spans = [_singular_span(traj, sched, alpha) for sched, traj in rollouts]
    x, y, v, m, chi = np.concatenate([
        traj.states[a:b] for (a, b), (_, traj) in zip(spans, rollouts)]).T
    lams = np.column_stack(solve_costates_on_singular(ctx, x, y, v, m, chi,
                                                      alpha))
    ends = lams[np.cumsum([b - a for a, b in spans]) - 1].tolist()
    # the final arcs, each from its last singular sample, by sample count
    # and the level the rollout flew them at
    groups: dict[tuple[int, float], list] = {}
    for i, ((_, b), (_, traj)) in enumerate(zip(spans, rollouts)):
        if b < len(traj.t):
            key = (len(traj.t) - b, float(traj.throttle[-1]))
            groups.setdefault(key, []).append(
                (i, traj.t[b - 1:], traj.states[b - 1:]))
    for (_, level), arcs in groups.items():
        idx, t, states = zip(*arcs)
        seeds = [ends[i] for i in idx]
        if len(idx) == 1:       # one arc, not a stack of one
            chains = [_costate_sweep(ctx, level, t[0], states[0], seeds[0])]
        else:
            chains = _costate_sweep(ctx, level, np.stack(t),
                                    np.stack(states), seeds)
        for i, chain in zip(idx, chains):
            ends[i] = chain[-1]
    return [tuple(lam) for lam in ends]


def terminal_costate(ctx: CruiseContext, traj: Trajectory,
                     schedule: ArcSchedule, alpha: float):
    """The co-state at tf of one rollout: `terminal_costates` of a batch
    of one."""
    return terminal_costates(ctx, [(schedule, traj)], alpha)[0]


def diagnose(ctx: CruiseContext, traj: Trajectory, alpha: float,
             pi_min: float, pi_max: float) -> None:
    """Fill the diagnostic columns of a realized trajectory.

    The rollout records the clamped feedback throttle at every singular
    sample but the last, which starts no singular step; that one gets it
    here.  The rest is one pass of array expressions over all samples:
    every sample gets the equilibrated determinant, Mach and the envelope
    flag; samples with a finite reconstructed co-state row get S, H and
    the Legendre-Clebsch value.
    """
    mid = np.flatnonzero(traj.arc_id == 1)
    if len(mid):
        x, y, v, m, chi = traj.states[mid[-1]].tolist()
        pi = evaluate_feedback(ctx, x, y, v, m, chi, alpha)
        traj.throttle[mid[-1]] = min(max(pi, pi_min), pi_max)
    x, y, v, m, chi = traj.states.T
    traj.detM = scaled_det(ctx, x, y, v, m, chi)
    env = check_envelope(ctx.model, ctx.atm, v, ctx.h)
    traj.mach, traj.envelope_ok = env.mach, env.ok
    S, H, lc = (np.full(len(traj.t), np.nan) for _ in range(3))
    if traj.costates is not None:
        live = np.isfinite(traj.costates).all(axis=1)
        x, y, v, m, chi = traj.states[live].T
        lam, pi = traj.costates[live].T, traj.throttle[live]
        S[live] = switching_function(ctx, v, m, lam)
        H[live] = hamiltonian(ctx, x, y, v, m, chi, pi, lam)
        lc[live] = legendre_clebsch(ctx, x, y, v, m, chi, lam)
    traj.S, traj.H, traj.lc = S, H, lc
