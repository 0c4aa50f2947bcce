"""Switching-point solver: shoot on (chi0, t1, t2, tf) with feedback controls.

The throttle structure is max / singular / bang; the heading follows the
navigation ODE from chi0.  The unknowns close a square system: the scaled
terminal position and speed plus the endpoint condition on the mass
co-state, solved by a Levenberg-Marquardt shooting method from a fixed grid
of starts, tried in order until one closes.  Each shooting solve holds one
structure fixed, the level of the final bang arc included.  When the solve
with the start's final arc (idle) does not close, a second solve with the
other final arc (max throttle) starts from where the first one stopped.
For a constant wind field the initial heading drops out of the unknowns:
it is pinned by the endpoint geometry and the final time.  At zero cost
weight only the terminal conditions are solved and no co-state is computed:
closing the co-state condition there would take the determinant at t2 below
the guard of `pmp.solve_costates_on_singular`.

The Jacobian's central differences are taken at `_SEARCH_STEPS` (20) RK4
steps per arc, or at the solve's resolution when that is coarser, while
trial points and the closing test run at the solve's resolution: a
Newton-type iteration needs only an approximate Jacobian as long as its
residual is exact (Deuflhard, *Newton Methods for Nonlinear Problems*,
2004, ch. 2).  `Solution.n_fev`, like the `n_fev` in `solution.json`,
counts the rollouts at every resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dynamics import CruiseContext
from .errors import CruiseOptError, DegenerateGeometryError, ValidationError
from .integrate import (
    ArcSchedule,
    Trajectory,
    diagnose,
    integrate_arcs,
    reconstruct_costates,
    terminal_costates,
)
# unused here; the benchmark's tracer resolves the nlp.* spans through it
from .direct import solve_augmented_lagrangian  # noqa: F401
from .pmp import STATE_SCALES, TIME_SCALE
from .scenario import Scenario, make_context
from .wind import ConstantWind

_POS = STATE_SCALES[0]
_SPD = STATE_SCALES[2]


@dataclass(frozen=True)
class SolverOptions:
    steps: int = 400           # RK4 steps per arc for the returned trajectory

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(
                f"steps={self.steps}: need at least 1 step per arc")


@dataclass
class Solution:
    scenario: Scenario         # its alpha is the solution's cost weight
    schedule: ArcSchedule
    trajectory: Trajectory
    cost: float
    residuals: np.ndarray      # terminal (x, y, v) residuals, SI units
    converged: bool
    n_fev: int                 # shooting rollouts at every resolution
    start_index: int
    verification: "VerificationReport | None" = None


def chi0_constant_wind(scn: Scenario, tf: float) -> float:
    """Initial (and constant) heading pinned by endpoints, wind, and tf."""
    if not isinstance(scn.wind, ConstantWind):
        raise ValueError("constant-wind heading shortcut needs a ConstantWind")
    num = scn.yf - scn.wind.W_y * tf - scn.y0
    den = scn.xf - scn.wind.W_x * tf - scn.x0
    if num == 0.0 and den == 0.0:
        raise DegenerateGeometryError(
            "endpoints coincide after wind drift; heading undefined"
        )
    return math.atan2(num, den)


# central-difference step on the scaled unknowns, for the Jacobians that
# start each Levenberg-Marquardt solve and refresh its secant updates
_FD_STEP = 1e-7
# shortest arc the shooting solve keeps between ordered switch times, so
# that central differences stay inside the schedule domain; a final arc
# held there marks a collapsing final-arc structure
_ORDER_MARGIN = 20.0 * _FD_STEP
_FEAS_TOL = 1e-8            # on the scaled terminal residuals
_COSTATE_TOL = 1e-10        # on the endpoint co-state residual
_LM_MAX_ITER = 40           # trial steps per Levenberg-Marquardt solve
_LM_LAMBDA0 = 1e-6          # initial damping, relative to diag(J^T J)
# A structure is dropped when an accepted step with its final arc at the
# ordering margin keeps more than this share of the squared residual.
_STALL_RATIO = 0.98
# Below this cost weight the optimum sits against the degenerate co-state
# manifold (the mass co-state normalization saturates the determinant
# guard): the endpoint co-state equation is driven best-effort after
# feasibility, the asymptotic regime, and at zero weight not at all.
_ALPHA_ASYMPTOTIC = 1e-4
# From this cost weight up the singular arc collapses and the co-state
# equation closes from no start; the fourth condition pins the singular arc
# shut instead, which leaves max / bang switching.
_ALPHA_COLLAPSED = 0.9
# RK4 steps per arc of the coarse solve from a grid start, capped by the
# final resolution: it only has to land the fine solve in its basin.  Every
# central-difference Jacobian is taken at this resolution too, or at the
# solve's own when that is coarser: its columns agree with those at 40 and
# 200 steps to about 1e-7 relative.
_SEARCH_STEPS = 20


class _Rollout(NamedTuple):
    """A shooting point's schedule and its rollout."""
    schedule: ArcSchedule
    trajectory: Trajectory


class _LMShooting:
    """Levenberg-Marquardt shooting solve on the switching-point system of
    one arc structure.

    The square system of first-order conditions is the three scaled
    terminal residuals plus the endpoint condition on the mass co-state,
    lam_m(tf) = alpha - 1, which closes it exactly at the optimum.  The
    weight fixes this fourth condition once, at construction: in the
    asymptotic regime the co-state equation is driven only after a
    least-norm projection onto the terminal-condition manifold (the
    feasibility-only system is underdetermined), and at zero weight it is
    dropped (see `solve`); from `_ALPHA_COLLAPSED` up it is replaced by the
    collapsed-singular-arc condition.  Under a constant wind the heading is
    pinned by the endpoint geometry and tf, which makes the x and y
    residuals collinear: the fourth condition still supplies the missing
    along-track one.

    The Jacobian is taken by central differences (`_jacobian`) at the
    start of a solve and kept up to date by secant (Broyden) updates after
    accepted steps; new central differences are taken only when a step
    under a secant Jacobian is rejected.  They are taken at
    `_SEARCH_STEPS` RK4 steps per arc when the solve runs finer; trial
    points, the closing test and the secant updates stay at the solve's
    resolution.

    One instance shoots at one resolution with one final-arc level
    (`final_throttle`, None for idle): it decodes the scaled unknowns,
    which end in (t1, t2, tf), into schedules and counts the rollouts it
    spends in `n_fev`, whole or partial, at either resolution.  Trying the
    other final arc is another instance's solve (`_solve_start`).
    """

    def __init__(self, ctx: CruiseContext, scn: Scenario, steps: int,
                 final_throttle: float | None):
        self.ctx = ctx
        self.scn = scn
        self.steps = steps          # RK4 steps per arc
        self.final_throttle = final_throttle
        self.constant_wind = isinstance(scn.wind, ConstantWind)
        self.x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
        self.n_fev = 0              # rollouts spent
        # the fourth condition: the collapsed singular arc pinned shut,
        # none, the co-state equation after feasibility, or that equation
        self.fourth = ("pin" if scn.alpha >= _ALPHA_COLLAPSED
                       else "none" if scn.alpha == 0.0
                       else "asymptotic" if scn.alpha < _ALPHA_ASYMPTOTIC
                       else "costate")

    def decode(self, z) -> ArcSchedule | None:
        """The schedule of a scaled unknown vector, in plain floats; None
        when its times are out of order."""
        t1, t2, tf = (float(zi * TIME_SCALE) for zi in z[-3:])
        if self.constant_wind:
            if tf <= 0.0:
                return None
            chi0 = chi0_constant_wind(self.scn, tf)
        else:
            chi0 = float(z[0])
        if not 0.0 <= t1 <= t2 <= tf:
            return None
        return ArcSchedule(t1=t1, t2=t2, tf=tf, chi0=chi0,
                           final_throttle=self.final_throttle)

    def _nudge(self, z: np.ndarray) -> np.ndarray:
        """Pull switch times strictly inside the ordering constraints so
        central differences never leave the schedule domain."""
        z = np.array(z, dtype=float)
        t1, t2, tf = z[-3:]
        t1 = max(t1, _ORDER_MARGIN)
        tf = max(tf, 3.0 * _ORDER_MARGIN)
        t2 = min(max(t2, t1 + _ORDER_MARGIN), tf - _ORDER_MARGIN)
        t1 = min(t1, t2 - _ORDER_MARGIN)
        z[-3:] = t1, t2, tf
        return z

    def _rollout(self, z, steps: int, base: "_Rollout | None" = None):
        """The `_Rollout` of z at `steps` RK4 steps per arc, or None when
        its schedule or its rollout fails.  `base`, the rollout of another
        point at the same resolution, lends the leading arcs the two
        schedules share: the result is the same, bit for bit, as from
        scratch.  Every rollout tried counts in `n_fev`, whole or
        partial."""
        sched = self.decode(z)
        if sched is None:
            return None
        scn = self.scn
        reuse = None if base is None else (base.schedule, base.trajectory)
        self.n_fev += 1
        try:
            return _Rollout(sched, integrate_arcs(
                self.ctx, sched, self.x0, scn.alpha, scn.pi_min, scn.pi_max,
                steps_per_arc=steps, reuse=reuse))
        except CruiseOptError:
            return None

    def _residuals(self, zs, rollouts, square: bool):
        """The residual of each point of `zs` from its rollout: the scaled
        terminal residuals and, when `square`, the fourth condition, whose
        co-states at tf the rollouts get as one batch
        (`terminal_costates`); None when one of them fails."""
        scn = self.scn
        rs = []
        for ro in rollouts:
            fin = ro.trajectory.final_state
            rs.append(np.array([(fin[0] - scn.xf) / _POS,
                                (fin[1] - scn.yf) / _POS,
                                (fin[2] - scn.vf) / _SPD]))
        if not square:
            return rs
        if self.fourth == "pin":
            return [np.append(r, z[-2] - z[-3] - _ORDER_MARGIN)
                    for r, z in zip(rs, zs)]
        # Endpoint condition in the alpha-invariant normalized co-state
        # mu = lam / alpha (reconstructed with unit weight):
        # lam_m(tf) = alpha - 1 reads 1/mu_m(tf) = alpha/(alpha - 1),
        # which stays order one for every alpha and turns into the
        # degenerate-system condition 1/mu_m(tf) = 0 at alpha = 0.
        try:
            lams = terminal_costates(self.ctx, rollouts, 1.0)
        except CruiseOptError:
            return None
        target = scn.alpha / (scn.alpha - 1.0)
        out = []
        for r, lam in zip(rs, lams):
            mu_m = lam[3]
            if not math.isfinite(mu_m) or mu_m == 0.0:
                return None
            out.append(np.append(r, 1.0 / mu_m - target))
        return out

    def _shoot(self, z, square: bool, base: "_Rollout | None" = None):
        """(the residual of z, as `_residuals` gives it; the point's
        `_Rollout` at the solve's resolution), or (None, None) when the
        schedule, its rollout or its residual fails.  `base` is as for
        `_rollout`."""
        rollout = self._rollout(z, self.steps, base)
        if rollout is None:
            return None, None
        r = self._residuals([z], [rollout], square)
        return (None, None) if r is None else (r[0], rollout)

    def _jacobian(self, z, square: bool, rollout, search=None):
        """Central differences at `_SEARCH_STEPS` RK4 steps per arc, or at
        the solve's own resolution when that is not finer; None when a
        perturbed rollout or its residual fails.  A coarser Jacobian spends
        one rollout at z, which then stands in for `rollout`, the one at z
        at the solve's resolution, unless `search` is already that rollout.
        Each perturbed rollout takes over the arcs it shares with it: a t2
        column keeps the first arc, a tf column also the singular arc.  The
        perturbed rollouts get their co-states at tf as one batch."""
        steps = min(self.steps, _SEARCH_STEPS)
        if steps < self.steps:
            same = search is not None and search.schedule == rollout.schedule
            rollout = search if same else self._rollout(z, steps)
            if rollout is None:
                return None
        points, rollouts = [], []
        for dz in _FD_STEP * np.eye(len(z)):
            pair = [z + dz, z - dz]
            rollouts += [self._rollout(zp, steps, rollout) for zp in pair]
            if rollouts[-2] is None or rollouts[-1] is None:
                return None
            points += pair
        rs = self._residuals(points, rollouts, square)
        if rs is None:
            return None
        return np.column_stack([(rp - rm) / (2.0 * _FD_STEP)
                                for rp, rm in zip(rs[::2], rs[1::2])])

    def _levenberg_marquardt(self, z, square: bool, search=None):
        """Damped least-squares steps with the gain-ratio damping update
        of Nielsen (IMM-REP-1999-05) and the scaling D = diag(J^T J) of
        Moré (1978), taken from the last central-difference Jacobian.
        Trial points are projected back inside the schedule ordering, and
        the gain ratio compares the actual reduction with the one predicted
        for that projected step.

        After an accepted step the Jacobian gets the "good" Broyden update
        J += (y - J s) s^T / (s^T s) for the projected step s and the change
        y in the residual (Broyden, Math. Comp. 19 (1965); Nocedal & Wright
        §11.1), instead of new central differences.  Those are taken only
        when a step is rejected while J is such an update: the step is
        retried from the same point with the fresh Jacobian and the same
        damping.  The solve gives up on the final-arc structure when an
        accepted step leaves the final arc at the ordering margin and cuts
        the squared residual by less than 2 %.  Returns (z, residual,
        `_Rollout`) at the last accepted point; the residual and the
        rollout are None when the rollout at the start point fails."""
        r, rollout = self._shoot(z, square)
        if r is None:
            return z, None, None
        lam, nu, jac, secant = _LM_LAMBDA0, 2.0, None, False
        for _ in range(_LM_MAX_ITER):
            if _closed(r):
                break
            if jac is None:
                jac = self._jacobian(z, square, rollout, search)
                if jac is None:
                    break
                scale = np.sqrt(np.sum(jac * jac, axis=0))
                secant = False
            dz = np.linalg.lstsq(
                np.vstack([jac, np.diag(math.sqrt(lam) * scale)]),
                np.concatenate([-r, np.zeros(len(z))]), rcond=None)[0]
            z_try = self._nudge(z + dz)
            r_try, rollout_try = self._shoot(z_try, square)
            s = z_try - z
            pred = r @ r - np.sum((r + jac @ s) ** 2)
            gain = -1.0
            if r_try is not None and pred > 0.0:
                gain = (r @ r - r_try @ r_try) / pred
            if gain > 0.0:
                stalled = r_try @ r_try > _STALL_RATIO * (r @ r)
                jac = _broyden(jac, s, r_try - r)  # pred > 0: s is nonzero
                z, r, rollout, secant = z_try, r_try, rollout_try, True
                # z ends in (t2, tf): a final arc held at the margin
                if stalled and z[-1] - z[-2] <= 1.5 * _ORDER_MARGIN:
                    break
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
            elif secant:
                jac = None
            else:
                lam *= nu
                nu *= 2.0
        return z, r, rollout

    def solve(self, z0, search: "_Rollout | None" = None):
        """Solve from z0; returns (z, whether the system closed, the
        `_Rollout` at z or None when it failed); `search`, a rollout at
        `_SEARCH_STEPS`, serves a Jacobian at a point of its schedule.  In
        the asymptotic regime the terminal conditions are closed first and
        the co-state equation is then driven from there best-effort: the
        system counts as closed when the terminal conditions are.  At zero
        weight the solve ends there: the row 1/mu_m(tf), about 1e3 times the
        determinant at t2, cannot reach `_COSTATE_TOL` above `pmp.EPS_DET`."""
        z = self._nudge(z0)
        if self.fourth in ("pin", "costate"):
            z, r, rollout = self._levenberg_marquardt(z, True, search)
            return z, r is not None and _closed(r), rollout
        z, r, rollout = self._levenberg_marquardt(z, False, search)
        if r is None or self.fourth == "none":
            return z, r is not None and _closed(r), rollout
        z_opt, r_opt, rollout_opt = self._levenberg_marquardt(z, True, search)
        if r_opt is not None and _closed(r_opt[:3]):
            z, r, rollout = z_opt, r_opt, rollout_opt
        return z, _closed(r[:3]), rollout


def _broyden(jac: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The "good" Broyden update of `jac` for a step s that changed the
    residual by y: J + (y - J s) s^T / (s^T s), the least change to J (in
    the Frobenius norm) that satisfies the secant equation J s = y."""
    return jac + np.outer(y - jac @ s, s / (s @ s))


def _closed(r: np.ndarray) -> bool:
    """The stopping rule: terminal residuals, and the fourth condition
    when the system carries it."""
    return bool(np.max(np.abs(r[:3])) <= _FEAS_TOL
                and (len(r) == 3 or abs(r[3]) <= _COSTATE_TOL))


def _start_grid(scn: Scenario, constant_wind: bool) -> list[np.ndarray]:
    """The start grid in the fixed order the solve tries it: 18 starts, or
    6 under constant wind, where the heading is pinned.

    Final-time guesses scale the still-air great-circle time; the bang arcs
    start short because the idle deceleration arc stalls the aircraft if it
    is more than a few minutes long.
    """
    tf_base = scn.great_circle_distance() / scn.v0
    chi_base = math.atan2(scn.yf - scn.y0, scn.xf - scn.x0)
    starts = []
    for ftf in (0.9, 1.0, 1.1):
        tf = tf_base * ftf
        for f1, f2 in ((0.02, 0.97), (0.06, 0.99)):
            times = (f1 * tf / TIME_SCALE, f2 * tf / TIME_SCALE,
                     tf / TIME_SCALE)
            if constant_wind:
                starts.append(np.array(times))
            else:
                for dchi in (0.2, 0.0, -0.2):
                    starts.append(np.array([chi_base + dchi, *times]))
    return starts


def _solve_start(ctx: CruiseContext, scn: Scenario, z, final_throttle,
                 resolutions):
    """Shoot from one start at each resolution in turn (RK4 steps per arc),
    each from the result of the last, until one does not close.

    At each resolution the start's final arc (idle when `final_throttle` is
    None) is solved first.  When that does not close, a second solve with
    the other final arc (max throttle, or idle) starts from the first one's
    last iterate with its last arc cut short, and is kept only when it
    closes: a collapsing idle final arc means the terminal speed target sits
    above the singular-arc speed and the last arc must accelerate.  A solve
    gives up early once its final arc stalls at the ordering margin (see
    `_LMShooting._levenberg_marquardt`).  A solve at `_SEARCH_STEPS` hands
    its last rollout to the next resolution's first Jacobian, which would
    otherwise roll the same schedule out again.  Returns (the last kept
    solve's schedule, whether every resolution closed, the rollouts spent,
    its `_Rollout` at the last resolution tried or None)."""
    n_fev, search = 0, None
    for steps in resolutions:
        shooting = _LMShooting(ctx, scn, steps, final_throttle)
        z, closed, rollout = shooting.solve(z, search)
        n_fev += shooting.n_fev
        if not closed:
            other = scn.pi_max if final_throttle is None else None
            retry = _LMShooting(ctx, scn, steps, other)
            z_short = z.copy()
            z_short[-2] = z_short[-1] - 2e-3  # a short last arc
            z_retry, closed, rollout_retry = retry.solve(z_short)
            n_fev += retry.n_fev
            if not closed:
                break
            shooting, z, final_throttle = retry, z_retry, other
            rollout = rollout_retry
        search = rollout if steps == _SEARCH_STEPS else None
    return shooting.decode(z), closed, n_fev, rollout


def solve_indirect(scn: Scenario, options: SolverOptions | None = None,
                   warm_start: "ArcSchedule | None" = None) -> Solution:
    """Solve the switching-point system at the scenario's cost weight and
    return the first start that closes it.

    The starts of the grid are tried in order.  Each is solved at
    `_SEARCH_STEPS` RK4 steps per arc (at most `options.steps`), then, if
    that closes, again at `options.steps` from the result; the first start
    that closes the system at `options.steps` wins and is recorded as
    `start_index`, with the shooting solve's last rollout as its
    trajectory.  A warm-start schedule (e.g. from a neighboring cost
    weight in a sweep) is tried first, at `options.steps` only, and is
    recorded as start -1.  When no start closes, the feasible result of
    lowest cost is returned with `converged=False` (the least infeasible
    one when none is feasible).  `n_fev` counts the rollouts of every
    start tried, at every resolution (see `_LMShooting`).

    Below `_ALPHA_ASYMPTOTIC` the endpoint co-state equation is driven only
    best-effort, and at zero weight not at all (no co-state is computed
    there), so `converged` then means only that the terminal conditions
    closed: the schedule is feasible, not certified optimal.
    """
    options = options or SolverOptions()
    ctx = make_context(scn)
    constant_wind = isinstance(scn.wind, ConstantWind)
    coarse_then_fine = (min(_SEARCH_STEPS, options.steps), options.steps)
    attempts = [(i, z, None, coarse_then_fine)
                for i, z in enumerate(_start_grid(scn, constant_wind))]
    if warm_start is not None:
        times = np.array([warm_start.t1, warm_start.t2, warm_start.tf])
        times /= TIME_SCALE
        z_warm = times if constant_wind else np.array([warm_start.chi0, *times])
        attempts.insert(0, (-1, z_warm, warm_start.final_throttle,
                            (options.steps,)))
    n_fev = 0
    tried = []
    for idx, z, final_throttle, resolutions in attempts:
        sched, closed, spent, ro = _solve_start(ctx, scn, z, final_throttle,
                                                resolutions)
        n_fev += spent
        if closed:
            return _realized(ctx, scn, *ro, n_fev, idx)
        tried.append((idx, sched))
    # no start closed: the feasible result of lowest cost, else the least
    # infeasible one, among those that realize
    sols = []
    for idx, sched in tried:
        try:
            sols.append(replace(realize_solution(scn, sched,
                                                 steps=options.steps),
                                converged=False, n_fev=n_fev,
                                start_index=idx))
        except CruiseOptError as exc:
            error = exc
    if not sols:
        raise error
    scales = np.array(STATE_SCALES[:3])

    def rank(sol):
        infeas = float(np.max(np.abs(sol.residuals) / scales))
        return (0.0, sol.cost) if infeas <= _FEAS_TOL else (1.0, infeas)

    return min(sols, key=rank)


def realize_solution(scn: Scenario, sched: ArcSchedule,
                     alpha: float | None = None, steps: int = 400) -> Solution:
    """Integrate a switching schedule into a full diagnosed Solution: the
    rollout at `steps` RK4 steps per arc (at least 1), the co-states where
    a singular arc and a positive weight allow them, then the one
    diagnostics pass.  A given `alpha` replaces the scenario's weight, and
    the solution's scenario carries it.

    Rebuilds a solution from its serialized schedule for after-the-fact
    verification; the solver realizes a closed solve's schedule from the
    rollout its shooting solve ended on, through the same tail.
    """
    if steps < 1:
        raise ValidationError(f"steps={steps}: need at least 1 step per arc")
    if alpha is not None:
        scn = scn.replace_alpha(alpha)
    ctx = make_context(scn)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    traj = integrate_arcs(ctx, sched, x0, scn.alpha, scn.pi_min, scn.pi_max,
                          steps_per_arc=steps)
    return _realized(ctx, scn, sched, traj)


def _realized(ctx: CruiseContext, scn: Scenario, sched: ArcSchedule,
              traj: Trajectory, n_fev: int = 0,
              start_index: int = -1) -> Solution:
    """The Solution of a schedule's rollout `traj`, which it fills in."""
    alpha = scn.alpha
    # the rollout's skip rule decides whether a singular arc exists
    if alpha > 0.0 and np.any(traj.arc_id == 1):
        traj = reconstruct_costates(ctx, traj, sched, alpha, scn.pi_min,
                                    scn.pi_max)
    diagnose(ctx, traj, alpha, scn.pi_min, scn.pi_max)
    resid_phys = np.array([
        traj.final_state[0] - scn.xf,
        traj.final_state[1] - scn.yf,
        traj.final_state[2] - scn.vf,
    ])
    cost = alpha * sched.tf + (alpha - 1.0) * traj.final_mass
    return Solution(
        scenario=scn,
        schedule=sched,
        trajectory=traj,
        cost=cost,
        residuals=resid_phys,
        converged=True,
        n_fev=n_fev,
        start_index=start_index,
    )


# verify_solution's tolerances
_TOL_H = 1e-5          # Hamiltonian drift around -alpha
_TOL_S = 1e-6          # |S| on the singular arc
_TOL_S_SIGN = 1e-10    # slack for the sign checks next to junctions
_TOL_LC = 1e-10        # slack on the second-order condition
_TOL_LAM_M = 1e-4      # transversality on the mass co-state
_TOL_CHI = 1e-6        # heading/co-state consistency


@dataclass
class CheckResult:
    name: str
    passed: bool | None        # None means not applicable (skipped)
    extreme: float
    threshold: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def by_name(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "SKIP" if c.passed is None else ("PASS" if c.passed else "FAIL")
            lines.append(
                f"{status:4s}  {c.name:24s} extreme={c.extreme: .3e} "
                f"tol={c.threshold:.1e} {c.detail}"
            )
        return "\n".join(lines)


_ARC_NAMES = ("first arc", "singular arc", "final arc")


def _where(traj: Trajectory, bad: np.ndarray) -> str:
    """Each arc that holds samples flagged in `bad`, with the window from
    its first to its last flagged sample."""
    parts = []
    for arc, name in enumerate(_ARC_NAMES):
        idx = np.flatnonzero(bad & (traj.arc_id == arc))
        if len(idx):
            parts.append(f"{name} t in [{traj.t[idx[0]]:.1f}, "
                         f"{traj.t[idx[-1]]:.1f}] s")
    return "; ".join(parts)


def verify_solution(sol: Solution) -> VerificationReport:
    """First- and second-order optimality checks on a solved trajectory,
    against the fixed tolerances `_TOL_*` of this module.

    Report-only; every check records its measured extreme and its
    threshold, and a failing check names the arcs and the time windows
    where it fails.  Co-state-based checks are skipped when co-states were
    not reconstructed (zero cost weight or bang-bang degenerate schedules).
    """
    traj = sol.trajectory
    rep = VerificationReport()
    alpha = sol.scenario.alpha
    has_costates = traj.costates is not None and np.any(
        np.isfinite(traj.costates)
    )

    if not has_costates:
        for name, threshold in (("hamiltonian_constancy", _TOL_H),
                                ("switching_structure", _TOL_S),
                                ("legendre_clebsch", 0.0),
                                ("transversality_lam_m", 0.0),
                                ("heading_costate_consistency", 0.0)):
            rep.checks.append(CheckResult(name, None, math.nan, threshold,
                                          "no co-states"))
    else:
        dev = np.abs(traj.H + alpha)
        drift = float(np.nanmax(dev))
        rep.checks.append(CheckResult(
            "hamiltonian_constancy", drift <= _TOL_H, drift, _TOL_H,
            _where(traj, dev > _TOL_H)))

        on_max = (traj.arc_id == 0) & (traj.t < sol.schedule.t1)
        on_end = (traj.arc_id == 2) & (traj.t > sol.schedule.t2)
        # the level the final arc flew, as the rollout recorded it
        if traj.throttle[-1] >= sol.scenario.pi_max:
            on_max = on_max | on_end
            on_min = np.zeros(len(traj.t), dtype=bool)
        else:
            on_min = on_end
        on_sing = traj.arc_id == 1
        detail = ""
        smax = float(np.nanmax(traj.S[on_max])) if np.any(on_max) else -math.inf
        smin = float(np.nanmin(traj.S[on_min])) if np.any(on_min) else math.inf
        ssing = float(np.nanmax(np.abs(traj.S[on_sing]))) if np.any(on_sing) else 0.0
        ok = smax < _TOL_S_SIGN and smin > -_TOL_S_SIGN and ssing <= _TOL_S
        if smax >= _TOL_S_SIGN:
            detail = "S sign violated on max throttle: " + _where(
                traj, on_max & (traj.S >= _TOL_S_SIGN))
        elif smin <= -_TOL_S_SIGN:
            detail = "S sign violated on min throttle: " + _where(
                traj, on_min & (traj.S <= -_TOL_S_SIGN))
        worst = max(smax, -smin, ssing)
        rep.checks.append(CheckResult(
            "switching_structure", ok, worst, _TOL_S, detail))

        lc_min = float(np.nanmin(traj.lc[on_sing])) if np.any(on_sing) else 0.0
        rep.checks.append(CheckResult(
            "legendre_clebsch", lc_min >= -_TOL_LC, lc_min, _TOL_LC,
            _where(traj, on_sing & (traj.lc < -_TOL_LC))))
        lam_m_f = float(traj.costates[-1, 3])
        err = abs(lam_m_f - (alpha - 1.0))
        rep.checks.append(CheckResult(
            "transversality_lam_m", err <= _TOL_LAM_M, err, _TOL_LAM_M,
            f"lam_m(tf)={lam_m_f:.6f} at tf={traj.t[-1]:.1f} s"))
        # sine of the angle between (lam_x, lam_y) and the heading line;
        # no pole at chi = +-pi/2
        lam_x = traj.costates[:, 0]
        lam_y = traj.costates[:, 1]
        chi = traj.states[:, 4]
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = (np.abs(lam_x * np.sin(chi) - lam_y * np.cos(chi))
                     / np.hypot(lam_x, lam_y))
        chi_err = float(np.nanmax(resid))
        rep.checks.append(CheckResult(
            "heading_costate_consistency", chi_err <= _TOL_CHI, chi_err,
            _TOL_CHI, _where(traj, resid > _TOL_CHI)))

    n_bad = int(np.sum(~traj.envelope_ok))
    rep.checks.append(CheckResult(
        "envelope_monitors", n_bad == 0, float(n_bad), 0.0,
        f"{n_bad} samples outside the envelope"
        + (": " + _where(traj, ~traj.envelope_ok) if n_bad else "")))
    return rep


def _continue_to(scn: Scenario, a_from: float, a_target: float, warm,
                 options, depth: int) -> Solution:
    """Warm-started solve at a_target, bisecting the weight interval when a
    single continuation step is too long for the warm-started solve."""
    sol = solve_indirect(scn.replace_alpha(a_target), options,
                         warm_start=warm)
    if sol.converged or depth <= 0:
        return sol
    mid = 0.5 * (a_from + a_target)
    mid_sol = _continue_to(scn, a_from, mid, warm, options, depth - 1)
    if not mid_sol.converged:
        return sol
    return _continue_to(scn, mid, a_target, mid_sol.schedule, options,
                        depth - 1)


def sweep_alpha(scn: Scenario, alphas, options: SolverOptions | None = None):
    """Solve the scenario for each cost weight; returns solutions in the
    order the weights were given.

    Runs as a continuation in descending weight: the first bang arc grows
    with the weight, so the largest weight has the most robust cold start
    and each subsequent solve is warm-started from its neighbor's schedule.
    A failed continuation step is retried through bisected intermediate
    weights before giving up.
    """
    order = sorted(range(len(alphas)), key=lambda i: -alphas[i])
    sols: dict[int, Solution] = {}
    warm = None
    a_prev = None
    for i in order:
        a = alphas[i]
        if warm is None:
            sol = solve_indirect(scn.replace_alpha(a), options)
        else:
            sol = _continue_to(scn, a_prev, a, warm, options, depth=3)
        sols[i] = sol
        if sol.converged:
            warm = sol.schedule
            a_prev = a
    return [sols[i] for i in range(len(alphas))]
