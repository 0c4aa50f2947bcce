"""Switching-point solver: shoot on (chi0, t1, t2, tf) with feedback controls.

The throttle structure is fixed to max / singular / bang; the heading follows
the navigation ODE from chi0.  The unknowns close a square system: the
scaled terminal position and speed plus the endpoint condition on the mass
co-state, solved by a Levenberg-Marquardt shooting method from a
deterministic seeded set of starts.  For a constant wind field the initial
heading drops out of the unknowns: it is pinned by the endpoint geometry and
the final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CruiseContext
from .errors import CruiseOptError, DegenerateGeometryError
from .integrate import (
    ArcSchedule,
    Trajectory,
    diagnose,
    integrate_arcs,
    reconstruct_costates,
    terminal_costate,
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
    n_starts: int = 8
    seed: int = 0
    nlp_steps: int = 120       # RK4 steps per arc for the coarse solve
    steps: int = 400           # RK4 steps per arc for the returned trajectory


@dataclass
class Solution:
    scenario: Scenario
    alpha: float
    schedule: ArcSchedule
    trajectory: Trajectory
    cost: float
    residuals: np.ndarray      # terminal (x, y, v) residuals, SI units
    converged: bool
    n_fev: int                 # rollouts spent by the solve
    start_index: int
    seed: int
    clamp_count: int
    verification: "VerificationReport | None" = None

    @property
    def t1(self) -> float:
        return self.schedule.t1


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


_POLISH_FD = 1e-7
_POLISH_MARGIN = 20.0 * _POLISH_FD
_FEAS_TOL = 1e-8            # on the scaled terminal residuals
_COSTATE_TOL = 1e-10        # on the endpoint co-state residual
_LM_MAX_ITER = 40           # trial steps per Levenberg-Marquardt solve
_LM_LAMBDA0 = 1e-6          # initial damping, relative to diag(J^T J)
# Below this cost weight the optimum sits against the degenerate co-state
# manifold (the mass co-state normalization saturates the determinant
# guard), so the endpoint co-state equation is driven best-effort and a
# feasible result is accepted: the asymptotic regime.
_ALPHA_ASYMPTOTIC = 1e-4
# From this cost weight up the singular arc collapses and the co-state
# equation closes from no start; the fourth condition pins the singular arc
# shut instead, which leaves max / bang switching.
_ALPHA_COLLAPSED = 0.9


class _TerminalPolish:
    """Levenberg-Marquardt shooting solve on the switching-point system.

    The square system of first-order conditions is the three scaled
    terminal residuals plus the endpoint condition on the mass co-state,
    lam_m(tf) = alpha - 1, which closes it exactly at the optimum.  In the
    asymptotic regime the co-state equation is driven only after a
    least-norm projection onto the terminal-condition manifold (the
    feasibility-only system is underdetermined); from `_ALPHA_COLLAPSED` up
    it is replaced by the collapsed-singular-arc condition.  Under a
    constant wind the heading is pinned by the endpoint geometry and tf,
    which makes the x and y residuals collinear: the fourth condition still
    supplies the missing along-track one.

    One instance shoots at one resolution: it decodes the scaled unknowns
    into schedules, counts the rollouts it spends in `n_fev`, and holds the
    final-arc structure, which `run` may switch.
    """

    def __init__(self, ctx: CruiseContext, scn: Scenario, alpha: float,
                 steps: int, final_throttle: float | None = None):
        self.ctx = ctx
        self.scn = scn
        self.alpha = alpha
        self.steps = steps          # RK4 steps per arc
        self.final_throttle = final_throttle
        self.constant_wind = isinstance(scn.wind, ConstantWind)
        self.x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
        self.n_fev = 0              # rollouts spent

    def decode(self, z) -> ArcSchedule | None:
        """The schedule of a scaled unknown vector; None when its times
        are out of order."""
        if self.constant_wind:
            t1, t2, tf = (zi * TIME_SCALE for zi in z)
            if tf <= 0.0:
                return None
            chi0 = chi0_constant_wind(self.scn, tf)
        else:
            chi0 = z[0]
            t1, t2, tf = (zi * TIME_SCALE for zi in z[1:])
        if not 0.0 <= t1 <= t2 <= tf:
            return None
        return ArcSchedule(t1=t1, t2=t2, tf=tf, chi0=chi0,
                           final_throttle=self.final_throttle)

    def _nudge(self, z: np.ndarray) -> np.ndarray:
        """Pull switch times strictly inside the ordering constraints so
        central differences never leave the schedule domain."""
        z = np.array(z, dtype=float)
        it = 0 if self.constant_wind else 1
        t1, t2, tf = z[it], z[it + 1], z[it + 2]
        t1 = max(t1, _POLISH_MARGIN)
        tf = max(tf, 3.0 * _POLISH_MARGIN)
        t2 = min(max(t2, t1 + _POLISH_MARGIN), tf - _POLISH_MARGIN)
        t1 = min(t1, t2 - _POLISH_MARGIN)
        z[it], z[it + 1], z[it + 2] = t1, t2, tf
        return z

    def residual(self, z, square: bool) -> np.ndarray | None:
        """The scaled terminal residuals and, when `square`, the fourth
        condition; None when the schedule or its rollout fails."""
        sched = self.decode(z)
        if sched is None:
            return None
        scn = self.scn
        self.n_fev += 1
        try:
            traj = integrate_arcs(self.ctx, sched, self.x0, self.alpha,
                                  scn.pi_min, scn.pi_max,
                                  steps_per_arc=self.steps)
            fin = traj.final_state
            r = np.array([(fin[0] - scn.xf) / _POS, (fin[1] - scn.yf) / _POS,
                          (fin[2] - scn.vf) / _SPD])
            if not square:
                return r
            if self.alpha >= _ALPHA_COLLAPSED:
                it = 0 if self.constant_wind else 1
                return np.append(r, z[it + 1] - z[it] - _POLISH_MARGIN)
            # Endpoint condition in the alpha-invariant normalized co-state
            # mu = lam / alpha (reconstructed with unit weight):
            # lam_m(tf) = alpha - 1 reads 1/mu_m(tf) = alpha/(alpha - 1),
            # which stays order one for every alpha and turns into the
            # degenerate-system condition 1/mu_m(tf) = 0 at alpha = 0.
            mu_m = terminal_costate(self.ctx, traj, sched, 1.0,
                                    scn.pi_min)[3]
        except CruiseOptError:
            return None
        if not np.isfinite(mu_m) or mu_m == 0.0:
            return None
        return np.append(r, 1.0 / mu_m - self.alpha / (self.alpha - 1.0))

    def _jacobian(self, z, square: bool) -> np.ndarray | None:
        """Central differences; None when a perturbed rollout fails."""
        cols = []
        for dz in _POLISH_FD * np.eye(len(z)):
            rp = self.residual(z + dz, square)
            rm = self.residual(z - dz, square)
            if rp is None or rm is None:
                return None
            cols.append((rp - rm) / (2.0 * _POLISH_FD))
        return np.column_stack(cols)

    def _levenberg_marquardt(self, z, square: bool):
        """Damped least-squares steps with the gain-ratio damping update
        of Nielsen (IMM-REP-1999-05) and the scaling D = diag(J^T J) of
        Moré (1978).  Trial points are projected back inside the schedule
        ordering, and the gain ratio compares the actual reduction with the
        one predicted for that projected step.  Returns (z, residual) at
        the last accepted point; the residual is None when the rollout at
        the start point fails."""
        r = self.residual(z, square)
        if r is None:
            return z, None
        lam, nu, jac = _LM_LAMBDA0, 2.0, None
        for _ in range(_LM_MAX_ITER):
            if _closed(r):
                break
            if jac is None:
                jac = self._jacobian(z, square)
                if jac is None:
                    break
                scale = np.sqrt(np.sum(jac * jac, axis=0))
            dz = np.linalg.lstsq(
                np.vstack([jac, np.diag(math.sqrt(lam) * scale)]),
                np.concatenate([-r, np.zeros(len(z))]), rcond=None)[0]
            z_try = self._nudge(z + dz)
            r_try = self.residual(z_try, square)
            pred = r @ r - np.sum((r + jac @ (z_try - z)) ** 2)
            gain = -1.0
            if r_try is not None and pred > 0.0:
                gain = (r @ r - r_try @ r_try) / pred
            if gain > 0.0:
                z, r, jac = z_try, r_try, None
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
            else:
                lam *= nu
                nu *= 2.0
        return z, r

    def run(self, z0) -> tuple[np.ndarray, bool]:
        """Solve from z0; returns (z, whether the system closed).

        If the system does not close with the current final-arc
        structure, the solve retries with the other one (idle or max
        throttle), seeded with a short last arc, and keeps that structure
        only when the system then closes.  A collapsing idle final arc
        means the terminal speed target sits above the singular-arc speed
        and the last arc must accelerate.
        """
        z, ok = self._run_structure(z0)
        if ok:
            return z, True
        orig = self.final_throttle
        self.final_throttle = self.scn.pi_max if orig is None else None
        it = 0 if self.constant_wind else 1
        z_seed = z.copy()
        z_seed[it + 1] = z_seed[it + 2] - 2e-3  # seed a short last arc
        z2, ok = self._run_structure(z_seed)
        if ok:
            return z2, True
        self.final_throttle = orig
        return z, False

    def _run_structure(self, z0) -> tuple[np.ndarray, bool]:
        z = self._nudge(z0)
        if self.alpha >= _ALPHA_ASYMPTOTIC:
            z, r = self._levenberg_marquardt(z, True)
            return z, r is not None and _closed(r)
        # feasibility first, then the co-state equation best-effort
        z, r = self._levenberg_marquardt(z, False)
        if r is None:
            return z, False
        z_opt, r_opt = self._levenberg_marquardt(z, True)
        if r_opt is not None and _closed(r_opt[:3]):
            z, r = z_opt, r_opt
        return z, _closed(r[:3])


def _closed(r: np.ndarray) -> bool:
    """The stopping rule: terminal residuals, and the fourth condition
    when the system carries it."""
    return bool(np.max(np.abs(r[:3])) <= _FEAS_TOL
                and (len(r) == 3 or abs(r[3]) <= _COSTATE_TOL))


def _start_grid(scn: Scenario, options: SolverOptions,
                constant_wind: bool) -> list[np.ndarray]:
    """Deterministic seeded start grid.

    Final-time guesses scale the still-air great-circle time; the bang arcs
    start short because the idle deceleration arc stalls the aircraft if it
    is more than a few minutes long.
    """
    tf_base = scn.great_circle_distance() / scn.v0
    chi_base = math.atan2(scn.yf - scn.y0, scn.xf - scn.x0)
    combos = []
    for ftf in (0.9, 1.0, 1.1):
        tf = tf_base * ftf
        for f1, f2 in ((0.02, 0.97), (0.06, 0.99)):
            times = (f1 * tf / TIME_SCALE, f2 * tf / TIME_SCALE,
                     tf / TIME_SCALE)
            if constant_wind:
                combos.append(np.array(times))
            else:
                for dchi in (-0.2, 0.0, 0.2):
                    combos.append(np.array([chi_base + dchi, *times]))
    rng = np.random.default_rng(options.seed)
    order = rng.permutation(len(combos))
    picked = [combos[i] for i in order[: options.n_starts]]
    if len(picked) < options.n_starts:
        picked.extend(combos[: options.n_starts - len(picked)])
    return picked


def solve_indirect(scn: Scenario, options: SolverOptions | None = None,
                   alpha: float | None = None,
                   warm_start: "ArcSchedule | None" = None) -> Solution:
    """Solve the switching-point system and return the first start that
    closes it.

    Each start of the seeded grid is solved at `options.nlp_steps` RK4
    steps per arc, then, if that closes, again at `options.steps` from the
    result; the first start that closes the system at `options.steps` wins
    and is recorded as `start_index`.  A warm-start schedule (e.g. from a
    neighboring cost weight in a sweep) is tried first, at `options.steps`
    only, and is recorded as start -1.  When no start closes, the feasible
    result of lowest cost is returned with `converged=False` (the least
    infeasible one when none is feasible).
    """
    options = options or SolverOptions()
    alpha = scn.alpha if alpha is None else alpha
    ctx = make_context(scn)
    constant_wind = isinstance(scn.wind, ConstantWind)
    attempts = [(i, z, None, (options.nlp_steps, options.steps))
                for i, z in enumerate(
                    _start_grid(scn, options, constant_wind))]
    if warm_start is not None:
        times = np.array([warm_start.t1, warm_start.t2, warm_start.tf])
        times /= TIME_SCALE
        z_warm = times if constant_wind else np.array([warm_start.chi0, *times])
        attempts.insert(0, (-1, z_warm, warm_start.final_throttle,
                            (options.steps,)))
    n_fev = 0
    tried = []
    for idx, z, final_throttle, resolutions in attempts:
        for steps in resolutions:
            shooting = _TerminalPolish(ctx, scn, alpha, steps, final_throttle)
            z, closed = shooting.run(z)
            n_fev += shooting.n_fev
            final_throttle = shooting.final_throttle
            if not closed:
                break
        if closed:
            return _solution(scn, shooting.decode(z), alpha, options, True,
                             n_fev, idx)
        tried.append((idx, shooting.decode(z)))
    # no start closed: the feasible result of lowest cost, else the least
    # infeasible one, among those that realize
    sols = []
    for idx, sched in tried:
        try:
            sols.append(_solution(scn, sched, alpha, options, False, n_fev,
                                  idx))
        except CruiseOptError as exc:
            error = exc
    if not sols:
        raise error
    scales = np.array(STATE_SCALES[:3])

    def rank(sol):
        infeas = float(np.max(np.abs(sol.residuals) / scales))
        return (0.0, sol.cost) if infeas <= _FEAS_TOL else (1.0, infeas)

    return min(sols, key=rank)


def _solution(scn, sched, alpha, options, converged, n_fev, start_index):
    sol = realize_solution(scn, sched, alpha=alpha, steps=options.steps)
    sol.converged = converged
    sol.n_fev = n_fev
    sol.start_index = start_index
    sol.seed = options.seed
    return sol


def realize_solution(scn: Scenario, sched: ArcSchedule,
                     alpha: float | None = None, steps: int = 400) -> Solution:
    """Integrate a switching schedule into a full diagnosed Solution: the
    rollout, the co-states where a singular arc and a positive weight allow
    them, then the one diagnostics pass.

    Used both as the tail of the solver and to rebuild a solution from its
    serialized schedule for after-the-fact verification.
    """
    alpha = scn.alpha if alpha is None else alpha
    ctx = make_context(scn)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    traj = integrate_arcs(ctx, sched, x0, alpha, scn.pi_min, scn.pi_max,
                          steps_per_arc=steps)
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
        alpha=alpha,
        schedule=sched,
        trajectory=traj,
        cost=cost,
        residuals=resid_phys,
        converged=True,
        n_fev=0,
        start_index=-1,
        seed=-1,
        clamp_count=traj.clamp_count,
    )


@dataclass(frozen=True)
class VerifyTolerances:
    tol_H: float = 1e-5        # Hamiltonian drift around -alpha
    tol_S: float = 1e-6        # |S| on the singular arc
    tol_S_sign: float = 1e-10  # slack for the sign checks next to junctions
    tol_LC: float = 1e-10      # slack on the second-order condition
    tol_lam_m: float = 1e-4    # transversality on the mass co-state
    tol_chi: float = 1e-6      # heading/co-state consistency


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


def verify_solution(sol: Solution,
                    tol: VerifyTolerances | None = None) -> VerificationReport:
    """First- and second-order optimality checks on a solved trajectory.

    Report-only; every check records its measured extreme.  Co-state-based
    checks are skipped when co-states were not reconstructed (zero cost
    weight or bang-bang degenerate schedules).
    """
    tol = tol or VerifyTolerances()
    traj = sol.trajectory
    rep = VerificationReport()
    alpha = sol.alpha
    has_costates = traj.costates is not None and np.any(
        np.isfinite(traj.costates)
    )

    if has_costates:
        drift = float(np.nanmax(np.abs(traj.H + alpha)))
        rep.checks.append(CheckResult(
            "hamiltonian_constancy", drift <= tol.tol_H, drift, tol.tol_H))
    else:
        rep.checks.append(CheckResult(
            "hamiltonian_constancy", None, math.nan, tol.tol_H,
            "no co-states"))

    if has_costates:
        on_max = (traj.arc_id == 0) & (traj.t < sol.schedule.t1)
        on_end = (traj.arc_id == 2) & (traj.t > sol.schedule.t2)
        final_is_max = (sol.schedule.final_throttle is not None
                        and sol.schedule.final_throttle
                        >= sol.scenario.pi_max)
        if final_is_max:
            on_max = on_max | on_end
            on_min = np.zeros(len(traj.t), dtype=bool)
        else:
            on_min = on_end
        on_sing = traj.arc_id == 1
        worst = -math.inf
        detail = ""
        smax = float(np.nanmax(traj.S[on_max])) if np.any(on_max) else -math.inf
        smin = float(np.nanmin(traj.S[on_min])) if np.any(on_min) else math.inf
        ssing = float(np.nanmax(np.abs(traj.S[on_sing]))) if np.any(on_sing) else 0.0
        ok = (smax < tol.tol_S_sign and smin > -tol.tol_S_sign
              and ssing <= tol.tol_S)
        if smax >= tol.tol_S_sign:
            bad = np.where(on_max & (traj.S >= tol.tol_S_sign))[0]
            detail = f"S sign violated on max arc, t in [{traj.t[bad[0]]:.1f}, {traj.t[bad[-1]]:.1f}] s"
        elif smin <= -tol.tol_S_sign:
            bad = np.where(on_min & (traj.S <= -tol.tol_S_sign))[0]
            detail = f"S sign violated on min arc, t in [{traj.t[bad[0]]:.1f}, {traj.t[bad[-1]]:.1f}] s"
        worst = max(smax, -smin if smin is not math.inf else -math.inf, ssing)
        rep.checks.append(CheckResult(
            "switching_structure", ok, worst, tol.tol_S, detail))
    else:
        rep.checks.append(CheckResult(
            "switching_structure", None, math.nan, tol.tol_S, "no co-states"))

    if has_costates:
        on_sing = traj.arc_id == 1
        lc_min = float(np.nanmin(traj.lc[on_sing])) if np.any(on_sing) else 0.0
        rep.checks.append(CheckResult(
            "legendre_clebsch", lc_min >= -tol.tol_LC, lc_min, tol.tol_LC))
        lam_m_f = float(traj.costates[-1, 3])
        err = abs(lam_m_f - (alpha - 1.0))
        rep.checks.append(CheckResult(
            "transversality_lam_m", err <= tol.tol_lam_m, err, tol.tol_lam_m,
            f"lam_m(tf)={lam_m_f:.6f}"))
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
            "heading_costate_consistency", chi_err <= tol.tol_chi, chi_err,
            tol.tol_chi))
    else:
        for name in ("legendre_clebsch", "transversality_lam_m",
                     "heading_costate_consistency"):
            rep.checks.append(CheckResult(name, None, math.nan, 0.0,
                                          "no co-states"))

    n_bad = int(np.sum(~traj.envelope_ok))
    rep.checks.append(CheckResult(
        "envelope_monitors", n_bad == 0, float(n_bad), 0.0,
        f"{n_bad} samples outside the envelope"))
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
