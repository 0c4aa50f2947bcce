"""Switching-point solver: optimize (chi0, t1, t2, tf) with feedback controls.

The throttle structure is fixed to max / singular / min; the heading follows
the navigation ODE from chi0.  Terminal position and speed become equality
constraints of a four-variable NLP solved by an augmented-Lagrangian outer
loop around a Nelder-Mead simplex, with deterministic seeded multi-start.
For a constant wind field the initial heading drops out of the decision
vector: it is pinned by the endpoint geometry and the final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .dynamics import CruiseContext
from .errors import CruiseOptError, DegenerateGeometryError, IntegrationError
from .integrate import (
    ArcSchedule,
    Trajectory,
    diagnose,
    integrate_arcs,
    reconstruct_costates,
    terminal_costate,
)
from .nlp import FAILURE_PENALTY, solve_augmented_lagrangian
from .pmp import STATE_SCALES, TIME_SCALE
from .scenario import Scenario, make_context
from .wind import ConstantWind

_POS = STATE_SCALES[0]
_SPD = STATE_SCALES[2]
_FEAS_TOL = 1e-6          # on scaled terminal residuals
_SCREEN_FEAS_TOL = 1e-3
_RHO0 = 1e4


@dataclass(frozen=True)
class SolverOptions:
    n_starts: int = 8
    n_refine: int = 2          # starts carried from screening into refinement
    seed: int = 0
    nlp_steps: int = 120       # RK4 steps per arc inside the NLP
    steps: int = 400           # RK4 steps per arc for the returned trajectory
    max_outer: int = 6
    screen_outer: int = 2
    polish_outer: int = 3
    nm_maxfev: int = 260
    screen_maxfev: int = 140
    polish_maxfev: int = 420


@dataclass
class Solution:
    scenario: Scenario
    alpha: float
    schedule: ArcSchedule
    trajectory: Trajectory
    cost: float
    residuals: np.ndarray      # terminal (x, y, v) residuals, SI units
    converged: bool
    n_fev: int                 # objective evaluations, the endgame's included
    n_outer: int
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


class _IndirectRollout:
    """Maps a decision vector to (cost, scaled terminal residuals)."""

    def __init__(self, ctx: CruiseContext, scn: Scenario, alpha: float,
                 steps: int, final_throttle: float | None = None):
        self.ctx = ctx
        self.scn = scn
        self.alpha = alpha
        self.steps = steps
        self.final_throttle = final_throttle
        self.constant_wind = isinstance(scn.wind, ConstantWind)
        self.ndim = 3 if self.constant_wind else 4

    def decode(self, z) -> ArcSchedule | None:
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

    def _ordering_violation(self, z) -> float:
        zt = z if self.constant_wind else z[1:]
        t1, t2, tf = (zi * TIME_SCALE for zi in zt)
        return max(0.0, -t1) + max(0.0, t1 - t2) + max(0.0, t2 - tf) + max(
            0.0, -tf
        )

    def residuals(self, final_state) -> np.ndarray:
        return np.array([
            (final_state[0] - self.scn.xf) / _POS,
            (final_state[1] - self.scn.yf) / _POS,
            (final_state[2] - self.scn.vf) / _SPD,
        ])

    def cost_of(self, tf: float, mf: float) -> float:
        return self.alpha * tf + (self.alpha - 1.0) * mf

    def __call__(self, z):
        sched = self.decode(z)
        if sched is None:
            viol = self._ordering_violation(z)
            return FAILURE_PENALTY * (1.0 + viol / TIME_SCALE), np.full(3, 10.0)
        x0 = (self.scn.x0, self.scn.y0, self.scn.v0, self.scn.m0)
        try:
            traj = integrate_arcs(self.ctx, sched, x0, self.alpha,
                                  self.scn.pi_min, self.scn.pi_max,
                                  steps_per_arc=self.steps)
        except IntegrationError as exc:
            # grade failures by how far the rollout survived and where the
            # last finite state sat, so the simplex has a slope to follow
            frac = max(0.0, 1.0 - exc.t / sched.tf)
            if exc.last_state is not None:
                r = self.residuals(exc.last_state)
                extra = float(np.sum(np.abs(r)))
            else:
                extra = 10.0
            return FAILURE_PENALTY * (1.0 + frac) + 1e6 * extra, np.full(3, 10.0)
        except CruiseOptError:
            return FAILURE_PENALTY * 2.0, np.full(3, 10.0)
        j = self.cost_of(sched.tf, traj.final_mass)
        return j, self.residuals(traj.final_state)


def _nm_inner(maxfev: int, step: np.ndarray):
    """Nelder-Mead inner minimizer with an explicit initial simplex."""

    def inner(model, z0):
        n = len(z0)
        simplex = np.tile(z0, (n + 1, 1))
        for i in range(n):
            simplex[i + 1, i] += step[i]
        res = optimize.minimize(
            model, z0, method="Nelder-Mead",
            options={
                "maxfev": maxfev,
                "xatol": 1e-10,
                "fatol": 1e-10,
                "initial_simplex": simplex,
            },
        )
        return res.x, res.nfev

    return inner


_POLISH_FD = 1e-7
_POLISH_MARGIN = 20.0 * _POLISH_FD
_POLISH_STEP_CAP = 0.05     # scaled units; 50 s on switch times
# Below this cost weight the optimum sits against the degenerate co-state
# manifold (the mass co-state normalization saturates the determinant
# guard), so the endpoint co-state equation is driven best-effort and a
# feasible result is accepted: the asymptotic regime.
_ALPHA_ASYMPTOTIC = 1e-4


class _TerminalPolish:
    """Damped Gauss-Newton endgame on the switching-point system.

    The derivative-free inner minimizer settles into the flat cost valley at
    around 1e-4 scaled feasibility; near the fuel-only limit the valley is so
    flat that it also stalls short of the optimum.  The endgame therefore
    solves the square system of first-order conditions directly: the three
    scaled terminal residuals plus the endpoint condition on the mass
    co-state, lam_m(tf) = alpha - 1, which closes the system exactly at the
    optimum.  The co-state equation is dropped when a degenerate arc
    structure leaves nothing to reconstruct, leaving a least-norm projection
    onto the terminal-condition manifold that preserves the NLP's cost to
    first order.
    """

    def __init__(self, rollout: "_IndirectRollout", alpha: float):
        self.rollout = rollout
        self.alpha = alpha
        scn = rollout.scn
        self.x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
        self.n_fev = 0      # rollouts spent

    def _nudge(self, z: np.ndarray) -> np.ndarray:
        """Pull switch times strictly inside the ordering constraints so
        central differences never cross the penalty wall."""
        z = np.array(z, dtype=float)
        it = 0 if self.rollout.constant_wind else 1
        t1, t2, tf = z[it], z[it + 1], z[it + 2]
        t1 = max(t1, _POLISH_MARGIN)
        tf = max(tf, 3.0 * _POLISH_MARGIN)
        t2 = min(max(t2, t1 + _POLISH_MARGIN), tf - _POLISH_MARGIN)
        t1 = min(t1, t2 - _POLISH_MARGIN)
        z[it], z[it + 1], z[it + 2] = t1, t2, tf
        return z

    def residual(self, z, with_costate: bool) -> np.ndarray | None:
        ro = self.rollout
        sched = ro.decode(z)
        if sched is None:
            return None
        scn = ro.scn
        self.n_fev += 1
        try:
            traj = integrate_arcs(ro.ctx, sched, self.x0, self.alpha,
                                  scn.pi_min, scn.pi_max,
                                  steps_per_arc=ro.steps)
            r = ro.residuals(traj.final_state)
            if with_costate:
                # Endpoint condition in the alpha-invariant normalized
                # co-state mu = lam / alpha (reconstructed with unit weight):
                # lam_m(tf) = alpha - 1 reads 1/mu_m(tf) = alpha/(alpha - 1),
                # which stays order one for every alpha and turns into the
                # degenerate-system condition 1/mu_m(tf) = 0 at alpha = 0.
                mu_m = terminal_costate(ro.ctx, traj, sched, 1.0,
                                        scn.pi_min)[3]
                if not np.isfinite(mu_m) or mu_m == 0.0:
                    return None
                r = np.append(r, 1.0 / mu_m - self.alpha / (self.alpha - 1.0))
            return r
        except CruiseOptError:
            return None

    def _gauss_newton(self, z, with_costate: bool, max_iter: int,
                      feas_tol: float):
        """Damped GN sweep; trial points are projected back inside the
        schedule ordering so boundary-pinned switch times do not kill the
        line search.  Returns (z, residual) at the best point reached."""
        ndim = len(z)
        r = self.residual(z, with_costate)
        if r is None:
            return z, None
        m = len(r)
        for _ in range(max_iter):
            norm = float(np.linalg.norm(r))
            feas = float(np.max(np.abs(r[:3])))
            done_opt = (not with_costate) or abs(r[3]) <= 1e-10
            if feas <= feas_tol and done_opt:
                break
            jac = np.zeros((m, ndim))
            ok = True
            for i in range(ndim):
                zp = z.copy()
                zp[i] += _POLISH_FD
                zm = z.copy()
                zm[i] -= _POLISH_FD
                rp = self.residual(zp, with_costate)
                rm = self.residual(zm, with_costate)
                if rp is None or rm is None:
                    ok = False
                    break
                jac[:, i] = (rp - rm) / (2.0 * _POLISH_FD)
            if not ok:
                break
            dz = -jac.T @ np.linalg.solve(
                jac @ jac.T + 1e-12 * np.eye(m), r)
            # trust-region cap: full Newton steps can overshoot across the
            # fold where the last arc collapses, so path-follow instead
            mx = float(np.max(np.abs(dz)))
            if mx > _POLISH_STEP_CAP:
                dz *= _POLISH_STEP_CAP / mx
            scale = 1.0
            for _ in range(12):
                z_try = self._nudge(z + scale * dz)
                r_try = self.residual(z_try, with_costate)
                if r_try is not None and np.linalg.norm(r_try) < norm:
                    z = z_try
                    r = r_try
                    break
                scale *= 0.5
            else:
                break
        return z, r

    def run(self, z0, feas_tol: float, max_iter: int = 8):
        """Polish z0; returns (z, feasibility met, optimality system met).

        If the co-state equation cannot be closed because the idle final
        arc has collapsed to zero length, the terminal speed target sits
        above the singular-arc speed and the last arc must accelerate:
        the polish retries with a max-throttle final arc, keeping that
        structure only when the full system then converges.
        """
        z, feas_ok, opt_ok = self._run_structure(z0, feas_tol, max_iter)
        if feas_ok and not opt_ok:
            orig = self.rollout.final_throttle
            self.rollout.final_throttle = (
                self.rollout.scn.pi_max if orig is None else None)
            it = 0 if self.rollout.constant_wind else 1
            z_seed = z.copy()
            z_seed[it + 1] = z_seed[it + 2] - 2e-3  # seed a short last arc
            z2, f2, o2 = self._run_structure(z_seed, feas_tol, max_iter)
            if f2 and o2:
                return z2, f2, o2
            self.rollout.final_throttle = orig
        return z, feas_ok, opt_ok

    def _run_structure(self, z0, feas_tol: float, max_iter: int):
        z = self._nudge(z0)
        sched = self.rollout.decode(z)
        # under a constant wind the heading is pinned by the endpoint
        # geometry and tf, which makes the x and y residuals collinear: the
        # co-state equation still supplies the missing along-track condition
        with_costate = (
            self.alpha < 0.9 and sched is not None
            and sched.t1 < sched.t2 < sched.tf
        )
        # feasibility first: a least-norm projection onto the terminal
        # manifold, then close the square system with the co-state equation
        z, r = self._gauss_newton(z, False, max_iter, feas_tol)
        if r is None:
            return np.asarray(z0, dtype=float), False, False
        asymptotic = self.alpha < _ALPHA_ASYMPTOTIC
        opt_ok = (not with_costate) or asymptotic
        if with_costate:
            z_opt, r_opt = self._gauss_newton(z, True, max_iter, feas_tol)
            if r_opt is not None and np.max(np.abs(r_opt[:3])) <= feas_tol:
                z, r = z_opt, r_opt
                opt_ok = opt_ok or bool(abs(r_opt[3]) <= 1e-10)
        feas = float(np.max(np.abs(r[:3])))
        return z, feas <= feas_tol, bool(opt_ok)


def _start_grid(scn: Scenario, alpha: float, options: SolverOptions,
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
    """Solve the switching-point NLP and return the best feasible solution.

    Screening runs every start cheaply; the most promising starts get the
    full augmented-Lagrangian treatment, and the winner is polished at the
    final integration resolution.  Ties break by lowest start index so the
    result is deterministic for a fixed seed.  A warm-start schedule (e.g.
    from a neighboring cost weight in a sweep) is prepended to the start
    grid and competes with it on equal terms.
    """
    options = options or SolverOptions()
    alpha = scn.alpha if alpha is None else alpha
    ctx = make_context(scn)
    constant_wind = isinstance(scn.wind, ConstantWind)
    rollout_nlp = _IndirectRollout(ctx, scn, alpha, options.nlp_steps)
    starts = _start_grid(scn, alpha, options, constant_wind)
    total_fev = 0
    if warm_start is not None:
        times = np.array([warm_start.t1, warm_start.t2, warm_start.tf])
        times /= TIME_SCALE
        if constant_wind:
            z_warm = times
        else:
            z_warm = np.array([warm_start.chi0, *times])
        # a warm start from a neighboring cost weight usually sits close
        # enough that the Newton endgame alone reaches the new optimum;
        # only fall back to the multistart search when it does not
        rollout_hi = _IndirectRollout(ctx, scn, alpha, options.steps,
                                      final_throttle=warm_start.final_throttle)
        endgame = _TerminalPolish(rollout_hi, alpha)
        z_ws, feas_ok, opt_ok = endgame.run(
            z_warm, feas_tol=0.01 * _FEAS_TOL, max_iter=20)
        total_fev += endgame.n_fev
        if feas_ok and opt_ok:
            sched = rollout_hi.decode(z_ws)
            sol = realize_solution(scn, sched, alpha=alpha,
                                   steps=options.steps)
            sol.converged = True
            sol.n_fev = total_fev
            sol.seed = options.seed
            return sol
        starts.insert(0, z_warm)
    ndim = rollout_nlp.ndim
    step_screen = np.full(ndim, 0.2)
    step_refine = np.full(ndim, 0.05)
    step_polish = np.full(ndim, 0.01)
    if not constant_wind:
        step_screen[0], step_refine[0], step_polish[0] = 0.05, 0.02, 0.005

    screened = []
    total_outer = 0
    for idx, z0 in enumerate(starts):
        res = solve_augmented_lagrangian(
            rollout_nlp, z0, 3,
            _nm_inner(options.screen_maxfev, step_screen),
            feas_tol=_SCREEN_FEAS_TOL,
            max_outer=options.screen_outer,
            rho0=_RHO0,
        )
        total_fev += res.n_fev
        total_outer += res.n_outer
        screened.append((idx, res))

    screened.sort(key=lambda t: (float(np.max(np.abs(t[1].resid))) > 10 * _SCREEN_FEAS_TOL,
                                 t[1].cost, t[0]))
    refined = []
    for idx, sres in screened[: max(1, options.n_refine)]:
        res = solve_augmented_lagrangian(
            rollout_nlp, sres.z, 3,
            _nm_inner(options.nm_maxfev, step_refine),
            feas_tol=_FEAS_TOL,
            max_outer=options.max_outer,
            rho0=max(_RHO0, sres.rho),
            nu0=sres.nu,
        )
        total_fev += res.n_fev
        total_outer += res.n_outer
        refined.append((idx, res))

    feasible = [(i, r) for i, r in refined if r.converged]
    pool = feasible or refined
    pool.sort(key=lambda t: (t[1].cost, t[0]))
    best_idx, best = pool[0]

    # polish at the final integration resolution
    rollout_hi = _IndirectRollout(ctx, scn, alpha, options.steps)
    polish = solve_augmented_lagrangian(
        rollout_hi, best.z, 3,
        _nm_inner(options.polish_maxfev, step_polish),
        feas_tol=_FEAS_TOL,
        max_outer=options.polish_outer,
        rho0=max(_RHO0, best.rho),
        nu0=best.nu,
    )
    total_fev += polish.n_fev
    total_outer += polish.n_outer

    endgame = _TerminalPolish(rollout_hi, alpha)
    z_final, restored, opt_ok = endgame.run(
        polish.z, feas_tol=0.01 * _FEAS_TOL)
    sched = rollout_hi.decode(z_final)
    sol = realize_solution(scn, sched, alpha=alpha, steps=options.steps)
    feas = float(np.max(np.abs(sol.residuals / np.array(
        [STATE_SCALES[0], STATE_SCALES[1], STATE_SCALES[2]]))))
    sol.converged = (bool(polish.converged or restored) and bool(opt_ok)
                     and feas <= _FEAS_TOL)
    sol.n_fev = total_fev + endgame.n_fev
    sol.n_outer = total_outer
    sol.start_index = best_idx
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
    if alpha > 0.0 and sched.t1 < sched.t2:
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
        n_outer=0,
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
    single continuation step is too long for the Newton endgame."""
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
