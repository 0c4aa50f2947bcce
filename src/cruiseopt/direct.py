"""Single-shooting Euler direct transcription, the independent cross-check.

Controls are piecewise-constant per node (heading and throttle both free --
this solver must not assume the navigation law it is meant to validate) and
the rollout is forward Euler, deliberately simpler than the indirect
integrator.  The same augmented-Lagrangian outer loop enforces the terminal
conditions; the inner minimizer is a projected damped Gauss-Newton method
with batched central-difference gradients (the rollout is cheap enough to
difference all controls at once as one wide vectorized sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CruiseContext
from .errors import ValidationError
from .nlp import solve_augmented_lagrangian
from .pmp import STATE_SCALES
from .scenario import Scenario, make_context

_POS = STATE_SCALES[0]
_SPD = STATE_SCALES[2]
_V_FLOOR = 5.0  # m/s; keeps the vectorized drag finite on absurd iterates
# the tf decision variable is expressed in units of 10 s so its penalized
# gradient stays comparable to the per-node control gradients; a dominant tf
# component makes L-BFGS-B's unit-norm first step jump hundreds of seconds
# and the line search cannot recover
_TF_UNIT = 10.0
_FEAS_TOL = 1e-5   # on the scaled terminal residuals
_FD_STEP = 1e-5
_RHO0 = 1e6


@dataclass(frozen=True)
class DirectGrid:
    """Node controls of the transcribed problem."""

    N: int
    chi: np.ndarray  # (N,)
    pi: np.ndarray   # (N,)
    tf: float

    def __post_init__(self):
        if self.N < 2:
            raise ValidationError("direct grid needs at least 2 nodes")
        if len(self.chi) != self.N or len(self.pi) != self.N:
            raise ValidationError("control arrays must have N entries")


@dataclass(frozen=True)
class DirectOptions:
    N: int = 400
    max_outer: int = 8
    maxiter_inner: int = 150


@dataclass
class DirectSolution:
    scenario: Scenario
    alpha: float
    grid: DirectGrid
    t: np.ndarray          # (N+1,) node times
    states: np.ndarray     # (N+1, 4)
    cost: float
    residuals: np.ndarray  # SI units
    converged: bool
    n_fev: int
    n_outer: int


def euler_rollout(ctx: CruiseContext, x0, chi: np.ndarray, pi: np.ndarray,
                  tf, n_steps: int, full_output: bool = False):
    """Forward-Euler rollout with piecewise-constant node controls.

    `chi`/`pi` may be (N,) for a single rollout or (N, B) for a batch; `tf`
    may be scalar or (B,).  Controls are used as given -- bound satisfaction
    is the optimizer's projection, not this function's concern.
    """
    chi = np.asarray(chi, dtype=float)
    pi = np.asarray(pi, dtype=float)
    shape = chi.shape[1:]
    x = np.full(shape, float(x0[0]))
    y = np.full(shape, float(x0[1]))
    v = np.full(shape, float(x0[2]))
    m = np.full(shape, float(x0[3]))
    h = np.asarray(tf, dtype=float) / n_steps
    tmax = ctx.T_max
    traj = [np.stack([x, y, v, m])] if full_output else None
    for k in range(n_steps):
        ck, pk = chi[k], pi[k]
        wx, wy = ctx.wind.wind_at(x, y)
        vs = np.maximum(v, _V_FLOOR)
        d = ctx.qs_coeff * vs * vs + ctx.ind_coeff * m * m / (vs * vs)
        cs = ctx.model.C_s1 * (1.0 + vs / ctx.model.C_s2)
        x = x + h * (v * np.cos(ck) + wx)
        y = y + h * (v * np.sin(ck) + wy)
        v = v + h * (pk * tmax - d) / m
        m = m + h * (-pk * cs * tmax)
        if full_output:
            traj.append(np.stack([x, y, v, m]))
    final = np.stack([x, y, v, m])
    if full_output:
        return final, np.array(traj)
    return final


class _DirectRollout:
    """Decision vector [chi_0..chi_{N-1}, pi_0..pi_{N-1}, tf/Ts] -> (J, c)."""

    def __init__(self, ctx: CruiseContext, scn: Scenario, alpha: float, N: int):
        self.ctx = ctx
        self.scn = scn
        self.alpha = alpha
        self.N = N
        self.x0 = (scn.x0, scn.y0, scn.v0, scn.m0)

    def split(self, u):
        n = self.N
        return u[:n], u[n:2 * n], u[2 * n] * _TF_UNIT

    def finals(self, u_cols: np.ndarray) -> np.ndarray:
        """Batched terminal states for a (ndim, B) matrix of iterates."""
        n = self.N
        return euler_rollout(self.ctx, self.x0, u_cols[:n], u_cols[n:2 * n],
                             u_cols[2 * n] * _TF_UNIT, n)

    def cost_resid_from_final(self, final, tf):
        j = self.alpha * tf + (self.alpha - 1.0) * final[3]
        c = np.stack([
            (final[0] - self.scn.xf) / _POS,
            (final[1] - self.scn.yf) / _POS,
            (final[2] - self.scn.vf) / _SPD,
        ])
        return j, c

    def __call__(self, u):
        chi, pi, tf = self.split(u)
        if tf <= 0.0:
            return None
        final = euler_rollout(self.ctx, self.x0, chi, pi, tf, self.N)
        return self.cost_resid_from_final(final, tf)


class _GaussNewtonInner:
    """Damped Gauss-Newton minimizer of the penalized model.

    Cost and constraints depend on the decision variables only through the
    terminal state and tf, so one batched central-difference sweep yields the
    full terminal-state Jacobian.  The Levenberg-Marquardt system
    (mu I + rho Jc' Jc) d = -g then reduces to a 3x3 solve by the
    push-through identity.  This is far more robust here than a generic
    quasi-Newton method, whose unit-norm first steps explode whenever a
    single gradient component dominates.
    """

    def __init__(self, rollout: _DirectRollout, lower, upper, maxiter: int):
        self.rollout = rollout
        self.lb = np.asarray(lower, dtype=float)
        self.ub = np.asarray(upper, dtype=float)
        self.maxiter = maxiter

    def _sweep(self, z):
        """Terminal-state Jacobian (4, ndim) by batched central differences."""
        ndim = len(z)
        cols = np.repeat(z[:, None], 2 * ndim, axis=1)
        idx = np.arange(ndim)
        cols[idx, 2 * idx] += _FD_STEP
        cols[idx, 2 * idx + 1] -= _FD_STEP
        finals = self.rollout.finals(cols)
        return (finals[:, 0::2] - finals[:, 1::2]) / (2.0 * _FD_STEP)

    def __call__(self, model, z0):
        """Minimize the penalized `model` from z0 with the multipliers
        `model.nu` and penalty `model.rho`; returns (z, evaluations)."""
        nu, rho = model.nu, model.rho

        def penalized(z):
            out = self.rollout(z)
            if out is None:
                return np.inf, None
            j, c = out
            return j + nu @ c + 0.5 * rho * (c @ c), c

        alpha = self.rollout.alpha
        z = np.clip(np.array(z0, dtype=float), self.lb, self.ub)
        nfev = 0
        mu = 1e3
        m0, c = penalized(z)
        nfev += 1
        for _ in range(self.maxiter):
            jac_fin = self._sweep(z)
            nfev += 1
            jc = jac_fin[:3] / np.array([_POS, _POS, _SPD])[:, None]
            g = (alpha - 1.0) * jac_fin[3] + jc.T @ (nu + rho * c)
            g[-1] += alpha * _TF_UNIT
            moved = 0.0
            accepted = False
            for _ in range(12):
                # (mu I + rho Jc'Jc)^-1 g via the 3x3 dual system
                rhs = jc @ g
                small = mu * np.eye(3) + rho * (jc @ jc.T)
                zsol = np.linalg.solve(small, rhs)
                step = -(g - rho * (jc.T @ zsol)) / mu
                z_try = np.clip(z + step, self.lb, self.ub)
                m_try, c_try = penalized(z_try)
                nfev += 1
                if m_try < m0:
                    moved = float(np.max(np.abs(z_try - z)))
                    z, m0, c = z_try, m_try, c_try
                    mu = max(mu / 3.0, 1e-2)
                    accepted = True
                    break
                mu *= 4.0
                if mu > 1e14:
                    break
            if not accepted or moved < 1e-12:
                break
        return z, nfev


def solve_direct(scn: Scenario, options: DirectOptions | None = None,
                 alpha: float | None = None,
                 warm_start: "object | None" = None) -> DirectSolution:
    """Solve the transcribed problem; optionally warm-start from an indirect
    solution's sampled controls."""
    options = options or DirectOptions()
    alpha = scn.alpha if alpha is None else alpha
    ctx = make_context(scn)
    N = options.N
    rollout = _DirectRollout(ctx, scn, alpha, N)

    if warm_start is not None:
        traj = warm_start.trajectory
        sched = warm_start.schedule
        tf0 = sched.tf
        t_nodes = np.linspace(0.0, tf0, N, endpoint=False)
        chi0 = np.interp(t_nodes, traj.t, traj.states[:, 4])
        # throttle is discontinuous at the switches; interpolating across the
        # junctions would smear the steps, so build it piecewise per arc
        pi0 = np.where(t_nodes < sched.t1, scn.pi_max, scn.pi_min)
        mid = traj.arc_id == 1
        on_sing = (t_nodes >= sched.t1) & (t_nodes <= sched.t2)
        if np.any(mid) and np.any(on_sing):
            pi_sing = np.nan_to_num(traj.throttle[mid], nan=scn.pi_min)
            pi0[on_sing] = np.clip(
                np.interp(t_nodes[on_sing], traj.t[mid], pi_sing),
                scn.pi_min, scn.pi_max)
    else:
        tf0 = 0.95 * scn.great_circle_distance() / scn.v0
        chi_geo = math.atan2(scn.yf - scn.y0, scn.xf - scn.x0)
        chi0 = np.full(N, chi_geo)
        pi0 = np.full(N, 0.5 * (scn.pi_min + scn.pi_max))
    u0 = np.concatenate([chi0, pi0, [tf0 / _TF_UNIT]])

    lower = np.concatenate([
        np.full(N, -math.pi), np.full(N, scn.pi_min), [10.0]])
    upper = np.concatenate([
        np.full(N, math.pi), np.full(N, scn.pi_max), [3000.0]])
    inner = _GaussNewtonInner(rollout, lower, upper, options.maxiter_inner)
    res = solve_augmented_lagrangian(rollout, u0, 3, inner,
                                     feas_tol=_FEAS_TOL,
                                     max_outer=options.max_outer, rho0=_RHO0)

    chi, pi, tf = rollout.split(res.z)
    final, states = euler_rollout(ctx, rollout.x0, chi, pi, tf, N,
                                  full_output=True)
    j, c = rollout.cost_resid_from_final(final, tf)
    resid_phys = np.array([
        final[0] - scn.xf, final[1] - scn.yf, final[2] - scn.vf,
    ])
    return DirectSolution(
        scenario=scn,
        alpha=alpha,
        grid=DirectGrid(N=N, chi=chi.copy(), pi=pi.copy(), tf=float(tf)),
        t=np.linspace(0.0, float(tf), N + 1),
        states=states,
        cost=float(j),
        residuals=resid_phys,
        converged=res.converged,
        n_fev=res.n_fev,
        n_outer=res.n_outer,
    )


def chattering_metric(direct: DirectSolution, indirect) -> int:
    """Sign changes of (node throttle - singular feedback throttle) inside
    the indirect solution's singular window."""
    t1, t2 = indirect.schedule.t1, indirect.schedule.t2
    traj = indirect.trajectory
    mask = (direct.t[:-1] >= t1) & (direct.t[:-1] <= t2)
    if not np.any(mask):
        return 0
    pi_sing = np.interp(direct.t[:-1][mask], traj.t, traj.throttle)
    diff = direct.grid.pi[mask] - pi_sing
    signs = np.sign(diff)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))
