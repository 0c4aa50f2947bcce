"""Single-shooting Euler direct transcription, the independent cross-check.

Controls are piecewise-constant per node (heading and throttle both free --
this solver must not assume the navigation law it is meant to validate) and
the rollout is forward Euler, deliberately simpler than the indirect
integrator.  Each rollout is a plain Python-float loop over the nodes:
the IEEE operations of stepping NumPy arrays, in the same order and so with
the same bits, inf and NaN included, but without NumPy's per-call overhead
on single values or its overflow warnings.  An augmented-Lagrangian outer
loop enforces the terminal conditions; the inner minimizer is a projected
damped Gauss-Newton method whose terminal-state Jacobian is exact: the
Euler map is differentiated by its adjoint (reverse) recursion,
Lambda_k = Lambda_{k+1} A_k from Lambda_N = I, over the node states of the
rollout that was just accepted (Bryson & Ho, Applied Optimal Control,
ch. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CruiseContext
from .errors import ValidationError
from .pmp import STATE_SCALES
from .scenario import Scenario, make_context

_POS = STATE_SCALES[0]
_SPD = STATE_SCALES[2]
_V_FLOOR = 5.0  # m/s; keeps the vectorized drag finite on absurd iterates
# the tf decision variable is expressed in units of 10 s so its penalized
# gradient stays comparable to the per-node control gradients, which the
# inner loop's isotropic damping (mu I) treats alike
_TF_UNIT = 10.0
_FEAS_TOL = 1e-5   # on the scaled terminal residuals
_RHO0 = 1e6
# The penalty grows by this factor, up to this cap, after an outer iteration
# that cut the infeasibility by less than a factor four.
_RHO_GROWTH = 10.0
_RHO_MAX = 1e12
_MAX_OUTER = 8         # augmented-Lagrangian iterations
_MAXITER_INNER = 150   # Gauss-Newton steps per outer iteration


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
    may be scalar or (B,).  Returns the final state, (4,) or (4, B), and
    with `full_output` also the node states, (N+1, 4) or (N+1, 4, B).
    Controls are used as given -- bound satisfaction is the optimizer's
    projection, not this function's concern.

    A batch loops over its columns, each a plain-float loop whose overflow
    and zero-mass divisions give, silently, the inf and NaN of NumPy.
    """
    chi = np.asarray(chi, dtype=float)[:n_steps]
    pi = np.asarray(pi, dtype=float)[:n_steps]
    shape = chi.shape[1:]
    hs = np.broadcast_to(np.asarray(tf, dtype=float) / n_steps, shape)
    columns = zip(chi.reshape(n_steps, -1).T.tolist(),
                  pi.reshape(n_steps, -1).T.tolist(), hs.ravel().tolist())
    traj = np.stack([np.array(_euler_column(ctx, x0, c, p, h))
                     for c, p, h in columns], axis=-1)
    traj = traj.reshape((-1, 4) + shape)
    final = traj[-1].copy()
    return (final, traj) if full_output else final


def _euler_column(ctx: CruiseContext, x0, chi: list, pi: list,
                  h: float) -> list:
    """Node states of one rollout, as N+1 (x, y, v, m) tuples."""
    rows = [tuple(float(x0[i]) for i in range(4))]
    try:
        _euler_steps(ctx, rows[0], chi, pi, h, rows)
    except ZeroDivisionError:
        # a zero mass: redo the failed step and the rest on NumPy scalars,
        # which divide by zero the IEEE way
        k = len(rows) - 1
        with np.errstate(all="ignore"):
            _euler_steps(ctx, tuple(map(np.float64, rows[k])), chi[k:],
                         pi[k:], h, rows)
    return rows


def _euler_steps(ctx: CruiseContext, state, chi, pi, h, rows: list) -> None:
    """Step `state` through the node controls, appending each new state."""
    wind_at = ctx.wind.wind_at
    qs, ind, tmax = ctx.qs_coeff, ctx.ind_coeff, ctx.T_max
    cs1, cs2 = ctx.model.C_s1, ctx.model.C_s2
    cos, sin = math.cos, math.sin
    x, y, v, m = state
    append = rows.append
    for ck, pk in zip(chi, pi):
        wx, wy = wind_at(x, y)
        # keeps NaN, as np.maximum does
        vs = _V_FLOOR if v < _V_FLOOR else v
        d = qs * vs * vs + ind * m * m / (vs * vs)
        cs = cs1 * (1.0 + vs / cs2)
        x = x + h * (v * cos(ck) + wx)
        y = y + h * (v * sin(ck) + wy)
        v = v + h * (pk * tmax - d) / m
        m = m + h * (-pk * cs * tmax)
        append((x, y, v, m))


def _suffix_products(a: np.ndarray) -> np.ndarray:
    """p[k] = a[-1] @ a[-2] @ ... @ a[k] for a (n, d, d) stack, by a
    log-depth (Hillis-Steele) scan over the reversed stack."""
    p = a[::-1].copy()
    d = 1
    while d < len(p):
        p[d:] = p[:-d] @ p[d:]
        d *= 2
    return p[::-1]


class _DirectRollout:
    """Decision vector [chi_0..chi_{N-1}, pi_0..pi_{N-1}, tf/Ts] -> (J, c),
    inside the box `lower`..`upper` that every iterate is projected onto."""

    def __init__(self, ctx: CruiseContext, scn: Scenario, alpha: float, N: int):
        self.ctx = ctx
        self.scn = scn
        self.alpha = alpha
        self.N = N
        self.x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
        # tf >= 100 s, so every rollout has a positive step
        self.lower = np.concatenate([
            np.full(N, -math.pi), np.full(N, scn.pi_min), [10.0]])
        self.upper = np.concatenate([
            np.full(N, math.pi), np.full(N, scn.pi_max), [3000.0]])

    def split(self, u):
        n = self.N
        return u[:n], u[n:2 * n], u[2 * n] * _TF_UNIT

    def evaluate(self, u):
        """(J, c, node states (N+1, 4)) at u."""
        chi, pi, tf = self.split(u)
        final, states = euler_rollout(self.ctx, self.x0, chi, pi, tf, self.N,
                                      full_output=True)
        j = self.alpha * tf + (self.alpha - 1.0) * final[3]
        c = np.stack([
            (final[0] - self.scn.xf) / _POS,
            (final[1] - self.scn.yf) / _POS,
            (final[2] - self.scn.vf) / _SPD,
        ])
        return j, c, states

    def jacobian(self, u, states):
        """Exact terminal-state Jacobian d(x, y, v, m)_N / du, (4, 2N+1),
        from the node states of the rollout at u.

        Step k maps s_{k+1} = s_k + h f(s_k, chi_k, pi_k) with h = tf/N; its
        state Jacobian is A_k = I + h df/ds, so the sensitivity of the final
        state to s_{k+1} is Lambda_{k+1} = A_{N-1} ... A_{k+1}.  The control
        columns are Lambda_{k+1} h df/d(chi_k, pi_k); the tf column sums
        Lambda_{k+1} f_k dh/du_tf.
        """
        ctx, n = self.ctx, self.N
        chi, pi, tf = self.split(u)
        h = tf / n
        x, y, v, m = states[:-1].T
        tmax = ctx.T_max
        wx, wy = ctx.wind.wind_at(x, y)
        gxx, gxy, gyx, gyy = ctx.wind.wind_gradients(x, y)
        # the rollout floors v inside drag and fuel flow; there they are flat
        live = v > _V_FLOOR
        vs = np.maximum(v, _V_FLOOR)
        d_v, d_m = ctx.drag_partials(m, vs)
        d_v = np.where(live, d_v, 0.0)
        cs = ctx.fuel_coeff(vs)
        cs_v = np.where(live, ctx.cs_slope, 0.0)
        cos, sin = np.cos(chi), np.sin(chi)
        vdot = (pi * tmax - ctx.drag(m, vs)) / m

        a = np.zeros((n, 4, 4))
        a[:, 0, 0] = 1.0 + h * gxx
        a[:, 0, 1] = h * gxy
        a[:, 0, 2] = h * cos
        a[:, 1, 0] = h * gyx
        a[:, 1, 1] = 1.0 + h * gyy
        a[:, 1, 2] = h * sin
        a[:, 2, 2] = 1.0 - h * d_v / m
        a[:, 2, 3] = -h * (d_m + vdot) / m
        a[:, 3, 2] = -h * pi * tmax * cs_v
        a[:, 3, 3] = 1.0
        lam = np.empty((n, 4, 4))
        lam[:-1] = _suffix_products(a[1:])
        lam[-1] = np.eye(4)

        f = np.stack([v * cos + wx, v * sin + wy, vdot, -pi * cs * tmax], axis=1)
        cols = lam.transpose(1, 2, 0)  # cols[:, j, k]: column j of lam[k]
        jac = np.empty((4, 2 * n + 1))
        jac[:, :n] = h * v * (cols[:, 1] * cos - cols[:, 0] * sin)
        jac[:, n:2 * n] = h * tmax * (cols[:, 2] / m - cols[:, 3] * cs)
        jac[:, 2 * n] = np.einsum("kij,kj->i", lam, f) * (_TF_UNIT / n)
        return jac


def _gauss_newton(ro: _DirectRollout, z, nu, rho: float):
    """Damped Gauss-Newton minimizer of the penalized model
    J + nu . c + (rho / 2) |c|^2 from z, projected onto the box.

    Cost and constraints depend on the decision variables only through the
    terminal state and tf, so the exact terminal-state Jacobian, one backward
    sweep over the node states of the accepted rollout, gives the full
    gradient.  The Levenberg-Marquardt system (mu I + rho Jc' Jc) d = -g then
    reduces to a 3x3 solve by the push-through identity.  This is far more
    robust here than a generic quasi-Newton method, whose unit-norm first
    steps explode whenever a single gradient component dominates.  Returns
    (z, J, c, node states, evaluations) at the last accepted point.
    """

    def penalized(z):
        j, c, states = ro.evaluate(z)
        # a far-off trial overflows the model to inf or NaN, which the
        # descent test rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return j + nu @ c + 0.5 * rho * (c @ c), j, c, states

    alpha = ro.alpha
    z = np.clip(np.array(z, dtype=float), ro.lower, ro.upper)
    m0, j, c, states = penalized(z)
    nfev = 1
    mu = 1e3
    for _ in range(_MAXITER_INNER):
        jac_fin = ro.jacobian(z, states)
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
            z_try = np.clip(z + step, ro.lower, ro.upper)
            m_try, *trial = penalized(z_try)
            nfev += 1
            if m_try < m0:
                moved = float(np.max(np.abs(z_try - z)))
                z, m0, (j, c, states) = z_try, m_try, trial
                mu = max(mu / 3.0, 1e-2)
                accepted = True
                break
            mu *= 4.0
            if mu > 1e14:
                break
        if not accepted or moved < 1e-12:
            break
    return z, j, c, states, nfev


def solve_augmented_lagrangian(ro: _DirectRollout, z) -> DirectSolution:
    """Minimize J subject to the terminal conditions c = 0 by multiplier
    iterations from z, each a Gauss-Newton minimization of the penalized
    model from the last iterate.  Returns the first iterate within
    `_FEAS_TOL`, else the least infeasible one, unconverged."""
    nu = np.zeros(3)
    rho = _RHO0
    n_fev = 0
    prev_feas = np.inf
    best = None
    for outer in range(1, _MAX_OUTER + 1):
        z, j, c, states, fev = _gauss_newton(ro, z, nu, rho)
        n_fev += fev
        feas = float(np.max(np.abs(c)))
        if best is None or feas < best[0]:
            best = (feas, z, j, states)
        if feas <= _FEAS_TOL:
            break
        nu = nu + rho * c
        if feas > 0.25 * prev_feas:
            rho = min(rho * _RHO_GROWTH, _RHO_MAX)
        prev_feas = feas

    feas, z, j, states = best
    chi, pi, tf = ro.split(z)
    scn, final = ro.scn, states[-1]
    return DirectSolution(
        scenario=scn,
        alpha=ro.alpha,
        grid=DirectGrid(N=ro.N, chi=chi.copy(), pi=pi.copy(), tf=float(tf)),
        t=np.linspace(0.0, float(tf), ro.N + 1),
        states=states,
        cost=float(j),
        residuals=np.array([
            final[0] - scn.xf, final[1] - scn.yf, final[2] - scn.vf]),
        converged=feas <= _FEAS_TOL,
        n_fev=n_fev,
        n_outer=outer,
    )


def solve_direct(scn: Scenario, options: DirectOptions | None = None,
                 alpha: float | None = None,
                 warm_start: "object | None" = None) -> DirectSolution:
    """Solve the transcribed problem; optionally warm-start from an indirect
    solution's sampled controls."""
    options = options or DirectOptions()
    alpha = scn.alpha if alpha is None else alpha
    N = options.N

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
    return solve_augmented_lagrangian(
        _DirectRollout(make_context(scn), scn, alpha, N), u0)


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
