"""Test-only oracles for the direct transcription.

`euler_rollout_numpy` is the NumPy rollout the library ran before its
plain-float loop: all columns of an (N, B) batch advance together, one
array operation per formula and step, with NumPy's IEEE overflow and
zero-division semantics.  The plain-float rollout must match it bit for bit.

`sweep` is the batched central-difference Jacobian the Gauss-Newton inner
loop used before it differentiated the Euler map exactly: every decision
variable is perturbed by +-_FD_STEP and all 2 * ndim perturbed iterates are
rolled out at once as one (ndim, 2 * ndim) batch.

`solve_augmented_lagrangian`, with `PenalizedModel` and `ALResult`, is the
generic multiplier loop the direct solve ran before its own: any inner
minimizer of the penalized model plugs in, and it rolls out each inner
result once more to read its cost and constraints.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cruiseopt.direct import _TF_UNIT, _V_FLOOR

_FD_STEP = 1e-5


def euler_rollout_numpy(ctx, x0, chi: np.ndarray, pi: np.ndarray,
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
    if full_output:
        traj = np.empty((n_steps + 1, 4) + shape)
        traj[0] = np.stack([x, y, v, m])
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
            row = traj[k + 1]
            row[0], row[1], row[2], row[3] = x, y, v, m
    if full_output:
        return traj[-1].copy(), traj
    return np.stack([x, y, v, m])


def finals(rollout, u_cols: np.ndarray) -> np.ndarray:
    """Batched terminal states for a (ndim, B) matrix of iterates."""
    n = rollout.N
    return euler_rollout_numpy(rollout.ctx, rollout.x0, u_cols[:n],
                               u_cols[n:2 * n], u_cols[2 * n] * _TF_UNIT, n)


def sweep(rollout, z, step=_FD_STEP):
    """Terminal-state Jacobian (4, ndim) by batched central differences."""
    ndim = len(z)
    cols = np.repeat(z[:, None], 2 * ndim, axis=1)
    idx = np.arange(ndim)
    cols[idx, 2 * idx] += step
    cols[idx, 2 * idx + 1] -= step
    fin = finals(rollout, cols)
    return (fin[:, 0::2] - fin[:, 1::2]) / (2.0 * step)


# Penalty the penalized model returns for rollouts that fail outright.
FAILURE_PENALTY = 1.0e9
# The penalty grows by this factor, up to this cap, after an outer iteration
# that cut the infeasibility by less than a factor four.
_RHO_GROWTH = 10.0
_RHO_MAX = 1e12


@dataclass
class ALResult:
    z: np.ndarray
    cost: float
    resid: np.ndarray
    nu: np.ndarray
    rho: float
    converged: bool
    n_outer: int
    n_fev: int
    history: list = field(default_factory=list)


class PenalizedModel:
    """The penalized scalar model J + nu . c + (rho / 2) |c|^2 at fixed
    multipliers `nu` and penalty `rho`, which an inner minimizer may read."""

    def __init__(self, evaluate, nu: np.ndarray, rho: float):
        self.evaluate = evaluate
        self.nu = nu
        self.rho = rho

    def __call__(self, z) -> float:
        out = self.evaluate(z)
        if out is None:
            return FAILURE_PENALTY
        j, c = out
        return j + self.nu @ c + 0.5 * self.rho * (c @ c)


def solve_augmented_lagrangian(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray] | None],
    z0: np.ndarray,
    n_constraints: int,
    inner: Callable[[PenalizedModel, np.ndarray], tuple[np.ndarray, int]],
    *,
    feas_tol: float = 1e-6,
    max_outer: int = 8,
    rho0: float = 1e4,
    nu0: np.ndarray | None = None,
) -> ALResult:
    """Minimize J(z) subject to c(z) = 0 by multiplier iterations.

    `evaluate(z)` returns (J, c) or None when the rollout failed;
    `inner(model, z)` minimizes the penalized scalar model from z and
    returns (z_new, function_evaluations); the model carries the current
    `nu` and `rho` for inner minimizers that assemble their own system.
    """
    nu = np.zeros(n_constraints) if nu0 is None else np.array(nu0, dtype=float)
    rho = float(rho0)
    z = np.array(z0, dtype=float)
    n_fev = 0
    prev_feas = np.inf
    history = []
    best = None

    for outer in range(max_outer):
        z, fev = inner(PenalizedModel(evaluate, nu, rho), z)
        n_fev += fev
        out = evaluate(z)
        if out is None:
            # inner landed on a failing point; restart from z0 is pointless,
            # report divergence
            return ALResult(z, np.inf, np.full(n_constraints, np.inf), nu,
                            rho, False, outer + 1, n_fev, history)
        j, c = out
        feas = float(np.max(np.abs(c)))
        history.append({"outer": outer, "cost": j, "feas": feas, "rho": rho})
        if best is None or feas < best[0]:
            best = (feas, z.copy(), j, c.copy())
        nu = nu + rho * c
        if feas <= feas_tol:
            return ALResult(z, j, c, nu, rho, True, outer + 1, n_fev, history)
        if feas > 0.25 * prev_feas:
            rho = min(rho * _RHO_GROWTH, _RHO_MAX)
        prev_feas = feas

    feas, zb, jb, cb = best
    return ALResult(zb, jb, cb, nu, rho, feas <= feas_tol, max_outer, n_fev,
                    history)
