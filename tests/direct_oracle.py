"""Test-only oracles for the direct transcription.

`euler_rollout_numpy` is the NumPy rollout the library ran before its
plain-float loop: all columns of an (N, B) batch advance together, one
array operation per formula and step, with NumPy's IEEE overflow and
zero-division semantics.  The plain-float rollout must match it bit for bit.

`sweep` is the batched central-difference Jacobian the Gauss-Newton inner
loop used before it differentiated the Euler map exactly: every decision
variable is perturbed by +-_FD_STEP and all 2 * ndim perturbed iterates are
rolled out at once as one (ndim, 2 * ndim) batch.
"""

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


def sweep(rollout, z):
    """Terminal-state Jacobian (4, ndim) by batched central differences."""
    ndim = len(z)
    cols = np.repeat(z[:, None], 2 * ndim, axis=1)
    idx = np.arange(ndim)
    cols[idx, 2 * idx] += _FD_STEP
    cols[idx, 2 * idx + 1] -= _FD_STEP
    fin = finals(rollout, cols)
    return (fin[:, 0::2] - fin[:, 1::2]) / (2.0 * _FD_STEP)
