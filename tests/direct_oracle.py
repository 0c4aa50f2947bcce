"""Test-only oracle for the direct transcription's terminal-state Jacobian.

`sweep` is the batched central-difference Jacobian the Gauss-Newton inner
loop used before it differentiated the Euler map exactly: every decision
variable is perturbed by +-_FD_STEP and all 2 * ndim perturbed iterates are
rolled out at once as one (ndim, 2 * ndim) batch.
"""

import numpy as np

from cruiseopt.direct import _TF_UNIT, euler_rollout

_FD_STEP = 1e-5


def finals(rollout, u_cols: np.ndarray) -> np.ndarray:
    """Batched terminal states for a (ndim, B) matrix of iterates."""
    n = rollout.N
    return euler_rollout(rollout.ctx, rollout.x0, u_cols[:n], u_cols[n:2 * n],
                         u_cols[2 * n] * _TF_UNIT, n)


def sweep(rollout, z):
    """Terminal-state Jacobian (4, ndim) by batched central differences."""
    ndim = len(z)
    cols = np.repeat(z[:, None], 2 * ndim, axis=1)
    idx = np.arange(ndim)
    cols[idx, 2 * idx] += _FD_STEP
    cols[idx, 2 * idx + 1] -= _FD_STEP
    fin = finals(rollout, cols)
    return (fin[:, 0::2] - fin[:, 1::2]) / (2.0 * _FD_STEP)
