"""Generic-matrix oracle for the closed-form singular-arc algebra.

Builds the 4x4 co-state system matrix row by row from the dynamics and
solves, scales and differentiates it with NumPy and central differences,
the way the library did before its algebra was written out by hand; the
co-state equation comes from the dense Jacobians the same way.  Only the
tests use it.

`lie_A` and `solve_costates_unit` are the closed-form bracket A and the
unit-weight singular-arc co-state, kept here because only the tests call
them; the library reaches the same algebra through `pmp._polar` and
`pmp._system`.
"""

import math

import numpy as np

from cruiseopt.dynamics import CruiseContext, eval_P, eval_Q, zermelo_rhs
from cruiseopt.pmp import (EPS_DET, STATE_SCALES, Costate, _polar, _system,
                          _unit_costate)

from model_oracle import jacobian_P, jacobian_Q

SCALES = np.array(STATE_SCALES)


def lie_A(ctx: CruiseContext, v: float, m: float, chi: float):
    """Bracket vector A = (dP/dX) Q - (dQ/dX) P, analytic.

    Wind cancels out of the bracket, so A depends on (v, m, chi) only.
    """
    pol = _polar(ctx, v, m)
    tm = ctx.T_max / m
    return (-tm * math.cos(chi), -tm * math.sin(chi), pol[4], pol[5])


def solve_costates_unit(ctx: CruiseContext, x: float, y: float, v: float,
                        m: float, chi: float, eps_det: float = EPS_DET):
    """Solve the singular-arc co-state system normalized to unit cost weight.

    Returns lambda satisfying <l,P>=0, <l,A>=0, <l,Q>=-1 and
    lx sin(chi) - ly cos(chi) = 0, together with the equilibrated
    determinant.  The physical co-state for weight alpha is alpha times
    this vector.
    """
    sysm = _system(ctx, ctx.wind.wind_at(x, y), v, m, chi)
    return _unit_costate(m, sysm, eps_det), sysm[9]


def costate_rhs(ctx, x, y, v, m, chi, throttle, lam):
    """d lambda / dt = -(dQ/dX + pi dP/dX)^T lambda from the dense
    Jacobians."""
    jq = jacobian_Q(ctx, x, y, v, m, chi)
    jp = jacobian_P(ctx, v, m)
    out = []
    for j in range(4):
        acc = 0.0
        for i in range(4):
            acc += lam[i] * (jq[i][j] + throttle * jp[i][j])
        out.append(-acc)
    return tuple(out)


def build_M(ctx, x, y, v, m, chi):
    """Rows P, A, Q with the mass slot zeroed, and the heading row
    (sin chi, -cos chi, 0, 0)."""
    q = np.array(eval_Q(ctx, x, y, v, m, chi))
    q[3] = 0.0
    return np.array([
        eval_P(ctx, v, m),
        lie_A(ctx, v, m, chi),
        q,
        (np.sin(chi), -np.cos(chi), 0.0, 0.0),
    ])


def equilibrate(mat):
    """Column-scale by the state scales, then give each row unit 2-norm."""
    cols = mat / SCALES[None, :]
    norms = np.linalg.norm(cols, axis=1)
    return cols / norms[:, None], norms


def scaled_det(ctx, x, y, v, m, chi):
    rows, _ = equilibrate(build_M(ctx, x, y, v, m, chi))
    return float(np.linalg.det(rows))


def costates_solve(ctx, x, y, v, m, chi, alpha):
    """Co-state from a dense solve of the equilibrated system."""
    rows, norms = equilibrate(build_M(ctx, x, y, v, m, chi))
    rhs = np.array([0.0, 0.0, -alpha / norms[2], 0.0])
    return Costate(*(np.linalg.solve(rows, rhs) / SCALES))


def costates_adjugate(ctx, x, y, v, m, chi, alpha):
    """Adjugate-form co-state solve of the column-scaled system."""
    scaled = build_M(ctx, x, y, v, m, chi) / SCALES[None, :]
    det = np.linalg.det(scaled)
    adj = np.linalg.inv(scaled) * det
    lam_scaled = adj @ np.array([0.0, 0.0, -alpha, 0.0]) / det
    return Costate(*(lam_scaled / SCALES))


def dA_dX_fd(ctx, v, m, chi, rel=1e-6):
    """Central-difference Jacobian of A; only the v and m columns move."""
    hv = rel * max(STATE_SCALES[2], abs(v))
    hm = rel * max(STATE_SCALES[3], abs(m))
    col_v = (np.array(lie_A(ctx, v + hv, m, chi))
             - np.array(lie_A(ctx, v - hv, m, chi))) / (2.0 * hv)
    col_m = (np.array(lie_A(ctx, v, m + hm, chi))
             - np.array(lie_A(ctx, v, m - hm, chi))) / (2.0 * hm)
    return np.column_stack([np.zeros(4), np.zeros(4), col_v, col_m])


def lie_B_D(ctx, x, y, v, m, chi):
    """B = (dA/dX) Q - (dQ/dX) A and D = (dA/dX) P - (dP/dX) A."""
    da = dA_dX_fd(ctx, v, m, chi)
    a = np.array(lie_A(ctx, v, m, chi))
    q = np.array(eval_Q(ctx, x, y, v, m, chi))
    p = np.array(eval_P(ctx, v, m))
    jq = np.array(jacobian_Q(ctx, x, y, v, m, chi))
    jp = np.array(jacobian_P(ctx, v, m))
    return da @ q - jq @ a, da @ p - jp @ a


def singular_throttle(ctx, x, y, v, m, chi, alpha):
    """(throttle, lc) from the solved co-state and the FD brackets."""
    lam = np.array(costates_solve(ctx, x, y, v, m, chi, alpha).as_tuple())
    b, d = lie_B_D(ctx, x, y, v, m, chi)
    return -float(lam @ b) / float(lam @ d), -float(lam @ d)


def _transport_rate(ctx, x, y, v, m, chi, field, chidot, rel):
    """Derivative of the equilibrated determinant along a state field and
    a heading rate: central differences at steps h and h/2, Richardson
    extrapolated.  h moves the largest scaled coordinate by `rel`."""
    xs = np.array([x, y, v, m])
    field = np.asarray(field)
    h = rel / max(np.max(np.abs(field) / np.maximum(SCALES, np.abs(xs))),
                  abs(chidot))

    def det(t):
        return scaled_det(ctx, *(xs + t * field), chi + t * chidot)

    wide = (det(h) - det(-h)) / (2.0 * h)
    narrow = (det(0.5 * h) - det(-0.5 * h)) / h
    return (4.0 * narrow - wide) / 3.0


def throttle_alpha0(ctx, x, y, v, m, chi, rel=3e-4):
    """Zero-weight throttle holding d/dt det = 0 along the flow, with the
    derivatives along Q (and the heading rate) and along P taken by
    differences of the equilibrated determinant."""
    chidot = zermelo_rhs(chi, ctx.wind.wind_gradients(x, y))
    q = eval_Q(ctx, x, y, v, m, chi)
    p = eval_P(ctx, v, m)
    return (-_transport_rate(ctx, x, y, v, m, chi, q, chidot, rel)
            / _transport_rate(ctx, x, y, v, m, chi, p, 0.0, rel))
