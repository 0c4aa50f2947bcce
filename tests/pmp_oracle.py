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

`closed_costate_rhs` is the library's closed-form co-state equation,
which only the tests evaluate at single states; `scalar_costate_coefficients`
is its coefficient vector as computed on plain floats before it took
arrays.

`composed_feedback` is the generic singular feedback as the library
composed it from `pmp._system`, `pmp._det`, `pmp._unit_costate` and
`pmp._brackets`
before `pmp.singular_throttle` wrote that composition out; the written-out
throttle must equal its throttle bit for bit, errors included.
"""

import math
from typing import NamedTuple

import numpy as np

from cruiseopt.dynamics import CruiseContext, eval_P, eval_Q, zermelo_rhs
from cruiseopt.errors import SingularDenominatorError
from cruiseopt.pmp import (EPS_DEN, STATE_SCALES, _brackets, _det, _polar,
                          _system, _unit_costate, adjoint_rate,
                          costate_coefficients)

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
                        m: float, chi: float):
    """Solve the singular-arc co-state system normalized to unit cost weight.

    Returns lambda satisfying <l,P>=0, <l,A>=0, <l,Q>=-1 and
    lx sin(chi) - ly cos(chi) = 0, together with the equilibrated
    determinant.  The physical co-state for weight alpha is alpha times
    this vector.
    """
    sysm = _system(ctx, ctx.wind.wind_at(x, y), v, m, math.cos(chi),
                   math.sin(chi))
    return _unit_costate(ctx, m, sysm), _det(ctx, m, sysm)


class FeedbackEval(NamedTuple):
    """One evaluation of the singular throttle feedback with diagnostics."""

    throttle: float          # unclamped value
    lam: tuple               # physical co-state
    det_scaled: float        # equilibrated determinant of the system matrix
    lc: float                # -<lambda, D>, the second-order condition value


def composed_feedback(ctx: CruiseContext, v: float, m: float, chi: float,
                      wind, grads, alpha: float) -> FeedbackEval:
    """Feedback throttle on the singular arc, composed from the library's
    system, unit co-state and bracket helpers; `wind` and `grads` are the
    wind and its gradients at the position."""
    sysm = _system(ctx, wind, v, m, math.cos(chi), math.sin(chi))
    lx, ly, lv, lm = _unit_costate(ctx, m, sysm)
    b, d = _brackets(ctx, m, sysm[0], sysm[1], sysm[4], grads)
    num = lx * b[0] + ly * b[1] + lv * b[2] + lm * b[3]
    den = lx * d[0] + ly * d[1] + lv * d[2] + lm * d[3]
    if abs(den) <= EPS_DEN:
        raise SingularDenominatorError(
            f"<lambda, D> = {den:.3e} below threshold {EPS_DEN:.1e}"
        )
    return FeedbackEval(-num / den,
                        (alpha * lx, alpha * ly, alpha * lv, alpha * lm),
                        _det(ctx, m, sysm), -alpha * den)


def scalar_costate_coefficients(ctx, v, m, chi, grads, throttle):
    """`pmp.costate_coefficients` at one state of plain floats, as the
    library computed it before it took arrays: the drag slope from
    `CruiseContext.drag_partials`, whose cube is then libm's `pow`, and the
    heading's cosine and sine from `math`.  The array form must match it
    bit for bit."""
    wxx, wxy, wyx, wyy = grads
    d_v, d_m = ctx.drag_partials(m, v)
    return (wxx, wxy, wyx, wyy, math.cos(chi), math.sin(chi), -d_v / m,
            throttle * (-ctx.cs_slope * ctx.T_max),
            (-d_m / m + ctx.drag(m, v) / (m * m))
            + throttle * (-ctx.T_max / (m * m)))


def closed_costate_rhs(ctx, v, m, chi, grads, throttle, lam):
    """d lambda / dt = -(dQ/dX + pi dP/dX)^T lambda from the library's
    closed form, `pmp.costate_coefficients` applied by `pmp.adjoint_rate`;
    `grads` are the wind gradients at the position."""
    return adjoint_rate(costate_coefficients(ctx, v, m, chi, grads,
                                             throttle), lam)


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
    return tuple(np.linalg.solve(rows, rhs) / SCALES)


def costates_adjugate(ctx, x, y, v, m, chi, alpha):
    """Adjugate-form co-state solve of the column-scaled system."""
    scaled = build_M(ctx, x, y, v, m, chi) / SCALES[None, :]
    det = np.linalg.det(scaled)
    adj = np.linalg.inv(scaled) * det
    lam_scaled = adj @ np.array([0.0, 0.0, -alpha, 0.0]) / det
    return tuple(lam_scaled / SCALES)


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
    lam = np.array(costates_solve(ctx, x, y, v, m, chi, alpha))
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


def throttle_alpha0(ctx, x, y, v, m, chi, rel=1e-4):
    """Zero-weight throttle holding d/dt det = 0 along the flow, with the
    derivatives along Q (and the heading rate) and along P taken by
    differences of the equilibrated determinant.

    `rel` balances truncation against rounding.  Over 1790 states of the
    test box (random, rounded, on the heading poles and at its corners),
    the worst error against the closed form, as a share of the test's
    tolerance (1e-7 absolute plus 1e-7 relative), is 2.8 at rel = 3e-4
    (truncation, at a slow state heading due north), 0.56 at 2e-4, 0.13 at
    1e-4, 0.20 at 5e-5, 1.6 at 3e-5 and 1.0 at 1e-5 (rounding, at a heavy
    negative throttle)."""
    chidot = zermelo_rhs(chi, ctx.wind.wind_gradients(x, y))
    q = eval_Q(ctx, x, y, v, m, chi)
    p = eval_P(ctx, v, m)
    return (-_transport_rate(ctx, x, y, v, m, chi, q, chidot, rel)
            / _transport_rate(ctx, x, y, v, m, chi, p, 0.0, rel))
