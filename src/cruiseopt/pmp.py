"""Pontryagin machinery for the cruise problem.

Everything needed to classify and evaluate the controls lives here: the
Hamiltonian and co-state dynamics, the throttle switching function, the
bracket vectors A, B, D built from the drift field Q and control field P,
the co-state on the singular arc, and the singular throttle feedback (both
the generic form and the degenerate zero-time-weight form driven by the
determinant transport condition).

All of it is closed form.  A depends on the state only through (v, m, chi)
and the drag polar D = a v^2 + b m^2 / v^2, so dA/dX, B and D are written
out by hand.  On the singular arc the conditions S = 0, dS/dt = 0,
H = -alpha and the heading row (sin chi, -cos chi, 0, 0) solve by
substitution, with A_v, A_m the speed and mass components of A:

    (lam_x, lam_y) = k lam_m (cos chi, sin chi),   lam_v = m C_s lam_m,
    k = (m / T) (m C_s A_v + A_m),   lam_m = -alpha / (k V_g - C_s D),

where V_g = v + w . (cos chi, sin chi) is the ground speed along the
heading.  The heading row has no pole at chi = +-pi/2.  Whether the system
is well posed is judged on its determinant after column scaling by the
state scales and normalization of each row to unit 2-norm.  Resolving the
planar columns along and across the heading turns that determinant into a
3x3 minor over three row norms, which the zero-weight feedback
differentiates along the flow by the quotient rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import CruiseContext, eval_P, eval_Q, zermelo_rhs
from .errors import DegenerateArcError, IllConditionedSystemError, SingularDenominatorError

# Nondimensionalization used to condition the co-state algebra:
# x, y by 1e6 m; v by 1e2 m/s; m by 1e4 kg; t by 1e3 s.
STATE_SCALES = (1.0e6, 1.0e6, 1.0e2, 1.0e4)
TIME_SCALE = 1.0e3
_SX, _, _SV, _SM = STATE_SCALES

EPS_DET = 1.0e-10   # on the equilibrated determinant
EPS_DEN = 1.0e-12   # on the feedback denominator (unit-costate normalization)


@dataclass(frozen=True)
class Costate:
    lam_x: float
    lam_y: float
    lam_v: float
    lam_m: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.lam_x, self.lam_y, self.lam_v, self.lam_m)


def hamiltonian(ctx: CruiseContext, x: float, y: float, v: float, m: float,
                chi: float, throttle: float, lam) -> float:
    """Inner product of the co-state with the dynamics (interior arcs)."""
    q = eval_Q(ctx, x, y, v, m, chi)
    p = eval_P(ctx, v, m)
    return sum(lam[i] * (q[i] + throttle * p[i]) for i in range(4))


def costate_rhs(ctx: CruiseContext, v: float, m: float, chi: float, grads,
                throttle: float, lam):
    """d lambda / dt = -(dQ/dX + pi dP/dX)^T lambda; `grads` are the wind
    gradients at the position.

    Written out from the sparse Jacobians: the position rows carry the wind
    gradients, the speed row the heading and the drag slope, and the mass
    row the drag's mass terms and the thrust-to-mass ratio.
    """
    wxx, wxy, wyx, wyy = grads
    lx, ly, lv, lm = lam
    d_v, d_m = ctx.drag_partials(m, v)
    return (-(lx * wxx + ly * wyx),
            -(lx * wxy + ly * wyy),
            -(lx * math.cos(chi) + ly * math.sin(chi) + lv * (-d_v / m)
              + lm * (throttle * (-ctx.cs_slope * ctx.T_max))),
            -(lv * ((-d_m / m + ctx.drag(m, v) / (m * m))
                    + throttle * (-ctx.T_max / (m * m)))))


def switching_function(ctx: CruiseContext, v: float, m: float, lam) -> float:
    """S = <lambda, P> = lam_v T_max/m - lam_m C_s(v) T_max."""
    return lam[2] * ctx.T_max / m - lam[3] * ctx.fuel_coeff(v) * ctx.T_max


def _polar(ctx: CruiseContext, v: float, m: float):
    """C_s, the drag D with its partials D_v, D_m, and the speed and mass
    components A_v, A_m of the bracket A with their partials av_v = dA_v/dv,
    av_m = dA_v/dm, am_v = dA_m/dv and am_m = dA_m/dm.

    With the drag polar D = a v^2 + b m^2 / v^2, u = a v / m^2 and
    w = b / v^3: D = m^2 v (u + w), D / m^2 - D_m / m = v (u - w) and
    A_v = T (u - w) (2 + C_s v), where C_s = C_s1 (1 + v / C_s2).
    """
    tmax, cs_v = ctx.T_max, ctx.cs_slope
    cs = ctx.fuel_coeff(v)
    m2 = m * m
    u = ctx.qs_coeff * v / m2
    w = ctx.ind_coeff / (v * v * v)
    f = 2.0 + cs * v
    drag = m2 * v * (u + w)
    d_v = 2.0 * m2 * (u - w)
    a_m = cs_v * tmax * drag / m
    av_v = tmax * ((u + 3.0 * w) * f / v + (u - w) * (cs_v * v + cs))
    av_m = -2.0 * tmax * u * f / m
    am_v = cs_v * tmax * d_v / m
    am_m = -cs_v * tmax * v * (u - w)
    return (cs, drag, d_v, 2.0 * m * v * w, tmax * (u - w) * f, a_m,
            av_v, av_m, am_v, am_m)


def _brackets(ctx: CruiseContext, m: float, c: float, s: float, pol, grads):
    """B and D from the `_polar` tuple, the heading's cosine and sine and the
    wind gradients; see `lie_B_D`."""
    tmax = ctx.T_max
    cs, drag, d_v, d_m, a_v, a_m, av_v, av_m, am_v, am_m = pol
    wxx, wxy, wyx, wyy = grads
    tm = tmax / m
    q_v = -drag / m
    p_m = -cs * tmax
    b = (tm * (wxx * c + wxy * s) - c * a_v,
         tm * (wyx * c + wyy * s) - s * a_v,
         q_v * av_v + (d_v * a_v + (d_m - drag / m) * a_m) / m,
         q_v * am_v)
    d = (tm * c * p_m / m,
         tm * s * p_m / m,
         tm * av_v + p_m * av_m + tm * a_m / m,
         tm * am_v + p_m * am_m + ctx.cs_slope * tmax * a_v)
    return b, d


def lie_B_D(ctx: CruiseContext, x: float, y: float, v: float, m: float,
            chi: float):
    """Second-level bracket vectors, analytic.

    B = (dA/dX) Q - (dQ/dX) A  and  D = (dA/dX) P - (dP/dX) A.  Only the v
    and m columns of dA/dX are nonzero and Q has no mass component, so
    (dA/dX) Q = Q_v dA/dv and (dA/dX) P = P_v dA/dv + P_m dA/dm.
    """
    return _brackets(ctx, m, math.cos(chi), math.sin(chi), _polar(ctx, v, m),
                     ctx.wind.wind_gradients(x, y))


def _system(ctx: CruiseContext, wind, v: float, m: float, chi: float):
    """The singular-arc system at one state with wind `wind` = (w_x, w_y),
    resolved along and across the heading.

    Returns (c, s, vg, wn, polar, k, delta, rows, norms, det): the
    heading's cosine and sine, the ground speed along the heading and the
    wind across it, the `_polar` tuple, the co-state factor k, the
    denominator delta = k V_g - C_s D, the column-scaled P, A and Q rows
    without their zero entries, their squared 2-norms, and the equilibrated
    determinant.  In this frame the heading row is (0, -1, 0, 0) and the
    planar parts of P, A and Q are (0, 0), (-T/m, 0) and (V_g, W_n), so
    det M = -(T/m)^2 delta; the heading row's scaled norm is 1 / s_x.
    """
    wx, wy = wind
    c, s = math.cos(chi), math.sin(chi)
    vg = v + wx * c + wy * s
    wn = wy * c - wx * s
    pol = _polar(ctx, v, m)
    cs, drag, a_v, a_m = pol[0], pol[1], pol[4], pol[5]
    tmax = ctx.T_max
    tm = tmax / m
    k = m * (m * cs * a_v + a_m) / tmax
    delta = k * vg - cs * drag
    p0, p1 = tm / _SV, cs * tmax / _SM
    r0, r1, r2 = tm / _SX, a_v / _SV, a_m / _SM
    q0, q1, q2 = vg / _SX, wn / _SX, drag / (m * _SV)
    norms = (p0 * p0 + p1 * p1, r0 * r0 + r1 * r1 + r2 * r2,
             q0 * q0 + q1 * q1 + q2 * q2)
    det = -tm * tm * delta / (_SX * _SV * _SM * math.sqrt(
        norms[0] * norms[1] * norms[2]))
    return (c, s, vg, wn, pol, k, delta, (p0, p1, r0, r1, r2, q0, q1, q2),
            norms, det)


def scaled_det(ctx: CruiseContext, x: float, y: float, v: float, m: float,
               chi: float) -> float:
    """Determinant of the equilibrated system matrix (bounded by 1): rows P,
    A, Q with the mass slot zeroed and (sin chi, -cos chi, 0, 0), scaled
    column-wise by STATE_SCALES and then to unit row 2-norm."""
    return _system(ctx, ctx.wind.wind_at(x, y), v, m, chi)[9]


def _unit_costate(m: float, sysm, eps_det: float):
    """Unit-weight co-state from a `_system` tuple, guarded on its
    determinant."""
    c, s, _, _, pol, k, delta, _, _, det = sysm
    if abs(det) < eps_det:
        # unit rows: 1/|det| stands in for the condition number
        raise IllConditionedSystemError(
            det, 1.0 / abs(det) if det else math.inf)
    lam_m = -1.0 / delta
    rho = k * lam_m
    return rho * c, rho * s, m * pol[0] * lam_m, lam_m


def solve_costates_on_singular(ctx: CruiseContext, x: float, y: float,
                               v: float, m: float, chi: float, alpha: float,
                               eps_det: float = EPS_DET) -> Costate:
    """Co-state on the singular arc for cost weight alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("algebraic co-state solve requires alpha > 0")
    lx, ly, lv, lm = _unit_costate(
        m, _system(ctx, ctx.wind.wind_at(x, y), v, m, chi), eps_det)
    return Costate(alpha * lx, alpha * ly, alpha * lv, alpha * lm)


class FeedbackEval(NamedTuple):
    """One evaluation of the singular throttle feedback with diagnostics."""

    throttle: float          # unclamped value
    lam: tuple | None        # physical co-state (None on the alpha=0 route)
    det_scaled: float        # equilibrated determinant of the system matrix
    lc: float                # -<lambda, D>, the second-order condition value


def singular_throttle(ctx: CruiseContext, v: float, m: float, chi: float,
                      wind, grads, alpha: float) -> FeedbackEval:
    """Feedback throttle on the singular arc from the vanishing of the
    second derivative of the switching function; `wind` and `grads` are the
    wind and its gradients at the position.

    The heading-rate term chidot <lambda, dA/dchi> of that derivative is
    identically zero: (lam_x, lam_y) lies along the heading and dA/dchi
    across it.
    """
    sysm = _system(ctx, wind, v, m, chi)
    lx, ly, lv, lm = _unit_costate(m, sysm, EPS_DET)
    b, d = _brackets(ctx, m, sysm[0], sysm[1], sysm[4], grads)
    num = lx * b[0] + ly * b[1] + lv * b[2] + lm * b[3]
    den = lx * d[0] + ly * d[1] + lv * d[2] + lm * d[3]
    if abs(den) <= EPS_DEN:
        raise SingularDenominatorError(
            f"<lambda, D> = {den:.3e} below threshold {EPS_DEN:.1e}"
        )
    return FeedbackEval(-num / den,
                        (alpha * lx, alpha * ly, alpha * lv, alpha * lm),
                        sysm[9], -alpha * den)


def singular_throttle_alpha0(ctx: CruiseContext, v: float, m: float,
                             chi: float, wind, grads) -> FeedbackEval:
    """Zero-time-weight singular throttle from determinant transport.

    With zero cost weight the algebraic co-state solve degenerates and the
    singular arc holds the equilibrated determinant of `scaled_det` at its
    value from t1: d/dt det = d_Q det + pi d_P det = 0, where d_F is the
    derivative along the field F.  The derivative along Q includes the
    heading-rate term (which vanishes for constant wind).  Both come from
    det = g / N, g = -(T/m)^2 delta / (s_x s_v s_m), N the product of the
    three row norms, by the quotient rule.  `wind` and `grads` are the wind
    and its gradients at the position.
    """
    chidot = zermelo_rhs(chi, grads)
    tmax, cs_v = ctx.T_max, ctx.cs_slope
    (c, s, vg, wn, pol, k, delta, rows, (np2, na2, nq2),
     det) = _system(ctx, wind, v, m, chi)
    cs, drag, d_v, d_m, a_v, a_m, av_v, av_m, am_v, am_m = pol
    p0, p1, r0, r1, r2, q0, q1, q2 = rows
    tm = tmax / m
    norm = math.sqrt(np2 * na2 * nq2)
    scale = _SX * _SV * _SM
    g = -tm * tm * delta / scale

    def rate(dv, dm, dwx, dwy, dchi):
        dvg = dv + c * dwx + s * dwy + wn * dchi
        dwn = c * dwy - s * dwx - (vg - v) * dchi
        dcs = cs_v * dv
        dtm = -tm * dm / m
        dav = av_v * dv + av_m * dm
        dam = am_v * dv + am_m * dm
        ddrag = d_v * dv + d_m * dm
        dk = (m * (m * (dcs * a_v + cs * dav) + dam)
              + dm * (2.0 * m * cs * a_v + a_m)) / tmax
        ddelta = dk * vg + k * dvg - dcs * drag - cs * ddrag
        dg = -(2.0 * tm * dtm * delta + tm * tm * ddelta) / scale
        dlog = ((p0 * dtm / _SV + p1 * dcs * tmax / _SM) / np2
                + (r0 * dtm / _SX + r1 * dav / _SV + r2 * dam / _SM) / na2
                + (q0 * dvg / _SX + q1 * dwn / _SX
                   + q2 * (ddrag - drag * dm / m) / (m * _SV)) / nq2)
        return (dg - g * dlog) / norm

    wxx, wxy, wyx, wyy = grads
    qx, qy = vg * c - wn * s, vg * s + wn * c      # ground velocity
    num = rate(-drag / m, 0.0, wxx * qx + wxy * qy, wyx * qx + wyy * qy,
               chidot)
    den = rate(tm, -cs * tmax, 0.0, 0.0, 0.0)
    if abs(den) <= EPS_DEN:
        raise DegenerateArcError(
            f"determinant-gradient denominator {den:.3e} below {EPS_DEN:.1e}"
        )
    return FeedbackEval(-num / den, None, det, math.nan)


def evaluate_feedback(ctx: CruiseContext, x: float, y: float, v: float,
                      m: float, chi: float, alpha: float, wind=None,
                      grads=None) -> FeedbackEval:
    """Singular throttle at a point, dispatching on the cost weight.

    `wind` and `grads`, the wind and its gradients at (x, y), are looked up
    unless the caller has them already.
    """
    if wind is None:
        wind = ctx.wind.wind_at(x, y)
        grads = ctx.wind.wind_gradients(x, y)
    if alpha == 0.0:
        return singular_throttle_alpha0(ctx, v, m, chi, wind, grads)
    return singular_throttle(ctx, v, m, chi, wind, grads, alpha)


def legendre_clebsch(ctx: CruiseContext, x: float, y: float, v: float,
                     m: float, chi: float, lam) -> float:
    """-<lambda, D>; nonnegativity is the second-order necessary condition."""
    _, d = lie_B_D(ctx, x, y, v, m, chi)
    return -sum(lam[i] * d[i] for i in range(4))
