"""Point-mass cruise dynamics in the horizontal plane.

The state is (x, y, v, m); the controls are heading chi and throttle pi.
The vector field is affine in the throttle, F = Q + pi * P, with

    Q = (v cos(chi) + w_x, v sin(chi) + w_y, -D/m, 0)
    P = (0, 0, T_max/m, -C_s(v) T_max)

The heading obeys the Zermelo navigation ODE, which is integrated in a
sin/cos form that has no poles at chi = +-pi/2.  Hot-path routines work on
plain floats through a precomputed CruiseContext; T_max and rho are constants
at the fixed cruise altitude.
"""

from __future__ import annotations

import math

import numpy as np

from .atmosphere import (
    AircraftModel,
    Atmosphere,
    air_density,
    fuel_flow_slope,
    max_thrust,
)
from .wind import WindField


class CruiseContext:
    """Precomputed per-solve constants: altitude-frozen thrust and density.

    Immutable after construction; safe to share between threads.
    """

    __slots__ = ("model", "atm", "wind", "h", "T_max", "rho", "g", "cs_slope",
                 "qs_coeff", "ind_coeff")

    def __init__(self, model: AircraftModel, atm: Atmosphere, wind: WindField,
                 h: float):
        self.model = model
        self.atm = atm
        self.wind = wind
        self.h = h
        self.T_max = max_thrust(model, h)
        self.rho = air_density(atm, h)
        self.g = atm.g
        self.cs_slope = fuel_flow_slope(model)
        # D = qs_coeff * v^2 + ind_coeff * m^2 / v^2
        self.qs_coeff = 0.5 * self.rho * model.s * model.C_D1
        self.ind_coeff = 2.0 * model.C_D2 * self.g * self.g / (self.rho * model.s)

    def drag(self, m: float, v: float) -> float:
        return self.qs_coeff * v * v + self.ind_coeff * m * m / (v * v)

    def drag_partials(self, m: float, v: float) -> tuple[float, float]:
        dv = 2.0 * self.qs_coeff * v - 2.0 * self.ind_coeff * m * m / v ** 3
        dm = 2.0 * self.ind_coeff * m / (v * v)
        return dv, dm

    def fuel_coeff(self, v: float) -> float:
        return self.model.C_s1 * (1.0 + v / self.model.C_s2)


def eval_Q(ctx: CruiseContext, x: float, y: float, v: float, m: float,
           chi: float) -> tuple[float, float, float, float]:
    """Drift field (throttle-independent part), at states or arrays."""
    wx, wy = ctx.wind.wind_at(x, y)
    return (v * np.cos(chi) + wx,
            v * np.sin(chi) + wy,
            -ctx.drag(m, v) / m,
            0.0)


def eval_P(ctx: CruiseContext, v: float, m: float) -> tuple[float, float, float, float]:
    """Control field (coefficient of the throttle in the dynamics)."""
    return (0.0, 0.0, ctx.T_max / m, -ctx.fuel_coeff(v) * ctx.T_max)


def eval_F(ctx: CruiseContext, x: float, y: float, v: float, m: float,
           chi: float, throttle: float,
           wind=None) -> tuple[float, float, float, float]:
    """Full dynamics F = Q + pi * P, written out; `wind`, the wind at
    (x, y), is looked up unless the caller has it already."""
    wx, wy = ctx.wind.wind_at(x, y) if wind is None else wind
    return (v * math.cos(chi) + wx,
            v * math.sin(chi) + wy,
            -ctx.drag(m, v) / m + throttle * (ctx.T_max / m),
            throttle * (-ctx.fuel_coeff(v) * ctx.T_max))


def zermelo_rhs(chi: float,
                grads: tuple[float, float, float, float]) -> float:
    """Heading rate from the wind-gradient navigation law.

    Evaluated in the pole-free sin/cos form; equals the tan form
    [-wx_y + (wx_x - wy_y) tan + wy_x tan^2] / (1 + tan^2) away from
    chi = +-pi/2.
    """
    dwx_dx, dwx_dy, dwy_dx, dwy_dy = grads
    s, c = math.sin(chi), math.cos(chi)
    return (s * s * dwy_dx + s * c * (dwx_dx - dwy_dy) - c * c * dwx_dy)

