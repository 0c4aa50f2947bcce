"""Reference forms of the model that only the tests use.

The dense Jacobians of the dynamics, the heading derivative of the drift,
the tan-based navigation law, and the lift-coefficient chain for drag and
fuel flow.  The library evaluates these quantities in closed or sparse form
through `CruiseContext`; the tests check those forms against these.  Also
the path of the shipped aircraft file, which only the tests open on its own.
"""

import math
from importlib import resources
from pathlib import Path

from cruiseopt.atmosphere import AircraftModel, Atmosphere, air_density
from cruiseopt.errors import DomainError


def default_aircraft_path() -> Path:
    return Path(resources.files("cruiseopt") / "data"
                / "aircraft_medium_haul.json")


def jacobian_Q(ctx, x: float, y: float, v: float, m: float, chi: float):
    """d Q / d (x, y, v, m) as a 4-tuple of row 4-tuples."""
    dwx_dx, dwx_dy, dwy_dx, dwy_dy = ctx.wind.wind_gradients(x, y)
    d = ctx.drag(m, v)
    d_v, d_m = ctx.drag_partials(m, v)
    return (
        (dwx_dx, dwx_dy, math.cos(chi), 0.0),
        (dwy_dx, dwy_dy, math.sin(chi), 0.0),
        (0.0, 0.0, -d_v / m, -d_m / m + d / (m * m)),
        (0.0, 0.0, 0.0, 0.0),
    )


def jacobian_P(ctx, v: float, m: float):
    """d P / d (x, y, v, m); rows 1-2 are identically zero."""
    return (
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, -ctx.T_max / (m * m)),
        (0.0, 0.0, -ctx.cs_slope * ctx.T_max, 0.0),
    )


def dQ_dchi(v: float, chi: float) -> tuple[float, float, float, float]:
    return (-v * math.sin(chi), v * math.cos(chi), 0.0, 0.0)


def zermelo_rhs_tan_form(chi: float,
                         grads: tuple[float, float, float, float]) -> float:
    """Literal tan-based form of the navigation law."""
    dwx_dx, dwx_dy, dwy_dx, dwy_dy = grads
    t = math.tan(chi)
    return (-dwx_dy + (dwx_dx - dwy_dy) * t + dwy_dx * t * t) / (1.0 + t * t)


def drag(model: AircraftModel, atm: Atmosphere, m: float, v: float, h: float) -> float:
    """Parabolic-polar drag force (N) in level flight."""
    if v <= 0.0:
        raise DomainError("airspeed must be positive (lift coefficient singular)")
    if m <= 0.0:
        raise DomainError("mass must be positive")
    rho = air_density(atm, h)
    qs = 0.5 * rho * model.s * v * v
    cl = 2.0 * m * atm.g / (rho * model.s * v * v)
    return qs * (model.C_D1 + model.C_D2 * cl * cl)


def drag_partials(
    model: AircraftModel, atm: Atmosphere, m: float, v: float, h: float
) -> tuple[float, float]:
    """Analytic (dD/dv, dD/dm).

    D = (1/2) rho s C_D1 v^2 + 2 C_D2 g^2 m^2 / (rho s v^2).
    """
    if v <= 0.0:
        raise DomainError("airspeed must be positive")
    rho = air_density(atm, h)
    g2 = atm.g * atm.g
    dv = rho * model.s * model.C_D1 * v - 4.0 * model.C_D2 * g2 * m * m / (
        rho * model.s * v ** 3
    )
    dm = 4.0 * model.C_D2 * g2 * m / (rho * model.s * v * v)
    return dv, dm


def fuel_flow_coeff(model: AircraftModel, v: float) -> float:
    """Specific fuel consumption (kg/(s N)), affine in airspeed."""
    if v < 0.0:
        raise DomainError("airspeed must be nonnegative")
    return model.C_s1 * (1.0 + v / model.C_s2)
