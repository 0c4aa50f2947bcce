"""Planar wind fields: a divergence-free second-order polynomial and a
constant field.

The polynomial x-component is a full quadratic in (x, y); the y-component is
built as the closed-form antiderivative of -dw_x/dx in y plus a quadratic
f(x), which makes dw_x/dx + dw_y/dy vanish identically:

    w_x = wxb * (a0 + a1 X + a2 X^2 + a3 Y + a4 Y^2 + a5 X Y)
    w_y = -wxb * (a1 Y + 2 a2 X Y + (a5/2) Y^2) * (scale ratios)
          + wyb * (1 + b0 X + b1 X^2)

with X = x/x_f, Y = y/y_f.  Expanding the antiderivative by hand:

    dw_x/dx = wxb * (a1/x_f + 2 a2 x/x_f^2 + a5 y/(x_f y_f))
    w_y     = -wxb * (a1 y/x_f + 2 a2 x y/x_f^2 + a5 y^2/(2 x_f y_f))
              + wyb * (1 + b0 x/x_f + b1 x^2/x_f^2)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ConstantWind:
    W_x: float  # m/s
    W_y: float  # m/s

    def wind_at(self, x: float, y: float) -> tuple[float, float]:
        return self.W_x, self.W_y

    def wind_gradients(self, x: float, y: float) -> tuple[float, float, float, float]:
        """(dwx/dx, dwx/dy, dwy/dx, dwy/dy) -- all zero."""
        return 0.0, 0.0, 0.0, 0.0


@dataclass(frozen=True)
class PolynomialWind:
    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    b0: float
    b1: float
    wxb: float  # m/s, dimensional scale of the x-component
    wyb: float  # m/s, dimensional scale of f(x)
    x_f: float  # m, normalization scale in x
    y_f: float  # m, normalization scale in y

    def __post_init__(self):
        if self.x_f == 0.0 or self.y_f == 0.0:
            raise ValidationError("polynomial wind requires nonzero x_f, y_f scales")
        coeffs = (self.a0, self.a1, self.a2, self.a3, self.a4, self.a5,
                  self.b0, self.b1)
        if any(abs(c) > 1.0 for c in coeffs):
            warnings.warn(
                "polynomial wind coefficient outside [-1, 1]; "
                "field may be unrealistically strong",
                stacklevel=2,
            )

    def wind_at(self, x: float, y: float) -> tuple[float, float]:
        xf, yf = self.x_f, self.y_f
        u, w = x / xf, y / yf
        wx = self.wxb * (
            self.a0 + self.a1 * u + self.a2 * u * u
            + self.a3 * w + self.a4 * w * w + self.a5 * u * w
        )
        wy = (
            -self.wxb * (self.a1 * y / xf + 2.0 * self.a2 * x * y / (xf * xf)
                         + 0.5 * self.a5 * y * y / (xf * yf))
            + self.wyb * (1.0 + self.b0 * u + self.b1 * u * u)
        )
        return wx, wy

    def wind_gradients(self, x: float, y: float) -> tuple[float, float, float, float]:
        """(dwx/dx, dwx/dy, dwy/dx, dwy/dy); dwy/dy = -dwx/dx exactly."""
        xf, yf = self.x_f, self.y_f
        dwx_dx = self.wxb * (self.a1 / xf + 2.0 * self.a2 * x / (xf * xf)
                             + self.a5 * y / (xf * yf))
        dwx_dy = self.wxb * (self.a3 / yf + 2.0 * self.a4 * y / (yf * yf)
                             + self.a5 * x / (xf * yf))
        dwy_dx = (-2.0 * self.a2 * self.wxb * y / (xf * xf)
                  + self.wyb * (self.b0 / xf + 2.0 * self.b1 * x / (xf * xf)))
        return dwx_dx, dwx_dy, dwy_dx, -dwx_dx


WindField = ConstantWind | PolynomialWind

