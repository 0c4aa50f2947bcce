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

The field is evaluated in dimensional monomials, whose coefficients are
computed once per field: with c1 = wxb a1/x_f, c2 = wxb a2/x_f^2,
c5 = wxb a5/(x_f y_f) and their like,

    w_x     = c0 + x (c1 + c2 x + c5 y) + y (c3 + c4 y)
    w_y     = d0 + x (d1 + d2 x) - y (c1 + 2 c2 x + c5 y / 2)
    dw_x/dx = c1 + 2 c2 x + c5 y = -dw_y/dy

`wind_and_gradients` returns the wind and its four gradients from one
call, by the same expressions as `wind_at` and `wind_gradients`, so every
caller sees the same numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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

    def wind_and_gradients(self, x: float, y: float):
        """(w_x, w_y, dwx/dx, dwx/dy, dwy/dx, dwy/dy)."""
        return self.W_x, self.W_y, 0.0, 0.0, 0.0, 0.0


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
    # dimensional monomial coefficients (see the module docstring)
    _c: tuple = field(init=False, repr=False, compare=False)

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
        wxb, wyb, xf, yf = self.wxb, self.wyb, self.x_f, self.y_f
        c2 = wxb * self.a2 / (xf * xf)
        c4 = wxb * self.a4 / (yf * yf)
        c5 = wxb * self.a5 / (xf * yf)
        d2 = wyb * self.b1 / (xf * xf)
        object.__setattr__(self, "_c", (
            wxb * self.a0, wxb * self.a1 / xf, c2, wxb * self.a3 / yf, c4, c5,
            wyb, wyb * self.b0 / xf, d2,
            2.0 * c2, 2.0 * c4, 2.0 * d2, 0.5 * c5))

    def wind_at(self, x: float, y: float) -> tuple[float, float]:
        c0, c1, c2, c3, c4, c5, d0, d1, d2, c2x2, _, _, c5h = self._c
        return (c0 + x * (c1 + c2 * x + c5 * y) + y * (c3 + c4 * y),
                d0 + x * (d1 + d2 * x) - y * (c1 + c2x2 * x + c5h * y))

    def wind_gradients(self, x: float, y: float) -> tuple[float, float, float, float]:
        """(dwx/dx, dwx/dy, dwy/dx, dwy/dy); dwy/dy = -dwx/dx exactly."""
        _, c1, _, c3, _, c5, _, d1, _, c2x2, c4x2, d2x2, _ = self._c
        wxx = c1 + c2x2 * x + c5 * y
        return wxx, c3 + c4x2 * y + c5 * x, d1 + d2x2 * x - c2x2 * y, -wxx

    def wind_and_gradients(self, x: float, y: float):
        """(w_x, w_y, dwx/dx, dwx/dy, dwy/dx, dwy/dy) in one call."""
        c0, c1, c2, c3, c4, c5, d0, d1, d2, c2x2, c4x2, d2x2, c5h = self._c
        wxx = c1 + c2x2 * x + c5 * y
        return (c0 + x * (c1 + c2 * x + c5 * y) + y * (c3 + c4 * y),
                d0 + x * (d1 + d2 * x) - y * (c1 + c2x2 * x + c5h * y),
                wxx, c3 + c4x2 * y + c5 * x, d1 + d2x2 * x - c2x2 * y, -wxx)


WindField = ConstantWind | PolynomialWind

