"""Test-only oracle for the polynomial wind field.

`wind_at` and `wind_gradients` evaluate the field in the normalized
coordinates X = x/x_f, Y = y/y_f of its definition, the textbook form the
library evaluated before it expanded the coefficients into dimensional
monomials once per field.  The two forms differ by rounding only.
"""


def wind_at(field, x, y):
    xf, yf = field.x_f, field.y_f
    u, w = x / xf, y / yf
    wx = field.wxb * (
        field.a0 + field.a1 * u + field.a2 * u * u
        + field.a3 * w + field.a4 * w * w + field.a5 * u * w
    )
    wy = (
        -field.wxb * (field.a1 * y / xf + 2.0 * field.a2 * x * y / (xf * xf)
                      + 0.5 * field.a5 * y * y / (xf * yf))
        + field.wyb * (1.0 + field.b0 * u + field.b1 * u * u)
    )
    return wx, wy


def wind_gradients(field, x, y):
    """(dwx/dx, dwx/dy, dwy/dx, dwy/dy); dwy/dy = -dwx/dx exactly."""
    xf, yf = field.x_f, field.y_f
    dwx_dx = field.wxb * (field.a1 / xf + 2.0 * field.a2 * x / (xf * xf)
                          + field.a5 * y / (xf * yf))
    dwx_dy = field.wxb * (field.a3 / yf + 2.0 * field.a4 * y / (yf * yf)
                          + field.a5 * x / (xf * yf))
    dwy_dx = (-2.0 * field.a2 * field.wxb * y / (xf * xf)
              + field.wyb * (field.b0 / xf + 2.0 * field.b1 * x / (xf * xf)))
    return dwx_dx, dwx_dy, dwy_dx, -dwx_dx
