"""Scenario files: boundary conditions, cost weight, wind and aircraft refs.

Scenario files are JSON with explicit SI units in the field names (xf_m,
v0_mps, ...); there is no unit inference.  The polynomial wind block may
give its normalization scales (x_scale_m, y_scale_m); each one it omits is
taken from the route's end coordinate, which a due-north or due-east route
cannot supply.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .atmosphere import AircraftModel, Atmosphere, load_aircraft
from .dynamics import CruiseContext
from .errors import ValidationError
from .wind import ConstantWind, PolynomialWind, WindField

_SCENARIO_KEYS = {
    "x0_m", "y0_m", "xf_m", "yf_m", "v0_mps", "vf_mps", "m0_kg", "h_m",
    "alpha", "pi_min", "pi_max", "wind", "aircraft_file",
}

_POLY_WIND_KEYS = {"type", "a0", "a1", "a2", "a3", "a4", "a5", "b0", "b1",
                   "wxb_mps", "wyb_mps"}
_POLY_WIND_SCALE_KEYS = {"x_scale_m", "y_scale_m"}
_CONST_WIND_KEYS = {"type", "Wx_mps", "Wy_mps"}


@dataclass(frozen=True)
class Scenario:
    x0: float
    y0: float
    xf: float
    yf: float
    v0: float
    vf: float
    m0: float
    h: float
    alpha: float
    pi_min: float
    pi_max: float
    wind: WindField
    aircraft: AircraftModel
    aircraft_file: str

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha={self.alpha} outside [0, 1]")
        if not self.pi_min < self.pi_max:
            raise ValidationError("require pi_min < pi_max")
        if self.v0 <= 0.0 or self.vf <= 0.0:
            raise ValidationError("boundary speeds must be positive")
        for name in ("x0", "y0", "xf", "yf", "h", "m0"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def replace_alpha(self, alpha: float) -> "Scenario":
        return replace(self, alpha=alpha)

    def great_circle_distance(self) -> float:
        return math.hypot(self.xf - self.x0, self.yf - self.y0)


def _parse_wind(raw: dict, xf: float, yf: float) -> WindField:
    if "type" not in raw:
        raise ValidationError("wind block missing 'type'")
    if raw["type"] == "constant":
        unknown = set(raw) - _CONST_WIND_KEYS
        if unknown:
            raise ValidationError(f"unknown constant-wind keys: {sorted(unknown)}")
        return ConstantWind(float(raw["Wx_mps"]), float(raw["Wy_mps"]))
    if raw["type"] == "polynomial":
        unknown = set(raw) - _POLY_WIND_KEYS - _POLY_WIND_SCALE_KEYS
        if unknown:
            raise ValidationError(f"unknown polynomial-wind keys: {sorted(unknown)}")
        missing = _POLY_WIND_KEYS - set(raw)
        if missing:
            raise ValidationError(f"missing polynomial-wind keys: {sorted(missing)}")
        return PolynomialWind(
            a0=float(raw["a0"]), a1=float(raw["a1"]), a2=float(raw["a2"]),
            a3=float(raw["a3"]), a4=float(raw["a4"]), a5=float(raw["a5"]),
            b0=float(raw["b0"]), b1=float(raw["b1"]),
            wxb=float(raw["wxb_mps"]), wyb=float(raw["wyb_mps"]),
            x_f=float(raw.get("x_scale_m", xf)),
            y_f=float(raw.get("y_scale_m", yf)),
        )
    raise ValidationError(f"unknown wind type {raw['type']!r}")


def _wind_to_json(wind: WindField) -> dict:
    if isinstance(wind, ConstantWind):
        return {"type": "constant", "Wx_mps": wind.W_x, "Wy_mps": wind.W_y}
    return {
        "type": "polynomial",
        "a0": wind.a0, "a1": wind.a1, "a2": wind.a2, "a3": wind.a3,
        "a4": wind.a4, "a5": wind.a5, "b0": wind.b0, "b1": wind.b1,
        "wxb_mps": wind.wxb, "wyb_mps": wind.wyb,
        "x_scale_m": wind.x_f, "y_scale_m": wind.y_f,
    }


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file.

    The aircraft coefficient file is resolved relative to the scenario file's
    directory unless given as an absolute path.
    """
    path = Path(path)
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _SCENARIO_KEYS - set(raw)
    if missing:
        raise ValidationError(f"missing scenario keys: {sorted(missing)}")
    ac_ref = raw["aircraft_file"]
    ac_path = Path(ac_ref)
    if not ac_path.is_absolute():
        ac_path = path.parent / ac_path
    aircraft = load_aircraft(ac_path)
    xf, yf = float(raw["xf_m"]), float(raw["yf_m"])
    return Scenario(
        x0=float(raw["x0_m"]), y0=float(raw["y0_m"]), xf=xf, yf=yf,
        v0=float(raw["v0_mps"]), vf=float(raw["vf_mps"]),
        m0=float(raw["m0_kg"]), h=float(raw["h_m"]),
        alpha=float(raw["alpha"]),
        pi_min=float(raw["pi_min"]), pi_max=float(raw["pi_max"]),
        wind=_parse_wind(raw["wind"], xf, yf),
        aircraft=aircraft,
        aircraft_file=str(ac_ref),
    )


def save_scenario(scn: Scenario, path) -> None:
    doc = {
        "x0_m": scn.x0, "y0_m": scn.y0, "xf_m": scn.xf, "yf_m": scn.yf,
        "v0_mps": scn.v0, "vf_mps": scn.vf, "m0_kg": scn.m0, "h_m": scn.h,
        "alpha": scn.alpha, "pi_min": scn.pi_min, "pi_max": scn.pi_max,
        "wind": _wind_to_json(scn.wind),
        "aircraft_file": scn.aircraft_file,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_context(scn: Scenario) -> CruiseContext:
    return CruiseContext(scn.aircraft, Atmosphere(), scn.wind, scn.h)


def default_scenario_path() -> Path:
    return Path(resources.files("cruiseopt") / "data" / "scenario_default.json")


def default_constant_wind_scenario_path() -> Path:
    return Path(resources.files("cruiseopt") / "data" / "scenario_constant_wind.json")
