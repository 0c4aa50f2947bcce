"""ISA atmosphere and parametric point-mass performance model.

Max thrust is a quadratic in altitude, drag is a parabolic polar with the
lift coefficient pinned by level-flight equilibrium, and the specific fuel
consumption is affine in airspeed.  Mach and calibrated-airspeed envelope
bounds are evaluated as monitors only; nothing here enforces them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ModelInconsistencyError, ValidationError


@dataclass(frozen=True)
class Atmosphere:
    """Troposphere constants for the standard-atmosphere density chain."""

    P0: float = 101325.0     # Pa, sea-level pressure
    Theta0: float = 288.15   # K, sea-level temperature
    beta: float = 0.0065     # K/m, lapse rate
    R: float = 287.05        # J/(kg K)
    g: float = 9.80665       # m/s^2
    kappa: float = 1.4       # ratio of specific heats

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ValidationError(f"Atmosphere.{f.name} must be positive")

    def temperature(self, h: float) -> float:
        theta = self.Theta0 - self.beta * h
        if theta <= 0.0:
            raise DomainError(f"altitude {h} m above the modeled troposphere")
        return theta

    def pressure(self, h: float) -> float:
        theta = self.temperature(h)
        return self.P0 * (theta / self.Theta0) ** (self.g / (self.beta * self.R))

    def speed_of_sound(self, h: float) -> float:
        return math.sqrt(self.kappa * self.R * self.temperature(h))


@dataclass(frozen=True)
class AircraftModel:
    """Coefficient set for thrust, drag polar, fuel flow and envelope bounds.

    All fields are SI.  The shipped coefficient file is representative of a
    medium-haul narrow-body and is non-normative.
    """

    C_T1: float        # N
    C_T2: float        # m
    C_T3: float        # 1/m^2
    s: float           # m^2, wing reference area
    C_D1: float        # parasitic drag coefficient
    C_D2: float        # induced drag factor
    C_s1: float        # kg/(s N)
    C_s2: float        # m/s
    m_min: float       # kg, lower plausibility bound on mass
    M_min: float
    M_max: float
    v_CAS_min: float   # m/s
    v_CAS_max: float   # m/s

    def __post_init__(self):
        for name in ("C_T1", "C_T2", "s", "C_D1", "C_D2", "C_s1", "C_s2"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"AircraftModel.{name} must be positive")
        if not self.M_min < self.M_max:
            raise ValidationError("require M_min < M_max")
        if not self.v_CAS_min < self.v_CAS_max:
            raise ValidationError("require v_CAS_min < v_CAS_max")


def load_aircraft(path) -> AircraftModel:
    """Load an aircraft coefficient JSON file; unknown keys are rejected."""
    with open(path) as fh:
        raw = json.load(fh)
    known = {f.name for f in fields(AircraftModel)}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown aircraft keys: {sorted(unknown)}")
    missing = known - set(raw)
    if missing:
        raise ValidationError(f"missing aircraft keys: {sorted(missing)}")
    return AircraftModel(**{k: float(v) for k, v in raw.items()})


def max_thrust(model: AircraftModel, h: float) -> float:
    """Maximum available thrust (N) at altitude h; constant for fixed h."""
    if not 0.0 <= h < model.C_T2:
        raise DomainError(f"altitude {h} m outside [0, C_T2)")
    t = model.C_T1 * (1.0 - h / model.C_T2 + h * h * model.C_T3)
    if not math.isfinite(t) or t < 0.0:
        raise ModelInconsistencyError(f"max thrust {t} N at h={h} m")
    return t


def air_density(atm: Atmosphere, h: float) -> float:
    """ISA air density (kg/m^3) at altitude h."""
    return atm.pressure(h) / (atm.R * atm.temperature(h))


def fuel_flow_slope(model: AircraftModel) -> float:
    """d C_s / d v, a model constant."""
    return model.C_s1 / model.C_s2


def mach_number(atm: Atmosphere, v: float, h: float) -> float:
    return v / atm.speed_of_sound(h)


def calibrated_airspeed(atm: Atmosphere, v: float, h: float) -> float:
    """CAS (m/s) via the standard compressible conversion from true airspeed."""
    k = atm.kappa
    mach = mach_number(atm, v, h)
    p = atm.pressure(h)
    # impact pressure from Mach, then invert at sea level
    qc = p * ((1.0 + 0.5 * (k - 1.0) * mach * mach) ** (k / (k - 1.0)) - 1.0)
    a0 = math.sqrt(k * atm.R * atm.Theta0)
    return a0 * np.sqrt(
        (2.0 / (k - 1.0)) * ((qc / atm.P0 + 1.0) ** ((k - 1.0) / k) - 1.0)
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-bound monitor flags; violations are never enforced."""

    mach: float
    cas: float
    mach_low_ok: bool
    mach_high_ok: bool
    cas_low_ok: bool
    cas_high_ok: bool

    @property
    def ok(self) -> bool:
        return (self.mach_low_ok & self.mach_high_ok
                & self.cas_low_ok & self.cas_high_ok)


def check_envelope(
    model: AircraftModel, atm: Atmosphere, v: float, h: float
) -> EnvelopeReport:
    """Evaluate the Mach/CAS flight-envelope monitors at (v, h); `v` may be
    an array of airspeeds."""
    mach = mach_number(atm, v, h)
    cas = calibrated_airspeed(atm, v, h)
    return EnvelopeReport(
        mach=mach,
        cas=cas,
        mach_low_ok=mach >= model.M_min,
        mach_high_ok=mach <= model.M_max,
        cas_low_ok=cas >= model.v_CAS_min,
        cas_high_ok=cas <= model.v_CAS_max,
    )
