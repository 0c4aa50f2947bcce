"""Minimum time-fuel cruise trajectory optimization.

A library and CLI that solves planar cruise trajectories for a point-mass
aircraft in a wind field by the indirect route: the heading follows the
Zermelo navigation law, the throttle is bang / singular / bang with the
singular value given in co-state feedback, and the switch times, the final
time and the initial heading solve a square shooting system (terminal
position and speed plus the mass co-state's endpoint condition) by
Levenberg-Marquardt.  An Euler direct-transcription solver provides an
independent cross-check.
"""

from .atmosphere import AircraftModel, Atmosphere, load_aircraft
from .direct import DirectOptions, DirectSolution, solve_direct
from .dynamics import CruiseContext
from .integrate import ArcSchedule, Trajectory, integrate_arcs, reconstruct_costates
from .scenario import Scenario, load_scenario, make_context, save_scenario
from .solver import (Solution, SolverOptions, solve_indirect, sweep_alpha,
                     verify_solution)
from .wind import ConstantWind, PolynomialWind

__all__ = [
    "AircraftModel", "Atmosphere", "load_aircraft",
    "DirectOptions", "DirectSolution", "solve_direct",
    "CruiseContext",
    "ArcSchedule", "Trajectory", "integrate_arcs", "reconstruct_costates",
    "Scenario", "load_scenario", "make_context", "save_scenario",
    "Solution", "SolverOptions", "solve_indirect", "sweep_alpha",
    "verify_solution",
    "ConstantWind", "PolynomialWind",
]

__version__ = "0.1.0"
