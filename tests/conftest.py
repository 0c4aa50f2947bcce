"""Shared fixtures.

Full solves are expensive, so every converged solution used by more than one
test lives here at session scope.  Low cost weights are reached by
continuation: each solve warm-starts from the schedule of the neighboring
weight, mirroring how the sweep entry point tracks the switching structure.
Solver options are trimmed relative to the library defaults; the tolerances
the tests assert against are unchanged.
"""

import importlib.util
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cruiseopt.direct import DirectOptions, solve_direct
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)
from cruiseopt.solver import SolverOptions, solve_indirect


def census_script():
    """`scripts/start_grid_census.py`, loaded as a module."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "start_grid_census", root / "scripts" / "start_grid_census.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def fast_options(**overrides) -> SolverOptions:
    opts = SolverOptions(steps=200)
    return replace(opts, **overrides) if overrides else opts


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def scenario_cw():
    return load_scenario(default_constant_wind_scenario_path())


@pytest.fixture(scope="session")
def context(scenario):
    return make_context(scenario)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def _timed_solve(scn, opts, warm=None):
    t0 = time.time()
    sol = solve_indirect(scn, opts, warm_start=warm)
    sol.runtime_s = time.time() - t0
    return sol


def _chain(scn, warm_sched, alphas):
    """Continuation through `alphas`, returning the final solution."""
    sol = None
    warm = warm_sched
    for a in alphas:
        sol = _timed_solve(scn.replace_alpha(a), fast_options(), warm=warm)
        if sol.converged:
            warm = sol.schedule
    return sol


@pytest.fixture(scope="session")
def sol_04(scenario):
    return _timed_solve(scenario.replace_alpha(0.4), fast_options())


@pytest.fixture(scope="session")
def direct_04(scenario, sol_04):
    t0 = time.time()
    dsol = solve_direct(scenario.replace_alpha(0.4), DirectOptions(),
                        warm_start=sol_04)
    dsol.runtime_s = time.time() - t0
    return dsol


@pytest.fixture(scope="session")
def sol_05(scenario, sol_04):
    return _chain(scenario, sol_04.schedule, [0.5])


@pytest.fixture(scope="session")
def sol_03(scenario, sol_04):
    return _chain(scenario, sol_04.schedule, [0.3])


@pytest.fixture(scope="session")
def sol_02(scenario, sol_03):
    return _chain(scenario, sol_03.schedule, [0.2])


@pytest.fixture(scope="session")
def sol_01(scenario, sol_02):
    return _chain(scenario, sol_02.schedule, [0.1])


@pytest.fixture(scope="session")
def sol_alpha_eps(scenario, sol_01):
    return _chain(scenario, sol_01.schedule, [0.01, 1e-3, 1e-6])


@pytest.fixture(scope="session")
def sol_alpha0(scenario, sol_alpha_eps):
    return _chain(scenario, sol_alpha_eps.schedule, [0.0])


@pytest.fixture(scope="session")
def sol_cw(scenario_cw, sol_04):
    return _timed_solve(scenario_cw, fast_options(), warm=sol_04.schedule)
