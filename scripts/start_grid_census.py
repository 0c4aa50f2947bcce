#!/usr/bin/env python3
"""Census of the shooting solve over its fixed start grid.

For each cost weight on the shipped polynomial-wind scenario, and for the
constant-wind scenario, every start of the grid is solved on its own the
way `solve_indirect` solves it (a coarse shooting solve, then one at the
final resolution from its result).  One line per weight and resolution
gives the starts that close the switching-point system, out of 18 (6
under constant wind), how many of those reach the best cost among them
within 1e-6 relative, and the median rollouts per start, closing or not.

Usage:
    PYTHONPATH=src python scripts/start_grid_census.py [--steps 60 ...]
"""

import argparse
import statistics
import time

from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)
from cruiseopt.solver import (_SEARCH_STEPS, _solve_start, _start_grid,
                              realize_solution)
from cruiseopt.wind import ConstantWind

ALPHAS = (0.0, 0.001, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 0.9, 1.0)
COST_RTOL = 1e-6


def census(scn, steps: int) -> dict:
    """Per-start outcomes of the grid at `steps` RK4 steps per arc."""
    ctx = make_context(scn)
    resolutions = (min(_SEARCH_STEPS, steps), steps)
    costs, rollouts = [], []
    for z in _start_grid(scn, isinstance(scn.wind, ConstantWind)):
        shooting, z, closed, n_fev = _solve_start(ctx, scn, z, None,
                                                  resolutions)
        rollouts.append(n_fev)
        if closed:
            costs.append(realize_solution(scn, shooting.decode(z),
                                          steps=steps).cost)
    best = min(costs, default=None)
    return {
        "starts": len(rollouts),
        "closing": len(costs),
        "at_best": sum(abs(c - best) <= COST_RTOL * abs(best)
                       for c in costs),
        "median_rollouts": statistics.median(rollouts),
        "best_cost": best,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, nargs="+", default=[60],
                    help="final RK4 steps per arc, one census each")
    args = ap.parse_args()

    scn = load_scenario(default_scenario_path())
    cw = load_scenario(default_constant_wind_scenario_path())
    cases = [(f"{a:g}", scn.replace_alpha(a)) for a in ALPHAS]
    cases.append((f"cw {cw.alpha:g}", cw))
    print(f"{'weight':>8s} {'steps':>5s} {'closing':>8s} {'at best':>7s} "
          f"{'rollouts':>8s} {'best cost':>16s} {'time':>7s}")
    for tag, case in cases:
        for steps in args.steps:
            t0 = time.perf_counter()
            c = census(case, steps)
            best = "-" if c["best_cost"] is None else f"{c['best_cost']:.6f}"
            print(f"{tag:>8s} {steps:5d} {c['closing']:>4d}/{c['starts']:<3d} "
                  f"{c['at_best']:7d} {c['median_rollouts']:8g} {best:>16s} "
                  f"{time.perf_counter() - t0:6.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
