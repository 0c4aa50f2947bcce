#!/usr/bin/env python3
"""Census of the shooting solve over its fixed start grid, or over random
routes.

For each cost weight on the shipped polynomial-wind scenario, and for the
constant-wind scenario, every start of the grid is solved on its own the
way `solve_indirect` solves it (a coarse shooting solve, then one at the
final resolution from its result).  One line per weight and resolution
gives the starts that close the switching-point system, out of 18 (6
under constant wind), how many of those reach the best cost among them
within 1e-6 relative, and the median rollouts per start, closing or not.

With `--routes N`, N random routes under the shipped polynomial wind
(`random_route`, seeded by `--seed`) are each solved cold by
`solve_indirect` and verified.  One line per cost-weight band gives the
routes that converged, those that converged and pass every co-state check
(every check but the envelope monitor), those that ended unconverged, the
median rollouts per route and the time; each route that ended unconverged
or failed a co-state check is listed before the table.

Usage:
    PYTHONPATH=src python scripts/start_grid_census.py [--steps 60 ...]
    PYTHONPATH=src python scripts/start_grid_census.py --routes 300 --seed 2
"""

import argparse
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)
from cruiseopt.solver import (_SEARCH_STEPS, SolverOptions, _realized,
                              _solve_start, _start_grid, solve_indirect,
                              verify_solution)
from cruiseopt.wind import ConstantWind

ALPHAS = (0.0, 0.001, 0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 0.9, 1.0)
COST_RTOL = 1e-6
# the cost-weight bands of the random-route census, [low, high)
ROUTE_BANDS = ((0.1, 0.3), (0.3, 0.5), (0.5, 0.7))


def census(scn, steps: int) -> dict:
    """Per-start outcomes of the grid at `steps` RK4 steps per arc."""
    ctx = make_context(scn)
    resolutions = (min(_SEARCH_STEPS, steps), steps)
    costs, rollouts = [], []
    for z in _start_grid(scn, isinstance(scn.wind, ConstantWind)):
        _, closed, n_fev, rollout = _solve_start(ctx, scn, z, None,
                                                 resolutions)
        rollouts.append(n_fev)
        if closed:
            costs.append(_realized(ctx, scn, *rollout).cost)
    best = min(costs, default=None)
    return {
        "starts": len(rollouts),
        "closing": len(costs),
        "at_best": sum(abs(c - best) <= COST_RTOL * abs(best)
                       for c in costs),
        "median_rollouts": statistics.median(rollouts),
        "best_cost": best,
    }


def random_route(scn, draw):
    """`scn`, the shipped polynomial-wind scenario, on a random route.
    `draw(lo, hi)` draws from U[lo, hi], in this order: the bearing in
    [-pi, pi], the length as 0.5 to 1.3 times the shipped route's, the
    cost weight in [0.1, 0.7], a factor in [0, 2] on both wind amplitudes
    (wxb, wyb; the field's normalization scales are kept) and the final
    speed in [170, 240] m/s."""
    bearing = draw(-math.pi, math.pi)
    length = draw(0.5, 1.3) * scn.great_circle_distance()
    alpha = draw(0.1, 0.7)
    gain = draw(0.0, 2.0)
    vf = draw(170.0, 240.0)
    wind = replace(scn.wind, wxb=gain * scn.wind.wxb,
                   wyb=gain * scn.wind.wyb)
    return replace(scn, xf=scn.x0 + length * math.cos(bearing),
                   yf=scn.y0 + length * math.sin(bearing), vf=vf,
                   alpha=alpha, wind=wind), gain


def solve_route(scn, steps: int):
    """(the cold solve of `scn` at `steps` RK4 steps per arc, whether it
    passes every co-state check)."""
    sol = solve_indirect(scn, SolverOptions(steps=steps))
    report = verify_solution(sol)
    return sol, all(c.passed for c in report.checks
                    if c.name != "envelope_monitors")


def route_census(n: int, seed: int, steps: int) -> None:
    """Solve `n` random routes drawn with `seed`; print the routes that
    did not converge or failed a co-state check, then the table by
    cost-weight band."""
    base = load_scenario(default_scenario_path())
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        scn, gain = random_route(base, rng.uniform)
        t0 = time.perf_counter()
        sol, verified = solve_route(scn, steps)
        rows.append((scn.alpha, sol.converged, verified, sol.n_fev,
                     time.perf_counter() - t0))
        if not (sol.converged and verified):
            print(f"route {i}: xf={scn.xf!r} yf={scn.yf!r} vf={scn.vf!r} "
                  f"alpha={scn.alpha!r} wind x{gain!r}: converged "
                  f"{sol.converged}, co-state checks pass {verified}, "
                  f"{sol.n_fev} rollouts, "
                  f"{sol.trajectory.clamp_count} clamps", flush=True)
    print(f"{'weight':>9s} {'steps':>5s} {'routes':>6s} {'converged':>9s} "
          f"{'verified':>8s} {'unconverged':>11s} {'rollouts':>8s} "
          f"{'time':>7s}")
    for lo, hi in ROUTE_BANDS:
        band = [r for r in rows if lo <= r[0] < hi]
        print(f"{lo:g}-{hi:g} {steps:5d} {len(band):6d} "
              f"{sum(r[1] for r in band):9d} "
              f"{sum(r[1] and r[2] for r in band):8d} "
              f"{sum(not r[1] for r in band):11d} "
              f"{statistics.median([r[3] for r in band] or [0]):8g} "
              f"{sum(r[4] for r in band):6.1f}s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, nargs="+", default=[60],
                    help="final RK4 steps per arc, one census each")
    ap.add_argument("--routes", type=int, default=None,
                    help="solve this many random routes instead of the "
                         "start grid")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the random routes")
    args = ap.parse_args()

    if args.routes is not None:
        for steps in args.steps:
            route_census(args.routes, args.seed, steps)
        return 0
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
