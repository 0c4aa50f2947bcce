#!/usr/bin/env python3
"""Reproduce the full case study: cross-method comparison plus a weight sweep.

Runs the switching-point solver against the Euler transcription baseline at
alpha = 0.4 on the shipped scenario, then sweeps the cost weight over
0.1 / 0.3 / 0.5 with warm-started continuation, writing all artifacts
(CSV trajectories, JSON reports, trend summary) into the output directory.

Usage:
    python scripts/reproduce_case_study.py [--out runs/case_study] [--fast]
"""

import argparse
import csv
import json
import time
from pathlib import Path

from cruiseopt.cli import run_compare, write_solution_dir
from cruiseopt.direct import DirectOptions
from cruiseopt.scenario import default_scenario_path, load_scenario
from cruiseopt.solver import SolverOptions, sweep_alpha, verify_solution


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/case_study")
    ap.add_argument("--fast", action="store_true",
                    help="coarser integration and transcription grids")
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    scn = load_scenario(default_scenario_path())
    if args.fast:
        opts = SolverOptions(steps=200)
        dopts = DirectOptions(N=200)
    else:
        opts = SolverOptions()
        dopts = DirectOptions()

    print("== cross-method comparison, alpha = 0.4 ==")
    t0 = time.time()
    sol, dsol = run_compare(scn.replace_alpha(0.4), outdir / "compare",
                            opts, dopts)
    gap = abs(sol.cost - dsol.cost) / abs(dsol.cost)
    print(f"indirect {sol.cost:.4f}  direct {dsol.cost:.4f}  "
          f"gap {gap:.2e}  [{time.time() - t0:.0f} s]")

    print("== cost-weight sweep ==")
    alphas = [0.1, 0.3, 0.5]
    t0 = time.time()
    sols = sweep_alpha(scn, alphas, opts)
    rows = []
    for a, s in zip(alphas, sols):
        s.verification = verify_solution(s)
        write_solution_dir(s, outdir / f"alpha_{a:g}", opts.steps)
        rows.append((a, s.schedule.t1, s.schedule.t2, s.schedule.tf,
                     s.cost, s.trajectory.final_mass))
        print(f"alpha {a:g}: t1 {s.schedule.t1:8.2f}  tf {s.schedule.tf:8.2f}"
              f"  cost {s.cost:12.3f}  converged {s.converged}")
    print(f"sweep done [{time.time() - t0:.0f} s]")

    with open(outdir / "trend.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "t1", "t2", "tf", "cost", "final_mass"])
        w.writerows(rows)
    with open(outdir / "summary.json", "w") as fh:
        json.dump({"compare_gap": gap,
                   "sweep_converged": [s.converged for s in sols],
                   "t1_trend": [r[1] for r in rows]}, fh, indent=2)
        fh.write("\n")
    ok = gap <= 1e-3 and all(s.converged for s in sols)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
