"""Command-line entry points: solve, compare, sweep, verify, emit CSV.

All artifacts are plain JSON/CSV written into a per-run output directory so
results can be plotted or diffed with standard tools.  Every command is
deterministic for a fixed scenario; CSV numbers are emitted in full double
precision so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .direct import DirectOptions, DirectSolution, chattering_metric, solve_direct
from .errors import CruiseOptError, ValidationError
from .integrate import ArcSchedule
from .scenario import (Scenario, default_scenario_path, load_scenario,
                       save_scenario)
from .solver import (Solution, SolverOptions, realize_solution, solve_indirect,
                     sweep_alpha, verify_solution)

_CSV_HEADER = ["t", "x", "y", "v", "m", "chi", "pi", "S", "H",
               "lam_x", "lam_y", "lam_v", "lam_m", "lc", "detM",
               "mach", "cas_flag"]


def _fmt(v) -> str:
    return f"{float(v):.17e}"


def emit_trajectory_csv(sol: Solution, path) -> None:
    """Write the sampled trajectory with diagnostics, one row per sample."""
    traj = sol.trajectory
    n = len(traj.t)
    lam = traj.costates
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for i in range(n):
            st = traj.states[i]
            row = [traj.t[i], st[0], st[1], st[2], st[3], st[4],
                   traj.throttle[i], traj.S[i], traj.H[i]]
            row.extend([np.nan] * 4 if lam is None else lam[i])
            row.extend([traj.lc[i], traj.detM[i], traj.mach[i]])
            flag = traj.envelope_ok[i]
            w.writerow([_fmt(v) for v in row] + ["1" if flag else "0"])


def emit_direct_csv(dsol: DirectSolution, path) -> None:
    """Write the direct solution's node controls and states."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "y", "v", "m", "chi", "pi"])
        for k in range(len(dsol.chi)):
            st = dsol.states[k]
            w.writerow([_fmt(v) for v in
                        (dsol.t[k], st[0], st[1], st[2], st[3],
                         dsol.chi[k], dsol.pi[k])])
        st = dsol.states[-1]
        w.writerow([_fmt(v) for v in
                    (dsol.t[-1], st[0], st[1], st[2], st[3],
                     np.nan, np.nan)])


def write_solution_dir(sol: Solution, outdir, steps: int) -> None:
    """Persist a solution as scenario + aircraft + schedule + trajectory.

    The scenario written into the run directory points at the co-located
    aircraft file so the directory is self-contained for later verification.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "aircraft.json", "w") as fh:
        json.dump(asdict(sol.scenario.aircraft), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_scenario(replace(sol.scenario, aircraft_file="aircraft.json"),
                  outdir / "scenario.json")
    doc = {
        "alpha": sol.scenario.alpha,
        "steps": steps,
        "cost": sol.cost,
        "converged": sol.converged,
        "schedule": asdict(sol.schedule),
        "residuals_si": list(map(float, sol.residuals)),
        "final_mass_kg": sol.trajectory.final_mass,
        "n_fev": sol.n_fev,
        "start_index": sol.start_index,
        "clamp_count": sol.trajectory.clamp_count,
        "verification": None if sol.verification is None else [
            {"name": c.name, "passed": c.passed, "extreme": c.extreme,
             "tolerance": c.threshold}
            for c in sol.verification.checks],
    }
    with open(outdir / "solution.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_trajectory_csv(sol, outdir / "trajectory.csv")


def _exit_code(sol: Solution) -> int:
    if not sol.converged:
        return 1
    if sol.verification is not None and not sol.verification.all_passed:
        return 2
    return 0


def _read(path, load):
    """`load(path)`, with a missing, unreadable or malformed file raised as
    a ValidationError that names it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_and_override(args) -> Scenario:
    scn = _read(args.scenario, load_scenario)
    if getattr(args, "alpha", None) is not None:
        scn = scn.replace_alpha(args.alpha)
    return scn


def _cmd_solve_indirect(args) -> int:
    scn = _load_and_override(args)
    opts = SolverOptions(args.steps)
    t0 = time.time()
    sol = solve_indirect(scn, opts)
    sol.verification = verify_solution(sol)
    elapsed = time.time() - t0
    write_solution_dir(sol, args.out, opts.steps)
    print(f"cost {sol.cost:.6f}  tf {sol.schedule.tf:.3f} s  "
          f"t1 {sol.schedule.t1:.3f}  t2 {sol.schedule.t2:.3f}  "
          f"converged {sol.converged}  [{elapsed:.1f} s]")
    print(sol.verification.summary())
    return _exit_code(sol)


def _cmd_solve_direct(args) -> int:
    scn = _load_and_override(args)
    dopts = DirectOptions(args.nodes)
    t0 = time.time()
    dsol = solve_direct(scn, dopts)
    elapsed = time.time() - t0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    emit_direct_csv(dsol, outdir / "direct_trajectory.csv")
    doc = {"alpha": dsol.scenario.alpha, "N": len(dsol.chi), "tf": dsol.tf,
           "cost": dsol.cost, "converged": dsol.converged,
           "residuals_si": list(map(float, dsol.residuals)),
           "n_fev": dsol.n_fev}
    with open(outdir / "direct_solution.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"direct cost {dsol.cost:.6f}  tf {dsol.tf:.3f} s  "
          f"converged {dsol.converged}  [{elapsed:.1f} s]")
    return 0 if dsol.converged else 1


def run_compare(scn: Scenario, outdir, opts: SolverOptions,
                dopts: DirectOptions) -> tuple[Solution, DirectSolution]:
    """Run both solvers on the same scenario and emit a comparison report.

    The direct solver is warm-started from the indirect solution; the
    comparison is only meaningful when both converge to the same structure.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    sol = solve_indirect(scn, opts)
    sol.verification = verify_solution(sol)
    t_ind = time.time() - t0
    write_solution_dir(sol, outdir / "indirect", opts.steps)

    t0 = time.time()
    dsol = solve_direct(scn, dopts, warm_start=sol)
    t_dir = time.time() - t0
    emit_direct_csv(dsol, outdir / "direct_trajectory.csv")

    traj = sol.trajectory
    with open(outdir / "compare.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "chi_indirect", "pi_indirect",
                    "chi_direct", "pi_direct"])
        for k in range(len(dsol.chi)):
            tk = dsol.t[k]
            w.writerow([_fmt(v) for v in (
                tk,
                np.interp(tk, traj.t, traj.states[:, 4]),
                np.interp(tk, traj.t, traj.throttle),
                dsol.chi[k], dsol.pi[k])])
    gap = abs(sol.cost - dsol.cost) / max(abs(dsol.cost), 1e-30)
    report = {
        "cost_indirect": sol.cost,
        "cost_direct": dsol.cost,
        "relative_gap": gap,
        "tf_indirect": sol.schedule.tf,
        "tf_direct": dsol.tf,
        "chattering_sign_changes": chattering_metric(dsol, sol),
        "indirect_converged": sol.converged,
        "direct_converged": dsol.converged,
        "runtime_indirect_s": round(t_ind, 3),
        "runtime_direct_s": round(t_dir, 3),
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sol, dsol


def _cmd_compare(args) -> int:
    scn = _load_and_override(args)
    sol, dsol = run_compare(scn, args.out, SolverOptions(args.steps),
                            DirectOptions(args.nodes))
    gap = abs(sol.cost - dsol.cost) / max(abs(dsol.cost), 1e-30)
    print(f"indirect {sol.cost:.6f}  direct {dsol.cost:.6f}  "
          f"relative gap {gap:.3e}")
    if not (sol.converged and dsol.converged):
        return 1
    return _exit_code(sol)


def _cmd_sweep_alpha(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError as exc:
        raise ValidationError(f"--alphas {args.alphas!r}: {exc}") from exc
    scn = _load_and_override(args)
    opts = SolverOptions(args.steps)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = 0
    for a, sol in zip(alphas, sweep_alpha(scn, alphas, opts)):
        sol.verification = verify_solution(sol)
        write_solution_dir(sol, outdir / f"alpha_{a:g}", opts.steps)
        rows.append((a, sol.schedule.t1, sol.schedule.t2, sol.schedule.tf,
                     sol.cost, sol.trajectory.final_mass))
        worst = max(worst, _exit_code(sol))
        print(f"alpha {a:g}: t1 {sol.schedule.t1:.3f}  tf {sol.schedule.tf:.3f}  "
              f"cost {sol.cost:.6f}  converged {sol.converged}")
    with open(outdir / "trend.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "t1", "t2", "tf", "cost", "final_mass"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return worst


def _load_run(rundir: Path):
    """(scenario, schedule, weight, steps per arc, cost) of a run directory."""
    with open(rundir / "solution.json") as fh:
        doc = json.load(fh)
    return (load_scenario(rundir / "scenario.json"),
            ArcSchedule(**doc["schedule"]), float(doc["alpha"]),
            int(doc.get("steps", 400)), float(doc["cost"]))


def _cmd_verify(args) -> int:
    scn, sched, alpha, steps, cost = _read(Path(args.solution), _load_run)
    sol = realize_solution(scn, sched, alpha=alpha, steps=steps)
    sol.verification = verify_solution(sol)
    print(sol.verification.summary())
    drift = abs(sol.cost - cost)
    print(f"re-integrated cost {sol.cost:.6f} (stored {cost:.6f}, "
          f"drift {drift:.3e})")
    return 0 if sol.verification.all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cruiseopt",
        description="Minimum time-fuel cruise trajectory optimization.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--scenario", default=str(default_scenario_path()),
                        help="scenario JSON file (default: shipped scenario)")
        sp.add_argument("--alpha", type=float, default=None,
                        help="override the scenario's cost weight")
        if out_required:
            sp.add_argument("--out", required=True,
                            help="output directory for run artifacts")

    sp = sub.add_parser("solve-indirect", help="switching-point solve")
    common(sp)
    sp.add_argument("--steps", type=int, default=SolverOptions.steps,
                    help="integration steps per arc")
    sp.set_defaults(func=_cmd_solve_indirect)

    sp = sub.add_parser("solve-direct", help="transcription baseline solve")
    common(sp)
    sp.add_argument("--nodes", type=int, default=DirectOptions.N,
                    help="control nodes for the transcription")
    sp.set_defaults(func=_cmd_solve_direct)

    sp = sub.add_parser("compare", help="run both solvers and report the gap")
    common(sp)
    sp.add_argument("--steps", type=int, default=SolverOptions.steps)
    sp.add_argument("--nodes", type=int, default=DirectOptions.N)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser(
        "sweep-alpha",
        help="solve a list of cost weights by warm-started continuation")
    common(sp)
    sp.add_argument("--steps", type=int, default=SolverOptions.steps)
    sp.add_argument("--alphas", required=True,
                    help="comma-separated weights, e.g. 0.1,0.3,0.5")
    sp.set_defaults(func=_cmd_sweep_alpha)

    sp = sub.add_parser("verify", help="re-check a stored solution directory")
    sp.add_argument("--solution", required=True,
                    help="directory written by a solve command")
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CruiseOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
