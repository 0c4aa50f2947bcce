"""The benchmark's workloads and their reference checks.

A workload is a fixed sequence of operations (solves, direct solves and
runs of the `cruiseopt verify` path).  One pass runs the sequence once;
every operation is timed and checked against `reference.json`.  Why each
workload exists and what it leaves out is in NOTES.md.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A later change may reorder floating-point work (closed-form algebra,
# batched rollouts) or replace the search, but the optimum it reports must
# not move.  The endgame closes the scaled terminal residuals to 1e-8
# (1 cm, 1e-6 m/s), which moves the cost by about 1e-9 relative, while a
# change of local optimum or of arc structure moves it by 1e-3 or more.
COST_RTOL = 1e-6
# The direct solve stops at 1e-5 scaled feasibility (10 m), which moves its
# cost by about 1e-6 relative.
DIRECT_COST_RTOL = 1e-5
# Criterion 01: direct and indirect costs agree to 1e-3 relative.
GAP_MAX = 1e-3

# Cold multistart at reduced resolution and budgets, so that one pass fits
# the run; the search structure (three starts, screen, refine, polish,
# endgame) is the acceptance suite's `fast_options`.
COLD_OPTIONS = dict(n_starts=3, n_refine=1, seed=0, nlp_steps=20, steps=60,
                    screen_maxfev=100, screen_outer=2, nm_maxfev=200,
                    max_outer=5, polish_maxfev=120, polish_outer=1)
# The acceptance suite's `fast_options`, used to make the input schedules.
SUITE_OPTIONS = dict(n_starts=3, n_refine=1, nlp_steps=60, steps=200,
                     screen_maxfev=100, screen_outer=2, nm_maxfev=200,
                     polish_maxfev=250, max_outer=5, polish_outer=2)
# 40 RK4 steps per arc keep the chain's verification outcomes and rollout
# counts of the suite's 200 (costs agree to 3e-8 relative) at a fifth of
# the time.
SWEEP_STEPS = 40
# The acceptance suite's continuation chain: (tag, warm-start tag).
CHAIN = [("0.5", "0.4"), ("0.3", "0.4"), ("0.2", "0.3"), ("0.1", "0.2"),
         ("0.01", "0.1"), ("0.001", "0.01"), ("1e-06", "0.001"),
         ("0", "1e-06"), ("cw", "0.4")]
# The chain steps the indirect workload runs, each warm-started from the
# committed schedule of its predecessor so that steps do not depend on each
# other's results.  0.3 and 0.2 are left out to fit the run: they are the
# same kind of step as 0.5.
SWEEP = ["0.5", "0.1", "0.01", "0.001", "1e-06", "0", "cw"]
DIRECT_N = 400
VERIFY_STEPS = 400
# The verify path runs on the committed alpha = 0.4 schedule this many
# times at the start of a pass, then after each indirect solve, or this many
# times again after the direct solve.  Spreading its samples over the pass
# keeps their median from resting on one short stretch of a shared,
# unevenly loaded machine.
VERIFY_AROUND = 2


def solver_options(**kw):
    """SolverOptions with the fields the installed version still has."""
    from cruiseopt.solver import SolverOptions
    names = {f.name for f in dataclasses.fields(SolverOptions)}
    return SolverOptions(**{k: v for k, v in kw.items() if k in names})


def schedule_to_dict(sched) -> dict:
    return {k: (None if v is None else float(v))
            for k, v in dataclasses.asdict(sched).items()}


class Env:
    """Everything a workload needs that is set up once per process."""

    def __init__(self, writing: bool = False):
        from cruiseopt import scenario
        self.scn = scenario.load_scenario(scenario.default_scenario_path())
        self.scn_cw = scenario.load_scenario(
            scenario.default_constant_wind_scenario_path())
        self.ctx = scenario.make_context(self.scn)
        self.writing = writing
        self.ref = {"inputs": {}, "ops": {}}
        if not writing:
            with open(REFERENCE) as fh:
                self.ref = json.load(fh)

    def scenario_for(self, tag: str):
        return self.scn_cw if tag == "cw" else self.scn.replace_alpha(float(tag))

    def ref_schedule(self, tag):
        from cruiseopt.integrate import ArcSchedule
        return ArcSchedule(**self.ref["inputs"][str(tag)]["schedule"])


@dataclasses.dataclass
class Op:
    id: str          # reference key
    kind: str        # "solve", "direct" or "verify"
    seconds: float
    problems: list   # empty when the output matches the reference
    record: dict     # what --write-reference stores


def _check_report(report, ref, problems):
    failed = {c.name for c in report.checks if c.passed is False}
    if ref is not None:
        regressed = sorted(failed & set(ref["passed"]))
        if regressed:
            problems.append(f"checks failing that pass in the reference: {regressed}")
    return {"passed": sorted(c.name for c in report.checks if c.passed),
            "failed": sorted(failed)}


def _check_cost(cost, ref, rtol, problems):
    if ref is not None:
        rel = abs(cost - ref["cost"]) / abs(ref["cost"])
        if not rel <= rtol:
            problems.append(f"cost {cost!r} differs from reference "
                            f"{ref['cost']!r} by {rel:.2e} (tol {rtol:.0e})")


def _ref_op(env, op_id, problems):
    """The reference record of an operation; None while writing it."""
    if env.writing:
        return None
    ref = env.ref["ops"].get(op_id)
    if ref is None:
        problems.append(f"no reference result for {op_id}")
    return ref


def solve_op(env, op_id, scn, options, warm=None):
    from cruiseopt import solver
    t0 = time.perf_counter()
    sol = solver.solve_indirect(scn, options, warm_start=warm)
    report = solver.verify_solution(sol)
    dt = time.perf_counter() - t0
    problems = [] if sol.converged else ["not converged"]
    ref = _ref_op(env, op_id, problems)
    _check_cost(sol.cost, ref, COST_RTOL, problems)
    record = {"cost": float(sol.cost),
              "schedule": schedule_to_dict(sol.schedule),
              **_check_report(report, ref, problems)}
    return Op(op_id, "solve", dt, problems, record)


def verify_op(env):
    """The `cruiseopt verify` path on the committed alpha = 0.4 schedule:
    re-integrate it at the CLI's resolution, then run every check."""
    from cruiseopt import solver
    scn = env.scenario_for("0.4")
    sched = env.ref_schedule("0.4")
    t0 = time.perf_counter()
    sol = solver.realize_solution(scn, sched, alpha=scn.alpha,
                                  steps=VERIFY_STEPS)
    report = solver.verify_solution(sol)
    dt = time.perf_counter() - t0
    problems = []
    ref = _ref_op(env, "verify_path/0.4", problems)
    _check_cost(sol.cost, ref, COST_RTOL, problems)
    record = {"cost": float(sol.cost), **_check_report(report, ref, problems)}
    return Op("verify_path/0.4", "verify", dt, problems, record)


def direct_op(env, op_id, scn, sched):
    """Criterion 01's cross-check: realize the committed schedule at the
    suite's resolution and warm-start the N = 400 direct solve from it."""
    from cruiseopt import direct, solver
    t0 = time.perf_counter()
    sol = solver.realize_solution(scn, sched, alpha=scn.alpha,
                                  steps=SUITE_OPTIONS["steps"])
    dsol = direct.solve_direct(scn, direct.DirectOptions(N=DIRECT_N),
                               warm_start=sol)
    dt = time.perf_counter() - t0
    problems = [] if dsol.converged else ["direct solve not converged"]
    ref = _ref_op(env, op_id, problems)
    _check_cost(dsol.cost, ref, DIRECT_COST_RTOL, problems)
    gap = abs(dsol.cost - sol.cost) / abs(sol.cost)
    if not gap <= GAP_MAX:
        problems.append(f"direct/indirect gap {gap:.2e} above {GAP_MAX:.0e}")
    record = {"cost": float(dsol.cost), "indirect_cost": float(sol.cost),
              "gap": gap}
    return Op(op_id, "direct", dt, problems, record)


def indirect(env):
    """The cold multistart solve, then the warm continuation chain, with a
    verify path after each solve."""
    ops = [verify_op(env) for _ in range(VERIFY_AROUND)]
    ops.append(solve_op(env, "indirect_cold/solve", env.scenario_for("0.4"),
                        solver_options(**COLD_OPTIONS)))
    ops.append(verify_op(env))
    opts = solver_options(**{**SUITE_OPTIONS, "steps": SWEEP_STEPS})
    warm_of = dict(CHAIN)
    for tag in SWEEP:
        ops.append(solve_op(env, f"sweep_warm/{tag}", env.scenario_for(tag),
                            opts, warm=env.ref_schedule(warm_of[tag])))
        ops.append(verify_op(env))
    return ops


def direct_verify(env):
    """Verify paths, the direct cross-check, then verify paths again."""
    ops = [verify_op(env) for _ in range(VERIFY_AROUND)]
    ops.append(direct_op(env, "direct_verify/direct", env.scenario_for("0.4"),
                         env.ref_schedule("0.4")))
    ops.extend(verify_op(env) for _ in range(VERIFY_AROUND))
    return ops


WORKLOADS = {
    "indirect": indirect,
    "direct_verify": direct_verify,
}


def make_inputs(env, log):
    """The acceptance suite's chain at `fast_options`: a cold solve at
    alpha = 0.4, then warm-started continuation.  Its schedules are the
    committed inputs of both workloads."""
    from cruiseopt import solver
    inputs = {}
    sols = {}
    opts = solver_options(**SUITE_OPTIONS)
    for tag, warm_tag in [("0.4", None)] + CHAIN:
        warm = None if warm_tag is None else sols[warm_tag].schedule
        t0 = time.perf_counter()
        sol = solver.solve_indirect(env.scenario_for(tag), opts, warm_start=warm)
        report = solver.verify_solution(sol)
        sols[tag] = sol
        inputs[tag] = {
            "cost": float(sol.cost), "converged": bool(sol.converged),
            "schedule": schedule_to_dict(sol.schedule),
            "failed": sorted(c.name for c in report.checks if c.passed is False),
            "seconds": round(time.perf_counter() - t0, 1),
        }
        log(f"input {tag}: {inputs[tag]}")
    return inputs
