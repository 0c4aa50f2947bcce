"""Per-layer microbenchmarks, run in the traced mode only.

Point evaluations use states drawn with the benchmark seed from the tests'
admissible box (x in [0, x_f], y in [0, y_f], v in [160, 270],
m in [45000, m0], chi in [-1.2, 1.2]).  Every sample that raises counts as
a failed operation; nothing is skipped.  Each figure is the median over
repeats of the per-call time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N_FEEDBACK = 200       # alpha = 0.4 feedback states
N_FEEDBACK_A0 = 300    # alpha = 0 feedback states
N_CHEAP = 2000         # eval_F / wind_gradients states
REPEATS = 5


class MicroResult:
    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.missing: list[str] = []

    def have(self, *targets) -> bool:
        """Whether every (module, name) target still exists; a renamed
        one leaves its metric out instead of failing the run."""
        gone = [f"{m.__name__}.{n}" for m, n in targets if not hasattr(m, n)]
        self.missing.extend(gone)
        return not gone

    def point_bench(self, name, unit_scale, unit, fn, points):
        """Median over repeats of the mean time per point; a point that
        raises counts as a failure in every repeat it raises in."""
        per_call = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for p in points:
                self.attempted += 1
                try:
                    fn(*p)
                except Exception:
                    self.failed += 1
            per_call.append((time.perf_counter() - t0) / len(points))
        self.metrics[name] = (statistics.median(per_call) * unit_scale, unit)

    def call_bench(self, name, fn, repeats=3):
        """Median wall time of `fn()` in ms; an exception counts as a failure."""
        times = []
        for _ in range(repeats):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                fn()
            except Exception:
                self.failed += 1
                continue
            times.append(time.perf_counter() - t0)
        if times:
            self.metrics[name] = (statistics.median(times) * 1e3, "ms")


def sample_states(scn, rng, n):
    return [(rng.uniform(0.0, scn.xf), rng.uniform(0.0, scn.yf),
             rng.uniform(160.0, 270.0), rng.uniform(45000.0, scn.m0),
             rng.uniform(-1.2, 1.2)) for _ in range(n)]


def run_micro(env, seed: int) -> MicroResult:
    """`env` is the workload environment from `workloads.Env`."""
    from cruiseopt import direct, dynamics, integrate, pmp, scenario, solver

    scn, ctx = env.scn, env.ctx
    rng = np.random.default_rng([seed, 7])
    res = MicroResult()

    # states are drawn whether or not a target exists, so each benchmark
    # sees the same states for a given seed
    pts = sample_states(scn, rng, N_FEEDBACK)
    pts0 = sample_states(scn, rng, N_FEEDBACK_A0)
    cheap = sample_states(scn, rng, N_CHEAP)
    if res.have((pmp, "evaluate_feedback")):
        res.point_bench("pmp.evaluate_feedback_us", 1e6, "us",
                        lambda *s: pmp.evaluate_feedback(ctx, *s, 0.4), pts)
        res.point_bench("pmp.evaluate_feedback_a0_us", 1e6, "us",
                        lambda *s: pmp.evaluate_feedback(ctx, *s, 0.0), pts0)
    if res.have((pmp, "solve_costates_on_singular")):
        res.point_bench(
            "pmp.solve_costates_on_singular_us", 1e6, "us",
            lambda *s: pmp.solve_costates_on_singular(ctx, *s, 0.4), pts)
    if res.have((dynamics, "eval_F")):
        res.point_bench("dynamics.eval_F_us", 1e6, "us",
                        lambda *s: dynamics.eval_F(ctx, *s, 0.5), cheap)
    res.point_bench("wind.wind_gradients_us", 1e6, "us",
                    lambda x, y, *_: ctx.wind.wind_gradients(x, y), cheap)

    sched = env.ref_schedule(0.4)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    s04 = scn.replace_alpha(0.4)
    if res.have((integrate, "integrate_arcs")):
        for steps in (60, 200, 400):
            res.call_bench(
                f"integrate.integrate_arcs_{steps}_ms",
                lambda: integrate.integrate_arcs(
                    ctx, sched, x0, 0.4, scn.pi_min, scn.pi_max,
                    steps_per_arc=steps))
    sol = solver.realize_solution(s04, sched, alpha=0.4, steps=400)
    traj = sol.trajectory
    if res.have((integrate, "reconstruct_costates")):
        res.call_bench(
            "integrate.reconstruct_costates_ms",
            lambda: integrate.reconstruct_costates(ctx, traj, sched, 0.4,
                                                   scn.pi_min, scn.pi_max))
    res.call_bench("solver.verify_solution_ms",
                   lambda: solver.verify_solution(sol), repeats=5)

    # one batched Jacobian sweep of the N = 400 direct transcription:
    # a +/- column per control and for tf
    n = 400
    tf = sched.tf
    t_nodes = np.linspace(0.0, tf, n, endpoint=False)
    chi = np.interp(t_nodes, traj.t, traj.states[:, 4])
    pi = np.where(t_nodes < sched.t1, scn.pi_max, 0.5)
    cols = 2 * (2 * n + 1)
    chi_b = np.repeat(chi[:, None], cols, axis=1)
    pi_b = np.repeat(pi[:, None], cols, axis=1)
    tf_b = np.full(cols, tf)
    if res.have((direct, "euler_rollout")):
        res.call_bench(
            "direct.euler_rollout_sweep_ms",
            lambda: direct.euler_rollout(ctx, x0, chi_b, pi_b, tf_b, n))

    path = scenario.default_scenario_path()
    res.call_bench("scenario.load_scenario_ms",
                   lambda: scenario.load_scenario(path), repeats=5)
    return res
