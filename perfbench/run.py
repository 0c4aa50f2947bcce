"""cruiseopt benchmark: one closed-loop caller runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the package is imported from its
`src/`.  With `--trace 0` the workload's operation sequence runs in passes,
one after another, until the next pass would end after S seconds (at least
one pass), with tracing off, and the end-to-end metrics are printed.  With
`--trace 1` one untraced pass and one traced pass run, followed by the
per-layer microbenchmarks, and the per-layer metrics are printed.  Every
operation is checked against `reference.json`; the last line of standard
output is the JSON result.  `--write-reference` regenerates
`reference.json` from the code in `src/` (about ten minutes).
"""

from __future__ import annotations

import os

# pinned before NumPy loads: one caller, one core's worth of BLAS
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import cruiseopt from this checkout's src/ and nowhere else."""
    if not (SRC / "cruiseopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no cruiseopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cruiseopt
    if Path(cruiseopt.__file__).resolve().parent != SRC / "cruiseopt":
        raise SystemExit(f"error: cruiseopt imported from {cruiseopt.__file__}")
    return cruiseopt


def setup_probe() -> None:
    """Child process: time import, scenario loading, context and reference."""
    t0 = time.perf_counter()
    import_package()
    from workloads import Env
    Env()
    print(time.perf_counter() - t0)


def measure_setup() -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(Path(__file__)),
                              "--setup-probe"], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def metadata() -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def run_pass(fn, env):
    """One pass through a workload; an exception ends the pass as a failed
    operation."""
    from workloads import Op
    t0 = time.perf_counter()
    try:
        return fn(env)
    except Exception as exc:  # reported as a failed operation
        return [Op(f"{fn.__name__}/error", "solve", time.perf_counter() - t0,
                   [f"{type(exc).__name__}: {exc}"], {})]


def pass_summary(ops) -> dict:
    solves = [op.seconds for op in ops if op.kind in ("solve", "direct")]
    return {"wall_s": sum(op.seconds for op in ops),
            "solve_max_s": max(solves) if solves else 0.0}


def verify_median(ops) -> float:
    """Median time of the `cruiseopt verify` path over the given operations."""
    times = [op.seconds for op in ops if op.kind == "verify"]
    return statistics.median(times) if times else 0.0


def report_ops(all_ops):
    for op in all_ops:
        status = "ok" if not op.problems else "FAIL " + "; ".join(op.problems)
        log(f"  {op.id:28s} {op.seconds:8.3f} s  {status}")


def end_to_end(fn, env, seconds: float):
    passes = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(fn, env))
        took = time.perf_counter() - t0
        if time.perf_counter() - t_begin + took > seconds:
            break
    summaries = [pass_summary(ops) for ops in passes]
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in summaries),
        "solve_max_s": statistics.median(s["solve_max_s"] for s in summaries),
    }
    return passes, metrics


def layer_metrics(tracer) -> dict:
    """Per-layer numbers from one traced pass; (value, unit) by name."""
    from trace_spans import TARGETS
    from workloads import COLD_OPTIONS, SWEEP_STEPS
    out = {}
    calls = tracer.calls
    counts = {
        "integrate.feedback_evals": "pmp.evaluate_feedback",
        "solver.rollouts": "integrate.integrate_arcs",
        "solver.reconstructs": "integrate.reconstruct_costates",
        "pmp.solve_costates_on_singular_calls": "pmp.solve_costates_on_singular",
        "nlp.al_calls": "nlp.solve_augmented_lagrangian",
        "direct.euler_rollout_calls": "direct.euler_rollout",
    }
    for metric, span in counts.items():
        if tracer.installed(span):
            out[metric] = (calls[span], "count")
    if tracer.installed("integrate.integrate_arcs"):
        # rollouts by steps per arc: the cold solve's NLP resolution, and
        # the final resolution of the cold and the warm solves
        by_steps = {val: n for (name, key, val), n in tracer.tallies.items()
                    if name == "integrate.integrate_arcs"}
        out["solver.rollouts_nlp"] = (
            by_steps.get(COLD_OPTIONS["nlp_steps"], 0), "count")
        out["solver.rollouts_final"] = (
            by_steps.get(COLD_OPTIONS["steps"], 0)
            + by_steps.get(SWEEP_STEPS, 0), "count")
        n = calls["integrate.integrate_arcs"]
        ok = n - tracer.failures["integrate.integrate_arcs"]
        out["solver.rollouts_ok_ratio"] = (ok / n if n else 1.0, "ratio")
    if tracer.installed("nlp.solve_augmented_lagrangian"):
        out["nlp.al_outer_iters"] = (
            tracer.sums[("nlp.solve_augmented_lagrangian", "outer_iters")], "count")
    if tracer.installed("direct.euler_rollout"):
        out["direct.euler_rollout_columns"] = (
            tracer.sums[("direct.euler_rollout", "columns")], "count")
    times = tracer.times()
    for _, _, span in TARGETS:
        if tracer.installed(span):
            self_s, total_s = times.get(span, (0.0, 0.0))
            out[f"{span}_self_s"] = (self_s, "s")
            out[f"{span}_total_s"] = (total_s, "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        setup_probe()
        return 0

    import_package()
    import workloads
    if args.write_reference:
        return write_reference()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    fn = workloads.WORKLOADS[args.workload]
    env = workloads.Env()
    meta = metadata()

    if args.trace == 0:
        setup_s = measure_setup()
        passes, metrics = end_to_end(fn, env, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_ops = [op for ops in passes for op in ops]
        # printed but not gated (see NOTES.md): verify_s rests on short
        # operations whose spread across runs on a shared machine exceeds
        # any bound allowed, and wall_s already shows a warm step that falls
        # back to the cold multistart, which is what solve_max_s is for
        ungated = {"solve_max_s": (metrics["solve_max_s"], "s"),
                   "verify_s": (verify_median(all_ops), "s")}
        metrics = {k: (metrics[k], u) for k, u in E2E_UNITS.items()}
        attempted = len(all_ops)
        failed = sum(1 for op in all_ops if op.problems)
        meta["passes"] = len(passes)
    else:
        import micro
        import trace_spans
        untraced = pass_summary(run_pass(fn, env))["wall_s"]
        tracer = trace_spans.Tracer()
        tracer.install()
        try:
            ops = run_pass(fn, env)
        finally:
            tracer.uninstall()
        traced = pass_summary(ops)["wall_s"]
        metrics = layer_metrics(tracer)
        metrics["solver.solve_max_s"] = (pass_summary(ops)["solve_max_s"], "s")
        metrics["cli.verify_path_s"] = (verify_median(ops), "s")
        ungated = {}
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        mres = micro.run_micro(env, args.seed)
        metrics.update(mres.metrics)
        all_ops = ops
        attempted = len(ops) + mres.attempted
        failed = sum(1 for op in ops if op.problems) + mres.failed
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.npz")
        if tracer.missing or mres.missing:
            log(f"left out (target missing): {tracer.missing + mres.missing}")
        meta["spans"] = len(tracer.span_name)

    report_ops(all_ops)
    log(f"{args.workload}: {failed} failed of {attempted} attempted")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, (value, unit) in ungated.items():
        print(f"{name:44s} {value:14.6g} {unit} (not gated)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_reference() -> int:
    import workloads
    env = workloads.Env(writing=True)
    env.ref["inputs"] = workloads.make_inputs(env, log)
    for fn in workloads.WORKLOADS.values():
        for op in fn(env):
            env.ref["ops"].setdefault(op.id, op.record)
            log(f"{op.id}: {op.seconds:.2f} s {op.record}")
    doc = {
        "command": "python3 perfbench/run.py --write-reference",
        "tolerances": {"cost_rtol": workloads.COST_RTOL,
                       "direct_cost_rtol": workloads.DIRECT_COST_RTOL,
                       "gap_max": workloads.GAP_MAX},
        "metadata": metadata(),
        **env.ref,
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
