"""In-memory span tracer that wraps cruiseopt's layer boundaries from outside.

Each wrapped name is a module-level attribute that a layer module looks up
at call time (for example `solver.integrate_arcs`, which the solver calls
for every rollout).  Replacing the attribute routes every call through a
wrapper that records one span (name, start, end, parent) and counts calls
and raised exceptions.  Nothing in `src/` changes.  A target that no longer
exists is skipped and its metrics are reported missing.

Spans are kept in flat arrays (about 24 bytes each, so a few hundred
thousand feedback evaluations fit in a few MB) and written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module the caller looks the name up in, attribute, span name).  The span
# name is the layer that defines the function.
TARGETS = [
    ("cruiseopt.solver", "solve_indirect", "solver.solve_indirect"),
    ("cruiseopt.solver", "realize_solution", "solver.realize_solution"),
    ("cruiseopt.solver", "verify_solution", "solver.verify_solution"),
    ("cruiseopt.solver", "solve_augmented_lagrangian", "nlp.solve_augmented_lagrangian"),
    ("cruiseopt.solver", "integrate_arcs", "integrate.integrate_arcs"),
    ("cruiseopt.solver", "reconstruct_costates", "integrate.reconstruct_costates"),
    ("cruiseopt.integrate", "evaluate_feedback", "pmp.evaluate_feedback"),
    ("cruiseopt.integrate", "solve_costates_on_singular", "pmp.solve_costates_on_singular"),
    ("cruiseopt.direct", "solve_direct", "direct.solve_direct"),
    ("cruiseopt.direct", "euler_rollout", "direct.euler_rollout"),
]


def _steps_per_arc(args, kwargs):
    if "steps_per_arc" in kwargs:
        return kwargs["steps_per_arc"]
    return args[6] if len(args) > 6 else None


def _batch_columns(args, kwargs):
    chi = np.asarray(kwargs["chi"] if "chi" in kwargs else args[2])
    return int(np.prod(chi.shape[1:])) if chi.ndim > 1 else 1


def _al_outer(result):
    return getattr(result, "n_outer", 0)


# Per-call numbers beyond calls and failures, as span name -> (key, fn).
# Rollouts are counted by steps per arc; the others are summed.
_ARG_COUNTS = {"integrate.integrate_arcs": ("steps", _steps_per_arc)}
_ARG_SUMS = {"direct.euler_rollout": ("columns", _batch_columns)}
_RESULT_SUMS = {"nlp.solve_augmented_lagrangian": ("outer_iters", _al_outer)}


class Tracer:
    """Installs wrappers, records spans and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.failures = Counter()
        self.tallies = Counter()      # (span name, key, value) -> calls
        self.sums = Counter()         # (span name, key) -> sum
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        arg_count = _ARG_COUNTS.get(name)
        arg_sum = _ARG_SUMS.get(name)
        res_sum = _RESULT_SUMS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1])
            self.span_end.append(0.0)
            self.calls[name] += 1
            if arg_count is not None:
                key, get = arg_count
                self.tallies[(name, key, get(args, kwargs))] += 1
            if arg_sum is not None:
                key, get = arg_sum
                self.sums[(name, key)] += get(args, kwargs)
            stack.append(sid)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failures[name] += 1
                raise
            finally:
                self.span_end[sid] = clock()
                stack.pop()
            if res_sum is not None:
                key, get = res_sum
                self.sums[(name, key)] += get(out)
            return out

        return wrapper

    def install(self):
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                self.missing.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def installed(self, name: str) -> bool:
        return name not in self.missing

    def times(self) -> dict[str, tuple[float, float]]:
        """(self seconds, total seconds) per span name; self time is each
        span's duration minus the durations of its direct children."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        return {n: (float(self_t[name == nid].sum()),
                    float(dur[name == nid].sum()))
                for nid, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
