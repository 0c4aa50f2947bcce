"""Augmented-Lagrangian outer loop shared by both solvers.

The objective and constraints pass through an ODE rollout (with
finite-difference feedback inside for the indirect route), so supplied
gradients are unreliable; the outer loop only needs an inner minimizer of a
smooth penalized model, which each solver chooses for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Penalty returned for rollouts that fail outright; a slope toward surviving
# trajectories is added by the callers where they can measure one.
FAILURE_PENALTY = 1.0e9
# The penalty grows by this factor, up to this cap, after an outer iteration
# that cut the infeasibility by less than a factor four.
_RHO_GROWTH = 10.0
_RHO_MAX = 1e12


@dataclass
class ALResult:
    z: np.ndarray
    cost: float
    resid: np.ndarray
    nu: np.ndarray
    rho: float
    converged: bool
    n_outer: int
    n_fev: int
    history: list = field(default_factory=list)


class PenalizedModel:
    """The penalized scalar model J + nu . c + (rho / 2) |c|^2 at fixed
    multipliers `nu` and penalty `rho`, which an inner minimizer may read."""

    def __init__(self, evaluate, nu: np.ndarray, rho: float):
        self.evaluate = evaluate
        self.nu = nu
        self.rho = rho

    def __call__(self, z) -> float:
        out = self.evaluate(z)
        if out is None:
            return FAILURE_PENALTY
        j, c = out
        return j + self.nu @ c + 0.5 * self.rho * (c @ c)


def solve_augmented_lagrangian(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray] | None],
    z0: np.ndarray,
    n_constraints: int,
    inner: Callable[[PenalizedModel, np.ndarray], tuple[np.ndarray, int]],
    *,
    feas_tol: float = 1e-6,
    max_outer: int = 8,
    rho0: float = 1e4,
    nu0: np.ndarray | None = None,
) -> ALResult:
    """Minimize J(z) subject to c(z) = 0 by multiplier iterations.

    `evaluate(z)` returns (J, c) or None when the rollout failed;
    `inner(model, z)` minimizes the penalized scalar model from z and
    returns (z_new, function_evaluations); the model carries the current
    `nu` and `rho` for inner minimizers that assemble their own system.
    """
    nu = np.zeros(n_constraints) if nu0 is None else np.array(nu0, dtype=float)
    rho = float(rho0)
    z = np.array(z0, dtype=float)
    n_fev = 0
    prev_feas = np.inf
    history = []
    best = None

    for outer in range(max_outer):
        z, fev = inner(PenalizedModel(evaluate, nu, rho), z)
        n_fev += fev
        out = evaluate(z)
        if out is None:
            # inner landed on a failing point; restart from z0 is pointless,
            # report divergence
            return ALResult(z, np.inf, np.full(n_constraints, np.inf), nu,
                            rho, False, outer + 1, n_fev, history)
        j, c = out
        feas = float(np.max(np.abs(c)))
        history.append({"outer": outer, "cost": j, "feas": feas, "rho": rho})
        if best is None or feas < best[0]:
            best = (feas, z.copy(), j, c.copy())
        nu = nu + rho * c
        if feas <= feas_tol:
            return ALResult(z, j, c, nu, rho, True, outer + 1, n_fev, history)
        if feas > 0.25 * prev_feas:
            rho = min(rho * _RHO_GROWTH, _RHO_MAX)
        prev_feas = feas

    feas, zb, jb, cb = best
    return ALResult(zb, jb, cb, nu, rho, feas <= feas_tol, max_outer, n_fev,
                    history)
