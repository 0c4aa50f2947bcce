"""Direct transcription tests: Euler rollout, batching, the exact terminal
Jacobian, the baseline solve and its order of accuracy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import direct_oracle
from cruiseopt import direct
from cruiseopt.direct import (_V_FLOOR, DirectGrid, DirectOptions,
                              _DirectRollout, chattering_metric,
                              euler_rollout, solve_direct)
from cruiseopt.errors import ValidationError
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                make_context)

SCN = load_scenario(default_scenario_path())
SCN_CW = load_scenario(default_constant_wind_scenario_path())
CTX = make_context(SCN)
CTX_CW = make_context(SCN_CW)
X0 = (SCN.x0, SCN.y0, SCN.v0, SCN.m0)


def smooth_controls(n, rng=None):
    k = np.arange(n)
    chi = 0.45 + 0.1 * np.sin(2.0 * np.pi * k / n)
    pi = 0.55 + 0.2 * np.cos(2.0 * np.pi * k / n)
    return chi, pi


class TestDirectGrid:
    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            DirectGrid(N=1, chi=np.zeros(1), pi=np.zeros(1), tf=100.0)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValidationError):
            DirectGrid(N=4, chi=np.zeros(3), pi=np.zeros(4), tf=100.0)


def test_batched_rollout_matches_single_rollouts():
    rng = np.random.default_rng(31)
    n, batch = 60, 7
    chi = rng.uniform(0.2, 0.8, size=(n, batch))
    pi = rng.uniform(0.0, 1.0, size=(n, batch))
    tf = rng.uniform(400.0, 900.0, size=batch)
    finals = euler_rollout(CTX, X0, chi, pi, tf, n)
    for b in range(batch):
        single = euler_rollout(CTX, X0, chi[:, b], pi[:, b], float(tf[b]), n)
        assert finals[:, b] == pytest.approx(single, rel=1e-14)


def test_euler_first_order_convergence():
    """Doubling the node count roughly halves the terminal-state error."""
    tf = 800.0
    ref_n = 25600
    ref = euler_rollout(CTX, X0, *smooth_controls(ref_n), tf, ref_n)
    errs = []
    for n in (200, 400, 800):
        fin = euler_rollout(CTX, X0, *smooth_controls(n), tf, n)
        errs.append(np.max(np.abs(fin - ref)))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_full_output_shape_and_start():
    n = 40
    chi, pi = smooth_controls(n)
    final, states = euler_rollout(CTX, X0, chi, pi, 500.0, n,
                                  full_output=True)
    assert states.shape == (n + 1, 4)
    assert states[0] == pytest.approx(np.array(X0))
    assert states[-1] == pytest.approx(final)
    assert np.array_equal(states[-1], final)


# tf range (s) per rollout regime: free flight; zero throttle over a flight
# long enough to stall below the speed floor; and flights long enough for
# the polynomial wind, quadratic in position, to overflow
_TF_RANGES = {"free": (100.0, 3000.0), "stall": (1000.0, 5000.0),
              "overflow": (1e5, 1e7)}


def _oracle_rollout(ctx, x0, chi, pi, tf, n):
    # NumPy warns on the overflows and zero divisions it turns into inf/NaN
    with np.errstate(all="ignore"):
        return direct_oracle.euler_rollout_numpy(ctx, x0, chi, pi, tf, n,
                                                 full_output=True)


def _assert_matches_oracle(got, want, full_output):
    got = got if full_output else (got,)
    want = want if full_output else want[:1]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rollout_matches_numpy_oracle_bit_for_bit(data):
    # the plain-float loop does the NumPy rollout's IEEE operations in the
    # same order, so every final and node state must agree exactly, NaN and
    # inf included
    scn, ctx = data.draw(st.sampled_from([(SCN, CTX), (SCN_CW, CTX_CW)]))
    regime = data.draw(st.sampled_from(sorted(_TF_RANGES)))
    n = data.draw(st.integers(2, 500))
    batch = data.draw(st.sampled_from([(), (3,)]))
    tf_shape = data.draw(st.sampled_from([(), batch]))
    full_output = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chi = rng.uniform(-math.pi, math.pi, (n,) + batch)
    pi = (np.zeros((n,) + batch) if regime == "stall"
          else rng.uniform(scn.pi_min, scn.pi_max, (n,) + batch))
    tf = rng.uniform(*_TF_RANGES[regime], tf_shape)
    x0 = (scn.x0, scn.y0, scn.v0, scn.m0)
    want = _oracle_rollout(ctx, x0, chi, pi, tf, n)
    if regime == "stall":
        assert np.all(np.any(want[1][:-1, 2] < _V_FLOOR, axis=0))
    got = euler_rollout(ctx, x0, chi, pi, tf, n, full_output=full_output)
    _assert_matches_oracle(got, want, full_output)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("full_output", [False, True])
def test_overflowing_rollout_matches_oracle_without_warnings(full_output):
    # the polynomial wind grows with the square of the position, so a long
    # enough flight runs the state to inf and NaN; Python floats get there
    # without the RuntimeWarnings NumPy raises on the way
    n = 100
    chi, pi = smooth_controls(n)
    want = _oracle_rollout(CTX, X0, chi, pi, 1e6, n)
    assert not np.all(np.isfinite(want[0]))
    got = euler_rollout(CTX, X0, chi, pi, 1e6, n, full_output=full_output)
    _assert_matches_oracle(got, want, full_output)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("full_output", [False, True])
@pytest.mark.parametrize("scn, ctx", [(SCN, CTX), (SCN_CW, CTX_CW)],
                         ids=["poly", "cw"])
def test_zero_mass_rollout_matches_oracle(scn, ctx, full_output):
    # dividing by the zero mass raises on Python floats; the rollout must
    # still end in the inf and NaN states IEEE arithmetic gives, batched too
    n = 40
    chi, pi = smooth_controls(n)
    x0 = (scn.x0, scn.y0, scn.v0, 0.0)
    want = _oracle_rollout(ctx, x0, chi, pi, 500.0, n)
    assert not np.all(np.isfinite(want[0]))
    got = euler_rollout(ctx, x0, chi, pi, 500.0, n, full_output=full_output)
    _assert_matches_oracle(got, want, full_output)
    chi2, pi2 = np.stack([chi, chi], axis=1), np.stack([pi, 0.0 * pi], axis=1)
    want2 = _oracle_rollout(ctx, x0, chi2, pi2, 500.0, n)
    got2 = euler_rollout(ctx, x0, chi2, pi2, 500.0, n, full_output=full_output)
    _assert_matches_oracle(got2, want2, full_output)


def _rollout_and_states(scn, chi, pi, tf_units):
    rollout = _DirectRollout(make_context(scn), scn, 0.4, len(chi))
    z = np.concatenate([chi, pi, [tf_units]])
    return rollout, z, rollout.evaluate(z)[2]


def _row_gap(rollout, z, states):
    """Worst |exact - central difference| per terminal-state row, relative
    to that row's max-abs.  The central differences are Richardson
    extrapolated from steps 2h and h, which cancels their O(h^2) error:
    close to a stall the Euler map curves enough for that error alone to
    pass 1e-6 of a row's max.  A step below h would instead let rounding
    in the terminal mass, ~6e4 kg, pass it on the mass row."""
    exact = rollout.jacobian(z, states)
    h = direct_oracle._FD_STEP
    fd = (4.0 * direct_oracle.sweep(rollout, z, h)
          - direct_oracle.sweep(rollout, z, 2.0 * h)) / 3.0
    return np.max(np.abs(exact - fd), axis=1) / np.max(np.abs(fd), axis=1)


def _nonstiff(rollout, z, states):
    """True when every Euler step above the speed floor is non-stiff,
    h |d(D/m)/dv| <= 3.  Approaching the floor, the induced drag, ~ m^2/v^2,
    stiffens the step until the oracle's 1e-5 central differences err by
    1e-6 of a row's max or more; smaller steps converge to the exact
    Jacobian, which needs no such care."""
    v, m = states[:-1, 2], states[:-1, 3]
    live = v > _V_FLOOR
    d_v = rollout.ctx.drag_partials(m[live], v[live])[0]
    h = rollout.split(z)[2] / rollout.N
    return bool(np.all(h * np.abs(d_v) / m[live] <= 3.0))


def _node_controls(data, n, lo, hi):
    return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n,
                                       max_size=n)))


def _nonstiff_rollout(data, scn, chi, pi, tf_lo):
    """The rollout in the middle of a run of final times whose Euler steps
    are all non-stiff: the first such run, on a 0.05 grid over
    [tf_lo, 100) in units of 10 s, at or after a drawn grid point, wrapping
    around.  The node speeds, and with them the stiffness, depend on the
    throttle and the step h = tf / N but not on the heading; with zero
    throttle a fifth to a third of the grid qualifies for every N in
    [10, 60], in runs no more than 22 units apart.  The middle of a run
    (of its first 21 points at most) keeps every node clear of the speed
    floor, where the oracle's central differences would straddle the
    floor's kink."""
    grid = np.arange(tf_lo, 100.0, 0.05)
    start = data.draw(st.integers(0, len(grid) - 1))
    run = []
    for k in range(len(grid)):
        i = (start + k) % len(grid)
        out = _rollout_and_states(scn, chi, pi, float(grid[i]))
        if _nonstiff(*out) and not (i == 0 and run):
            run.append(out)
        elif run:
            break
        if len(run) == 21:      # the middle is then 0.5 units inside
            break
    assert run, "no final time on the grid gives non-stiff steps"
    return run[len(run) // 2]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_exact_jacobian_matches_central_differences(data):
    scn = data.draw(st.sampled_from([SCN, SCN_CW]))
    n = data.draw(st.integers(10, 60))
    chi = _node_controls(data, n, -math.pi, math.pi)
    pi = _node_controls(data, n, scn.pi_min, scn.pi_max)
    rollout, z, states = _nonstiff_rollout(data, scn, chi, pi, 20.0)
    assert np.all(_row_gap(rollout, z, states) <= 1e-6)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_jacobian_below_the_speed_floor(data):
    # zero throttle over a long flight: drag stalls the aircraft, and the
    # rollout's floor on v freezes drag and fuel flow, so their v-partials
    # must vanish at those nodes
    scn = data.draw(st.sampled_from([SCN, SCN_CW]))
    n = data.draw(st.integers(10, 60))
    chi = _node_controls(data, n, -math.pi, math.pi)
    rollout, z, states = _nonstiff_rollout(data, scn, chi, np.zeros(n), 30.0)
    assert np.any(states[:-1, 2] < _V_FLOOR)
    assert np.all(_row_gap(rollout, z, states) <= 1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_direct_rolls_out_one_column_at_a_time(monkeypatch):
    # the Jacobian comes from the accepted rollout's node states, so no
    # call may carry a batch of perturbed iterates
    widths = []

    def counting_rollout(ctx, x0, chi, pi, tf, n_steps, full_output=False):
        widths.append(np.shape(chi)[1:])
        return euler_rollout(ctx, x0, chi, pi, tf, n_steps, full_output)

    monkeypatch.setattr(direct, "euler_rollout", counting_rollout)
    monkeypatch.setattr(direct, "_MAX_OUTER", 1)
    monkeypatch.setattr(direct, "_MAXITER_INNER", 5)
    solve_direct(SCN, DirectOptions(N=30), alpha=0.4)
    assert widths
    assert all(w == () for w in widths)


def test_rollout_uses_controls_as_given():
    # out-of-bound throttle is the optimizer's problem, not the rollout's
    n = 20
    chi = np.full(n, 0.45)
    pi = np.full(n, 1.4)
    fin = euler_rollout(CTX, X0, chi, pi, 200.0, n)
    assert np.all(np.isfinite(fin))


def test_warm_started_baseline_agrees_with_switching_solver(direct_04, sol_04):
    assert direct_04.converged
    gap = abs(sol_04.cost - direct_04.cost) / abs(direct_04.cost)
    assert gap <= 1e-3
    # the transcription found the same arc anatomy, not a different optimum
    assert direct_04.grid.tf == pytest.approx(sol_04.schedule.tf, rel=5e-3)
    assert chattering_metric(direct_04, sol_04) <= 4


def test_direct_cost_converges_to_indirect_cost(direct_04, sol_04):
    """Refining the Euler grid closes the gap to the indirect cost.

    Forward Euler is first order (Hager, Numer. Math. 2000), so each doubling
    of N should about halve the gap; measured from N = 200 on: 2.02 and
    2.98.  The gap also holds parts that do not shrink with N -- the
    indirect cost's own RK4 error at 200 steps per arc and the 1e-5 scaled
    feasibility tolerance -- so a factor of 1.6, first order less 20 %, is
    asserted; a solve stuck at a floor would give about 1.  At N = 100 the
    gap is not yet in that regime (ratio 1.28) and is only required to
    converge.  The N = 800 gap (measured 4.9e-6) must be below 1e-5, twice
    the measurement and a hundredth of criterion 01's 1e-3 at N = 400.
    """
    scn = SCN.replace_alpha(0.4)
    sols = {n: solve_direct(scn, DirectOptions(N=n), warm_start=sol_04)
            for n in (100, 200, 800)}
    sols[400] = direct_04
    assert all(d.converged for d in sols.values())
    gap = {n: abs(sol_04.cost - d.cost) / abs(d.cost) for n, d in sols.items()}
    assert gap[200] / gap[400] >= 1.6
    assert gap[400] / gap[800] >= 1.6
    assert gap[800] < 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cold_inner_loop_reduces_infeasibility(monkeypatch):
    # a short cheap run from the built-in initial guess must make progress;
    # early cold iterates can wander far enough for the polynomial wind to
    # overflow, which the rollout grades as failure and recovers from
    # without a warning
    monkeypatch.setattr(direct, "_MAX_OUTER", 2)
    monkeypatch.setattr(direct, "_MAXITER_INNER", 40)
    dsol = solve_direct(SCN, DirectOptions(N=60), alpha=0.4)
    start_resid = np.array([SCN.x0 - SCN.xf, SCN.y0 - SCN.yf, 0.0])
    assert np.max(np.abs(dsol.residuals)) < 0.1 * np.max(np.abs(start_resid))
    assert dsol.n_fev > 0
    assert dsol.n_outer == 2 or dsol.converged


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cold_solve_rejects_overflowing_trials_silently(monkeypatch):
    # a cold trial step flies far enough for the polynomial wind to throw
    # the terminal residuals past 1e200, so the penalized model overflows;
    # the descent test must reject that trial without a warning
    worst = []

    def spying_rollout(*args, **kwargs):
        out = euler_rollout(*args, **kwargs)
        worst.append(np.max(np.abs(out[0])))
        return out

    monkeypatch.setattr(direct, "euler_rollout", spying_rollout)
    dsol = solve_direct(SCN, DirectOptions(N=100), alpha=0.4)
    assert max(worst) > 1e200
    assert dsol.converged


@pytest.mark.parametrize("start, N, max_outer, maxiter_inner", [
    ("cold", 30, 1, 5), ("cold", 60, 2, 40), ("warm", 100, 8, 150)])
def test_solve_matches_generic_al_oracle(monkeypatch, request, start, N,
                                         max_outer, maxiter_inner):
    """The specialised multiplier loop gives the bits of the generic one
    in `direct_oracle` driving the same Gauss-Newton inner loop."""
    monkeypatch.setattr(direct, "_MAX_OUTER", max_outer)
    monkeypatch.setattr(direct, "_MAXITER_INNER", maxiter_inner)
    warm = request.getfixturevalue("sol_04") if start == "warm" else None
    calls = []
    loop = direct.solve_augmented_lagrangian
    monkeypatch.setattr(direct, "solve_augmented_lagrangian",
                        lambda ro, z0: calls.append((ro, z0)) or loop(ro, z0))
    got = solve_direct(SCN, DirectOptions(N=N), alpha=0.4, warm_start=warm)
    (ro, z0), = calls

    def inner(model, z):
        z, *_, fev = direct._gauss_newton(ro, z, model.nu, model.rho)
        return z, fev

    res = direct_oracle.solve_augmented_lagrangian(
        lambda z: ro.evaluate(z)[:2], z0, 3, inner,
        feas_tol=direct._FEAS_TOL, max_outer=max_outer, rho0=direct._RHO0)
    j, _, states = ro.evaluate(res.z)
    chi, pi, tf = ro.split(res.z)
    assert np.array_equal(got.grid.chi, chi)
    assert np.array_equal(got.grid.pi, pi)
    assert got.grid.tf == tf
    assert np.array_equal(got.states, states)
    assert got.cost == j
    assert np.array_equal(got.residuals,
                          states[-1, :3] - np.array([SCN.xf, SCN.yf, SCN.vf]))
    assert (got.converged, got.n_fev, got.n_outer) == (
        res.converged, res.n_fev, res.n_outer)
