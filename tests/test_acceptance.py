"""End-to-end acceptance checks.

Each test covers one numbered shipping criterion and prints a single
pass/fail line with the measured extreme, bypassing output capture so the
lines appear in the normal test log.  Converged reference solutions come
from the session fixtures; derivative checks rebuild their own oracles so
they stay independent of the library's internal finite differences.
"""

import math

import numpy as np

from cruiseopt.cli import emit_trajectory_csv
from cruiseopt.dynamics import eval_P, eval_Q
from cruiseopt.integrate import _Rhs
from cruiseopt.pmp import (STATE_SCALES, costate_rhs, hamiltonian,
                           solve_costates_on_singular)
from cruiseopt.scenario import make_context
from cruiseopt.solver import chi0_constant_wind, solve_indirect

import pmp_oracle
from conftest import fast_options
from model_oracle import jacobian_P, jacobian_Q
from pmp_oracle import lie_A


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def _fd_jac(fn, xs, scales, rel=1e-7):
    cols = []
    for i, xi in enumerate(xs):
        h = rel * max(scales[i], abs(xi))
        up = list(xs)
        up[i] += h
        dn = list(xs)
        dn[i] -= h
        fp, fm = fn(*up), fn(*dn)
        cols.append([(fp[k] - fm[k]) / (2.0 * h) for k in range(len(fp))])
    return np.array(cols).T


def _admissible(rng, scn):
    return (rng.uniform(0.0, scn.xf), rng.uniform(0.0, scn.yf),
            rng.uniform(160.0, 270.0), rng.uniform(45000.0, scn.m0),
            rng.uniform(-1.2, 1.2))


def test_criterion_01_cross_method_agreement(capsys, sol_04, direct_04):
    gap = abs(sol_04.cost - direct_04.cost) / abs(direct_04.cost)
    runtime = sol_04.runtime_s + direct_04.runtime_s
    ok = (sol_04.converged and direct_04.converged and gap <= 1e-3
          and runtime < 300.0)
    report(capsys, 1, ok,
           f"relative cost gap {gap:.3e} (tol 1e-3), "
           f"runtime {runtime:.0f} s (budget 300 s)")


def test_criterion_02_transversality(capsys, sol_01, sol_04, sol_05):
    worst = 0.0
    for sol in (sol_01, sol_04, sol_05):
        assert sol.converged, f"alpha={sol.alpha} run did not converge"
        lam_m_f = sol.trajectory.costates[-1, 3]
        worst = max(worst, abs(lam_m_f - (sol.alpha - 1.0)))
    report(capsys, 2, worst < 1e-4,
           f"max |lam_m(tf) - (alpha-1)| = {worst:.3e} over "
           f"alpha in (0.1, 0.4, 0.5) (tol 1e-4)")


def test_criterion_03_hamiltonian_constancy(capsys, sol_01, sol_04, sol_05):
    worst = 0.0
    for sol in (sol_01, sol_04, sol_05):
        worst = max(worst, float(np.nanmax(np.abs(sol.trajectory.H
                                                  + sol.alpha))))
    report(capsys, 3, worst <= 1e-5,
           f"max |H + alpha| = {worst:.3e} (tol 1e-5)")


def test_criterion_04_switching_structure(capsys, sol_01, sol_04, sol_05):
    worst_sign, worst_sing, worst_lc = -math.inf, 0.0, math.inf
    for sol in (sol_01, sol_04, sol_05):
        traj = sol.trajectory
        sched = sol.schedule
        on_max = (traj.arc_id == 0) & (traj.t < sched.t1)
        on_end = (traj.arc_id == 2) & (traj.t > sched.t2)
        on_sing = traj.arc_id == 1
        final_is_max = (sched.final_throttle is not None
                        and sched.final_throttle >= sol.scenario.pi_max)
        if final_is_max:
            # accelerating last arc: S must stay negative there too
            on_max = on_max | on_end
            on_end = np.zeros(len(traj.t), dtype=bool)
        if np.any(on_max):
            worst_sign = max(worst_sign, float(np.nanmax(traj.S[on_max])))
        if np.any(on_end):
            worst_sign = max(worst_sign, float(-np.nanmin(traj.S[on_end])))
        worst_sing = max(worst_sing, float(np.nanmax(np.abs(traj.S[on_sing]))))
        worst_lc = min(worst_lc, float(np.nanmin(traj.lc[on_sing])))
    ok = worst_sign < 1e-10 and worst_sing <= 1e-6 and worst_lc >= -1e-10
    report(capsys, 4, ok,
           f"bang-arc S sign margin {worst_sign:.3e}, singular |S| "
           f"{worst_sing:.3e} (tol 1e-6), min LC {worst_lc:.3e} (>= -1e-10)")


def test_criterion_05_bang_arc_growth(capsys, sol_01, sol_03, sol_05):
    t1s = [sol_01.schedule.t1, sol_03.schedule.t1, sol_05.schedule.t1]
    ok = t1s[0] <= t1s[1] <= t1s[2]
    report(capsys, 5, ok,
           "t1 = " + ", ".join(f"{t:.2f}" for t in t1s)
           + " s over alpha = 0.1, 0.3, 0.5 (nondecreasing)")


def test_criterion_06_constant_wind_reduction(capsys, sol_cw, scenario_cw):
    assert sol_cw.converged
    chi = sol_cw.trajectory.states[:, 4]
    drift = float(np.max(np.abs(chi - chi[0])))
    chi_closed = chi0_constant_wind(scenario_cw, sol_cw.schedule.tf)
    closed_err = abs(sol_cw.schedule.chi0 - chi_closed)
    ok = drift < 1e-10 and closed_err < 1e-8
    report(capsys, 6, ok,
           f"heading drift {drift:.3e} (tol 1e-10), closed-form heading "
           f"error {closed_err:.3e} (tol 1e-8)")


def test_criterion_07_derivative_oracles(capsys, scenario, context):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        x, y, v, m, chi = _admissible(rng, scenario)

        jq = np.array(jacobian_Q(context, x, y, v, m, chi))
        fd = _fd_jac(lambda *s: eval_Q(context, *s, chi), (x, y, v, m),
                     STATE_SCALES)
        worst = max(worst, np.max(np.abs(jq - fd)) / np.max(np.abs(fd)))

        jp = np.array(jacobian_P(context, v, m))
        fd = _fd_jac(lambda _x, _y, vv, mm: eval_P(context, vv, mm),
                     (x, y, v, m), STATE_SCALES)
        worst = max(worst, np.max(np.abs(jp - fd)) / np.max(np.abs(fd)))

        dv, dm = context.drag_partials(m, v)
        fd = _fd_jac(lambda vv, mm: (context.drag(mm, vv),), (v, m),
                     STATE_SCALES[2:])[0]
        worst = max(worst,
                    max(abs(dv - fd[0]), abs(dm - fd[1])) / max(map(abs, fd)))

        ana = np.array(scenario.wind.wind_gradients(x, y)).reshape(2, 2)
        fd = _fd_jac(lambda xx, yy: scenario.wind.wind_at(xx, yy), (x, y),
                     STATE_SCALES[:2])
        worst = max(worst, np.max(np.abs(ana - fd)) / np.max(np.abs(fd)))

        lam = (rng.uniform(-1, 1) * 1e-6, rng.uniform(-1, 1) * 1e-6,
               rng.uniform(-1, 1) * 1e-2, rng.uniform(-1, 1))
        pi = rng.uniform(0.0, 1.0)
        rhs = np.array(costate_rhs(context, v, m, chi,
                                   context.wind.wind_gradients(x, y), pi,
                                   lam))
        fd = -_fd_jac(
            lambda *s: (hamiltonian(context, *s, chi, pi, lam),),
            (x, y, v, m), STATE_SCALES)[0]
        worst = max(worst, np.max(np.abs(rhs - fd)) / np.max(np.abs(fd)))

        jq_fd = _fd_jac(lambda *s: eval_Q(context, *s, chi), (x, y, v, m),
                        STATE_SCALES)
        jp_fd = _fd_jac(lambda _x, _y, vv, mm: eval_P(context, vv, mm),
                        (x, y, v, m), STATE_SCALES)
        bracket = (jp_fd @ np.array(eval_Q(context, x, y, v, m, chi))
                   - jq_fd @ np.array(eval_P(context, v, m)))
        ana = np.array(lie_A(context, v, m, chi))
        worst = max(worst, np.max(np.abs(ana - bracket))
                    / np.max(np.abs(bracket)))
    report(capsys, 7, worst < 1e-6,
           f"worst relative Jacobian/bracket deviation {worst:.3e} over "
           f"100 randomized inputs (tol 1e-6)")


def test_criterion_08_divergence_free_wind(capsys, scenario):
    rng = np.random.default_rng(88)
    h = 1e4
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.5 * scenario.xf, 1.5 * scenario.xf)
        y = rng.uniform(-0.5 * scenario.yf, 1.5 * scenario.yf)
        wxp, wyp_x = scenario.wind.wind_at(x + h, y)
        wxm, wym_x = scenario.wind.wind_at(x - h, y)
        wxp_y, wyp = scenario.wind.wind_at(x, y + h)
        wxm_y, wym = scenario.wind.wind_at(x, y - h)
        dwx_dx = (wxp - wxm) / (2.0 * h)
        dwy_dy = (wyp - wym) / (2.0 * h)
        # relative to the field's full gradient magnitude at the point
        scale = max(abs(dwx_dx), abs(dwy_dy),
                    abs(wxp_y - wxm_y) / (2.0 * h),
                    abs(wyp_x - wym_x) / (2.0 * h))
        worst = max(worst, abs(dwx_dx + dwy_dy) / scale)
    report(capsys, 8, worst < 1e-12,
           f"max relative divergence {worst:.3e} at 1000 points (tol 1e-12)")


def test_criterion_09_singular_feedback_self_consistency(capsys, sol_04):
    traj = sol_04.trajectory
    scn = sol_04.scenario
    ctx = make_context(scn)
    alpha = sol_04.alpha
    mid = np.where(traj.arc_id == 1)[0]

    # S differentiated twice along the stored singular samples
    t = traj.t[mid]
    s2 = np.gradient(np.gradient(traj.S[mid], t), t)
    s2_max = float(np.max(np.abs(s2[2:-2])))

    # joint state/co-state ODE across singular windows vs the algebraic solve
    def rhs(s):
        sing = _Rhs(ctx, math.nan, alpha, scn.pi_min, scn.pi_max)
        base = sing(s[:5])
        lrhs = pmp_oracle.costate_rhs(ctx, *s[:5], sing.throttle, s[5:])
        return np.array(base + lrhs)

    def rk4(s, t0, t1, n):
        h = (t1 - t0) / n
        for _ in range(n):
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * h * k1)
            k3 = rhs(s + 0.5 * h * k2)
            k4 = rhs(s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return s

    scales = np.array(STATE_SCALES)
    lam_err = 0.0
    span = min(20, len(mid) - 1)
    for i0, i1 in ((mid[0], mid[0] + span), (mid[-1], mid[-1] - span)):
        lam0 = np.array(solve_costates_on_singular(
            ctx, *traj.states[i0], alpha).as_tuple())
        s = rk4(np.concatenate([traj.states[i0], lam0]),
                traj.t[i0], traj.t[i1], 8 * span)
        lam_alg = np.array(solve_costates_on_singular(
            ctx, *traj.states[i1], alpha).as_tuple())
        diff = np.max(np.abs((s[5:] - lam_alg) * scales))
        lam_err = max(lam_err, diff / np.max(np.abs(lam_alg * scales)))

    ok = s2_max < 1e-6 and lam_err < 1e-6
    report(capsys, 9, ok,
           f"max |S''| on singular arc {s2_max:.3e} (tol 1e-6), ODE vs "
           f"algebraic co-state relative gap {lam_err:.3e} (tol 1e-6)")


def test_criterion_10_zero_weight_limit(capsys, sol_alpha0, sol_alpha_eps):
    assert sol_alpha0.converged and sol_alpha_eps.converged
    t0, te = sol_alpha0.trajectory, sol_alpha_eps.trajectory
    grid = np.linspace(0.0, min(sol_alpha0.schedule.tf,
                                sol_alpha_eps.schedule.tf), 2001)
    p0 = np.interp(grid, t0.t, np.nan_to_num(t0.throttle, nan=0.0))
    pe = np.interp(grid, te.t, np.nan_to_num(te.throttle, nan=0.0))
    pi_gap = float(np.max(np.abs(p0 - pe)) / np.max(np.abs(pe)))
    m_gap = abs(t0.final_mass - te.final_mass) / te.final_mass
    ok = pi_gap <= 1e-3 and m_gap <= 1e-3
    report(capsys, 10, ok,
           f"throttle history relative gap {pi_gap:.3e}, final mass "
           f"relative gap {m_gap:.3e} (tol 1e-3 each)")


def test_criterion_11_deterministic_outputs(capsys, scenario, sol_04,
                                            tmp_path):
    rerun = solve_indirect(scenario.replace_alpha(0.4), fast_options())
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit_trajectory_csv(sol_04, p1)
    emit_trajectory_csv(rerun, p2)
    ok = p1.read_bytes() == p2.read_bytes()
    report(capsys, 11, ok,
           "two solves with identical config and seed emit "
           + ("byte-identical" if ok else "DIFFERING") + " CSV files")
