"""CLI and serialization tests: round trips, CSV schema, determinism."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cruiseopt import cli, solver
from cruiseopt.cli import (build_parser, emit_direct_csv, emit_trajectory_csv,
                           main, write_solution_dir)
from cruiseopt.integrate import ArcSchedule
from cruiseopt.scenario import (default_constant_wind_scenario_path,
                                default_scenario_path, load_scenario,
                                save_scenario)

from conftest import census_script
from model_oracle import default_aircraft_path


class TestScenarioRoundTrip:
    def test_save_load_preserves_fields(self, scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        # the aircraft reference is relative to the scenario file
        shutil.copy(default_aircraft_path(), tmp_path / scenario.aircraft_file)
        back = load_scenario(path)
        for name in ("x0", "y0", "xf", "yf", "v0", "vf", "m0", "h",
                     "alpha", "pi_min", "pi_max"):
            assert getattr(back, name) == getattr(scenario, name)
        assert back.wind == scenario.wind
        assert back.aircraft == scenario.aircraft

    def test_shipped_scenario_values(self, scenario):
        assert (scenario.x0, scenario.y0) == (0.0, 0.0)
        assert (scenario.xf, scenario.yf) == (1.5e6, 7.0e5)
        assert scenario.v0 == scenario.vf == 200.0
        assert scenario.m0 == 59000.0
        assert scenario.h == 10000.0
        assert (scenario.pi_min, scenario.pi_max) == (0.0, 1.0)


class TestTrajectoryCsv:
    def test_schema_and_monotone_time(self, sol_04, tmp_path):
        path = tmp_path / "traj.csv"
        emit_trajectory_csv(sol_04, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "y", "v", "m", "chi", "pi", "S", "H",
                           "lam_x", "lam_y", "lam_v", "lam_m", "lc", "detM",
                           "mach", "cas_flag"]
        assert all(len(r) == 17 for r in rows)
        t = np.array([float(r[0]) for r in rows[1:]])
        assert np.all(np.diff(t) > 0.0)
        assert set(r[-1] for r in rows[1:]) <= {"0", "1"}

    def test_full_precision_round_trip(self, sol_04, tmp_path):
        path = tmp_path / "traj.csv"
        emit_trajectory_csv(sol_04, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        m_csv = np.array([float(r[4]) for r in rows[1:]])
        assert m_csv == pytest.approx(sol_04.trajectory.states[:, 3], rel=0.0)

    def test_reemission_is_byte_identical(self, sol_04, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trajectory_csv(sol_04, p1)
        emit_trajectory_csv(sol_04, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_direct_csv_schema(direct_04, tmp_path):
    path = tmp_path / "direct.csv"
    emit_direct_csv(direct_04, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "v", "m", "chi", "pi"]
    assert len(rows) == len(direct_04.chi) + 2  # header, N nodes, terminal


class TestSolutionDirectory:
    def test_write_then_verify_command(self, sol_04, tmp_path):
        outdir = tmp_path / "run"
        write_solution_dir(sol_04, outdir, steps=200)
        for name in ("scenario.json", "aircraft.json", "solution.json",
                     "trajectory.csv"):
            assert (outdir / name).exists()
        with open(outdir / "solution.json") as fh:
            doc = json.load(fh)
        assert doc["converged"] is True
        assert doc["schedule"]["final_throttle"] is None
        assert doc["alpha"] == sol_04.scenario.alpha
        # the stored directory is self-contained: the verify command
        # re-integrates the schedule and re-runs every check
        assert main(["verify", "--solution", str(outdir)]) == 0

    def test_final_throttle_survives_round_trip(self, sol_01, tmp_path):
        outdir = tmp_path / "run01"
        write_solution_dir(sol_01, outdir, steps=200)
        with open(outdir / "solution.json") as fh:
            doc = json.load(fh)
        assert doc["schedule"]["final_throttle"] == sol_01.scenario.pi_max
        assert main(["verify", "--solution", str(outdir)]) == 0


def test_sweep_command_warm_starts_every_weight_after_the_first(
        monkeypatch, tmp_path):
    """The sweep command runs the continuation: the largest weight is solved
    cold and every other weight warm-starts from a neighbor's schedule."""
    sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
    calls = []

    def fake_solve(scn, options=None, warm_start=None):
        calls.append((scn.alpha, warm_start))
        return solver.realize_solution(scn, sched, steps=10)

    monkeypatch.setattr(cli, "solve_indirect", fake_solve)
    monkeypatch.setattr(solver, "solve_indirect", fake_solve)
    main(["sweep-alpha", "--alphas", "0.3,0.5,0.4", "--out", str(tmp_path)])
    assert [a for a, _ in calls] == [0.5, 0.4, 0.3]
    assert calls[0][1] is None
    assert all(warm is not None for _, warm in calls[1:])
    for a in ("0.3", "0.5", "0.4"):
        assert (tmp_path / f"alpha_{a}" / "solution.json").exists()


def test_case_study_script_runs_fast(tmp_path):
    """`scripts/reproduce_case_study.py --fast` runs the comparison and the
    sweep end to end; it exits 0 only when the gap is within 1e-3 and every
    weight converged."""
    root = Path(__file__).resolve().parent.parent
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_case_study.py"),
         "--fast", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stdout + out.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["sweep_converged"] == [True, True, True]
    # the first bang arc grows with the weight (0.1, 0.3, 0.5)
    assert summary["t1_trend"] == sorted(summary["t1_trend"])


@pytest.mark.parametrize("alpha, starts, floor", [
    (None, 6, 6), (0.1, 18, 17), (0.9, 18, 17)], ids=["cw", "0.1", "0.9"])
def test_start_grid_census_keeps_its_floor(alpha, starts, floor):
    """`scripts/start_grid_census.py` runs the grid through the solver's own
    per-start loop, at 20 RK4 steps per arc: under constant wind all 6
    starts close; at alpha = 0.1, where a start closes only through the
    second solve with a max-throttle final arc, and at alpha = 0.9, where
    the collapsed singular arc is pinned, 17 of 18 do.  Every closing start
    reaches the best cost."""
    mod = census_script()
    if alpha is None:
        scn = load_scenario(default_constant_wind_scenario_path())
    else:
        scn = load_scenario(default_scenario_path()).replace_alpha(alpha)
    c = mod.census(scn, 20)
    assert c["starts"] == starts
    assert c["closing"] >= floor
    assert c["at_best"] == c["closing"]


def test_route_census_prints_a_line_per_weight_band(capsys):
    """`--routes` mode: random routes, solved cold and verified, counted by
    cost-weight band; the counts add up to the routes drawn."""
    census_script().route_census(4, 2, 20)
    lines = capsys.readouterr().out.splitlines()
    # routes that fail are listed before the table
    head = [line.split()[:3] for line in lines].index(
        ["weight", "steps", "routes"])
    rows = [line.split() for line in lines[head + 1:]]
    assert [r[0] for r in rows] == ["0.1-0.3", "0.3-0.5", "0.5-0.7"]
    assert sum(int(r[2]) for r in rows) == 4
    for r in rows:
        routes, converged, verified, unconverged = map(int, r[2:6])
        assert verified <= converged == routes - unconverged


_BAD_INPUTS = {
    "steps 0": ["solve-indirect", "--steps", "0"],
    "steps -2": ["solve-indirect", "--steps", "-2"],
    "nodes 0": ["solve-direct", "--nodes", "0"],
    "alphas abc": ["sweep-alpha", "--alphas", "0.4,abc"],
    "missing solution": ["verify", "--solution", "{tmp}/missing"],
    "missing scenario": ["solve-direct", "--scenario", "{tmp}/missing.json"],
    "malformed scenario": ["solve-direct", "--scenario", "{tmp}/bad.json"],
}


class TestArgumentHandling:
    @pytest.mark.parametrize("argv", list(_BAD_INPUTS.values()),
                             ids=list(_BAD_INPUTS))
    def test_bad_input_is_one_error_line(self, argv, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json")
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] != "verify":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert out.err.count("\n") == 1
        assert "Traceback" not in out.err + out.out

    def test_stored_steps_below_one_is_an_error(self, scenario, tmp_path,
                                               capsys):
        sched = ArcSchedule(t1=46.37, t2=6102.6, tf=6157.2, chi0=0.6937)
        sol = solver.realize_solution(scenario, sched, steps=10)
        write_solution_dir(sol, tmp_path, steps=0)
        assert main(["verify", "--solution", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: steps=0")

    def test_alpha_outside_unit_interval_rejected(self, capsys):
        rc = main(["solve-indirect", "--alpha", "1.5", "--out", "/tmp/x"])
        assert rc == 1
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_missing_out_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve-indirect"])

    def test_seed_flag_is_rejected(self):
        # the start grid is fixed, so no solve command takes a seed
        for argv in (["solve-indirect"], ["solve-direct"], ["compare"],
                     ["sweep-alpha", "--alphas", "0.4"]):
            argv = argv + ["--out", "run"]
            build_parser().parse_args(argv)
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--seed", "1"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_default_scenario_is_shipped_file(self):
        args = build_parser().parse_args(["solve-indirect", "--out", "/tmp/x"])
        assert args.scenario == str(default_scenario_path())
