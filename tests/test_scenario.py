"""Scenario files: the polynomial wind's normalization scales."""

import json
import math

import numpy as np
import pytest

from cruiseopt.errors import ValidationError
from cruiseopt.integrate import ArcSchedule, integrate_arcs
from cruiseopt.scenario import (default_aircraft_path, default_scenario_path,
                                load_scenario, make_context, save_scenario)

SCALES = {"x_scale_m": 1.5e6, "y_scale_m": 7.0e5}


def _scenario_file(tmp_path, name, wind=None, **fields):
    """The shipped scenario with some fields and wind keys replaced."""
    with open(default_scenario_path()) as fh:
        raw = json.load(fh)
    raw.update(fields)
    raw["wind"].update(wind or {})
    raw["aircraft_file"] = str(default_aircraft_path())
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def test_shipped_wind_scales_default_to_the_route_end(scenario, tmp_path):
    with open(default_scenario_path()) as fh:
        assert not set(SCALES) & set(json.load(fh)["wind"])
    assert (scenario.wind.x_f, scenario.wind.y_f) == (scenario.xf,
                                                      scenario.yf)
    explicit = load_scenario(_scenario_file(tmp_path, "s.json", SCALES))
    assert explicit.wind == scenario.wind


def test_due_north_route_loads_with_explicit_scales(tmp_path):
    with pytest.raises(ValidationError):
        load_scenario(_scenario_file(tmp_path, "a.json", xf_m=0.0))
    scn = load_scenario(_scenario_file(tmp_path, "b.json", SCALES, xf_m=0.0))
    sched = ArcSchedule(t1=30.0, t2=3000.0, tf=3050.0, chi0=math.pi / 2)
    traj = integrate_arcs(make_context(scn), sched,
                          (scn.x0, scn.y0, scn.v0, scn.m0), 0.4,
                          scn.pi_min, scn.pi_max, steps_per_arc=20)
    assert np.all(np.isfinite(traj.states))
    # the saved file carries the scales, so it loads back
    save_scenario(scn, tmp_path / "c.json")
    assert load_scenario(tmp_path / "c.json").wind == scn.wind


def test_explicit_scales_keep_the_wind_when_the_destination_moves(tmp_path):
    near = load_scenario(_scenario_file(tmp_path, "near.json", SCALES))
    far = load_scenario(_scenario_file(tmp_path, "far.json", SCALES,
                                       xf_m=2.0e6, yf_m=-3.0e5))
    for x, y in ((0.0, 0.0), (7.5e5, 3.5e5), (2.0e6, -3.0e5)):
        assert far.wind.wind_at(x, y) == near.wind.wind_at(x, y)
        assert far.wind.wind_gradients(x, y) == near.wind.wind_gradients(x, y)
