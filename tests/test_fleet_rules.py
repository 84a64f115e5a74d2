"""One set of fleet rules for every entry point that takes a fleet, the
immutable mission config the CLI derives its overrides from, and the frozen,
slotted value classes built once per waypoint."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from helpers import REPO_CONFIG, json_config_digest, lattice_row
from uavsurvey import (
    Agent,
    CameraModel,
    Event,
    GeoPoint,
    MissionConfig,
    NoiseSpec,
    PolygonRegion,
    WaypointGrid,
    brute_force_mtsp,
    dumps_geojson,
    export_geojson,
    generate_waypoints,
    makespan,
    parse_mission_config,
    plan_routes,
    route_length,
    simulate,
    write_observation_log,
)
from uavsurvey.cli import main
from uavsurvey.geojson_io import config_digest

HOME = GeoPoint(0.0, 0.0)
POINTS = lattice_row([GeoPoint(0.0, 0.0001), GeoPoint(0.0001, 0.0)])
REGION = PolygonRegion((GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.001), GeoPoint(0.001, 0.0)))
PLAN = plan_routes([Agent("A", HOME, 2.0), Agent("B", HOME, 3.0)], POINTS)
GRID = WaypointGrid(1.0, tuple(POINTS))

# Each entry point called with a given fleet.
ENTRY_POINTS = {
    "plan_routes": lambda fleet: plan_routes(fleet, POINTS),
    "brute_force_mtsp": lambda fleet: brute_force_mtsp(POINTS, fleet),
    "makespan": lambda fleet: makespan(PLAN, fleet),
    "simulate": lambda fleet: simulate(PLAN, fleet, camera=CameraModel()),
    "export_geojson": lambda fleet: export_geojson(GRID, PLAN, fleet),
    "config_digest": lambda fleet: config_digest(PLAN, fleet, (), NoiseSpec(), 0, CameraModel(), 0.0),
    "MissionConfig": lambda fleet: MissionConfig(region=REGION, fleet=tuple(fleet)),
}
FLEETS = {
    "empty": ([], "fleet must have at least one agent"),
    "duplicate-ids": (
        [Agent("A", HOME, 2.0), Agent("B", HOME, 3.0), Agent("A", HOME, 4.0)],
        "agent ids must be unique within the fleet",
    ),
}


@pytest.mark.parametrize("fleet, message", FLEETS.values(), ids=FLEETS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_same_fleet_rule_everywhere(name, fleet, message):
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[name](fleet)
    # MissionConfig puts its path in front, as the parser does.
    assert str(info.value) == ("fleet: " if name == "MissionConfig" else "") + message


@pytest.mark.parametrize("name", ["makespan", "simulate", "export_geojson", "config_digest"])
def test_plan_naming_an_agent_outside_the_fleet(name):
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[name]([Agent("A", HOME, 2.0)])
    assert str(info.value) == "plan references agents not in the fleet: ['B']"


def test_mixed_id_types_refused_by_agent():
    # A fleet of "a" and 1 used to reach simulate, whose sort of the ids
    # raised TypeError. Agent refuses the 1; "a" and "1" plan, fly and digest.
    with pytest.raises(ValueError) as info:
        [Agent("a", HOME, 2.0), Agent(1, HOME, 3.0)]
    assert str(info.value) == "agent id must be a string, got 1"
    fleet = [Agent("a", HOME, 2.0), Agent("1", HOME, 3.0)]
    plan = plan_routes(fleet, POINTS)
    log = simulate(plan, fleet, camera=CameraModel())
    assert [e.agent_id for e in log.events[:2]] == ["1", "a"]
    assert log.config_digest == json_config_digest(plan, fleet, (), NoiseSpec(), 0, CameraModel(), 0.0)


def test_export_starts_each_route_at_the_fleets_home():
    # The plan was made with both agents at HOME; the fleet exported with
    # has moved them, so the LineStrings start where this fleet says.
    moved = [Agent("A", GeoPoint(0.0002, 0.0003, 5.0), 2.0), Agent("B", GeoPoint(-0.0001, 0.0004), 3.0)]
    doc = export_geojson(GRID, PLAN, moved)
    lines = {f["properties"]["agent_id"]: f for f in doc["features"] if f["geometry"]["type"] == "LineString"}
    assert set(lines) == {"A", "B"}
    for agent in moved:
        line = lines[agent.id]
        assert line["geometry"]["coordinates"][0] == [agent.home.lon_deg, agent.home.lat_deg, agent.home.alt_m]
        assert line["properties"]["total_length_m"] == route_length(agent.home, PLAN[agent.id])


def test_mission_config_is_frozen():
    config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 7


# An instance of each value class built once per waypoint.
VALUES = {
    "GeoPoint": GeoPoint(0.0, 190.0, 5.0),
    "Waypoint": POINTS[0],
    "Event": Event(1.5, "A", "waypoint_reached", POINTS[0], 0.25),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_class_is_frozen_and_slotted(name):
    value = VALUES[name]
    assert not hasattr(value, "__dict__")
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, 1)
    with pytest.raises((AttributeError, TypeError)):  # a TypeError on Python 3.10-3.13
        value.extra = 1
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin is not value
        assert twin == value
        assert hash(twin) == hash(value)


def test_cli_overrides_match_the_api(tmp_path):
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(REPO_CONFIG), "--out", str(out), "--agents", "1", "--seed", "7"]
    assert main(argv) == 0

    parsed = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    assert len(parsed.fleet) > 1 and parsed.seed != 7  # both overrides change something
    config = dataclasses.replace(parsed, fleet=parsed.fleet[:1], seed=7)
    grid = generate_waypoints(config.region, config.camera)
    plan = plan_routes(config.fleet, grid.points)
    log = simulate(plan, config.fleet, config.sources, config.noise, config.seed,
                   camera=config.camera, dwell_s=config.dwell_s, mission_id=config.mission_id)
    assert (out / "plan.geojson").read_text(encoding="utf-8") == dumps_geojson(export_geojson(grid, plan, config.fleet))
    assert (out / "observations.jsonl").read_text(encoding="utf-8") == write_observation_log(log)
