"""The template writers against the ``json.dumps`` references.

``dumps_geojson`` and ``write_observation_log`` must emit byte for byte what
``json.dumps(indent=2, allow_nan=False)`` and per-record compact
``json.dumps(allow_nan=False)`` emit (``tests/helpers.py``), on seeded
missions and on hand-built documents and logs that leave the shapes the
templates cover, and must refuse a non-finite number in every float slot.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
from types import SimpleNamespace

import pytest

from helpers import REPO_CONFIG, json_config_digest, json_dumps_geojson, json_observation_log, random_star_polygon
from uavsurvey import (
    Agent,
    CameraModel,
    GeoPoint,
    NoiseSpec,
    RadiationSource,
    RoutePlan,
    dumps_geojson,
    export_geojson,
    generate_waypoints,
    geojson_io,
    parse_mission_config,
    plan_routes,
    simulate,
    write_observation_log,
)
from uavsurvey.grid import Waypoint, WaypointGrid
from uavsurvey.sim import WAYPOINT_REACHED, Event, EventLog, config_digest

NON_FINITE = [float("nan"), float("inf"), float("-inf")]
ORIGIN = GeoPoint(53.28, -9.06)


def assert_same_bytes(doc: dict | None = None, log: EventLog | None = None) -> None:
    if doc is not None:
        assert dumps_geojson(doc) == json_dumps_geojson(doc)
    if log is not None:
        assert write_observation_log(log) == json_observation_log(log)


def mission_inputs(rng: random.Random):
    """A seeded mission's grid, plan and fleet, and the other inputs of ``simulate``."""
    region = random_star_polygon(rng, ORIGIN, rng.randint(3, 24), 60.0, rng.uniform(80.0, 250.0))
    camera = CameraModel(rng.uniform(20.0, 60.0), rng.uniform(0.0, 0.5), rng.uniform(10.0, 40.0))
    grid = generate_waypoints(region, camera)
    fleet = [
        Agent(f"rav-{k}", GeoPoint(ORIGIN.lat_deg + rng.uniform(-1e-3, 1e-3), ORIGIN.lon_deg), rng.uniform(2.0, 12.0))
        for k in range(rng.randint(1, 6))
    ]
    sources = [
        RadiationSource(GeoPoint(ORIGIN.lat_deg + rng.uniform(-2e-3, 2e-3), ORIGIN.lon_deg), rng.uniform(10.0, 300.0))
        for _ in range(rng.randint(0, 4))
    ]
    noise = NoiseSpec("gaussian", rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else NoiseSpec()
    plan = plan_routes(fleet, grid.points)
    dwell_s = rng.choice([0.0, 1.5])
    inputs = dict(sources=sources, noise=noise, seed=rng.randint(0, 99), camera=camera, dwell_s=dwell_s)
    return grid, plan, fleet, inputs


def random_mission(rng: random.Random):
    grid, plan, fleet, inputs = mission_inputs(rng)
    return grid, plan, fleet, simulate(plan, fleet, **inputs)


@pytest.mark.parametrize("seed", range(12))
def test_random_missions_match_json_dumps(seed):
    grid, plan, fleet, log = random_mission(random.Random(seed))
    assert grid.points
    assert_same_bytes(export_geojson(grid, plan, fleet), log)


def int_grid():
    """Three waypoints with int coordinates, the way ``GeoPoint(0, 0, 0)`` keeps them."""
    points = tuple(Waypoint(GeoPoint(i, j, 0), (i, j)) for i, j in ((0, 0), (0, 1), (1, 0)))
    return WaypointGrid(1.0, points)


def random_json_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return rng.choice([0.0, -0.0, 1e300, -2.5e-308, 32.0, rng.uniform(-180.0, 180.0)])
    if kind == 1:
        return rng.choice([0, -1, 7, 10**20])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return "".join(rng.choice('ab"\\é\x1f\n/\U0001f681') for _ in range(rng.randint(0, 4)))
    if kind == 4:
        return [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.choice([32.0, 0, -0.0])]
    if kind == 5:
        return rng.choice([[], {}, ()])
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if kind == 6:
        return items if rng.random() < 0.7 else tuple(items)
    return {rng.choice(["type", "coordinates", "agent_id", "k", 1, 2.5, True, None]): v for v in items}


def _slots(node):
    """Every (container, key) in a JSON tree, so one value can be swapped."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@pytest.mark.parametrize("seed", range(4))
def test_mutated_documents_match_json_dumps(seed):
    """Random values swapped into an exported document, one at a time, so
    that each template meets near misses of the shape it fills."""
    rng = random.Random(seed)
    grid, plan, fleet, _ = random_mission(rng)
    doc = export_geojson(grid, plan, fleet)
    doc["features"][8:-3] = []  # a few Points, then the routes
    for _ in range(150):
        slots = list(_slots(doc))
        container, key = rng.choice(slots)
        value = random_json_value(rng)
        if isinstance(container, dict) and rng.random() < 0.3:
            # move the key to the end, or add one, so that key order changes too
            value = container.pop(key) if rng.random() < 0.5 else value
            key = key if rng.random() < 0.5 else "extra"
        container[key] = value
        assert_same_bytes(doc)


# Where each field sits: on any event, on an observation (an event that
# carries a waypoint), on its waypoint or point, or on the log's camera.
EVENT_SLOTS = {
    "t": "event", "agent_id": "event", "kind": "event",
    "radiation_usv_s": "observation", "index": "waypoint",
    "lat_deg": "point", "lon_deg": "point", "alt_m": "point",
    "half_fov_deg": "camera", "altitude_m": "camera",
}


def _slot_owner(rng: random.Random, log: EventLog, where: str):
    if where == "camera":
        return log.camera
    events = log.events if where == "event" else [e for e in log.events if e.waypoint is not None]
    event = rng.choice(events)
    if where in ("event", "observation"):
        return event
    return event.waypoint if where == "waypoint" else event.waypoint.point


def _namespace(value):
    """A mutable copy of an event, waypoint, position or camera record."""
    if not dataclasses.is_dataclass(value):
        return value
    return SimpleNamespace(**{f.name: _namespace(getattr(value, f.name)) for f in dataclasses.fields(value)})


def _outcome(write, log):
    try:
        return write(log)
    except (TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_logs_match_json_dumps(seed):
    """Random values swapped into the events and camera of a simulated log,
    one at a time."""
    rng = random.Random(seed)
    _, _, _, log = random_mission(rng)
    events = [_namespace(e) for e in log.events[:40]]
    log = EventLog(log.mission_id, log.config_digest, events, _namespace(log.camera))
    for _ in range(150):
        field = rng.choice(list(EVENT_SLOTS))
        target = _slot_owner(rng, log, EVENT_SLOTS[field])
        old = getattr(target, field)
        setattr(target, field, random_json_value(rng))
        outcome = _outcome(json_observation_log, log)
        assert _outcome(write_observation_log, log) == outcome
        if not isinstance(outcome, str):
            setattr(target, field, old)  # keep the log writable for the next swap


class TestEdgeCases:
    def test_int_coordinates(self):
        grid = int_grid()
        fleet = [Agent("rav-1", GeoPoint(0, 0, 0), 5)]
        plan = plan_routes(fleet, grid.points)
        log = simulate(plan, fleet, camera=CameraModel())
        doc = export_geojson(grid, plan, fleet)
        assert '"coordinates": [\n          0,\n          0,\n          0\n        ]' in dumps_geojson(doc)
        assert_same_bytes(doc, log)

    @pytest.mark.parametrize("aid", ['say "hi"', "back\\slash", "räv-é", "tab\tnul\x00", "\U0001f681"])
    def test_awkward_agent_ids(self, aid):
        rng = random.Random(3)
        grid, _, _, _ = random_mission(rng)
        fleet = [Agent(aid, ORIGIN, 5.0), Agent(aid + "-2", ORIGIN, 6.0)]
        plan = plan_routes(fleet, grid.points)
        assert_same_bytes(export_geojson(grid, plan, fleet), simulate(plan, fleet, camera=CameraModel()))

    def test_unassigned_waypoints_and_empty_route(self):
        grid, _, _, _ = random_mission(random.Random(4))
        fleet = [Agent(f"rav-{k}", ORIGIN, 5.0) for k in range(4)]
        plan = plan_routes(fleet, grid.points[:2])  # two agents fly nothing
        doc = export_geojson(grid, plan, fleet)
        assert any(f["properties"].get("visit_order", 0) is None for f in doc["features"])
        assert_same_bytes(doc, simulate(plan, fleet, camera=CameraModel()))

    def test_point_with_added_property(self):
        grid, plan, fleet, _ = random_mission(random.Random(6))
        doc = export_geojson(grid, plan, fleet)
        doc["features"][0]["properties"]["note"] = ["x", 1, None, True, {"k": 2.5}]
        doc["features"][1]["properties"]["lattice_index"] = [1, 2.0]
        doc["features"][-1]["properties"]["leg_count"] = False
        assert_same_bytes(doc)

    def test_other_shapes(self):
        grid, plan, fleet, _ = random_mission(random.Random(7))
        doc = export_geojson(grid, plan, fleet)
        doc["features"][0]["geometry"]["coordinates"] = [1.5, -2.5]
        doc["features"][1]["geometry"] = {"coordinates": [0.0, 0.0, 0.0], "type": "Point"}
        doc["features"][2]["geometry"]["type"] = "MultiPoint"
        doc["features"][3] = {"type": "Feature", "geometry": None, "properties": {}}
        line = doc["features"][-1]["geometry"]["coordinates"]
        line[1:4] = [(-0.0, 0.0, 1e300), [-0.0, 0.0, 5.0], [0.0, -0.0, 5.0]]
        doc["features"].append([])
        assert_same_bytes(doc)
        doc["bbox"] = [0.0, 1.0]
        assert_same_bytes(doc)

    def test_empty_features(self):
        assert_same_bytes({"type": "FeatureCollection", "features": []})
        fleet = [Agent("rav-1", GeoPoint(0, 0, 0), 5.0)]
        empty = WaypointGrid(1.0, ())
        plan = plan_routes(fleet, [])
        assert_same_bytes(export_geojson(empty, plan, fleet), simulate(plan, fleet, camera=CameraModel()))

    def test_hand_built_events(self):
        wp = SimpleNamespace(point=SimpleNamespace(lat_deg=1, lon_deg=-0.0, alt_m=True), index=(3, 4))
        events = [Event(0, "a", "takeoff"), Event(1.0, "a", WAYPOINT_REACHED, wp, 0), Event(2.0, None, "custom é")]
        for camera in (CameraModel(30, 0.1, 2), SimpleNamespace(half_fov_deg=45, altitude_m=0)):
            assert_same_bytes(log=EventLog('id "q"', "0" * 64, events, camera))

    def test_unsupported_type_raises_type_error(self):
        grid, plan, fleet, log = random_mission(random.Random(8))
        doc = export_geojson(grid, plan, fleet)
        doc["features"][0]["properties"]["agent_id"] = object()
        with pytest.raises(TypeError):
            dumps_geojson(doc)
        event = next(e for e in log.events if e.kind == WAYPOINT_REACHED)
        bad = dataclasses.replace(event, radiation_usv_s=1j)
        with pytest.raises(TypeError):
            write_observation_log(EventLog("m", "0" * 64, [bad], log.camera))


# --------------------------------------------------------------------------
# non-finite numbers in every float slot


def _exported():
    grid, plan, fleet, _ = random_mission(random.Random(9))
    return export_geojson(grid, plan, fleet)


def _first(doc, kind):
    return next(k for k, f in enumerate(doc["features"]) if f["geometry"]["type"] == kind)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "slot", ["point.lon", "point.lat", "point.alt", "line.lon", "line.lat", "line.alt", "total_length_m"]
)
def test_geojson_float_slots_refuse_non_finite(slot, value):
    doc = _exported()
    kind, _, field = slot.partition(".")
    if slot == "total_length_m":
        doc["features"][_first(doc, "LineString")]["properties"]["total_length_m"] = value
    else:
        axis = ["lon", "lat", "alt"].index(field)
        geometry = doc["features"][_first(doc, "Point" if kind == "point" else "LineString")]["geometry"]
        position = geometry["coordinates"] if kind == "point" else geometry["coordinates"][-1]
        position[axis] = value
    with pytest.raises(ValueError, match="JSON compliant"):
        json_dumps_geojson(doc)
    with pytest.raises(ValueError, match="JSON compliant"):
        dumps_geojson(doc)


POSITION_FIELDS = {"lat": "lat_deg", "lon": "lon_deg", "alt": "alt_m"}


def _with_slot(event: Event, slot: str, value: float) -> Event:
    if slot in POSITION_FIELDS:
        p = event.waypoint.point  # a GeoPoint refuses non-finite fields, so stand in for it
        fields = {"lat_deg": p.lat_deg, "lon_deg": p.lon_deg, "alt_m": p.alt_m, POSITION_FIELDS[slot]: value}
        wp = SimpleNamespace(point=SimpleNamespace(**fields), index=event.waypoint.index)
        return dataclasses.replace(event, waypoint=wp)
    return dataclasses.replace(event, **{slot: value})


def _camera_with_slot(camera: CameraModel, slot: str, value: float) -> SimpleNamespace:
    """A stand-in for a camera (which refuses non-finite fields) whose
    ``half_fov_deg`` or ``footprint_width`` is ``value``."""
    if slot == "half_fov_deg":
        return SimpleNamespace(half_fov_deg=value, altitude_m=camera.altitude_m)
    return SimpleNamespace(half_fov_deg=45.0, altitude_m=value / 2.0)  # footprint 2 * h * tan(45) = value


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "slot", ["t", "lat", "lon", "alt", "radiation_usv_s", "half_fov_deg", "footprint_width_m"]
)
def test_log_float_slots_refuse_non_finite(slot, value):
    """``alt`` covers the camera's ``altitude_m`` too: both write the waypoint's altitude."""
    _, _, _, log = random_mission(random.Random(10))
    events, camera = list(log.events), log.camera
    if slot in ("half_fov_deg", "footprint_width_m"):
        camera = _camera_with_slot(camera, slot, value)
    else:
        k = next(k for k, e in enumerate(events) if e.kind == WAYPOINT_REACHED)
        events[k] = _with_slot(events[k], slot, value)
    bad = EventLog(log.mission_id, log.config_digest, events, camera)
    # The reference computes the footprint from half_fov_deg before it encodes
    # a line, and tan refuses an infinite angle; the writer encodes half_fov_deg first.
    refused = "math domain error" if slot == "half_fov_deg" and math.isinf(value) else "JSON compliant"
    with pytest.raises(ValueError, match=refused):
        json_observation_log(bad)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_observation_log(bad)


def test_bookend_time_refuses_non_finite():
    for value in NON_FINITE:
        log = EventLog("m", "0" * 64, [Event(t=value, agent_id="rav-1", kind="takeoff")], CameraModel())
        with pytest.raises(ValueError, match="JSON compliant"):
            write_observation_log(log)


# --------------------------------------------------------------------------
# the templates carry the writers


def test_json_dumps_calls_depend_on_the_fleet_not_the_waypoints(monkeypatch):
    """Only the shapes the templates skip reach ``json.dumps``: the log header
    and each distinct string. A log template that stops matching sends one
    call per waypoint instead, and a GeoJSON one sends the whole document."""
    config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    calls = []

    def dumps(*args, **kwargs):
        calls.append(args[0])
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(geojson_io, "json", SimpleNamespace(dumps=dumps))
    counts = {}
    for altitude_m in (config.camera.altitude_m, config.camera.altitude_m / 2):  # half the spacing
        camera = dataclasses.replace(config.camera, altitude_m=altitude_m)
        grid = generate_waypoints(config.region, camera)
        plan = plan_routes(config.fleet, grid.points)
        log = simulate(plan, config.fleet, config.sources, config.noise, config.seed, camera=camera)
        calls.clear()
        dumps_geojson(export_geojson(grid, plan, config.fleet))
        write_observation_log(log)
        counts[len(grid.points)] = len(calls)
    (few, few_calls), (many, many_calls) = counts.items()
    assert many > 3 * few
    agents = len(config.fleet)
    assert few_calls == many_calls == 1 + 2 * agents + 2  # header; ids twice; two bookend kinds


def test_an_off_template_feature_sends_the_whole_document_to_json_dumps(monkeypatch):
    """One feature the templates do not cover makes ``dumps_geojson`` one
    ``json.dumps(indent=2)`` call for the whole campus document."""
    config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    grid = generate_waypoints(config.region, config.camera)
    doc = export_geojson(grid, plan_routes(config.fleet, grid.points), config.fleet)
    doc["features"][len(doc["features"]) // 2]["properties"]["note"] = "added"
    indented = []

    def dumps(value, **kwargs):
        if "indent" in kwargs:
            indented.append(value)
        return json.dumps(value, **kwargs)

    monkeypatch.setattr(geojson_io, "json", SimpleNamespace(dumps=dumps))
    text = dumps_geojson(doc)
    assert len(indented) == 1 and indented[0] is doc
    assert text == json_dumps_geojson(doc)


# --------------------------------------------------------------------------
# config_digest against one json.dumps(sort_keys=True) of a nested payload


def assert_same_digest(plan, fleet, **inputs) -> None:
    inputs = {**dict(sources=(), noise=NoiseSpec(), seed=0, camera=CameraModel(), dwell_s=0.0), **inputs}
    assert config_digest(plan, fleet, **inputs) == json_config_digest(plan, fleet, **inputs)


@pytest.mark.parametrize("seed", range(12))
def test_random_mission_digests_match_json_dumps(seed):
    _, plan, fleet, inputs = mission_inputs(random.Random(seed))
    assert_same_digest(plan, fleet, **inputs)


class TestDigestEdgeCases:
    def test_campus(self):
        config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
        plan = plan_routes(config.fleet, generate_waypoints(config.region, config.camera).points)
        inputs = dict(sources=config.sources, noise=config.noise, seed=config.seed, dwell_s=config.dwell_s)
        assert_same_digest(plan, config.fleet, camera=config.camera, **inputs)

    def test_int_and_signed_zero_coordinates(self):
        grid = int_grid()
        fleet = [Agent("rav-1", GeoPoint(0, 0, 0), 5)]
        source = RadiationSource(GeoPoint(0, 1, 0), 100)
        inputs = dict(sources=[source], noise=NoiseSpec("gaussian", 0), seed=3, camera=CameraModel(30, 0, 2), dwell_s=0)
        assert_same_digest(plan_routes(fleet, grid.points), fleet, **inputs)
        # Equal keys of a float cache with other texts: 0.0 and -0.0, 1 and 1.0.
        route = [
            Waypoint(GeoPoint(lat, lon, alt), (k, 0))
            for k, (lat, lon, alt) in enumerate([(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (1, 1.0, 2.5), (1.0, 1, 2.5)])
        ]
        assert_same_digest(RoutePlan({"rav-1": route}), fleet)

    def test_empty_routes(self):
        fleet = [Agent(f"rav-{k}", ORIGIN, 5.0) for k in range(3)]
        grid = int_grid()
        assert_same_digest(plan_routes(fleet, grid.points[:1]), fleet)
        assert_same_digest(RoutePlan({}), fleet)

    @pytest.mark.parametrize(
        "ids",
        [
            ['say "hi"', "back\\slash", "räv-é", "tab\tnul\x00", "\U0001f681"],
            ["b", "a", "B", "a-2", "\U0001f681", "\uffff"],
            [10, 3],
            ["a", 2.5],
            ["a", (1, 2)],
            ["a", None],
            ["a", True],
        ],
        ids=["escaped", "unsorted", "int", "float", "tuple", "None", "bool"],
    )
    def test_awkward_agent_ids(self, ids):
        # A string id is digested as json writes a key; Agent refuses any
        # other id, so the digest never sees one.
        other = [aid for aid in ids if type(aid) is not str]
        if other:
            with pytest.raises(ValueError, match=re.escape(f"agent id must be a string, got {other[0]!r}") + "$"):
                [Agent(aid, ORIGIN, 5.0) for aid in ids]
            return
        grid, _, _, _ = random_mission(random.Random(3))
        fleet = [Agent(aid, ORIGIN, 5.0 + k) for k, aid in enumerate(ids)]
        plan = plan_routes(fleet, grid.points)
        assert list(plan.routes) != sorted(plan.routes)
        assert_same_digest(plan, fleet)

    def test_index_not_an_int_pair(self):
        # One rule, held by Waypoint: no grid, plan or log can carry another
        # index. The log writer applies it again to an event built by hand.
        fleet = [Agent("rav-1", ORIGIN, 5.0)]
        p = GeoPoint(53.28, -9.06, 32.0)
        log = simulate(RoutePlan({"rav-1": [Waypoint(p, (0, 0)), Waypoint(p, (0, 1))]}), fleet, camera=CameraModel())
        assert log.events[2].kind == WAYPOINT_REACHED
        for index in [(1, 2.0), (True, None), ("x", -0.0), (1, 2, 3), [4, 5], (1, {"b": 1, "a": [2.5, 0]}), (), None]:
            message = re.escape(f"lattice index must be a pair of ints, got {index!r}") + "$"
            with pytest.raises(ValueError, match=message):
                Waypoint(p, index)
            events = [*log.events]
            events[2] = _namespace(events[2])
            events[2].waypoint.index = index
            with pytest.raises(ValueError, match=message):
                write_observation_log(EventLog(log.mission_id, log.config_digest, events, log.camera))


# --------------------------------------------------------------------------
# export_geojson matches a plan's waypoints to the grid's by equality


def _copy(w: Waypoint, point: GeoPoint | None = None, index: tuple | None = None) -> Waypoint:
    """An equal copy of ``w`` built from new floats, point and index tuple, or
    a copy with ``point`` or ``index`` replaced."""
    p = w.point
    fresh = GeoPoint(float(repr(p.lat_deg)), float(repr(p.lon_deg)), float(repr(p.alt_m)))
    return Waypoint(point or fresh, index or tuple(list(w.index)))


class TestExportMatching:
    def test_equal_copies_give_the_same_document(self):
        grid, plan, fleet, _ = random_mission(random.Random(11))
        copies = RoutePlan({aid: [_copy(w) for w in route] for aid, route in plan.routes.items()})
        w, c = next(iter(plan.routes.values()))[0], next(iter(copies.routes.values()))[0]
        assert c == w and c is not w and c.point.lat_deg is not w.point.lat_deg
        assert export_geojson(grid, copies, fleet) == export_geojson(grid, plan, fleet)

    @pytest.mark.parametrize("moved", ["index", "position"])
    def test_a_waypoint_off_the_grid_is_refused(self, moved):
        grid, plan, fleet, _ = random_mission(random.Random(14))
        route = max(plan.routes.values(), key=len)
        assert len(route) >= 5
        stray = []
        for w in route[:4]:
            if moved == "index":
                stray.append(_copy(w, index=(w.index[0] + 1000, w.index[1])))
            else:
                p = w.point
                stray.append(_copy(w, point=GeoPoint(p.lat_deg + 1e-9, p.lon_deg, p.alt_m)))
        route[1:5] = [stray[0], _copy(stray[0]), *stray[1:]]  # a repeat is named once
        message = f"plan contains waypoints not in the grid: {stray[:3]}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            export_geojson(grid, plan, fleet)

    def test_no_waypoint_or_point_is_hashed(self, monkeypatch):
        grid, plan, fleet, _ = random_mission(random.Random(13))
        expected = export_geojson(grid, plan, fleet)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} hashed")

        monkeypatch.setattr(Waypoint, "__hash__", refuse)
        monkeypatch.setattr(GeoPoint, "__hash__", refuse)
        with pytest.raises(AssertionError, match="hashed"):
            hash(grid.points[0])
        assert export_geojson(grid, plan, fleet) == expected
