"""Config parsing/serialization, GeoJSON export, observation-log output."""

from __future__ import annotations

import dataclasses
import json
import random
import re

import pytest

from helpers import assert_valid_geojson, lattice_row, random_points
from uavsurvey import (
    Agent,
    CameraModel,
    ConfigError,
    GeoPoint,
    MissionConfig,
    NoiseSpec,
    PolygonRegion,
    RadiationSource,
    dumps_geojson,
    export_geojson,
    generate_waypoints,
    meters_per_degree,
    parse_mission_config,
    plan_routes,
    serialize_mission_config,
    simulate,
    write_observation_log,
)
from uavsurvey.sim import TAKEOFF, Event, EventLog

MINIMAL = """
{
  "region": [[53.0, -9.0], [53.001, -9.0], [53.001, -9.002]],
  "fleet": [{"id": "rav-1", "home": [53.0, -9.0], "velocity_mps": 5.0}]
}
"""


class TestParseConfig:
    def test_minimal_applies_defaults(self):
        config = parse_mission_config(MINIMAL)
        assert config.camera.altitude_m == 32.0
        assert config.camera.overlap_fraction == 0.2
        assert config.camera.half_fov_deg == 45.0
        assert config.noise == NoiseSpec("none", 0.0)
        assert config.seed == 0
        assert config.dwell_s == 0.0
        assert config.sources == ()
        assert len(config.region.vertices) == 3
        assert config.fleet[0].home.alt_m == 0.0

    def test_empty_fleet_rejected(self):
        doc = json.loads(MINIMAL)
        doc["fleet"] = []
        with pytest.raises(ConfigError, match="fleet"):
            parse_mission_config(json.dumps(doc))

    def test_full_overlap_rejected(self):
        doc = json.loads(MINIMAL)
        doc["camera"] = {"overlap_fraction": 1.0}
        with pytest.raises(ConfigError, match="overlap_fraction"):
            parse_mission_config(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_mission_config("{not json")

    def test_unknown_key_named(self):
        doc = json.loads(MINIMAL)
        doc["velocity"] = 3
        with pytest.raises(ConfigError, match="velocity"):
            parse_mission_config(json.dumps(doc))

    def test_bad_vertex_path_named(self):
        doc = json.loads(MINIMAL)
        doc["region"][1] = [95.0, 0.0]
        with pytest.raises(ConfigError, match=r"region\[1\]"):
            parse_mission_config(json.dumps(doc))

    def test_missing_fleet_key_named(self):
        doc = json.loads(MINIMAL)
        del doc["fleet"][0]["velocity_mps"]
        with pytest.raises(ConfigError, match=r"fleet\[0\].velocity_mps"):
            parse_mission_config(json.dumps(doc))

    def test_duplicate_agent_ids_rejected(self):
        doc = json.loads(MINIMAL)
        doc["fleet"].append(dict(doc["fleet"][0]))
        with pytest.raises(ConfigError, match="unique"):
            parse_mission_config(json.dumps(doc))

    def test_noise_shorthand_and_object(self):
        doc = json.loads(MINIMAL)
        doc["noise"] = "gaussian"
        assert parse_mission_config(json.dumps(doc)).noise == NoiseSpec("gaussian", 0.0)
        doc["noise"] = {"kind": "gaussian", "relative_sd": 0.25}
        assert parse_mission_config(json.dumps(doc)).noise == NoiseSpec("gaussian", 0.25)
        doc["noise"] = "fractal"
        with pytest.raises(ConfigError, match="noise"):
            parse_mission_config(json.dumps(doc))

    def test_region_across_antimeridian_rejected(self):
        # A 110 m box whose bounding rectangle would span 359.999 degrees of
        # longitude and hold millions of lattice points.
        doc = json.loads(MINIMAL)
        doc["region"] = [[0.0, 179.9995], [0.001, 179.9995], [0.001, -179.9995], [0.0, -179.9995]]
        with pytest.raises(ConfigError, match=r"^region: vertex longitudes span 359\.99"):
            parse_mission_config(json.dumps(doc))

    def test_seed_must_be_integer(self):
        doc = json.loads(MINIMAL)
        doc["seed"] = 1.5
        with pytest.raises(ConfigError, match="seed"):
            parse_mission_config(json.dumps(doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
    def test_non_finite_dwell_rejected(self, token):
        text = MINIMAL.rstrip().rstrip("}") + f', "dwell_s": {token}}}'
        with pytest.raises(ConfigError, match="dwell_s: expected a finite number"):
            parse_mission_config(text)

    def test_non_finite_nested_number_named(self):
        text = MINIMAL.replace('"velocity_mps": 5.0', '"velocity_mps": Infinity')
        with pytest.raises(ConfigError, match=r"fleet\[0\]\.velocity_mps: expected a finite number, got inf"):
            parse_mission_config(text)

    def test_sources_parsed(self):
        doc = json.loads(MINIMAL)
        doc["sources"] = [{"position": [53.0005, -9.001, 0.0], "sigma": 90.0}]
        config = parse_mission_config(json.dumps(doc))
        assert config.sources[0].sigma == 90.0
        doc["sources"] = [{"position": [53.0, -9.0], "sigma": -2.0}]
        with pytest.raises(ConfigError, match="sigma"):
            parse_mission_config(json.dumps(doc))

    def test_round_trip_identity(self):
        config = MissionConfig(
            region=PolygonRegion(
                (GeoPoint(53.0, -9.0), GeoPoint(53.002, -9.0), GeoPoint(53.002, -9.003, 1.25))
            ),
            fleet=(
                Agent("a", GeoPoint(53.0, -9.0, 0.5), 4.75),
                Agent("b", GeoPoint(53.0001, -9.0001), 8.125),
            ),
            camera=CameraModel(37.5, 0.15, 48.0),
            sources=(RadiationSource(GeoPoint(53.001, -9.001, 0.0), 123.456),),
            noise=NoiseSpec("gaussian", 0.0625),
            seed=42,
            dwell_s=1.5,
            mission_id="roundtrip",
        )
        restored = parse_mission_config(serialize_mission_config(config))
        assert restored == config

    def test_fleet_invariant_in_dataclass(self):
        with pytest.raises(ValueError, match="fleet"):
            MissionConfig(
                region=PolygonRegion((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 0))),
                fleet=(),
            )

    @pytest.mark.parametrize(
        "dwell, message",
        [
            (float("nan"), "dwell_s: expected a finite number, got nan"),
            (float("inf"), "dwell_s: expected a finite number, got inf"),
            (-1.0, "dwell_s: must be >= 0"),
        ],
    )
    def test_dwell_invariant_in_dataclass(self, dwell, message):
        config = parse_mission_config(MINIMAL)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MissionConfig(region=config.region, fleet=config.fleet, dwell_s=dwell)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(config, dwell_s=dwell)

    def test_serialized_config_is_strict_json(self):
        config = parse_mission_config(MINIMAL)
        object.__setattr__(config, "dwell_s", float("nan"))  # past the dataclass check
        with pytest.raises(ValueError, match="JSON compliant"):
            serialize_mission_config(config)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", 1.5, "seed: expected an integer, got float"),
            ("seed", True, "seed: expected an integer, got bool"),
            ("seed", "7", "seed: expected an integer, got str"),
            ("mission_id", 5, "mission_id: expected a string"),
            ("mission_id", "m\ud800", "mission_id: lone surrogate '\\ud800' at index 1 has no UTF-8 encoding"),
        ],
    )
    def test_seed_and_mission_id_rules_in_dataclass(self, key, value, message):
        config = parse_mission_config(MINIMAL)
        doc = json.loads(MINIMAL)
        doc[key] = value
        for make in (
            lambda: parse_mission_config(json.dumps(doc)),
            lambda: dataclasses.replace(config, **{key: value}),
            # Checked first: before the fleet rules.
            lambda: MissionConfig(region=config.region, fleet=(), **{key: value}),
        ):
            with pytest.raises(ConfigError) as caught:
                make()
            assert str(caught.value) == message

    def test_agent_id_without_utf8_encoding_refused_in_dataclass(self):
        with pytest.raises(ValueError) as caught:
            Agent("\udfff-rav", GeoPoint(53.0, -9.0), 5.0)
        assert str(caught.value) == "agent id: lone surrogate '\\udfff' at index 0 has no UTF-8 encoding"

    def test_config_built_in_code_is_refused_or_round_trips(self):
        rng = random.Random(38)
        round_trips = 0
        for case in range(1000):
            try:
                config = drawn_config(rng)
            except ValueError:
                continue
            assert parse_mission_config(serialize_mission_config(config)) == config, case
            round_trips += 1
        # Both outcomes are reached.
        assert 100 < round_trips < 900


# Wrong values a config built in code might hold: for a number field, numbers
# (an int no float equals among them), bools, a str and None; for an id,
# kind, seed or mission_id, any JSON value.
ODD_NUMBERS = [
    True, False, 0, -1, 2**63, 2**53 + 1, -(2**53 + 1), 10**400, -0.0, 1e308, -1e308, float("inf"), float("nan"),
    "7", None,
]
ODD_VALUES = [True, None, 7, 1.5, "", "m\ud800", "none", [], {}]


def drawn_config(rng: random.Random) -> MissionConfig:
    """A MissionConfig built with each field of it and of its values drawn from
    valid values, but one time in 30 from ODD_NUMBERS or ODD_VALUES: it raises
    ValueError, or it is a mission the parser could give."""

    def number(*good):
        return rng.choice(ODD_NUMBERS) if rng.random() < 1 / 30 else rng.choice(good)

    def value(*good):
        return rng.choice(ODD_VALUES) if rng.random() < 1 / 30 else rng.choice(good)

    def point(lat, lon):
        alt = rng.choice([(), (number(0.0, 2, 12.5),)])
        return GeoPoint(number(lat, lat + 0.0002), number(lon, lon - 0.0002), *alt)

    return MissionConfig(
        mission_id=value(None, "campus-demo"),
        region=PolygonRegion((point(53.0, -9.0), point(53.001, -9.0), point(53.001, -9.002))),
        camera=CameraModel(number(45.0, 30), number(0.2, 0), number(32.0, 50)),
        fleet=tuple(
            Agent(value(f"rav-{k}"), point(53.0, -9.0), number(5.0, 8, 0.25)) for k in range(rng.randint(1, 3))
        ),
        sources=tuple(RadiationSource(point(53.0005, -9.001), number(0.0, 90.0, 120)) for _ in range(rng.randint(0, 2))),
        noise=NoiseSpec(value("none", "gaussian"), number(0.0, 0.1)),
        seed=value(0, 7, -3, 2**70),
        dwell_s=number(0.0, 1.5, 2),
    )


def small_mission():
    m_lat, m_lon = meters_per_degree(0.0)
    region = PolygonRegion(
        (
            GeoPoint(0.0, 0.0),
            GeoPoint(0.0, 100.0 / m_lon),
            GeoPoint(100.0 / m_lat, 100.0 / m_lon),
            GeoPoint(100.0 / m_lat, 0.0),
        )
    )
    cam = CameraModel(45.0, 0.2, 32.0)
    grid = generate_waypoints(region, cam)
    fleet = [Agent("rav-1", GeoPoint(0.0, 0.0, 0.0), 5.0), Agent("rav-2", GeoPoint(0.0, 0.0, 0.0), 5.0)]
    plan = plan_routes(fleet, grid.points)
    return grid, plan, fleet


class TestExportGeojson:
    def test_empty_plan_only_points(self):
        grid, _, fleet = small_mission()
        empty = plan_routes(fleet, [])
        doc = export_geojson(grid, empty, fleet)
        assert_valid_geojson(doc)
        assert all(f["geometry"]["type"] == "Point" for f in doc["features"])
        assert all(f["properties"]["agent_id"] is None for f in doc["features"])

    def test_two_agent_plan_structure(self):
        grid, plan, fleet = small_mission()
        doc = export_geojson(grid, plan, fleet)
        assert_valid_geojson(doc)
        points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
        lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        # 100 m square at 42.67 m spacing: the 3x3 interior lattice survives.
        assert len(points) == 9
        assert len(lines) == 2
        for line in lines:
            aid = line["properties"]["agent_id"]
            orders = [
                f["properties"]["visit_order"] for f in points if f["properties"]["agent_id"] == aid
            ]
            assert sorted(orders) == list(range(1, len(orders) + 1))
            assert line["properties"]["leg_count"] == len(orders)
            assert line["properties"]["total_length_m"] > 0.0
            # route coordinates = home + one position per visited waypoint
            assert len(line["geometry"]["coordinates"]) == len(orders) + 1

    def test_coordinates_are_lon_lat_order(self):
        grid, plan, fleet = small_mission()
        doc = export_geojson(grid, plan, fleet)
        by_index = {tuple(f["properties"]["lattice_index"]): f for f in doc["features"] if f["geometry"]["type"] == "Point"}
        wp = next(w for w in grid.points if w.index == (2, 1))
        lon, lat, alt = by_index[(2, 1)]["geometry"]["coordinates"]
        assert (lon, lat, alt) == (wp.point.lon_deg, wp.point.lat_deg, wp.point.alt_m)

    def test_plan_outside_grid_rejected(self):
        grid, _, fleet = small_mission()
        rng = random.Random(1)
        points = random_points(rng, GeoPoint(1.0, 1.0), 3, 50.0, alt_m=32.0)
        stray = plan_routes(fleet, lattice_row(points))
        with pytest.raises(ValueError, match="grid"):
            export_geojson(grid, stray, fleet)

    def test_non_finite_value_rejected(self):
        grid, plan, fleet = small_mission()
        doc = export_geojson(grid, plan, fleet)
        doc["features"][0]["properties"]["total_length_m"] = float("nan")
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps_geojson(doc)

    def test_dumps_deterministic(self):
        grid, plan, fleet = small_mission()
        assert dumps_geojson(export_geojson(grid, plan, fleet)) == dumps_geojson(export_geojson(grid, plan, fleet))


class TestObservationLog:
    def test_empty_log_header_only(self):
        _, _, fleet = small_mission()
        log = simulate(plan_routes(fleet, []), fleet, camera=CameraModel())
        text = write_observation_log(log)
        lines = text.strip().split("\n")
        header = json.loads(lines[0])
        assert header["mission_id"] == log.mission_id
        assert header["config_digest"] == log.config_digest
        # only bookend events follow the header for an empty plan
        assert all(json.loads(line)["event"] != "waypoint_reached" for line in lines[1:])

    def test_line_count_recomputable(self):
        grid, plan, fleet = small_mission()
        log = simulate(plan, fleet, camera=CameraModel())
        lines = write_observation_log(log).strip().split("\n")
        assert len(lines) == 1 + 2 * len(fleet) + len(grid.points)

    def test_single_observation_record(self):
        fleet = [Agent("rav-1", GeoPoint(0.0, 0.0, 0.0), 5.0)]
        wp = GeoPoint(0.0, 100.0 / meters_per_degree(0.0)[1], 0.0)
        log = simulate(plan_routes(fleet, lattice_row([wp])), fleet, camera=CameraModel())
        lines = write_observation_log(log).strip().split("\n")
        records = [json.loads(line) for line in lines[1:]]
        hits = [r for r in records if r["event"] == "waypoint_reached"]
        assert len(hits) == 1
        assert hits[0]["t"] == pytest.approx(20.0, rel=1e-9)
        assert hits[0]["lat"] == wp.lat_deg
        assert hits[0]["lon"] == wp.lon_deg
        assert "radiation_usv_s" in hits[0]
        assert "camera" in hits[0]

    def test_non_finite_value_rejected(self):
        log = EventLog("m", "0" * 64, [Event(t=float("inf"), agent_id="rav-1", kind=TAKEOFF)], CameraModel())
        with pytest.raises(ValueError, match="JSON compliant"):
            write_observation_log(log)

    def test_reserialization_identical(self):
        grid, plan, fleet = small_mission()
        log = simulate(plan, fleet, [RadiationSource(GeoPoint(0.0, 0.0), 60.0)], NoiseSpec("gaussian", 0.1), seed=5,
                       camera=CameraModel())
        assert write_observation_log(log) == write_observation_log(log)
