"""Every ConfigError message for a table of malformed mission documents.

Each document is the minimal valid config with one defect. The expected
strings are the exact messages, so a change to the parser that rewords,
re-prefixes or reorders an error shows up here.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import pytest

from uavsurvey import Agent, ConfigError, GeoPoint, MissionConfig, PolygonRegion, parse_mission_config
from uavsurvey.config import _AGENT, _CAMERA, _MISSION, _NOISE, _SOURCE

MINIMAL = {
    "region": [[53.0, -9.0], [53.001, -9.0], [53.001, -9.002]],
    "fleet": [{"id": "rav-1", "home": [53.0, -9.0], "velocity_mps": 5.0}],
}
INF = float("inf")
NAN = float("nan")


def put(*path_and_value):
    """Set ``doc[path...] = value``; the last argument is the value."""
    *path, value = path_and_value

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return mutate


def drop(*path):
    """Delete ``doc[path...]``."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return doc

    return mutate


def whole(value):
    """Replace the whole document."""
    return lambda doc: value


AGENT = MINIMAL["fleet"][0]
SOURCE = {"position": [53.0005, -9.001], "sigma": 90.0}

# (case id, mutation of MINIMAL, the exact ConfigError message). A bad number
# inside fleet[k], sources[k] or noise is reported under both the section's
# path and its own.
CASES = [
    # top level
    ("top-not-object", whole([]), "top level: expected an object"),
    ("top-unknown-key", put("velocity", 3),
     "top level: unknown key(s) ['velocity']; allowed: "
     "['camera', 'dwell_s', 'fleet', 'mission_id', 'noise', 'region', 'seed', 'sources']"),
    ("top-missing-region", drop("region"), "region: required key is missing"),
    ("top-missing-fleet", drop("fleet"), "fleet: required key is missing"),
    # region
    ("region-not-list", put("region", {"a": 1}), "region: expected a list of vertices"),
    ("region-vertex-not-list", put("region", 1, "x"),
     "region[1]: expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]"),
    ("region-vertex-wrong-length", put("region", 1, [53.001]),
     "region[1]: expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]"),
    ("region-vertex-wrong-type", put("region", 1, [53.001, "w"]), "region[1][1]: expected a number, got str"),
    ("region-vertex-non-finite", put("region", 0, 0, NAN), "region[0][0]: expected a finite number, got nan"),
    ("region-vertex-out-of-range", put("region", 1, [95.0, 0.0]),
     "region[1]: lat_deg must be within [-90, 90], got 95.0"),
    ("region-empty", put("region", []), "region: polygon needs at least 3 vertices, got 0"),
    ("region-too-few", put("region", [[53.0, -9.0], [53.001, -9.0]]),
     "region: polygon needs at least 3 vertices, got 2"),
    ("region-repeated-vertex", put("region", [[53.0, -9.0], [53.0, -9.0], [53.001, -9.002]]),
     "region: repeated consecutive vertex at position 0"),
    ("region-self-intersecting", put("region", [[0, 0], [1, 1], [1, 0], [0, 1]]),
     "region: polygon edges 0 and 2 intersect; region must be simple"),
    ("region-collinear-triangle", put("region", [[53.0, -9.0], [53.002, -9.0], [53.001, -9.0]]),
     "region: polygon's 3 vertices are collinear; region must have nonzero area"),
    # camera
    ("camera-not-object", put("camera", []), "camera: expected an object"),
    ("camera-unknown-key", put("camera", {"zoom": 2}),
     "camera: unknown key(s) ['zoom']; allowed: ['altitude_m', 'half_fov_deg', 'overlap_fraction']"),
    ("camera-wrong-type", put("camera", {"altitude_m": "high"}),
     "camera.altitude_m: expected a number, got str"),
    ("camera-non-finite", put("camera", {"altitude_m": INF}),
     "camera.altitude_m: expected a finite number, got inf"),
    ("camera-overlap-invariant", put("camera", {"overlap_fraction": 1.0}),
     "camera: overlap_fraction must satisfy 0 <= overlap_fraction < 1, got 1.0"),
    ("camera-fov-invariant", put("camera", {"half_fov_deg": 90}),
     "camera: half_fov_deg must be within (0, 90), got 90.0"),
    ("camera-footprint-infinite", put("camera", {"altitude_m": 1e308}),
     "camera: footprint width 2 * altitude_m * tan(half_fov_deg) must be finite, got inf"),
    # A narrow camera very high up: a fine lattice, and legs long because of
    # the camera's altitude.
    ("camera-altitude-event-times", put("camera", {"half_fov_deg": 1e-305, "altitude_m": 8e307}),
     "camera.altitude_m: event times up to 63 x (0.0 s dwell + 1.6e+307 s leg) overflow"),
    ("camera-lattice-ceiling", put("camera", {"altitude_m": 0.01}),
     "camera: grid spacing 0.01333 m over a 111 m x 134 m rectangle gives more than 1000000 lattice points"),
    ("camera-lattice-past-the-pole", put("region", [[89.9995, -9.0], [89.9999, -9.0], [89.9999, -9.002]]),
     "camera: lattice row at 90.00026656237578 degrees passes the north pole: the region ends within "
     "one grid spacing (42.667 m) of 90 degrees north"),
    # A 26.7 km spacing over a region 11 m across: the pole rule holds for
    # a spacing many times the region too.
    ("camera-wide-spacing-past-the-pole",
     whole({"region": [[89.9, -9.0], [89.9001, -9.0], [89.9001, -9.0001]], "fleet": [AGENT],
            "camera": {"altitude_m": 20000.0}}),
     "camera: lattice row at 90.13955074243188 degrees passes the north pole: the region ends within "
     "one grid spacing (26666.667 m) of 90 degrees north"),
    # fleet[k]
    ("fleet-not-list", put("fleet", {}), "fleet: expected a list of agents"),
    ("fleet-item-not-object", put("fleet", 0, "rav-1"), "fleet[0]: expected an object"),
    ("fleet-unknown-key", put("fleet", 0, "speed", 1.0),
     "fleet[0]: unknown key(s) ['speed']; allowed: ['home', 'id', 'velocity_mps']"),
    ("fleet-missing-id", drop("fleet", 0, "id"), "fleet[0].id: required key is missing"),
    ("fleet-missing-home", drop("fleet", 0, "home"), "fleet[0].home: required key is missing"),
    ("fleet-missing-velocity", drop("fleet", 0, "velocity_mps"),
     "fleet[0].velocity_mps: required key is missing"),
    ("fleet-id-wrong-type", put("fleet", 0, "id", 7), "fleet[0].id: expected a string"),
    ("fleet-id-lone-surrogate", put("fleet", 0, "id", "\udfff-rav"),
     "fleet[0].id: lone surrogate '\\udfff' at index 0 has no UTF-8 encoding"),
    ("fleet-home-wrong-type", put("fleet", 0, "home", "base"),
     "fleet[0].home: expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]"),
    ("fleet-velocity-wrong-type", put("fleet", 0, "velocity_mps", "fast"),
     "fleet[0].velocity_mps: expected a number, got str"),
    ("fleet-velocity-non-finite", put("fleet", 0, "velocity_mps", INF),
     "fleet[0].velocity_mps: expected a finite number, got inf"),
    ("fleet-velocity-invariant", put("fleet", 0, "velocity_mps", 0),
     "fleet[0]: velocity_mps must be positive and finite, got 0.0"),
    ("fleet-velocity-event-times", put("fleet", [AGENT, {**AGENT, "id": "rav-2", "velocity_mps": 1e-306}]),
     "fleet[1].velocity_mps: event times up to 20 x (0.0 s dwell + inf s leg) overflow"),
    # All agents fly 5 m/s; the leg is long because of the home's altitude.
    ("fleet-home-event-times", put("fleet", [AGENT, {**AGENT, "id": "rav-2", "home": [53.0, -9.0, 1e308]}]),
     "fleet[1].home: event times up to 20 x (0.0 s dwell + 2e+307 s leg) overflow"),
    ("fleet-empty-id", put("fleet", 0, "id", ""), "fleet[0]: agent id must be non-empty"),
    ("fleet-duplicate-ids", put("fleet", [AGENT, AGENT]), "fleet: agent ids must be unique within the fleet"),
    ("fleet-empty", put("fleet", []), "fleet: fleet must have at least one agent"),
    ("fleet-second-item-bad", put("fleet", [AGENT, {**AGENT, "id": "rav-2", "home": [-91.0, 0.0]}]),
     "fleet[1].home: lat_deg must be within [-90, 90], got -91.0"),
    # sources[k]
    ("sources-not-list", put("sources", {}), "sources: expected a list"),
    ("sources-item-not-object", put("sources", [1]), "sources[0]: expected an object"),
    ("sources-unknown-key", put("sources", [{**SOURCE, "kind": "Cs-137"}]),
     "sources[0]: unknown key(s) ['kind']; allowed: ['position', 'sigma']"),
    ("sources-missing-position", put("sources", [{"sigma": 1.0}]),
     "sources[0].position: required key is missing"),
    ("sources-missing-sigma", put("sources", [{"position": [53.0, -9.0]}]),
     "sources[0].sigma: required key is missing"),
    ("sources-sigma-wrong-type", put("sources", [{**SOURCE, "sigma": "hot"}]),
     "sources[0].sigma: expected a number, got str"),
    ("sources-sigma-non-finite", put("sources", [{**SOURCE, "sigma": NAN}]),
     "sources[0].sigma: expected a finite number, got nan"),
    ("sources-sigma-invariant", put("sources", [{**SOURCE, "sigma": -2.0}]),
     "sources[0]: sigma must be finite and >= 0, got -2.0"),
    ("sources-sigma-readings", put("sources", [SOURCE, {**SOURCE, "sigma": 1e308}]),
     "sources[1].sigma: readings up to the sum of sigma / 0.1^2 over sources[:2] overflow"),
    ("sources-position-out-of-range", put("sources", [{**SOURCE, "position": [99.0, 0.0]}]),
     "sources[0].position: lat_deg must be within [-90, 90], got 99.0"),
    # noise
    ("noise-not-object", put("noise", 3), "noise: expected 'none', 'gaussian', or an object"),
    ("noise-unknown-key", put("noise", {"kind": "gaussian", "sd": 0.1}),
     "noise: unknown key(s) ['sd']; allowed: ['kind', 'relative_sd']"),
    ("noise-kind-invariant", put("noise", "fractal"),
     "noise: noise kind must be 'none' or 'gaussian', got 'fractal'"),
    ("noise-kind-wrong-type", put("noise", {"kind": 3}),
     "noise: noise kind must be 'none' or 'gaussian', got 3"),
    ("noise-sd-wrong-type", put("noise", {"kind": "gaussian", "relative_sd": "high"}),
     "noise.relative_sd: expected a number, got str"),
    ("noise-sd-non-finite", put("noise", {"kind": "gaussian", "relative_sd": INF}),
     "noise.relative_sd: expected a finite number, got inf"),
    ("noise-sd-invariant", put("noise", {"kind": "gaussian", "relative_sd": -0.5}),
     "noise: relative_sd must be finite and >= 0, got -0.5"),
    ("noise-sd-readings", lambda doc: {**doc, "sources": [SOURCE], "noise": {"kind": "gaussian", "relative_sd": 1e308}},
     "noise.relative_sd: readings up to 9000 uSv/s x (1 + 8.6 x 1e+308) overflow"),
    # seed
    ("seed-float", put("seed", 1.5), "seed: expected an integer, got float"),
    ("seed-bool", put("seed", True), "seed: expected an integer, got bool"),
    ("seed-string", put("seed", "7"), "seed: expected an integer, got str"),
    # dwell_s
    ("dwell-wrong-type", put("dwell_s", "long"), "dwell_s: expected a number, got str"),
    ("dwell-non-finite", put("dwell_s", NAN), "dwell_s: expected a finite number, got nan"),
    ("dwell-invariant", put("dwell_s", -1.0), "dwell_s must be finite and >= 0, got -1.0"),
    ("dwell-event-times", put("dwell_s", 1e308),
     "dwell_s: event times up to 20 x (1e+308 s dwell + 88.7173 s leg) overflow"),
    # mission_id
    ("mission-id-wrong-type", put("mission_id", 5), "mission_id: expected a string"),
    ("mission-id-lone-surrogate", put("mission_id", "m\ud800"),
     "mission_id: lone surrogate '\\ud800' at index 1 has no UTF-8 encoding"),
    # Two bad values in one object: the first in the schema's key order is
    # named, whatever the document's order.
    ("camera-two-bad-numbers", put("camera", {"altitude_m": "high", "half_fov_deg": "wide"}),
     "camera.half_fov_deg: expected a number, got str"),
    ("fleet-two-bad-values", put("fleet", 0, {"velocity_mps": "fast", "home": "base", "id": 7}),
     "fleet[0].id: expected a string"),
    ("sources-two-bad-values", put("sources", [{"sigma": "hot", "position": "here"}]),
     "sources[0].position: expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]"),
    ("noise-two-bad-values", put("noise", {"relative_sd": "high", "kind": 3}),
     "noise.relative_sd: expected a number, got str"),
    # MissionConfig checks seed after every key converts, so a dwell_s that
    # is not a finite number is named first; it checks seed before its own
    # dwell_s rule, so a negative dwell_s is named after seed.
    ("seed-and-dwell-wrong-type", lambda doc: {**doc, "dwell_s": "long", "seed": 1.5},
     "dwell_s: expected a number, got str"),
    ("seed-and-dwell-invariant", lambda doc: {**doc, "dwell_s": -1.0, "seed": 1.5},
     "seed: expected an integer, got float"),
    # MissionConfig checks the fleet rules after every key converts, and after
    # seed and mission_id, so each of those is named before an empty fleet.
    ("empty-fleet-and-sources-wrong-type", lambda doc: {**doc, "fleet": [], "sources": "x"},
     "sources: expected a list"),
    ("empty-fleet-and-dwell-wrong-type", lambda doc: {**doc, "fleet": [], "dwell_s": "long"},
     "dwell_s: expected a number, got str"),
    ("empty-fleet-and-seed-float", lambda doc: {**doc, "fleet": [], "seed": 1.5},
     "seed: expected an integer, got float"),
]


def document(mutate) -> str:
    return json.dumps(mutate(copy.deepcopy(MINIMAL)))


def test_minimal_document_parses():
    parse_mission_config(json.dumps(MINIMAL))


def test_minimal_document_takes_the_dataclass_defaults():
    region = PolygonRegion(tuple(GeoPoint(*v) for v in MINIMAL["region"]))
    fleet = (Agent(AGENT["id"], GeoPoint(*AGENT["home"]), AGENT["velocity_mps"]),)
    assert parse_mission_config(json.dumps(MINIMAL)) == MissionConfig(region=region, fleet=fleet)


# Each config object's converter table: its keys are the value class's
# fields, in declaration order. Serialization writes the fields in that order.
@pytest.mark.parametrize("schema", [_MISSION, _CAMERA, _AGENT, _SOURCE, _NOISE], ids=lambda schema: schema[0].__name__)
def test_converter_table_is_the_dataclass_fields(schema):
    cls, table, _ = schema
    assert list(table) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("mutate, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_error_message(mutate, message):
    with pytest.raises(ConfigError) as info:
        parse_mission_config(document(mutate))
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["[" * 100_000, '{"region": ' * 100_000], ids=["arrays", "objects"])
def test_deeply_nested_document_is_invalid_json(text):
    with pytest.raises(ConfigError) as info:
        parse_mission_config(text)
    assert str(info.value).startswith("invalid JSON: ")
    assert "\n" not in str(info.value)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int string conversion has no digit limit"
)
def test_integer_literal_past_the_digit_limit_is_invalid_json():
    # json.loads raises a plain ValueError here, not a JSONDecodeError.
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ConfigError) as info:
        parse_mission_config(document(put("seed", 0)).replace('"seed": 0', '"seed": ' + digits))
    assert str(info.value).startswith("invalid JSON: Exceeds the limit")
