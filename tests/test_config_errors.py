"""Every ConfigError message for a table of malformed mission documents.

Each document is the minimal valid config with one defect. The expected
strings are the exact messages, so a change to the parser that rewords,
re-prefixes or reorders an error shows up here.
"""

from __future__ import annotations

import copy
import json

import pytest

from uavsurvey import ConfigError, parse_mission_config

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
    ("camera-lattice-ceiling", put("camera", {"altitude_m": 0.01}),
     "camera: grid spacing 0.01333 m over a 111 m x 134 m rectangle gives more than 1000000 lattice points"),
    ("camera-lattice-past-the-pole", put("region", [[89.9995, -9.0], [89.9999, -9.0], [89.9999, -9.002]]),
     "camera: lattice row at 90.00026656237578 degrees passes the north pole: the region ends within "
     "one grid spacing (42.667 m) of 90 degrees north"),
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
    ("fleet-home-wrong-type", put("fleet", 0, "home", "base"),
     "fleet[0].home: expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]"),
    ("fleet-velocity-wrong-type", put("fleet", 0, "velocity_mps", "fast"),
     "fleet[0].velocity_mps: expected a number, got str"),
    ("fleet-velocity-non-finite", put("fleet", 0, "velocity_mps", INF),
     "fleet[0].velocity_mps: expected a finite number, got inf"),
    ("fleet-velocity-invariant", put("fleet", 0, "velocity_mps", 0),
     "fleet[0]: velocity_mps must be positive and finite, got 0.0"),
    ("fleet-empty-id", put("fleet", 0, "id", ""), "fleet[0]: agent id must be non-empty"),
    ("fleet-duplicate-ids", put("fleet", [AGENT, AGENT]), "agent ids must be unique within the fleet"),
    ("fleet-empty", put("fleet", []), "fleet must have at least one agent"),
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
    # seed
    ("seed-float", put("seed", 1.5), "seed: expected an integer, got float"),
    ("seed-bool", put("seed", True), "seed: expected an integer, got bool"),
    ("seed-string", put("seed", "7"), "seed: expected an integer, got str"),
    # dwell_s
    ("dwell-wrong-type", put("dwell_s", "long"), "dwell_s: expected a number, got str"),
    ("dwell-non-finite", put("dwell_s", NAN), "dwell_s: expected a finite number, got nan"),
    ("dwell-invariant", put("dwell_s", -1.0), "dwell_s: must be >= 0"),
    # mission_id
    ("mission-id-wrong-type", put("mission_id", 5), "mission_id: expected a string"),
]


def document(mutate) -> str:
    return json.dumps(mutate(copy.deepcopy(MINIMAL)))


def test_minimal_document_parses():
    parse_mission_config(json.dumps(MINIMAL))


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
