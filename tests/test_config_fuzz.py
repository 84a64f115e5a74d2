"""Seeded fuzzing of the mission config parser.

Each case is the campus config with one to three random mutations: a value
replaced by an odd one, a number scaled or nudged, a key dropped or added,
a list item dropped or repeated, a value wrapped in a list or a string. The invariant is the parser's contract: either
``parse_mission_config`` raises ``ConfigError``, or the mission round-trips
through ``serialize_mission_config`` as strict JSON and its lattice stays
within ``grid.MAX_LATTICE_POINTS``. On every mission of at most
SIMULATE_MAX_LATTICE lattice points ``generate_waypoints`` succeeds and
``generate_lattice`` builds exactly as many points as this test's own count.
On a fixed subset of those the whole ``simulate`` pipeline runs too, and
both outputs must be strict JSON of finite numbers. A second stream mutates
the campus shifted to within one spacing of the north pole. A deterministic
sweep holds the same contract with every numeric slot set in turn to a
float extreme.
"""

from __future__ import annotations

import copy
import json
import math
import random
import warnings

import pytest

from helpers import REPO_CONFIG
from uavsurvey import (
    CameraModel,
    ConfigError,
    generate_lattice,
    generate_waypoints,
    parse_mission_config,
    serialize_mission_config,
)
from uavsurvey.cli import _plan_mission
from uavsurvey.geodesy import meters_per_degree
from uavsurvey.geojson_io import dumps_geojson, export_geojson, write_observation_log
from uavsurvey.grid import MAX_LATTICE_POINTS, bounding_rectangle, grid_spacing
from uavsurvey.sim import simulate

CASES = 2000
SEED = 2024
# Every SIMULATE_EVERY-th mission that parses also runs the pipeline, if its
# lattice has at most SIMULATE_MAX_LATTICE points (the campus has 130).
SIMULATE_EVERY = 10
SIMULATE_MAX_LATTICE = 2_000

ODD_VALUES = [
    None, True, False, 0, -1, 1, 2**63, 10**400, 0.0, -0.0, 1e-300, -1e308, 1e308,
    math.inf, -math.inf, math.nan, "", "x", "none", "gaussian", [], [0.0], [1.0, 2.0, 3.0, 4.0], {}, {"kind": "none"},
]
SCALES = [0.0, -1.0, 0.5, 0.9, 1.1, 2.0, 10.0, 1e3, 1e-3, 1e9]


def _slots(doc, path=()):
    """Every (container, key) pair in the document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def mutate(doc, rng: random.Random):
    """One random mutation of ``doc`` in place."""
    slots = list(_slots(doc))
    container, key, _ = rng.choice(slots)
    value = container[key]
    kind = rng.randrange(6)
    if kind == 0:
        container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif kind in (1, 2) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == 1:
            container[key] = value * rng.choice(SCALES)
        else:
            container[key] = value + rng.choice([-1.0, 1.0]) * 10.0 ** rng.randrange(-9, 3)
    elif kind == 3 and isinstance(container, dict):
        del container[key]
    elif kind == 3:
        container.pop(key)
    elif kind == 4 and isinstance(container, dict):
        container[rng.choice(["extra", "Seed", "fleet ", "kind"])] = value
    elif kind == 4:
        container.insert(key, copy.deepcopy(value))
    else:
        container[key] = str(value) if rng.random() < 0.5 else [value]


def _strict(text: str):
    """``text`` parsed as strict JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise AssertionError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _finite_numbers(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return True


def _axis_count(low: float, high: float, step: float) -> int:
    """How many of ``low + k * step`` generate_lattice puts on one axis: those
    below ``high + step``."""
    k = max(math.ceil((high - low) / step) - 1, 0)
    while low + k * step < high + step:
        k += 1
    return k


def lattice_size(config) -> int:
    """The number of points generate_lattice builds for the mission, counted
    with its own degree steps but without building them."""
    rect = bounding_rectangle(config.region)
    spacing = grid_spacing(config.camera)
    m_lat, m_lon = meters_per_degree(rect.min_lat)
    rows = _axis_count(rect.min_lat, rect.max_lat, spacing / m_lat)
    cols = _axis_count(rect.min_lon, rect.max_lon, spacing / m_lon)
    return rows * cols


def run_pipeline(config) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid, plan = _plan_mission(config)
    assert len(grid.points) <= lattice_size(config)
    log = simulate(plan, config.fleet, config.sources, config.noise, config.seed,
                   camera=config.camera, dwell_s=config.dwell_s, mission_id=config.mission_id)
    assert _finite_numbers(_strict(dumps_geojson(export_geojson(grid, plan, config.fleet))))
    for line in write_observation_log(log).splitlines():
        assert _finite_numbers(_strict(line))


def fuzz(make_base, rng: random.Random) -> tuple[int, int, list[str]]:
    """Check CASES mutations of the documents ``make_base(rng)`` gives
    against the contract; returns how many parsed, how many ran the
    pipeline, and the refusals' messages."""
    parsed = simulated = 0
    refusals = []
    for case in range(CASES):
        doc = make_base(rng)
        for _ in range(rng.choice([1, 1, 1, 2, 3])):
            mutate(doc, rng)
        try:
            config = parse_mission_config(json.dumps(doc))
        except ConfigError as exc:
            refusals.append(str(exc))
            continue
        parsed += 1
        again = serialize_mission_config(config)
        assert _finite_numbers(_strict(again)), case
        assert parse_mission_config(again) == config, case
        size = lattice_size(config)
        assert size <= MAX_LATTICE_POINTS, case
        if size <= SIMULATE_MAX_LATTICE:
            rect, spacing = bounding_rectangle(config.region), grid_spacing(config.camera)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                generate_waypoints(config.region, config.camera)
                assert len(generate_lattice(rect, spacing, config.camera.altitude_m)) == size, case
            if parsed % SIMULATE_EVERY == 0:
                run_pipeline(config)
                simulated += 1
    return parsed, simulated, refusals


def test_mutated_configs_are_refused_or_give_strict_bounded_missions():
    base = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
    parsed, simulated, _ = fuzz(lambda rng: copy.deepcopy(base), random.Random(SEED))
    # The mutations must reach both sides of the contract.
    assert 0.1 * CASES < parsed < 0.9 * CASES
    assert simulated >= 20


def test_mutated_configs_near_the_north_pole():
    # Every latitude of the campus shifted so the region's north edge lies a
    # random fraction of one campus spacing (42.667 m) south of the pole:
    # the last lattice row passes 90 degrees on some of them and not others.
    base = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
    top = max(lat for lat, _ in base["region"])
    step = grid_spacing(CameraModel()) / meters_per_degree(90.0)[0]

    def near_pole(rng):
        doc = copy.deepcopy(base)
        shift = 90.0 - rng.random() * step - top
        for point in [*doc["region"], *(a["home"] for a in doc["fleet"]), *(s["position"] for s in doc["sources"])]:
            point[0] += shift
        return doc

    parsed, simulated, refusals = fuzz(near_pole, random.Random(SEED))
    pole = [m for m in refusals if m.startswith("camera: lattice row at ")]
    assert len(pole) > 0.05 * CASES and parsed > 0.05 * CASES
    assert simulated >= 5


@pytest.mark.parametrize("value", [1e308, -1e308, 1e-306], ids=repr)
def test_every_numeric_slot_at_a_float_extreme(value):
    """Every number of the campus config, plus an added ``dwell_s``, set in
    turn to ``value``: the mission is refused with a ConfigError, or the
    pipeline writes strict JSON of finite numbers, run as in the fuzz on
    lattices of at most SIMULATE_MAX_LATTICE points. Random mutations rarely
    reach these values, and reach the pipeline with them more rarely still."""
    base = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
    base["dwell_s"] = 0.0
    paths = [path for container, key, path in _slots(base) if type(container[key]) in (int, float)]
    assert len(paths) == 31
    ran = 0
    for path in paths:
        doc = copy.deepcopy(base)
        container = doc
        for key in path[:-1]:
            container = container[key]
        container[path[-1]] = value
        try:
            config = parse_mission_config(json.dumps(doc))
        except ConfigError:
            continue
        if lattice_size(config) <= SIMULATE_MAX_LATTICE:
            run_pipeline(config)
            ran += 1
    assert ran > 0
