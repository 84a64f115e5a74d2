"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion alongside the pytest verdicts.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from helpers import (
    REPO_CONFIG,
    assert_valid_geojson,
    lattice_row,
    permutation_tour_cost,
    random_points,
    random_star_polygon,
    winding_number_inside,
)
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    GeoPoint,
    PolygonRegion,
    RadiationSource,
    bounding_rectangle,
    brute_force_mtsp,
    distance_m,
    footprint_width,
    generate_waypoints,
    gps_difference,
    gps_offset,
    grid_spacing,
    makespan,
    mtsp_lower_bound,
    parse_mission_config,
    plan_routes,
    point_in_polygon,
    strength_at,
    tsp_optimal,
)
from uavsurvey.cli import main as cli_main
from uavsurvey.radiation import MIN_DISTANCE_M


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS - {text}")


def test_criterion_1_spacing_formula():
    cam = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=32.0)
    w = grid_spacing(cam)
    assert w == pytest.approx(42.6667, abs=1e-4)
    big_w = footprint_width(cam)
    assert (big_w - w) / (big_w + w) == pytest.approx(0.2, abs=1e-12)
    report(1, f"spacing {w:.6f} m, overlap identity within 1e-12")


def test_criterion_2_radiation_law():
    rng = random.Random(1001)
    origin = GeoPoint(0.0, 0.0, 0.0)
    for _ in range(1000):
        sigma = rng.uniform(0.0, 1e4)
        d = rng.uniform(MIN_DISTANCE_M, 1e4)
        src = RadiationSource(origin, sigma)
        p = gps_offset(origin, EnuOffset(d, 0.0, 0.0))
        assert strength_at(src, p) == pytest.approx(sigma / (d * d), rel=1e-12)
        if 2.0 * d >= MIN_DISTANCE_M:
            p2 = gps_offset(origin, EnuOffset(2.0 * d, 0.0, 0.0))
            assert strength_at(src, p2) == pytest.approx(strength_at(src, p) / 4.0, rel=1e-9)
    report(2, "1000 random (sigma, d) reproduce sigma/d^2 within 1e-12")


def test_criterion_3_partition_and_balance():
    rng = random.Random(1003)
    max_waypoints = 0
    for _ in range(200):
        center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0), 0.0)
        radius = rng.uniform(100.0, 500.0)
        region = random_star_polygon(rng, center, rng.randint(3, 12), 0.7 * radius, radius)
        # per-axis lattice count stays <= 15, so the grid stays within 200 points
        spacing = radius / rng.uniform(1.5, 6.5)
        cam = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=0.75 * spacing)
        grid = generate_waypoints(region, cam)
        assert len(grid.points) <= 200
        max_waypoints = max(max_waypoints, len(grid.points))
        n_agents = rng.randint(1, 8)
        fleet = [
            Agent(f"rav-{k}", gps_offset(center, EnuOffset(-radius, -radius, 0.0)), rng.uniform(2.0, 12.0))
            for k in range(n_agents)
        ]
        plan = plan_routes(fleet, grid.points)
        combined = [wp for route in plan.values() for wp in route]
        assert len(combined) == len(grid.points)
        assert set(combined) == set(grid.points)
        lengths = [len(route) for route in plan.values()]
        assert max(lengths) - min(lengths) <= 1
    report(3, f"200 instances partitioned with spread <= 1 (largest grid {max_waypoints})")


def test_criterion_4_oracle_dominance_and_bound():
    rng = random.Random(1004)
    violations = checked_hk = 0
    for _ in range(100):
        n_points = rng.randint(3, 8)
        n_agents = rng.randint(2, 3)
        home = GeoPoint(rng.uniform(-50.0, 50.0), rng.uniform(-150.0, 150.0), 0.0)
        pts = random_points(rng, home, n_points, 400.0)
        wps = lattice_row(pts)
        velocity = rng.uniform(1.0, 10.0)
        fleet = [Agent(f"a{k}", home, velocity) for k in range(n_agents)]

        plan = plan_routes(fleet, wps)
        nn_makespan = makespan(plan, fleet)
        optimum, _ = brute_force_mtsp(wps, fleet)
        assert nn_makespan >= optimum - 1e-9 * max(optimum, 1.0)

        # Held-Karp against permutation brute force on every instance <= 8 points.
        hk = tsp_optimal(wps)
        assert hk == pytest.approx(permutation_tour_cost(pts, distance_m), rel=1e-9)
        checked_hk += 1

        # The tour/n chain ignores home legs: evaluated and reported only.
        bound = mtsp_lower_bound(lattice_row([home, *pts]), n_agents)
        if nn_makespan * velocity < bound * (1.0 - 1e-12):
            violations += 1
    report(
        4,
        f"NN dominated the oracle on 100/100; Held-Karp matched brute force on "
        f"{checked_hk}; tour/n bound violated on {violations}/100 (reported, not asserted)",
    )


def test_criterion_5_point_in_polygon():
    rng = random.Random(1005)
    pairs = 0
    while pairs < 1000:
        center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0), 0.0)
        region = random_star_polygon(rng, center, rng.randint(3, 12), 50.0, 400.0)
        rect = bounding_rectangle(region)
        for _ in range(5):
            lat = rng.uniform(rect.min_lat - 0.001, rect.max_lat + 0.001)
            lon = rng.uniform(rect.min_lon - 0.001, rect.max_lon + 0.001)
            assert point_in_polygon(GeoPoint(lat, lon), region) == winding_number_inside(
                lat, lon, region.vertices
            )
            pairs += 1

    square = PolygonRegion((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0)))
    assert point_in_polygon(GeoPoint(0.5, 0.5), square)
    assert not point_in_polygon(GeoPoint(0.5, 1.5), square)
    u_notch = PolygonRegion(
        (
            GeoPoint(0, 0), GeoPoint(0, 4), GeoPoint(3, 4), GeoPoint(3, 3),
            GeoPoint(1, 3), GeoPoint(1, 1), GeoPoint(3, 1), GeoPoint(3, 0),
        )
    )
    assert not point_in_polygon(GeoPoint(2, 2), u_notch)
    assert point_in_polygon(GeoPoint(2, 0.5), u_notch)
    report(5, f"{pairs} random pairs agree with the winding oracle; fixtures exact")


def test_criterion_6_geodesy_round_trip():
    rng = random.Random(1006)
    for _ in range(10_000):
        origin = GeoPoint(rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 100.0))
        offset = EnuOffset(rng.uniform(-10e3, 10e3), rng.uniform(-10e3, 10e3), rng.uniform(0.0, 200.0))
        target = gps_offset(origin, offset)
        back = gps_difference(origin, target)
        restored = gps_offset(origin, back)
        assert abs(restored.lat_deg - target.lat_deg) <= 1e-9
        assert abs(restored.lon_deg - target.lon_deg) <= 1e-9
        assert abs(restored.alt_m - target.alt_m) <= 1e-6
    report(6, "10000 offset/inverse pairs within 1e-9 deg and 1e-6 m")


def test_criterion_7_end_to_end_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli_main(["simulate", "--config", str(REPO_CONFIG), "--out", str(out), "--seed", "5"]) == 0
    geojson_bytes = (out1 / "plan.geojson").read_bytes()
    assert geojson_bytes == (out2 / "plan.geojson").read_bytes()
    log_bytes = (out1 / "observations.jsonl").read_bytes()
    assert log_bytes == (out2 / "observations.jsonl").read_bytes()

    config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    grid = generate_waypoints(config.region, config.camera)
    plan = plan_routes(config.fleet, grid.points)
    expected_makespan = makespan(plan, config.fleet)
    observed = [
        json.loads(line)["t"]
        for line in log_bytes.decode("utf-8").strip().splitlines()[1:]
        if json.loads(line)["event"] == "waypoint_reached"
    ]
    assert max(observed) == pytest.approx(expected_makespan, rel=1e-9)
    report(7, f"byte-identical outputs; max observation t == makespan ({expected_makespan:.3f} s)")


def test_criterion_8_campus_plan_geojson(tmp_path):
    assert cli_main(["plan", "--config", str(REPO_CONFIG), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "plan.geojson").read_text(encoding="utf-8"))
    assert_valid_geojson(doc)
    points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
    lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
    assert len(lines) == 3
    assert len(points) > 0

    per_agent: dict[str, list[int]] = {}
    for f in points:
        aid = f["properties"]["agent_id"]
        assert aid is not None, "every waypoint must be assigned to a route"
        per_agent.setdefault(aid, []).append(f["properties"]["visit_order"])
    assert sum(len(v) for v in per_agent.values()) == len(points)
    for aid, orders in per_agent.items():
        assert sorted(orders) == list(range(1, len(orders) + 1))
    line_agents = {f["properties"]["agent_id"] for f in lines}
    assert line_agents == set(per_agent)
    for f in lines:
        assert f["properties"]["leg_count"] == len(per_agent[f["properties"]["agent_id"]])
    report(8, f"{len(points)} waypoints covered exactly once by {len(lines)} routes")
