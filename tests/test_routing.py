"""Round-robin nearest-neighbor planner, makespan, exact TSP references."""

from __future__ import annotations

import math
import random

import pytest

from helpers import permutation_tour_cost, random_points, scan_plan_routes
from uavsurvey import (
    Agent,
    EnuOffset,
    GeoPoint,
    Waypoint,
    brute_force_mtsp,
    distance_m,
    gps_offset,
    makespan,
    mtsp_lower_bound,
    plan_routes,
    route_length,
    tsp_optimal,
)
from uavsurvey.routing import _RING_SLACK, _cell_layout

HOME = GeoPoint(0.0, 0.0, 0.0)


def east_points(*offsets_m: float) -> list[GeoPoint]:
    return [gps_offset(HOME, EnuOffset(e, 0.0, 0.0)) for e in offsets_m]


def agents(n: int, velocity: float = 1.0, home: GeoPoint = HOME) -> list[Agent]:
    return [Agent(chr(ord("A") + k), home, velocity) for k in range(n)]


def unit_square_points() -> list[GeoPoint]:
    return [gps_offset(HOME, EnuOffset(e, n, 0.0)) for e, n in ((0, 0), (0, 1), (1, 1), (1, 0))]


class TestPlanRoutes:
    def test_empty_waypoints(self):
        plan = plan_routes(agents(3), [])
        assert all(route == [] for route in plan.routes.values())
        assert plan.visit_sequence == []

    def test_two_agent_collinear_trace(self):
        # Hand trace: A takes p1 (1 m), B takes p2 (2 m from home), A at p1
        # takes p3, B at p2 takes p4.
        p1, p2, p3, p4 = east_points(1.0, 2.0, 3.0, 4.0)
        plan = plan_routes(agents(2), [p1, p2, p3, p4])
        assert plan.routes["A"] == [Waypoint(p1), Waypoint(p3)]
        assert plan.routes["B"] == [Waypoint(p2), Waypoint(p4)]
        assert plan.visit_sequence == [Waypoint(p) for p in (p1, p2, p3, p4)]

    def test_single_agent_sweeps_in_order(self):
        pts = east_points(1.0, 2.0, 3.0)
        plan = plan_routes(agents(1), pts)
        assert plan.routes["A"] == [Waypoint(p) for p in pts]
        assert route_length(HOME, plan.routes["A"]) == pytest.approx(3.0, rel=1e-9)

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="agent"):
            plan_routes([], east_points(1.0))

    def test_duplicate_waypoints_rejected(self):
        p = east_points(5.0)[0]
        with pytest.raises(ValueError, match="duplicate"):
            plan_routes(agents(1), [p, p])

    def test_duplicate_agent_ids_rejected(self):
        fleet = [Agent("A", HOME, 1.0), Agent("A", HOME, 2.0)]
        with pytest.raises(ValueError, match="unique"):
            plan_routes(fleet, east_points(1.0))

    def test_lattice_index_breaks_ties(self):
        # Two waypoints equidistant from home; the lower (i, j) wins even when
        # supplied in reverse order.
        east = gps_offset(HOME, EnuOffset(10.0, 0.0, 0.0))
        west = gps_offset(HOME, EnuOffset(-10.0, 0.0, 0.0))
        wp_hi = Waypoint(east, (1, 0))
        wp_lo = Waypoint(west, (0, 0))
        plan = plan_routes(agents(1), [wp_hi, wp_lo])
        assert plan.routes["A"][0] is wp_lo

    def test_partition_and_balance_property(self):
        rng = random.Random(2026)
        for _ in range(30):
            n_agents = rng.randint(1, 8)
            n_points = rng.randint(0, 60)
            fleet = agents(n_agents, velocity=rng.uniform(1.0, 10.0))
            pts = random_points(rng, HOME, n_points, 500.0)
            plan = plan_routes(fleet, pts)
            combined = [wp.point for route in plan.routes.values() for wp in route]
            assert len(combined) == n_points
            assert {(p.lat_deg, p.lon_deg) for p in combined} == {(p.lat_deg, p.lon_deg) for p in pts}
            lengths = [len(route) for route in plan.routes.values()]
            assert max(lengths) - min(lengths) <= 1

    def test_round_robin_interleaves_agents(self):
        rng = random.Random(4)
        pts = random_points(rng, HOME, 9, 200.0)
        plan = plan_routes(agents(3), pts)
        claimed = {aid: list(route) for aid, route in plan.routes.items()}
        for turn, wp in enumerate(plan.visit_sequence):
            expected_agent = "ABC"[turn % 3]
            assert claimed[expected_agent][turn // 3] is wp

    def test_deterministic(self):
        rng = random.Random(5)
        pts = random_points(rng, HOME, 40, 800.0)
        fleet = agents(4, velocity=3.0)
        first = plan_routes(fleet, pts)
        second = plan_routes(fleet, pts)
        assert first.routes == second.routes
        assert first.visit_sequence == second.visit_sequence


def _fleet(rng: random.Random, homes: list[GeoPoint]) -> list[Agent]:
    return [Agent(f"a{k}", rng.choice(homes), rng.uniform(1.0, 10.0)) for k in range(rng.randint(1, 4))]


def lattice_instance(rng: random.Random):
    """Shuffled dyadic lattice: coordinate differences are exact, so
    mirror-image neighbors tie exactly. Homes sit on lattice nodes."""
    step = 2.0 ** -rng.randint(12, 16)
    lat0 = rng.choice([0.0, 45.0, -60.0, 53.25, 84.5])
    lon0 = rng.choice([0.0, -9.0625, 120.5])
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    nodes = [(i, j) for i in range(rows) for j in range(cols)]
    keep = rng.sample(nodes, rng.randint(1, len(nodes)))
    if rng.random() < 0.5:
        points = [Waypoint(GeoPoint(lat0 + i * step, lon0 + j * step, 32.0), (i, j)) for i, j in keep]
    else:
        points = [GeoPoint(lat0 + i * step, lon0 + j * step, 32.0) for i, j in keep]
    rng.shuffle(points)
    homes = [GeoPoint(lat0 + i * step, lon0 + j * step) for i, j in (rng.choice(nodes), rng.choice(nodes))]
    return _fleet(rng, homes), points


def scattered_instance(rng: random.Random):
    """Mixed altitudes, homes up to 20 km outside, sometimes all on one line."""
    origin = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-170.0, 170.0))
    span = 10.0 ** rng.uniform(0.0, 4.0)
    line = rng.random() < 0.2
    points = []
    for _ in range(rng.randint(0, 80)):
        north = 0.0 if line else rng.uniform(-span, span)
        offset = EnuOffset(rng.uniform(-span, span), north, rng.choice([0.0, 12.5, 32.0, 80.0]))
        points.append(gps_offset(origin, offset))
    points = list({(p.lat_deg, p.lon_deg, p.alt_m): p for p in points}.values())
    far = 20000.0 * rng.random()
    homes = [origin, gps_offset(origin, EnuOffset(rng.uniform(-far, far), rng.uniform(-far, far), 0.0))]
    return _fleet(rng, homes), points


def polar_instance(rng: random.Random):
    """|lat| > 85 degrees, longitudes spread up to 40 degrees, poles included."""
    sign = rng.choice([-1.0, 1.0])
    lat_lo = rng.uniform(85.0, 89.99)
    lon0, lon_span = rng.uniform(-170.0, 120.0), rng.uniform(0.001, 40.0)
    coords = {(round(rng.uniform(lat_lo, 90.0), 7), round(lon0 + rng.uniform(0.0, lon_span), 7))
              for _ in range(rng.randint(1, 60))}
    if rng.random() < 0.3:
        coords.add((90.0, lon0))
    points = [GeoPoint(sign * lat, lon, 20.0) for lat, lon in coords]
    homes = [GeoPoint(sign * lat_lo, lon0), GeoPoint(sign * 90.0, lon0 + lon_span)]
    return _fleet(rng, homes), points


def antimeridian_instance(rng: random.Random):
    """Clusters at +-180 degrees longitude, straddling or just short of it."""
    lat0 = rng.uniform(-60.0, 60.0)
    straddle = rng.random() < 0.7
    width = 10.0 ** rng.uniform(-4.0, -1.0)
    coords = set()
    for _ in range(rng.randint(1, 60)):
        lon = 180.0 - rng.uniform(0.0, width)
        if straddle and rng.random() < 0.5:
            lon = -lon
        coords.add((lat0 + rng.uniform(0.0, width), lon))
    points = [GeoPoint(lat, lon, 32.0) for lat, lon in coords]
    homes = [GeoPoint(lat0, 179.99), GeoPoint(lat0, -179.99 if straddle else 179.9)]
    return _fleet(rng, homes), points


class TestMatchesFullScan:
    """The bucketed planner claims exactly what the full scan claims."""

    @pytest.mark.parametrize(
        "family",
        [lattice_instance, scattered_instance, polar_instance, antimeridian_instance],
    )
    def test_identical_routes_and_sequence(self, family):
        rng = random.Random(f"scan:{family.__name__}")
        for _ in range(60):
            fleet, points = family(rng)
            plan = plan_routes(fleet, points)
            routes, sequence = scan_plan_routes(fleet, points)
            # The scan hands back the caller's objects; plan_routes wraps a
            # bare point p as Waypoint(p), so bare input compares by .point.
            bare = bool(points) and isinstance(points[0], GeoPoint)

            def ids(route):
                return [id(w.point) if bare else id(w) for w in route]

            assert ids(plan.visit_sequence) == [id(w) for w in sequence]
            for aid, route in routes.items():
                assert ids(plan.routes[aid]) == [id(w) for w in route]

    def test_ring_bound_at_closest_cell_edges(self):
        """Points r cell rings apart are at least (r - 1) * cell_m * slack apart.

        Probed with the closest pairs the grid allows: the facing edges of two
        cells, along latitude, and along longitude at the extreme latitude
        where cos(latitude) is smallest.
        """

        def edge(start: float, origin: float, step: float, index: int, direction: float) -> float:
            # The float nearest `start` (moving against `direction`) whose cell is `index`.
            x = start
            while int((x - origin) / step) != index:
                x = math.nextafter(x, -direction * math.inf)
            while int((math.nextafter(x, direction * math.inf) - origin) / step) == index:
                x = math.nextafter(x, direction * math.inf)
            return x

        rng = random.Random(11)
        probes = 0
        for _ in range(200):
            origin = GeoPoint(rng.uniform(-85.0, 85.0), rng.uniform(-179.0, 170.0))
            pts = random_points(rng, origin, 40, 10.0 ** rng.uniform(1.0, 4.0))
            cell_m, lat0, lon0, dlat, dlon, rows, cols = _cell_layout(pts, len(pts))
            polar_lat = max((p.lat_deg for p in pts), key=abs)
            for size, origin_deg, step in ((rows, lat0, dlat), (cols, lon0, dlon)):
                if size < 3:
                    continue
                r = rng.randint(2, size - 1)
                low = rng.randrange(size - r)
                near = edge(origin_deg + (low + 1) * step, origin_deg, step, low, 1.0)
                far = edge(origin_deg + (low + r) * step, origin_deg, step, low + r, -1.0)
                if step is dlat:
                    a, b = GeoPoint(near, origin.lon_deg), GeoPoint(far, origin.lon_deg)
                else:
                    a, b = GeoPoint(polar_lat, near), GeoPoint(polar_lat, far)
                bound = (r - 1) * cell_m
                assert bound * _RING_SLACK <= distance_m(a, b) <= bound * (1.0 + 1e-6)
                probes += 1
        assert probes > 200

    def test_one_cell_cases(self):
        home = GeoPoint(10.0, 20.0)
        pts = [gps_offset(home, EnuOffset(100.0 * k, 50.0 * (k % 3), 0.0)) for k in range(40)]
        assert _cell_layout(pts + [home], len(pts))[5:] != (1, 1)
        straddle = [GeoPoint(0.0, 179.9999), GeoPoint(0.0, -179.9999), GeoPoint(0.001, 179.9999)]
        assert _cell_layout(straddle, 3)[5:] == (1, 1)
        # cos(90 deg) rounds to 6e-17, not 0: at a pole the longitude cells
        # widen to one column and only latitude rows prune.
        pole = [GeoPoint(90.0, 0.0), GeoPoint(89.999, 1.0), GeoPoint(89.999, 2.0)]
        assert _cell_layout(pole, 3)[6] == 1


class TestMakespan:
    def test_empty_routes(self):
        fleet = agents(2)
        assert makespan(plan_routes(fleet, []), fleet) == 0.0

    def test_collinear_example(self):
        fleet = agents(2)
        plan = plan_routes(fleet, east_points(1.0, 2.0, 3.0, 4.0))
        # A: 1 + 2 = 3 s, B: 2 + 2 = 4 s at 1 m/s
        assert makespan(plan, fleet) == pytest.approx(4.0, rel=1e-9)

    def test_velocity_scaling(self):
        pts = east_points(10.0, 20.0, 35.0)
        slow = agents(2, velocity=2.0)
        fast = agents(2, velocity=4.0)
        assert makespan(plan_routes(slow, pts), slow) == pytest.approx(
            2.0 * makespan(plan_routes(fast, pts), fast), rel=1e-12
        )

    def test_unknown_agent_rejected(self):
        plan = plan_routes(agents(2), east_points(1.0))
        with pytest.raises(ValueError, match="fleet"):
            makespan(plan, agents(1))

    def test_max_at_least_mean(self):
        rng = random.Random(6)
        for _ in range(20):
            fleet = agents(rng.randint(1, 5), velocity=rng.uniform(0.5, 5.0))
            pts = random_points(rng, HOME, rng.randint(0, 25), 400.0)
            plan = plan_routes(fleet, pts)
            mk = makespan(plan, fleet)
            by_id = {a.id: a for a in fleet}
            total = sum(
                route_length(by_id[aid].home, route) / by_id[aid].velocity_mps
                for aid, route in plan.routes.items()
            )
            assert len(fleet) * mk >= total * (1.0 - 1e-12)


class TestTspOptimal:
    def test_single_point(self):
        pts = east_points(3.0)
        assert tsp_optimal(pts) == 0.0
        assert tsp_optimal([]) == 0.0

    def test_two_points(self):
        pts = east_points(0.0, 5.0)
        d = distance_m(pts[0], pts[1])
        assert tsp_optimal(pts) == pytest.approx(2.0 * d, rel=1e-12)

    def test_unit_square_tour(self):
        # Brute force over the 3 distinct tours of 4 points gives 4.
        assert tsp_optimal(unit_square_points()) == pytest.approx(4.0, rel=1e-9)

    def test_size_cap(self):
        rng = random.Random(8)
        pts = random_points(rng, HOME, 19, 100.0)
        with pytest.raises(ValueError, match="no exact reference"):
            tsp_optimal(pts)

    def test_matches_permutation_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            pts = random_points(rng, HOME, rng.randint(2, 7), 300.0)
            assert tsp_optimal(pts) == pytest.approx(permutation_tour_cost(pts, distance_m), rel=1e-9)


class TestLowerBound:
    def test_single_agent_equals_tour(self):
        pts = unit_square_points()
        assert mtsp_lower_bound(pts, 1) == tsp_optimal(pts)

    def test_unit_square_two_agents(self):
        assert mtsp_lower_bound(unit_square_points(), 2) == pytest.approx(2.0, rel=1e-9)

    def test_inverse_scaling(self):
        pts = unit_square_points()
        assert mtsp_lower_bound(pts, 4) == pytest.approx(mtsp_lower_bound(pts, 2) / 2.0, rel=1e-12)

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError, match="n_agents"):
            mtsp_lower_bound(unit_square_points(), 0)


class TestBruteForceMtsp:
    def test_empty(self):
        value, partition = brute_force_mtsp([], agents(2))
        assert value == 0.0
        assert partition == {"A": [], "B": []}

    def test_symmetric_pair_split(self):
        east = gps_offset(HOME, EnuOffset(50.0, 0.0, 0.0))
        west = gps_offset(HOME, EnuOffset(-50.0, 0.0, 0.0))
        fleet = agents(2, velocity=2.0)
        value, partition = brute_force_mtsp([east, west], fleet)
        assert value == pytest.approx(25.0, rel=1e-9)
        assert sorted(len(v) for v in partition.values()) == [1, 1]

    def test_collinear_oracle_dominated_by_nn(self):
        fleet = agents(2)
        pts = east_points(1.0, 2.0, 3.0, 4.0)
        optimum, _ = brute_force_mtsp(pts, fleet)
        nn = makespan(plan_routes(fleet, pts), fleet)
        assert optimum <= 4.0 + 1e-9
        assert nn >= optimum - 1e-9

    def test_size_caps(self):
        rng = random.Random(10)
        with pytest.raises(ValueError, match="oracle"):
            brute_force_mtsp(random_points(rng, HOME, 9, 100.0), agents(2))
        with pytest.raises(ValueError, match="oracle"):
            brute_force_mtsp(random_points(rng, HOME, 3, 100.0), agents(4))

    def test_partition_is_exact_cover(self):
        rng = random.Random(11)
        pts = random_points(rng, HOME, 6, 200.0)
        _, partition = brute_force_mtsp(pts, agents(3, velocity=2.5))
        combined = [w.point for route in partition.values() for w in route]
        assert len(combined) == len(pts)
        assert {(p.lat_deg, p.lon_deg) for p in combined} == {(p.lat_deg, p.lon_deg) for p in pts}


class TestEmpiricalBound:
    def test_bound_violation_rate_reported(self):
        # The optimal-tour / n chain ignores home legs, so it is evaluated and
        # reported rather than asserted.
        rng = random.Random(12)
        instances = violations = 0
        for _ in range(100):
            n_points = rng.randint(3, 11)
            n_agents = rng.randint(2, 3)
            home = gps_offset(HOME, EnuOffset(rng.uniform(-50, 50), rng.uniform(-50, 50), 0.0))
            pts = random_points(rng, home, n_points, 300.0)
            fleet = [Agent(f"a{k}", home, 1.0) for k in range(n_agents)]
            plan = plan_routes(fleet, pts)
            longest_m = makespan(plan, fleet) * 1.0
            bound = mtsp_lower_bound([home, *pts], n_agents)
            instances += 1
            if longest_m < bound * (1.0 - 1e-12):
                violations += 1
        print(f"\nempirical tour/n bound: {violations}/{instances} violations")
        assert instances == 100
