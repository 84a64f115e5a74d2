"""Round-robin nearest-neighbor planner, makespan, exact TSP references."""

from __future__ import annotations

import math
import random

import pytest

from helpers import (
    claim_order,
    lattice_row,
    leg_walk_missions,
    loop_route_length,
    permutation_tour_cost,
    random_points,
    scaled_campus,
    scan_plan_routes,
)
import uavsurvey.routing
from uavsurvey import (
    Agent,
    CameraModel,
    CircumRectangle,
    EnuOffset,
    GeoPoint,
    Waypoint,
    brute_force_mtsp,
    distance_m,
    generate_lattice,
    gps_offset,
    grid_spacing,
    makespan,
    mtsp_lower_bound,
    plan_routes,
    route_length,
    tsp_optimal,
)
from uavsurvey.geodesy import METERS_PER_DEG_LAT
from uavsurvey.routing import _RING_SLACK, _cell_layout

HOME = GeoPoint(0.0, 0.0, 0.0)


def east_points(*offsets_m: float) -> list[Waypoint]:
    return lattice_row(gps_offset(HOME, EnuOffset(e, 0.0, 0.0)) for e in offsets_m)


def agents(n: int, velocity: float = 1.0, home: GeoPoint = HOME) -> list[Agent]:
    return [Agent(chr(ord("A") + k), home, velocity) for k in range(n)]


def cell_layout(points: list[GeoPoint]):
    """``_cell_layout`` over the latitudes and longitudes of ``points``."""
    return _cell_layout([p.lat_deg for p in points], [p.lon_deg for p in points])


def unit_square_points() -> list[Waypoint]:
    return lattice_row(gps_offset(HOME, EnuOffset(e, n, 0.0)) for e, n in ((0, 0), (0, 1), (1, 1), (1, 0)))


class TestPlanRoutes:
    def test_empty_waypoints(self):
        fleet = agents(3)
        plan = plan_routes(fleet, [])
        assert all(route == [] for route in plan.values())
        assert claim_order(plan, fleet) == []

    def test_two_agent_collinear_trace(self):
        # Hand trace: A takes p1 (1 m), B takes p2 (2 m from home), A at p1
        # takes p3, B at p2 takes p4.
        p1, p2, p3, p4 = east_points(1.0, 2.0, 3.0, 4.0)
        fleet = agents(2)
        plan = plan_routes(fleet, [p1, p2, p3, p4])
        assert plan["A"] == [p1, p3]
        assert plan["B"] == [p2, p4]
        assert claim_order(plan, fleet) == [p1, p2, p3, p4]

    def test_single_agent_sweeps_in_order(self):
        pts = east_points(1.0, 2.0, 3.0)
        plan = plan_routes(agents(1), pts)
        assert plan["A"] == pts
        assert route_length(HOME, plan["A"]) == pytest.approx(3.0, rel=1e-9)

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="agent"):
            plan_routes([], east_points(1.0))

    def test_duplicate_waypoints_rejected(self):
        p = east_points(5.0)[0]
        with pytest.raises(ValueError, match="duplicate"):
            plan_routes(agents(1), [p, p])

    def test_duplicate_named_in_lattice_index_order(self):
        # P repeats at (0, 0) and (3, 0), Q at (1, 0) and (2, 0): walking the
        # waypoints in index order meets Q's second copy first. Supplied in
        # another order, with an int coordinate in P's second copy.
        p, q = GeoPoint(1.5, 2.25, 30.0), GeoPoint(1.5, 2.5, 30.0)
        pts = [Waypoint(q, (2, 0)), Waypoint(GeoPoint(1.5, 2.25, 30), (3, 0)), Waypoint(q, (1, 0)), Waypoint(p, (0, 0))]
        with pytest.raises(ValueError) as caught:
            plan_routes(agents(2), pts)
        assert str(caught.value) == "duplicate waypoint at (1.5, 2.5, 30.0); each point must be visited exactly once"
        # Without Q's second copy, P's second copy is named as it was given.
        with pytest.raises(ValueError) as caught:
            plan_routes(agents(2), pts[:2] + pts[3:])
        assert str(caught.value) == "duplicate waypoint at (1.5, 2.25, 30); each point must be visited exactly once"

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
        assert plan["A"][0] is wp_lo

    def test_partition_and_balance_property(self):
        rng = random.Random(2026)
        for _ in range(30):
            n_agents = rng.randint(1, 8)
            n_points = rng.randint(0, 60)
            fleet = agents(n_agents, velocity=rng.uniform(1.0, 10.0))
            pts = random_points(rng, HOME, n_points, 500.0)
            plan = plan_routes(fleet, lattice_row(pts))
            combined = [wp.point for route in plan.values() for wp in route]
            assert len(combined) == n_points
            assert {(p.lat_deg, p.lon_deg) for p in combined} == {(p.lat_deg, p.lon_deg) for p in pts}
            lengths = [len(route) for route in plan.values()]
            assert max(lengths) - min(lengths) <= 1

    def test_round_robin_interleaves_agents(self):
        rng = random.Random(4)
        pts = lattice_row(random_points(rng, HOME, 9, 200.0))
        fleet = agents(3)
        plan = plan_routes(fleet, pts)
        claimed = {aid: list(route) for aid, route in plan.items()}
        ends = {a.id: a.home for a in fleet}
        remaining = list(pts)
        for turn, wp in enumerate(claim_order(plan, fleet)):
            expected_agent = "ABC"[turn % 3]
            assert claimed[expected_agent][turn // 3] is wp
            # each turn claims the remaining waypoint nearest its agent's route end
            here = ends[expected_agent]
            assert distance_m(here, wp.point) == min(distance_m(here, w.point) for w in remaining)
            remaining.remove(wp)
            ends[expected_agent] = wp.point

    def test_deterministic(self):
        rng = random.Random(5)
        pts = lattice_row(random_points(rng, HOME, 40, 800.0))
        fleet = agents(4, velocity=3.0)
        first = plan_routes(fleet, pts)
        second = plan_routes(fleet, pts)
        assert first == second
        assert claim_order(first, fleet) == claim_order(second, fleet)


def _fleet(rng: random.Random, homes: list[GeoPoint]) -> list[Agent]:
    return [Agent(f"a{k}", rng.choice(homes), rng.uniform(1.0, 10.0)) for k in range(rng.randint(1, 4))]


def lattice_instance(rng: random.Random):
    """Shuffled dyadic lattice: coordinate differences are exact, so
    mirror-image neighbors tie exactly. Homes sit on lattice nodes. The
    waypoints carry their lattice nodes, or half the time their shuffled
    positions, so that ties go to an index unrelated to the geometry."""
    step = 2.0 ** -rng.randint(12, 16)
    lat0 = rng.choice([0.0, 45.0, -60.0, 53.25, 84.5])
    lon0 = rng.choice([0.0, -9.0625, 120.5])
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    nodes = [(i, j) for i in range(rows) for j in range(cols)]
    keep = rng.sample(nodes, rng.randint(1, len(nodes)))
    by_node = rng.random() < 0.5
    points = [Waypoint(GeoPoint(lat0 + i * step, lon0 + j * step, 32.0), (i, j)) for i, j in keep]
    rng.shuffle(points)
    if not by_node:
        points = lattice_row(w.point for w in points)
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
    return _fleet(rng, homes), lattice_row(points)


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
    return _fleet(rng, homes), lattice_row(points)


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
    return _fleet(rng, homes), lattice_row(points)


def large_lattice_instance(rng: random.Random):
    """Dyadic lattice of 12-30 rows and columns, whole or masked to a star
    about its centre. On a whole lattice the cells sit just above the
    spacing (the geometric mean of the row and column spacings), where the
    ring stop is tightest. Columns are one or two latitude steps apart, near
    square in metres at 60 degrees. Homes are lattice nodes or points
    anywhere within three steps of the lattice."""
    step = 2.0 ** -rng.randint(12, 15)
    lat0 = rng.choice([0.0, 45.0, -60.0, 53.25, 60.0])
    lon0 = rng.choice([0.0, -9.0625, 120.5])
    lon_step = step * rng.choice([1, 2])
    rows, cols = rng.randint(12, 30), rng.randint(12, 30)
    nodes = [(i, j) for i in range(rows) for j in range(cols)]
    if rng.random() < 0.5:
        ci, cj = (rows - 1) / 2.0, (cols - 1) / 2.0
        radii = [rng.uniform(0.3, 1.0) * min(ci, cj) for _ in range(rng.randint(5, 12))]

        def inside(i: int, j: int) -> bool:
            sector = int((math.atan2(i - ci, j - cj) + math.pi) / (2.0 * math.pi) * len(radii)) % len(radii)
            return math.hypot(i - ci, j - cj) <= radii[sector]

        nodes = [(i, j) for i, j in nodes if inside(i, j)]
    points = [Waypoint(GeoPoint(lat0 + i * step, lon0 + j * lon_step, 32.0), (i, j)) for i, j in nodes]
    rng.shuffle(points)
    homes = []
    for _ in range(2):
        if rng.random() < 0.5:
            i, j = rng.choice(nodes)
        else:
            i, j = rng.uniform(-3.0, rows + 2.0), rng.uniform(-3.0, cols + 2.0)
        homes.append(GeoPoint(lat0 + i * step, lon0 + j * lon_step))
    return _fleet(rng, homes), points


def far_home_instance(rng: random.Random):
    """A dyadic lattice of 3-14 rows and columns at longitude -9.0625 with
    one home on it and one far away: 50 km or 500 km north or south, or at
    longitude 170 or 175 (179 and 184 degrees of raw longitude east of the
    lattice, whose cells are built from the waypoints alone either way)."""
    step = 2.0 ** -rng.randint(12, 15)
    lat0, lon0 = rng.choice([0.0, 45.0, -60.0, 53.25]), -9.0625
    rows, cols = rng.randint(3, 14), rng.randint(3, 14)
    points = [Waypoint(GeoPoint(lat0 + i * step, lon0 + j * step, 32.0), (i, j)) for i in range(rows) for j in range(cols)]
    rng.shuffle(points)
    north = rng.choice([1.0, -1.0]) / METERS_PER_DEG_LAT
    far = rng.choice([GeoPoint(lat0 + 50e3 * north, lon0), GeoPoint(lat0 + 500e3 * north, lon0),
                      GeoPoint(lat0, 170.0), GeoPoint(lat0, 175.0)])
    near = GeoPoint(lat0 + rng.randrange(rows) * step, lon0 + rng.randrange(cols) * step)
    homes = [far, near] + [rng.choice([far, near]) for _ in range(rng.randint(0, 2))]
    rng.shuffle(homes)
    return [Agent(f"a{k}", home, rng.uniform(1.0, 10.0)) for k, home in enumerate(homes)], points


def wrap_limit_instance(rng: random.Random):
    """Waypoints spanning S degrees of longitude, just under or just over 90
    or up to 179.99, at latitudes from 80 S to 65 N. Homes lie anywhere in
    the gap east of the region, near a waypoint's antipode, 180 degrees from
    either edge, or near the wrapped offset 2S - 360 from the west edge, the
    westmost at which cells are built."""
    lat0 = rng.choice([0.0, 30.0, -45.0, 60.0, -80.0])
    span = rng.choice([89.0, 89.99, 90.0 - 1e-9, 90.0, 90.0 + 1e-9, 90.01, 120.0, 135.0, 179.0, 179.99])
    lon0 = rng.uniform(-180.0, 179.999 - span)
    lons = [lon0, lon0 + span] + [lon0 + rng.uniform(0.0, span) for _ in range(rng.randint(0, 40))]
    points = list({GeoPoint(lat0 + rng.uniform(0.0, 5.0), lon, 32.0) for lon in lons})
    homes = []
    for _ in range(2):
        kind = rng.randrange(4)
        if kind == 0:
            home = GeoPoint(lat0 + rng.uniform(-5.0, 10.0), lon0 + span + rng.uniform(0.0, 360.0 - span))
        elif kind == 1:
            p = rng.choice(points)
            home = GeoPoint(-p.lat_deg + rng.uniform(-0.01, 0.01), p.lon_deg + 180.0 + rng.uniform(-0.01, 0.01))
        elif kind == 2:
            home = GeoPoint(lat0 + rng.uniform(0.0, 5.0), rng.choice([lon0, lon0 + span]) + 180.0)
        else:
            limit = lon0 + 2.0 * span - 360.0
            home = GeoPoint(lat0 + rng.uniform(-5.0, 10.0), limit + rng.choice([-1.0, -1e-6, 0.0, 1e-6, 1.0]))
        homes.append(home)
    return _fleet(rng, homes), lattice_row(points)


def polar_home_instance(rng: random.Random):
    """Waypoints in a band up to 2 degrees tall between 60 S and 52 N,
    spanning 45-120 degrees of longitude, and homes 85-90 degrees north or
    south: near a waypoint's antipode, or just west of the wrapped offset
    2S - 360 from the waypoints' west edge. A home's midpoint cosine with a
    waypoint can be far below every waypoint's, and a leg from a home west
    of its nearest edge can wrap shorter than the columns measure."""
    lat0 = rng.uniform(-60.0, 50.0)
    span = rng.uniform(45.0, 120.0)
    lon0 = rng.uniform(-180.0, 179.999 - span)
    coords = {(lat0 + rng.uniform(0.0, 2.0), lon0 + rng.uniform(0.0, span)) for _ in range(rng.randint(2, 60))}
    points = [GeoPoint(lat, lon, 32.0) for lat, lon in coords]
    homes = []
    for _ in range(2):
        lat = rng.choice([1.0, -1.0]) * rng.uniform(85.0, 90.0)
        if rng.random() < 0.5:
            lon = rng.choice(points).lon_deg + 180.0 + rng.uniform(-1.0, 1.0)
        else:
            lon = lon0 + 2.0 * span - 360.0 - rng.uniform(0.0, 1.0)
        homes.append(GeoPoint(lat, lon))
    return _fleet(rng, homes), lattice_row(points)


def one_degree_lattice() -> list[Waypoint]:
    """A 21 x 121 lattice at one-degree steps, 10 S to 10 N and 60 W to 60 E."""
    return [Waypoint(GeoPoint(float(i - 10), float(j - 60), 32.0), (i, j)) for i in range(21) for j in range(121)]


class TestMatchesFullScan:
    """The bucketed planner claims exactly what the full scan claims."""

    @pytest.mark.parametrize(
        "family",
        [lattice_instance, scattered_instance, polar_instance, antimeridian_instance, large_lattice_instance,
         far_home_instance, wrap_limit_instance, polar_home_instance],
    )
    def test_identical_routes_and_sequence(self, family):
        rng = random.Random(f"scan:{family.__name__}")
        # The reference scan is quadratic: fewer of the large lattices.
        for _ in range(40 if family is large_lattice_instance else 60):
            fleet, points = family(rng)
            plan = plan_routes(fleet, points)
            routes, sequence = scan_plan_routes(fleet, points)

            def ids(route):
                return [id(w) for w in route]

            assert ids(claim_order(plan, fleet)) == ids(sequence)
            for aid, route in routes.items():
                assert ids(plan[aid]) == ids(route)

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
            cell_m, lat0, lon0, dlat, dlon, rows, cols = cell_layout(pts)
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
        origin = GeoPoint(10.0, 20.0)
        pts = [gps_offset(origin, EnuOffset(100.0 * k, 50.0 * (k % 3), 0.0)) for k in range(40)]
        assert cell_layout(pts)[5:] != (1, 1)
        assert cell_layout(pts[:1])[5:] == (1, 1)
        straddle = [GeoPoint(0.0, 179.9999), GeoPoint(0.0, -179.9999), GeoPoint(0.001, 179.9999)]
        assert cell_layout(straddle)[5:] == (1, 1)
        # cos(90 deg) rounds to 6e-17, not 0: at a pole the longitude cells
        # widen to one column and only latitude rows prune.
        pole = [GeoPoint(90.0, 0.0), GeoPoint(89.999, 1.0), GeoPoint(89.999, 2.0)]
        assert cell_layout(pole)[6] == 1

    @pytest.mark.parametrize(
        "home_lon, within_limit", [(-180.0, True), (-179.999, True), (179.999, False), (120.0, True)]
    )
    def test_west_home_limit(self, monkeypatch, home_lon, within_limit):
        """A 21 x 121 lattice at one-degree steps, 10 S to 10 N and 60 W to
        60 E (S = 120 degrees of longitude), with a home on either side of
        the wrapped offset 2S - 360 = -120 degrees from its west edge: at
        longitude -180 the offset is -120, at 179.999 it is -120.001. West
        of that offset a leg from a home clamped to the west column could
        wrap shorter than the columns measure; a home queries whole rows, so
        the planner keeps its cells and claims what the full scan claims
        either way, at about 6.1 evaluations per claim."""
        assert (math.remainder(home_lon + 60.0, 360.0) >= 2.0 * 120.0 - 360.0) == within_limit
        points = one_degree_lattice()
        homes = [GeoPoint(0.0, 0.0), GeoPoint(-10.0, -60.0), GeoPoint(0.0, home_lon)]
        fleet = [Agent(f"a{k}", home, 5.0) for k, home in enumerate(homes)]
        assert TestDistanceEvaluations.evaluations(monkeypatch, fleet, points) / len(points) <= 9.0
        assert plan_routes(fleet, points) == scan_plan_routes(fleet, points)[0]

    def test_zero_extent_is_one_cell(self):
        # Waypoints stacked at one lat/lon, homes below them: the box has no
        # height or width, so the cell size is 0 and the scan takes over.
        home = GeoPoint(10.0, 20.0, 0.0)
        stack = [Waypoint(GeoPoint(10.0, 20.0, alt), (0, k)) for k, alt in enumerate((30.0, 10.0, 20.0))]
        fleet = [Agent("a", home, 1.0), Agent("b", home, 1.0)]
        cell_m, *_, rows, cols = cell_layout([w.point for w in stack])
        assert (cell_m, rows, cols) == (math.inf, 1, 1)
        plan = plan_routes(fleet, stack)
        assert plan == scan_plan_routes(fleet, stack)[0]
        altitudes = {aid: [w.point.alt_m for w in route] for aid, route in plan.items()}
        assert altitudes == {"a": [10.0, 30.0], "b": [20.0]}

    def test_cell_count_bound(self):
        """rows * cols <= 2n + 2 for n waypoints: clusters, lines and strips
        1e-6 degrees tall, latitudes up to +-89.9 degrees. The cell size
        gives at most 1.8n + 1.8 in exact arithmetic."""
        rng = random.Random(2026)
        gridded = 0
        for _ in range(2000):
            lat0 = rng.choice([0.0, rng.uniform(-89.9, 89.9), rng.choice([-89.9, 89.9])])
            lon0 = rng.uniform(-179.0, 0.0)
            span = 10.0 ** rng.uniform(-6.0, -0.5)
            kind = rng.choice(["cluster", "line", "strip"])
            n = rng.randint(2, 300)
            pts = []
            for _ in range(n):
                u, v = rng.random(), rng.random()
                if kind == "cluster":
                    dlat, dlon = span * rng.gauss(0.0, 0.1) * u, span * rng.gauss(0.0, 0.1)
                elif kind == "line":
                    dlat, dlon = span * u * rng.choice([0.0, 1.0, -0.5]), span * u
                else:
                    dlat, dlon = 1e-6 * v, span * u
                pts.append(GeoPoint(max(-90.0, min(90.0, lat0 + dlat)), lon0 + dlon))
            rows, cols = cell_layout(pts)[5:]
            assert rows * cols <= 2 * n + 2
            gridded += rows * cols > 1
        assert gridded > 1500


def full_rectangle(origin: GeoPoint, rows: int, cols: int, spacing: float) -> list[Waypoint]:
    """The whole lattice at ``spacing`` over a rectangle ``rows`` x ``cols``
    steps from ``origin``, as the grid builds it."""
    ne = gps_offset(origin, EnuOffset((cols - 1) * spacing, (rows - 1) * spacing, 0.0))
    return generate_lattice(CircumRectangle(origin.lat_deg, ne.lat_deg, origin.lon_deg, ne.lon_deg), spacing, 32.0)


class TestDistanceEvaluations:
    """Cells just wider than the lattice spacing: a claim whose lattice
    neighbour is still free stops after ring 1."""

    @staticmethod
    def evaluations(monkeypatch, fleet, points) -> int:
        """Distances ``plan_routes`` evaluates: the waypoints of every list it
        hands ``_nearest``, which measures each of them once."""
        calls = 0
        nearest = uavsurvey.routing._nearest

        def counted(ring, *args):
            nonlocal calls
            calls += len(ring)
            return nearest(ring, *args)

        monkeypatch.setattr(uavsurvey.routing, "_nearest", counted)
        plan_routes(fleet, points)
        monkeypatch.undo()
        assert calls > 0
        return calls

    def test_cells_wider_than_the_spacing(self):
        # For an R x C lattice at spacing s, cell_m^2 is
        # 1.25 (R - 1)(C - 1) s^2 / (R C): above s^2 once R, C >= 11, as
        # (1 + 1/10)^2 = 1.21 < 1.25, and below 1.25 s^2 always.
        spacing = grid_spacing(CameraModel())
        for lat in (0.0, 53.276, -70.0, 84.0):
            for rows, cols in ((11, 11), (11, 40), (12, 17), (30, 30), (100, 11)):
                points = [w.point for w in full_rectangle(GeoPoint(lat, -9.066), rows, cols, spacing)]
                assert spacing < cell_layout(points)[0] < math.sqrt(1.25) * spacing

    def test_campus_lattice(self, monkeypatch):
        """The campus region scaled about its vertex centroid, with its
        3-agent fleet: about 7.7 evaluations per claim at x6 and 7.9 at x8
        (12.4 at x6 with two waypoints per cell). x8 is the survey_large
        benchmark mission."""
        for scale, n_points, evaluations in ((6, 2855, 21995), (8, 5086, 39986)):
            config, points = scaled_campus(scale)
            assert len(points) == n_points
            calls = self.evaluations(monkeypatch, config.fleet, points)
            assert calls / len(points) <= 9.0
            assert calls == evaluations

    def test_far_home_keeps_the_cells(self, monkeypatch):
        """Campus x4 with the third home 500 km north: the cells cover the
        waypoints only, and the far home starts from the whole row nearest
        it. 8.6 evaluations per claim; with the home in the cells' extent
        it was 633."""
        config, points = scaled_campus(4)
        fleet = list(config.fleet)
        moved = fleet[2]
        north = GeoPoint(moved.home.lat_deg + 500e3 / METERS_PER_DEG_LAT, moved.home.lon_deg)
        fleet[2] = Agent(moved.id, north, moved.velocity_mps)
        assert self.evaluations(monkeypatch, fleet, points) / len(points) <= 9.0

    def test_polar_home_keeps_the_cells(self, monkeypatch):
        """Campus x8 with the third home at 89 N: its first claim scans whole
        rows, and the cells stay as narrow as the waypoints make them. 8.6
        evaluations per claim; with the cells sized at the home's latitude
        it was 86.4."""
        config, points = scaled_campus(8)
        fleet = list(config.fleet)
        moved = fleet[2]
        fleet[2] = Agent(moved.id, GeoPoint(89.0, moved.home.lon_deg), moved.velocity_mps)
        assert self.evaluations(monkeypatch, fleet, points) / len(points) <= 9.0

    @pytest.mark.parametrize("far", ["lon_175", "west_edge_plus_180"])
    def test_home_across_the_antimeridian_keeps_the_cells(self, monkeypatch, far):
        """Campus x8 with the third home at longitude 175, or exactly 180
        degrees east of the waypoints' west edge: the waypoints alone lay the
        cells out, and the home queries whole rows, at 8.2 and 8.6
        evaluations per claim."""
        config, points = scaled_campus(8)
        lon = 175.0 if far == "lon_175" else min(w.point.lon_deg for w in points) + 180.0
        fleet = list(config.fleet)
        moved = fleet[2]
        fleet[2] = Agent(moved.id, GeoPoint(moved.home.lat_deg, lon), moved.velocity_mps)
        rows, cols = cell_layout([w.point for w in points])[5:]
        assert rows * cols > 1
        assert self.evaluations(monkeypatch, fleet, points) / len(points) <= 9.0

    def test_wide_region_keeps_the_cells(self, monkeypatch):
        """A 21 x 121 lattice at one-degree steps, 10 S to 10 N and 60 W to
        60 E, with three homes on it: the cells are built for 120 degrees of
        longitude. About 5.2 evaluations per claim."""
        points = one_degree_lattice()
        fleet = [Agent(f"a{k}", GeoPoint(lat, lon), 5.0) for k, (lat, lon) in enumerate(((0, 0), (-10, -60), (10, 60)))]
        rows, cols = cell_layout([w.point for w in points])[5:]
        assert rows * cols > 1
        assert self.evaluations(monkeypatch, fleet, points) / len(points) <= 9.0

    # One agent then three, from the corner, then from the centre.
    FULL_RECTANGLE_EVALUATIONS = {
        (11, 11): [517, 506, 531, 644],
        (24, 40): [4504, 4200, 4543, 4797],
        (60, 60): [18380, 16788, 18451, 18502],
    }

    @pytest.mark.parametrize("rows, cols", [(11, 11), (24, 40), (60, 60)])
    def test_full_rectangle(self, monkeypatch, rows, cols):
        """About 4-5.5 evaluations per claim from a corner or the centre; the
        60 x 60 lattice read 7.9 with two waypoints per cell."""
        spacing = grid_spacing(CameraModel())
        origin = GeoPoint(53.276, -9.066)
        points = full_rectangle(origin, rows, cols, spacing)
        centre = gps_offset(origin, EnuOffset((cols - 1) * spacing / 2 + 3.0, (rows - 1) * spacing / 2 + 7.0, 0.0))
        counts = []
        for home in (gps_offset(origin, EnuOffset(-20.0, -20.0, 0.0)), centre):
            for n_agents in (1, 3):
                fleet = agents(n_agents, velocity=8.0, home=home)
                counts.append(self.evaluations(monkeypatch, fleet, points))
                assert counts[-1] / len(points) <= 7.0
        assert counts == self.FULL_RECTANGLE_EVALUATIONS[rows, cols]


class TestNorthGapSkip:
    """``_nearest`` skips a waypoint whose north offset alone exceeds the best
    distance so far, which is exact when ``math.hypot`` never returns less
    than the magnitude of an argument."""

    @staticmethod
    def coordinate(rng: random.Random) -> float:
        """A signed zero, a subnormal or a normal float from 1e-300 to 1e300."""
        sign = rng.choice((1.0, -1.0))
        kind = rng.randrange(5)
        if kind == 0:
            return sign * 0.0
        if kind == 1:
            return sign * rng.randrange(1, 2**52) * 5e-324  # exact: a multiple of the least subnormal
        return sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)

    def test_hypot_is_at_least_each_argument(self):
        rng = random.Random(35)
        for _ in range(100_000):
            args = [self.coordinate(rng) for _ in range(3)]
            if rng.random() < 0.3:
                # One argument at least 1e8 times each of the others.
                args[0] = args[0] or 1.0
                args[1:] = [math.copysign(args[0], x) * 10.0 ** -rng.uniform(8.0, 40.0) for x in args[1:]]
                rng.shuffle(args)
            assert math.hypot(*args) >= max(map(abs, args)), args

    def test_campus_lattice_measures_few_candidates(self, monkeypatch):
        """Campus x8, the survey_large mission: about 2.2 distances measured
        per claim of the 7.86 gathered (``TestDistanceEvaluations``)."""
        config, points = scaled_campus(8)
        calls = 0
        hypot = math.hypot

        def counted(*args):
            nonlocal calls
            calls += 1
            return hypot(*args)

        monkeypatch.setattr(math, "hypot", counted)
        plan_routes(config.fleet, points)
        monkeypatch.undo()
        assert 0 < calls <= 2.5 * len(points)


def stretched(a: GeoPoint, b: GeoPoint) -> float:
    """``distance_m`` with its east term tripled, from the same operands: never
    below it, with the same north term, so the ring stop and the north-gap
    skip stay exact under it."""
    north = (b.lat_deg - a.lat_deg) * METERS_PER_DEG_LAT
    dlon = math.remainder(b.lon_deg - a.lon_deg, 360.0)
    east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(0.5 * (a.lat_deg + b.lat_deg)))
    return math.hypot(3.0 * east, north, b.alt_m - a.alt_m)


class TestOneDistanceFormula:
    """``plan_routes`` measures every leg with ``routing.distance_m``: under a
    stretched metric it claims what the full scan by that metric claims."""

    @staticmethod
    def assert_plans_by(monkeypatch, fleet, points):
        monkeypatch.setattr(uavsurvey.routing, "distance_m", stretched)
        plan = plan_routes(fleet, points)
        monkeypatch.undo()
        assert plan == scan_plan_routes(fleet, points, cost=stretched)[0]
        assert plan != plan_routes(fleet, points)

    def test_full_lattice(self, monkeypatch):
        spacing = grid_spacing(CameraModel())
        points = full_rectangle(GeoPoint(53.276, -9.066), 24, 40, spacing)
        home = gps_offset(points[0].point, EnuOffset(-20.0, -20.0, 0.0))
        self.assert_plans_by(monkeypatch, agents(3, velocity=8.0, home=home), points)

    def test_campus_lattice(self, monkeypatch):
        config, points = scaled_campus(3)
        self.assert_plans_by(monkeypatch, config.fleet, points)

    def test_seeded_random_points(self, monkeypatch):
        rng = random.Random("stretched")
        for _ in range(20):
            origin = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-170.0, 170.0))
            points = lattice_row(random_points(rng, origin, 200, 10.0 ** rng.uniform(1.0, 4.0)))
            fleet = [Agent(f"a{k}", gps_offset(origin, EnuOffset(50.0 * k, 0.0, 0.0)), 5.0) for k in range(3)]
            self.assert_plans_by(monkeypatch, fleet, points)


class TestRouteLength:
    """``route_length`` is the += loop over ``distance_m``, bit for bit."""

    def test_matches_distance_loop(self):
        rng = random.Random("legs")
        for fleet, points in leg_walk_missions(rng):
            plan = plan_routes(fleet, points)
            assert plan == scan_plan_routes(fleet, points)[0]
            shuffled = rng.sample(points, len(points))
            for agent in fleet:
                for route in (plan[agent.id], points, shuffled, shuffled[:1], []):
                    assert route_length(agent.home, route).hex() == loop_route_length(agent.home, route).hex()

    def test_legs_added_left_to_right(self):
        """One leg of about 1e6 m, then 1000 vertical legs of 2^-40 m, below
        half an ulp of the first (2^-34 m): each += rounds back to the first
        leg, while math.fsum, and sum() from Python 3.12 on, count them."""
        home = GeoPoint(0.0, 0.0, 0.0)
        route = lattice_row([GeoPoint(9.0, 0.0, 0.0)] + [GeoPoint(9.0, 0.0, k * 2.0**-40) for k in range(1, 1001)])
        ends = [home] + [w.point for w in route]
        legs = [distance_m(a, b) for a, b in zip(ends, ends[1:])]
        assert legs[1:] == [2.0**-40] * 1000 and 2.0**-40 < math.ulp(legs[0]) / 2
        expected = loop_route_length(home, route)
        assert expected == legs[0] != math.fsum(legs)
        assert route_length(home, route) == expected


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
            pts = lattice_row(random_points(rng, HOME, rng.randint(0, 25), 400.0))
            plan = plan_routes(fleet, pts)
            mk = makespan(plan, fleet)
            by_id = {a.id: a for a in fleet}
            total = sum(
                route_length(by_id[aid].home, route) / by_id[aid].velocity_mps
                for aid, route in plan.items()
            )
            assert len(fleet) * mk >= total * (1.0 - 1e-12)


class TestTspOptimal:
    def test_single_point(self):
        pts = east_points(3.0)
        assert tsp_optimal(pts) == 0.0
        assert tsp_optimal([]) == 0.0

    def test_two_points(self):
        pts = east_points(0.0, 5.0)
        d = distance_m(pts[0].point, pts[1].point)
        assert tsp_optimal(pts) == pytest.approx(2.0 * d, rel=1e-12)

    def test_unit_square_tour(self):
        # Brute force over the 3 distinct tours of 4 points gives 4.
        assert tsp_optimal(unit_square_points()) == pytest.approx(4.0, rel=1e-9)

    def test_size_cap(self):
        rng = random.Random(8)
        pts = lattice_row(random_points(rng, HOME, 19, 100.0))
        with pytest.raises(ValueError, match="no exact reference"):
            tsp_optimal(pts)

    def test_matches_permutation_oracle(self):
        rng = random.Random(9)
        for _ in range(40):
            pts = random_points(rng, HOME, rng.randint(2, 7), 300.0)
            assert tsp_optimal(lattice_row(pts)) == pytest.approx(permutation_tour_cost(pts, distance_m), rel=1e-9)


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
        value, partition = brute_force_mtsp(lattice_row([east, west]), fleet)
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
            brute_force_mtsp(lattice_row(random_points(rng, HOME, 9, 100.0)), agents(2))
        with pytest.raises(ValueError, match="oracle"):
            brute_force_mtsp(lattice_row(random_points(rng, HOME, 3, 100.0)), agents(4))

    def test_partition_is_exact_cover(self):
        rng = random.Random(11)
        pts = random_points(rng, HOME, 6, 200.0)
        _, partition = brute_force_mtsp(lattice_row(pts), agents(3, velocity=2.5))
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
            plan = plan_routes(fleet, lattice_row(pts))
            longest_m = makespan(plan, fleet) * 1.0
            bound = mtsp_lower_bound(lattice_row([home, *pts]), n_agents)
            instances += 1
            if longest_m < bound * (1.0 - 1e-12):
                violations += 1
        print(f"\nempirical tour/n bound: {violations}/{instances} violations")
        assert instances == 100
