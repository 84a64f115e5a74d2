"""Shared test utilities: independent geometry oracles, reference writers and random instance builders."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from operator import add
from pathlib import Path

from uavsurvey import EnuOffset, GeoPoint, PolygonRegion, Waypoint, distance_m, footprint_width, gps_offset, strength_at
from uavsurvey.grid import _segments_intersect
from uavsurvey.sim import WAYPOINT_REACHED

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "campus_mission.json"


# ---------------------------------------------------------------------------
# point-in-polygon oracles (independent of the library's ray caster)

def _is_left(a: GeoPoint, b: GeoPoint, lat: float, lon: float) -> float:
    return (b.lon_deg - a.lon_deg) * (lat - a.lat_deg) - (lon - a.lon_deg) * (b.lat_deg - a.lat_deg)


def winding_number_inside(lat: float, lon: float, vertices) -> bool:
    """Sunday's crossing-winding rule on (lon, lat): nonzero winding = inside."""
    wn = 0
    n = len(vertices)
    for k in range(n):
        a = vertices[k]
        b = vertices[(k + 1) % n]
        if a.lat_deg <= lat:
            if b.lat_deg > lat and _is_left(a, b, lat, lon) > 0:
                wn += 1
        elif b.lat_deg <= lat and _is_left(a, b, lat, lon) < 0:
            wn -= 1
    return wn != 0


def convex_contains(lat: float, lon: float, vertices) -> bool:
    """All-edges-same-side test; valid for convex polygons, boundary inclusive."""
    pos = neg = False
    n = len(vertices)
    for k in range(n):
        cross = _is_left(vertices[k], vertices[(k + 1) % n], lat, lon)
        if cross > 0:
            pos = True
        elif cross < 0:
            neg = True
    return not (pos and neg)


def ray_cast_point_in_polygon(p: GeoPoint, region: PolygonRegion) -> bool:
    """Ray casting one edge at a time, boundary inclusive.

    The per-point loop ``point_in_polygon`` used before the grid filtered a
    lattice row at a time: an edge touching the point returns True, and an
    edge is crossed iff exactly one endpoint is strictly north of the point.
    """
    lat, lon = p.lat_deg, p.lon_deg
    inside = False
    prev = region.vertices[-1]
    for cur in region.vertices:
        alat, alon = prev.lat_deg, prev.lon_deg
        blat, blon = cur.lat_deg, cur.lon_deg
        cross = (blat - alat) * (lon - alon) - (blon - alon) * (lat - alat)
        if (
            cross == 0.0
            and min(alat, blat) <= lat <= max(alat, blat)
            and min(alon, blon) <= lon <= max(alon, blon)
        ):
            return True
        if (alat > lat) != (blat > lat):
            lon_cross = alon + (lat - alat) * (blon - alon) / (blat - alat)
            if lon_cross > lon:
                inside = not inside
        prev = cur
    return inside


# ---------------------------------------------------------------------------
# polygon simplicity reference

def pairwise_first_crossing(vertices) -> tuple[int, int] | None:
    """The first non-adjacent edge pair ``(i, j)``, i < j, that touches or
    crosses, testing every pair in lexicographic order; None for a simple
    polygon.

    The all-pairs loop ``PolygonRegion`` ran before it swept the edges'
    bounding boxes. Edge i runs from vertex i to i + 1.
    """
    pts = [(v.lon_deg, v.lat_deg) for v in vertices]
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n - 1 if i == 0 else n):
            if _segments_intersect(a1, a2, pts[j], pts[(j + 1) % n]):
                return i, j
    return None


# ---------------------------------------------------------------------------
# radiation reference

def loop_total_intensity(sources, p: GeoPoint) -> float:
    """The sources' ``strength_at`` terms added left to right, one at a time."""
    total = 0.0
    for s in sources:
        total += strength_at(s, p)
    return total


# ---------------------------------------------------------------------------
# TSP and min-makespan references

def permutation_tour_cost(points, cost) -> float:
    """Minimum Hamiltonian cycle cost by enumerating permutations."""
    pts = list(points)
    if len(pts) <= 1:
        return 0.0
    first, rest = pts[0], pts[1:]
    best = math.inf
    for perm in itertools.permutations(rest):
        order = (first, *perm, first)
        total = sum(cost(order[k], order[k + 1]) for k in range(len(order) - 1))
        if total < best:
            best = total
    return best


def loop_tsp_optimal(points, cost=distance_m) -> float:
    """Held-Karp over a flat ``2^n * n`` table with a Python loop per predecessor.

    The body ``tsp_optimal`` had before its rows became one C-level
    reduction per entry; the subset DP must return the same float.
    """
    pts = [w.point for w in points]
    n = len(pts)
    if n <= 1:
        return 0.0
    c = [[cost(a, b) for b in pts] for a in pts]
    size = 1 << n
    inf = math.inf
    dp = [inf] * (size * n)
    # Anchor the cycle at vertex 0; dp[mask*n + k] = cheapest path 0 -> k
    # visiting exactly `mask` (mask includes bits 0 and k).
    for k in range(1, n):
        dp[((1 | (1 << k)) * n) + k] = c[0][k]
    for mask in range(size):
        if not mask & 1:
            continue
        base = mask * n
        for k in range(1, n):
            kbit = 1 << k
            if not mask & kbit:
                continue
            prev = mask ^ kbit
            if prev == 1:
                continue  # base case already seeded
            pbase = prev * n
            best = inf
            for j in range(1, n):
                if prev & (1 << j):
                    v = dp[pbase + j] + c[j][k]
                    if v < best:
                        best = v
            dp[base + k] = best
    full = (size - 1) * n
    return min(dp[full + k] + c[k][0] for k in range(1, n))


def unbounded_path_rows(first, pair):
    """The open-path subset DP with every row kept.

    The body ``routing._path_rows`` had before it took a budget; with one,
    the kernel must keep these values on every path that can end within it.
    """
    m = len(first)
    inf = math.inf
    cols = [list(col) for col in zip(*pair)]
    bits = [(k, 1 << k) for k in range(m)]
    rows = [None] * (1 << m)
    for k, b in bits:
        row = [inf] * m
        row[k] = first[k]
        rows[b] = row
    for s in range(3, 1 << m):
        if s & (s - 1):
            rows[s] = [min(map(add, rows[s ^ b], cols[k])) if s & b else inf for k, b in bits]
    return rows


def unbounded_tsp_optimal(points) -> float:
    """Held-Karp on ``unbounded_path_rows``: ``tsp_optimal`` before its budget."""
    pts = [w.point for w in points]
    if len(pts) <= 1:
        return 0.0
    c = [[distance_m(a, b) for b in pts] for a in pts]
    full = unbounded_path_rows(c[0][1:], [row[1:] for row in c[1:]])[-1]
    return min(map(add, full, [row[0] for row in c[1:]]))


def permutation_brute_force_mtsp(points, agents, cost=distance_m):
    """Min-makespan oracle over every assignment and every visiting order.

    The body ``brute_force_mtsp`` had before the per-agent subset DP: each
    bucket's orders come from ``itertools.permutations``, the first strictly
    cheaper order and the first strictly better assignment win. Returns
    ``(makespan_seconds, partition)``.
    """
    agents = list(agents)
    wps = list(points)
    n = len(wps)
    positions = [w.point for w in wps]
    home_cost = [[cost(a.home, p) for p in positions] for a in agents]
    pair_cost = [[cost(p, q) for q in positions] for p in positions]

    best_path_cache = {}

    def best_path(ai, bucket):
        if not bucket:
            return 0.0, ()
        key = (ai, bucket)
        hit = best_path_cache.get(key)
        if hit is not None:
            return hit
        from_home = home_cost[ai]
        best = (math.inf, bucket)
        for perm in itertools.permutations(bucket):
            here = perm[0]
            total = from_home[here]
            for k in perm[1:]:
                total += pair_cost[here][k]
                here = k
            if total < best[0]:
                best = (total, perm)
        best_path_cache[key] = best
        return best

    best_value = math.inf
    best_orders = [()] * len(agents)
    for assignment in itertools.product(range(len(agents)), repeat=n):
        buckets = [[] for _ in agents]
        for point_idx, ai in enumerate(assignment):
            buckets[ai].append(point_idx)
        worst = 0.0
        orders = []
        for ai, bucket in enumerate(buckets):
            length, order = best_path(ai, tuple(bucket))
            orders.append(order)
            duration = length / agents[ai].velocity_mps
            if duration > worst:
                worst = duration
        if worst < best_value:
            best_value = worst
            best_orders = orders
    partition = {agents[ai].id: [wps[k] for k in best_orders[ai]] for ai in range(len(agents))}
    return best_value, partition


# ---------------------------------------------------------------------------
# planner reference

def scan_plan_routes(agents, waypoints, cost=distance_m):
    """Round-robin nearest neighbor by a full scan of every remaining waypoint.

    The quadratic loop ``plan_routes`` used before it bucketed waypoints; the
    first strictly cheaper candidate in lattice index order wins. Returns
    ``(routes, visit_sequence)``.
    """
    order = sorted(waypoints, key=lambda w: w.index)
    positions = [w.point for w in order]
    routes = {a.id: [] for a in agents}
    ends = {a.id: a.home for a in agents}
    visit_sequence = []
    remaining = list(range(len(order)))
    turn = 0
    while remaining:
        agent = agents[turn % len(agents)]
        here = ends[agent.id]
        best_k = remaining[0]
        best_cost = cost(here, positions[best_k])
        for k in remaining[1:]:
            c = cost(here, positions[k])
            if c < best_cost:
                best_cost = c
                best_k = k
        routes[agent.id].append(order[best_k])
        visit_sequence.append(order[best_k])
        ends[agent.id] = positions[best_k]
        remaining.remove(best_k)
        turn += 1
    return routes, visit_sequence


def claim_order(plan, agents) -> list:
    """The planner's global claim order, read off its routes.

    Turn t of the round robin goes to ``agents[t % A]``, which claims the
    (t // A)-th waypoint of its route. A route that is not round-robin
    balanced raises IndexError.
    """
    ids = [a.id for a in agents]
    n = sum(len(route) for route in plan.routes.values())
    return [plan.routes[ids[t % len(ids)]][t // len(ids)] for t in range(n)]


# ---------------------------------------------------------------------------
# writer references

def json_dumps_geojson(doc: dict) -> str:
    """``plan.geojson`` as ``json.dumps`` writes it, the way ``dumps_geojson``
    did before it filled templates."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def int_pair(index) -> list:
    """``list(index)`` for a tuple of two ints. Any other lattice index raises
    the ValueError that ``Waypoint`` and ``write_observation_log`` raise."""
    if type(index) is tuple and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
        return list(index)
    raise ValueError(f"lattice index must be a pair of ints, got {index!r}")


def json_config_digest(plan, fleet, sources, noise, seed, camera, dwell_s) -> str:
    """``config_digest`` as one ``json.dumps(sort_keys=True)`` of a nested
    payload, the way it was computed before it rendered the routes itself."""

    def geo(p):
        return [p.lat_deg, p.lon_deg, p.alt_m]

    payload = {
        "routes": {
            aid: [[geo(w.point), int_pair(w.index)] for w in route]
            for aid, route in plan.routes.items()
        },
        "fleet": [[a.id, geo(a.home), a.velocity_mps] for a in fleet],
        "sources": [[geo(s.position), s.sigma] for s in sources],
        "noise": [noise.kind, noise.relative_sd],
        "seed": seed,
        "dwell_s": dwell_s,
        "camera": [camera.half_fov_deg, camera.overlap_fraction, camera.altitude_m],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def json_observation_log(log) -> str:
    """``observations.jsonl`` with one compact ``json.dumps`` per record, the
    way ``write_observation_log`` did before it filled templates."""
    header = {
        "mission_id": log.mission_id,
        "config_digest": log.config_digest,
        "event_count": len(log.events),
    }
    lines = [json.dumps(header, separators=(",", ":"), allow_nan=False)]
    for event in log.events:
        rec: dict = {"event": event.kind, "t": event.t, "agent_id": event.agent_id}
        if event.kind == WAYPOINT_REACHED:
            p = event.waypoint.point
            camera = log.camera
            rec.update(
                lat=p.lat_deg,
                lon=p.lon_deg,
                alt=p.alt_m,
                radiation_usv_s=event.radiation_usv_s,
                camera={
                    "altitude_m": p.alt_m,
                    "half_fov_deg": camera.half_fov_deg,
                    "footprint_width_m": footprint_width(camera),
                    "lattice_index": int_pair(event.waypoint.index),
                },
            )
        lines.append(json.dumps(rec, separators=(",", ":"), allow_nan=False))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random instance builders

def random_points(rng: random.Random, origin: GeoPoint, n: int, span_m: float, alt_m: float = 0.0):
    """n distinct points offset up to span_m east/north of origin."""
    points = []
    seen = set()
    while len(points) < n:
        p = gps_offset(
            origin,
            EnuOffset(rng.uniform(-span_m, span_m), rng.uniform(-span_m, span_m), alt_m),
        )
        key = (p.lat_deg, p.lon_deg)
        if key in seen:
            continue
        seen.add(key)
        points.append(p)
    return points


def lattice_row(points) -> list[Waypoint]:
    """``points`` as one lattice row, ``Waypoint(p, (0, k))`` for the k-th:
    lattice index order is input order."""
    return [Waypoint(p, (0, k)) for k, p in enumerate(points)]


def _sorted_angles(rng: random.Random, n: int) -> list[float]:
    # Balanced gaps keep every angular wedge under pi, so each edge chord
    # stays inside its own wedge and the polygon is simple by construction.
    gaps = [rng.uniform(0.8, 1.2) for _ in range(n)]
    scale = 2.0 * math.pi / sum(gaps)
    start = rng.uniform(0.0, 2.0 * math.pi)
    angles = []
    acc = start
    for g in gaps[:-1]:
        angles.append(acc)
        acc += g * scale
    angles.append(acc)
    return angles


def random_star_polygon(
    rng: random.Random,
    center: GeoPoint,
    n_vertices: int,
    r_min_m: float,
    r_max_m: float,
) -> PolygonRegion:
    """A simple (star-shaped) polygon: balanced angles, random radii."""
    vertices = tuple(
        gps_offset(center, EnuOffset(r * math.cos(a), r * math.sin(a), 0.0))
        for a, r in ((a, rng.uniform(r_min_m, r_max_m)) for a in _sorted_angles(rng, n_vertices))
    )
    return PolygonRegion(vertices)


def random_convex_polygon(
    rng: random.Random,
    center: GeoPoint,
    n_vertices: int,
    r_max_m: float,
) -> PolygonRegion:
    """A convex polygon: sorted angles on an axis-aligned ellipse."""
    a_axis = rng.uniform(0.3 * r_max_m, r_max_m)
    b_axis = rng.uniform(0.3 * r_max_m, r_max_m)
    vertices = tuple(
        gps_offset(center, EnuOffset(a_axis * math.cos(a), b_axis * math.sin(a), 0.0))
        for a in _sorted_angles(rng, n_vertices)
    )
    return PolygonRegion(vertices)


# ---------------------------------------------------------------------------
# GeoJSON structural validation

def assert_valid_geojson(doc: dict) -> None:
    """RFC 7946 structural checks: types, coordinate arity, closed rings."""
    assert doc["type"] == "FeatureCollection"
    assert isinstance(doc["features"], list)
    for feature in doc["features"]:
        assert feature["type"] == "Feature"
        assert isinstance(feature["properties"], dict)
        geom = feature["geometry"]
        kind = geom["type"]
        coords = geom["coordinates"]
        if kind == "Point":
            _assert_position(coords)
        elif kind == "LineString":
            assert len(coords) >= 2
            for c in coords:
                _assert_position(c)
        elif kind == "Polygon":
            for ring in coords:
                assert len(ring) >= 4 and ring[0] == ring[-1]
                for c in ring:
                    _assert_position(c)
        else:
            raise AssertionError(f"unexpected geometry type {kind!r}")


def _assert_position(c) -> None:
    assert isinstance(c, list) and len(c) in (2, 3)
    assert all(isinstance(v, (int, float)) for v in c)
    lon, lat = c[0], c[1]
    assert -180.0 <= lon <= 180.0, f"longitude out of range: {lon}"
    assert -90.0 <= lat <= 90.0, f"latitude out of range: {lat}"
