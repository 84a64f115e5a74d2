"""Route assignment and evaluation for a survey fleet.

``plan_routes`` implements round-robin nearest-neighbor assignment: agents
take turns claiming the nearest unvisited waypoint to the end of their route
so far. The remaining operations are desk-scale evaluation tools:
exact TSP by Held-Karp, an exact min-makespan oracle (both subset dynamic
programs), and the optimal-tour / n figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Sequence

from .geodesy import METERS_PER_DEG_LAT, GeoPoint, distance_m
from .grid import Waypoint

# Held-Karp keeps 2^(n-1) rows of n-1 floats; at n = 18 the tracemalloc peak
# is about 60 MB. Larger instances have no exact reference.
HELD_KARP_MAX_POINTS = 18
ORACLE_MAX_POINTS = 8
ORACLE_MAX_AGENTS = 3


@dataclass(frozen=True)
class Agent:
    """A survey drone: unique id, launch point, constant cruise speed."""

    id: str
    home: GeoPoint
    velocity_mps: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("agent id must be non-empty")
        if not (math.isfinite(self.velocity_mps) and self.velocity_mps > 0.0):
            raise ValueError(f"velocity_mps must be positive and finite, got {self.velocity_mps}")


@dataclass
class RoutePlan:
    """Ordered per-agent waypoint sequences forming a partition of the input set.

    ``homes`` records each agent's launch point (routes themselves exclude
    it); ``visit_sequence`` is the global claim order the planner produced
    (interleaved across agents).
    """

    routes: dict[str, list[Waypoint]]
    homes: dict[str, GeoPoint] = field(default_factory=dict)
    visit_sequence: list[Waypoint] = field(default_factory=list)


def _as_waypoints(points) -> list[Waypoint]:
    """``points`` as route elements: a bare GeoPoint ``p`` becomes ``Waypoint(p)``."""
    return [Waypoint(p) if isinstance(p, GeoPoint) else p for p in points]


def _check_fleet(agents: Sequence[Agent], plan: RoutePlan | None = None) -> None:
    """The fleet rules: at least one agent, unique ids and, given a plan, no
    route of an agent outside the fleet."""
    if not agents:
        raise ValueError("fleet must have at least one agent")
    ids = {a.id for a in agents}
    if len(ids) != len(agents):
        raise ValueError("agent ids must be unique within the fleet")
    if plan is not None:
        unknown = [aid for aid in plan.routes if aid not in ids]
        if unknown:
            raise ValueError(f"plan references agents not in the fleet: {unknown}")


# The ring lower bound is scaled by this before pruning. Rounding in the
# cell indices and in distance_m is orders of magnitude below 1e-9 relative.
_RING_SLACK = 1.0 - 1e-9
# Infinite cell sizes map every point to cell (0, 0): the plain scan.
_ONE_CELL = (0.0, 0.0, 0.0, math.inf, math.inf, 1, 1)


def _cell_layout(points: list[GeoPoint], n: int):
    """Cell grid for exact nearest queries: ``(cell_m, lat0, lon0, dlat, dlon, rows, cols)``.

    ``points`` holds the ``n`` waypoints and the homes, so every query point
    falls inside the grid. A cell is ``cell_m`` tall and, at the largest
    |latitude| in ``points``, ``cell_m`` wide. ``distance_m`` scales
    longitude by cos(midpoint latitude), which is never smaller, and the
    vertical term only adds, so a point ``r`` cell rings from a query is at
    least ``(r - 1) * cell_m`` away. Near a pole the longitude cells widen to
    a single column. The argument assumes no longitude wrap-around: when the
    points span 180 degrees of longitude or more, or when the grid would be
    large for ``n``, everything goes into one cell.
    """
    if n < 2:
        return _ONE_CELL
    lats = [p.lat_deg for p in points]
    lons = [p.lon_deg for p in points]
    lat0, lon0 = min(lats), min(lons)
    lon_span = max(lons) - lon0
    if lon_span >= 180.0:
        return _ONE_CELL
    cos_min = math.cos(math.radians(max(map(abs, lats))))
    height_m = (max(lats) - lat0) * METERS_PER_DEG_LAT
    width_m = lon_span * METERS_PER_DEG_LAT * cos_min
    # About two waypoints per cell of the bounding box; a line-like extent
    # falls back to n cells along its length.
    cell_m = max(math.sqrt(2.0 * height_m * width_m / n), max(height_m, width_m) / n)
    if not cell_m > 0.0:
        return _ONE_CELL
    dlat = cell_m / METERS_PER_DEG_LAT
    dlon = cell_m / (METERS_PER_DEG_LAT * cos_min)
    rows = int((max(lats) - lat0) / dlat) + 1
    cols = int(lon_span / dlon) + 1
    if rows * cols > 4 * n + 64:
        return _ONE_CELL
    return cell_m, lat0, lon0, dlat, dlon, rows, cols


def _ring(cells: list[list[int]], rows: int, cols: int, i: int, j: int, r: int):
    """Waypoint indices in the cells at Chebyshev distance ``r`` from (i, j)."""
    if r == 0:
        yield from cells[i * cols + j]
        return
    lo, hi = max(j - r, 0), min(j + r, cols - 1)
    for row in (i - r, i + r):
        if 0 <= row < rows:
            for cell in cells[row * cols + lo: row * cols + hi + 1]:
                yield from cell
    for col in (j - r, j + r):
        if 0 <= col < cols:
            for row in range(max(i - r + 1, 0), min(i + r, rows)):
                yield from cells[row * cols + col]


def plan_routes(agents: Sequence[Agent], waypoints) -> RoutePlan:
    """Assign every waypoint to exactly one agent by round-robin nearest neighbor.

    Each agent's path is seeded at its home. On its turn an agent claims the
    unvisited waypoint nearest (``distance_m``) to its current path end, then
    the turn passes to the next agent. A bare GeoPoint ``p`` in ``waypoints``
    enters as ``Waypoint(p)``, so routes hold Waypoints only. Waypoints are
    ordered by lattice index when all of them carry one, else kept in input
    order; the claim is the waypoint with the smallest ``(distance, position
    in that order)``, exactly what a scan over all remaining waypoints that
    keeps the first strict minimum picks.

    The remaining waypoints are bucketed on a lat/lon grid of about two per
    cell. A claim searches rings of cells outward from the cell of the path
    end and stops when the next ring cannot hold a waypoint as near as the
    best so far; the claimed waypoint leaves its cell. On the campus lattice
    scaled 1x to 16x a claim visits about 10 cells and makes about 13
    distance evaluations, so planning n waypoints takes close to O(n) time
    against O(n^2) for the scan. Sparse or clustered layouts visit more empty cells,
    never more than the grid holds.

    Every waypoint goes into one cell, and the search is that scan, when the
    waypoints and homes span 180 degrees of longitude or more, when they all
    share one latitude/longitude, or when the grid would need more than
    4n + 64 cells.
    """
    agents = list(agents)
    _check_fleet(agents)

    order = _as_waypoints(waypoints)
    if order and all(w.index is not None for w in order):
        order.sort(key=lambda w: w.index)
    positions = [w.point for w in order]
    seen: set[tuple[float, float, float]] = set()
    for p in positions:
        key = (p.lat_deg, p.lon_deg, p.alt_m)
        if key in seen:
            raise ValueError(f"duplicate waypoint at {key}; each point must be visited exactly once")
        seen.add(key)

    homes = {a.id: a.home for a in agents}
    cell_m, lat0, lon0, dlat, dlon, rows, cols = _cell_layout(positions + list(homes.values()), len(positions))

    def cell_of(p: GeoPoint) -> tuple[int, int]:
        return int((p.lat_deg - lat0) / dlat), int((p.lon_deg - lon0) / dlon)

    cells: list[list[int]] = [[] for _ in range(rows * cols)]
    for k, p in enumerate(positions):
        i, j = cell_of(p)
        cells[i * cols + j].append(k)  # ascending k within every cell

    routes: dict[str, list[Waypoint]] = {a.id: [] for a in agents}
    ends = dict(homes)
    visit_sequence: list[Waypoint] = []
    dist = distance_m
    for turn in range(len(order)):
        agent = agents[turn % len(agents)]
        here = ends[agent.id]
        qi, qj = cell_of(here)
        last_ring = max(qi, rows - 1 - qi, qj, cols - 1 - qj)
        best_k = -1
        best_cost = 0.0
        for r in range(last_ring + 1):
            if best_k >= 0 and (r - 1) * cell_m * _RING_SLACK > best_cost:
                break
            for k in _ring(cells, rows, cols, qi, qj, r):
                c = dist(here, positions[k])
                if best_k < 0 or c < best_cost or (c == best_cost and k < best_k):
                    best_cost = c
                    best_k = k
        routes[agent.id].append(order[best_k])
        visit_sequence.append(order[best_k])
        ends[agent.id] = positions[best_k]
        i, j = cell_of(positions[best_k])
        cells[i * cols + j].remove(best_k)
    return RoutePlan(routes=routes, homes=homes, visit_sequence=visit_sequence)


def route_length(home: GeoPoint, route: Sequence[Waypoint]) -> float:
    """Metres flown home -> route[0] -> ... -> route[-1]."""
    total = 0.0
    here = home
    for wp in route:
        total += distance_m(here, wp.point)
        here = wp.point
    return total


def makespan(plan: RoutePlan, agents: Sequence[Agent]) -> float:
    """Longest per-agent completion time, all agents launching at once.

    Per agent: (home-to-first leg plus consecutive legs) / velocity.
    """
    _check_fleet(agents, plan)
    by_id = {a.id: a for a in agents}
    worst = 0.0
    for aid, route in plan.routes.items():
        agent = by_id[aid]
        duration = route_length(agent.home, route) / agent.velocity_mps
        if duration > worst:
            worst = duration
    return worst


def _path_rows(first: list[float], pair: list[list[float]]) -> list[list[float] | None]:
    """Open-path subset DP over ``m = len(first)`` points.

    ``rows[s][k]`` is the cheapest path that starts with the leg ``first[k0]``
    into some point ``k0``, visits exactly the points of bit set ``s`` and ends
    at ``k``, its legs (``pair[j][k]`` from j to k) added left to right; a
    point outside ``s`` holds ``inf``, so each entry is one C-level
    reduction, ``min(map(add, rows[s ^ (1 << k)], cols[k]))``. ``rows[0]``
    is None. Float addition is monotone, so taking the minimum before adding
    the next leg gives the same float as minimising over every order.
    """
    m = len(first)
    inf = math.inf
    cols = [list(col) for col in zip(*pair)]
    bits = [(k, 1 << k) for k in range(m)]
    rows: list[list[float] | None] = [None] * (1 << m)
    for k, b in bits:
        row = [inf] * m
        row[k] = first[k]
        rows[b] = row
    for s in range(3, 1 << m):
        if s & (s - 1):
            rows[s] = [min(map(add, rows[s ^ b], cols[k])) if s & b else inf for k, b in bits]
    return rows


def tsp_optimal(points) -> float:
    """Exact minimum Hamiltonian tour length in metres via Held-Karp.

    The tour is anchored at point 0; ``_path_rows`` keeps one row of n - 1
    floats per subset of the other points. Limited to HELD_KARP_MAX_POINTS.
    """
    pts = [w.point for w in _as_waypoints(points)]
    n = len(pts)
    if n > HELD_KARP_MAX_POINTS:
        raise ValueError(
            f"tsp_optimal supports at most {HELD_KARP_MAX_POINTS} points, got {n}; "
            "instances above HELD_KARP_MAX_POINTS have no exact reference"
        )
    if n <= 1:
        return 0.0

    c = [[distance_m(a, b) for b in pts] for a in pts]
    full = _path_rows(c[0][1:], [row[1:] for row in c[1:]])[-1]
    return min(map(add, full, [row[0] for row in c[1:]]))


def mtsp_lower_bound(points, n_agents: int) -> float:
    """Optimal single-agent tour cost divided by the agent count, in metres.

    It ignores the legs from the agents' homes, so it is not a proven lower
    bound on the makespan.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    return tsp_optimal(points) / n_agents


def _covers(rest: int, parts: int):
    """Every split of bit set ``rest`` into ``parts`` disjoint masks, as tuples."""
    if parts == 1:
        yield (rest,)
        return
    sub = rest
    while True:
        for tail in _covers(rest ^ sub, parts - 1):
            yield (sub, *tail)
        if not sub:
            return
        sub = (sub - 1) & rest


def _cheapest_order(rows: list[list[float] | None], pair: list[list[float]], s: int) -> list[int]:
    """A visit order of bit set ``s`` whose left-to-right cost is ``min(rows[s])``.

    Walking back, each step takes the first point whose row entry plus the
    leg reproduces the stored value exactly, so the order costs that float.
    """
    if not s:
        return []
    members = [k for k in range(len(pair)) if s >> k & 1]
    k = min(members, key=rows[s].__getitem__)
    order = [k]
    while s & (s - 1):
        value = rows[s][k]
        s ^= 1 << k
        prev = rows[s]
        k = next(j for j in members if s >> j & 1 and prev[j] + pair[j][k] == value)
        order.append(k)
    order.reverse()
    return order


def brute_force_mtsp(points, agents: Sequence[Agent]):
    """Exact min-makespan reference, agents starting from their homes.

    For each agent an open-path subset DP (``_path_rows``) gives the cheapest
    path from its home over every subset of the points; every assignment of
    the points to the agents, as disjoint subset masks, is then scored by its
    slowest agent. The value is the float that enumerating every visiting
    order gives; on ties the partition may be another optimal one.

    Returns ``(makespan_seconds, partition)`` where partition maps agent id to
    its optimally ordered Waypoint list. Limited to ORACLE_MAX_POINTS points
    and ORACLE_MAX_AGENTS agents.
    """
    agents = list(agents)
    _check_fleet(agents)
    wps = _as_waypoints(points)
    n = len(wps)
    if n > ORACLE_MAX_POINTS or len(agents) > ORACLE_MAX_AGENTS:
        raise ValueError(
            f"instance too large for the exhaustive oracle "
            f"(max {ORACLE_MAX_POINTS} points, {ORACLE_MAX_AGENTS} agents)"
        )
    positions = [w.point for w in wps]
    home_cost = [[distance_m(a.home, p) for p in positions] for a in agents]
    pair_cost = [[distance_m(p, q) for q in positions] for p in positions]

    tables = [_path_rows(first, pair_cost) for first in home_cost]
    durations = [
        [0.0] + [min(rows[s]) / a.velocity_mps for s in range(1, 1 << n)] for a, rows in zip(agents, tables)
    ]

    def slowest(cover: tuple[int, ...]) -> float:
        return max(0.0, *map(list.__getitem__, durations, cover))

    cover = min(_covers((1 << n) - 1, len(agents)), key=slowest)
    partition = {
        a.id: [wps[k] for k in _cheapest_order(rows, pair_cost, s)] for a, rows, s in zip(agents, tables, cover)
    }
    return slowest(cover), partition
