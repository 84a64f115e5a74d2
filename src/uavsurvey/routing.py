"""Route assignment and evaluation for a survey fleet.

``plan_routes`` implements round-robin nearest-neighbor assignment: agents
take turns claiming the nearest unvisited waypoint to the end of their route
so far. The remaining operations are desk-scale evaluation tools:
exact TSP by Held-Karp, an exact min-makespan oracle (both subset dynamic
programs), and the optimal-tour / n figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .geodesy import METERS_PER_DEG_LAT, GeoPoint, distance_m
from .grid import Waypoint

# Held-Karp makes a dict entry per path over the n - 1 other points that
# can still close within its budget, at most (n - 1) * 2^(n - 2), but holds
# only two layers of set sizes at a time. At n = 18 (tracemalloc peak, one
# tsp_optimal, CPython 3.11 on a 2-core x86 VM): on coincident points
# nothing prunes, 17 MB and 2.0 s; on points in a line about a fifth of the
# entries live, 9.6 MB and 1.0 s. Larger instances have no exact reference.
HELD_KARP_MAX_POINTS = 18
ORACLE_MAX_POINTS = 8
ORACLE_MAX_AGENTS = 3


@dataclass(frozen=True)
class Agent:
    """A survey drone: unique non-empty ``str`` id, launch point, constant cruise speed."""

    id: str
    home: GeoPoint
    velocity_mps: float

    def __post_init__(self) -> None:
        if type(self.id) is not str:
            raise ValueError(f"agent id must be a string, got {self.id!r}")
        if not self.id:
            raise ValueError("agent id must be non-empty")
        if not (math.isfinite(self.velocity_mps) and self.velocity_mps > 0.0):
            raise ValueError(f"velocity_mps must be positive and finite, got {self.velocity_mps}")


@dataclass
class RoutePlan:
    """Ordered per-agent waypoint sequences forming a partition of the input set.

    Routes exclude the launch point; each agent's home is read from the fleet.
    """

    routes: dict[str, list[Waypoint]]


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


# Pruning bounds are scaled by this: the ring lower bound is multiplied by
# it, the Held-Karp budget divided by it, and a 2-opt move must save this
# factor. Rounding in the cell indices, in distance_m and in sums of a few
# dozen legs is orders of magnitude below 1e-9 relative.
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
    points span 180 degrees of longitude or more, everything goes into one
    cell. For a box H x W metres, c = ``cell_m`` is at least max(H, W) / n
    and sqrt(1.25 * H * W / n), so rows * cols <= (H/c + 1)(W/c + 1) <= 1.8n + 1.8.
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
    # About 1.25 waypoints per cell of the bounding box; a line-like extent
    # falls back to n cells along its length.
    cell_m = max(math.sqrt(1.25 * height_m * width_m / n), max(height_m, width_m) / n)
    if not cell_m > 0.0:
        return _ONE_CELL
    dlat = cell_m / METERS_PER_DEG_LAT
    dlon = cell_m / (METERS_PER_DEG_LAT * cos_min)
    rows = int((max(lats) - lat0) / dlat) + 1
    cols = int(lon_span / dlon) + 1
    return cell_m, lat0, lon0, dlat, dlon, rows, cols


def plan_routes(agents: Sequence[Agent], waypoints: Sequence[Waypoint]) -> RoutePlan:
    """Assign every waypoint to exactly one agent by round-robin nearest neighbor.

    Each agent's path is seeded at its home. On its turn an agent claims the
    unvisited waypoint nearest (``distance_m``) to its current path end, then
    the turn passes to the next agent. Routes hold the caller's Waypoints. The
    claim is the smallest ``(distance, lattice index)``: what a scan over the
    remaining waypoints in index order picks, keeping the first strict minimum.

    The remaining waypoints are bucketed on a lat/lon grid of about 1.25 per
    cell, which makes a cell wider than the spacing of any lattice of 11 or
    more rows and columns. A claim gathers rings of cells outward from the
    cell of the path end, one list per ring, and stops when the next ring
    cannot hold a waypoint as near as the best so far; while a lattice
    neighbour of the path end is free, that is after ring 1. The claimed
    waypoint leaves its cell. On the campus lattice scaled 1x to 16x a claim
    makes 6-8 distance evaluations, so planning n waypoints takes close to
    O(n) time against O(n^2) for the scan. Sparse or clustered layouts visit
    more empty cells, never more than the grid's 1.8n + 1.8 at most.

    Every waypoint goes into one cell, and the search is that scan, when the
    waypoints and homes span 180 degrees of longitude or more, or when they
    all share one latitude/longitude. The plan holds routes only: each home
    stays on its ``Agent``.
    """
    agents = list(agents)
    _check_fleet(agents)

    order = sorted(waypoints, key=lambda w: w.index)
    positions = [w.point for w in order]
    seen: set[tuple[float, float, float]] = set()
    for p in positions:
        key = (p.lat_deg, p.lon_deg, p.alt_m)
        if key in seen:
            raise ValueError(f"duplicate waypoint at {key}; each point must be visited exactly once")
        seen.add(key)

    cell_m, lat0, lon0, dlat, dlon, rows, cols = _cell_layout(positions + [a.home for a in agents], len(positions))

    def cell_of(p: GeoPoint) -> tuple[int, int]:
        return int((p.lat_deg - lat0) / dlat), int((p.lon_deg - lon0) / dlon)

    where = [cell_of(p) for p in positions]
    cells: list[list[int]] = [[] for _ in range(rows * cols)]
    for k, (i, j) in enumerate(where):
        cells[i * cols + j].append(k)  # ascending k within every cell

    routes: dict[str, list[Waypoint]] = {a.id: [] for a in agents}
    # An agent's path end and its cell.
    ends = {a.id: (a.home, *cell_of(a.home)) for a in agents}
    dist = distance_m
    n = len(positions)
    for turn in range(len(order)):
        aid = agents[turn % len(agents)].id
        here, qi, qj = ends[aid]
        last_ring = max(qi, rows - 1 - qi, qj, cols - 1 - qj)
        # (inf, n) loses to every candidate, even one at an overflowed distance.
        best_k = n
        best_cost = math.inf
        for r in range(last_ring + 1):
            if (r - 1) * cell_m * _RING_SLACK > best_cost:
                break
            if r == 0:
                ring = cells[qi * cols + qj]
            else:
                # The cells at Chebyshev distance r from (qi, qj): row slices
                # above and below, then column steps left and right.
                ring = []
                lo, hi = max(qj - r, 0), min(qj + r, cols - 1)
                for row in (qi - r, qi + r):
                    if 0 <= row < rows:
                        for cell in cells[row * cols + lo: row * cols + hi + 1]:
                            ring += cell
                top, bottom = max(qi - r + 1, 0), min(qi + r, rows)
                for col in (qj - r, qj + r):
                    if 0 <= col < cols:
                        for cell in cells[top * cols + col: bottom * cols + col: cols]:
                            ring += cell
            for k in ring:
                c = dist(here, positions[k])
                if c < best_cost or (c == best_cost and k < best_k):
                    best_cost = c
                    best_k = k
        routes[aid].append(order[best_k])
        i, j = where[best_k]
        ends[aid] = (positions[best_k], i, j)
        cells[i * cols + j].remove(best_k)
    return RoutePlan(routes=routes)


def route_length(home: GeoPoint, route: Sequence[Waypoint]) -> float:
    """Metres flown home -> route[0] -> ... -> route[-1]."""
    total = 0.0
    here = home
    for wp in route:
        total += distance_m(here, wp.point)
        here = wp.point
    return total


def makespan(plan: RoutePlan, agents: Sequence[Agent]) -> float:
    """Longest per-agent flight time, all agents launching at once.

    Per agent: (home-to-first leg plus consecutive legs) / velocity, without
    dwell: the makespan the CLI prints, not the last ``route_complete`` time.
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


def _path_rows(
    first: list[float], pair: list[list[float]], budget: float = math.inf
) -> Iterator[tuple[int, dict[int, float]]]:
    """Open-path subset DP over ``m = len(first)`` points, one row at a time.

    Yields ``(s, row)`` for every bit set ``s`` with a live entry, smaller
    sets first. ``row[k]`` is the cheapest path that starts with the leg
    ``first[k0]`` into some point ``k0``, visits exactly the points of ``s``
    and ends at ``k``, its legs (``pair[j][k]`` from j to k) added left to
    right; a row is a dict of its live entries. Each entry ``(s, j, v)``
    offers ``v + pair[j][k]`` to the entry ``(s | 1 << k, k)`` for every k
    outside ``s``, which keeps the smallest offer. Float addition is
    monotone, so taking the minimum before adding the next leg gives the same
    float as minimising over every order.

    Every offer into ``(t, k)`` comes from the one row ``t ^ 1 << k``, in the
    layer of sets one point smaller, so the order of the rows within a layer
    changes no value. The kernel holds only the layer being read and the one
    being built, and lets go of a row once it has made that row's offers.

    A ``budget`` bounds closed tours that go back to the start by the legs in
    ``first``: the legs back must equal them. An entry is kept only if its
    value plus each of two floors on the rest of the tour is within it:

    - the cheapest legs into the points outside ``s``, a point's being its
      cheapest leg from another point, plus the cheapest leg back;
    - the shortest path from ``k`` back to the start through the farthest
      point outside ``s``, or straight back when none is left. Paths are
      measured in ``D``, the Floyd-Warshall closure of the legs.

    A real rest of the tour is never shorter, with no triangle inequality
    needed. An entry over its limit only offers entries over theirs, so
    every entry that can end within the budget is kept, with its value, and
    offers over a limit are not stored.
    """
    m = len(first)
    inf = math.inf
    bits = [(k, 1 << k) for k in range(m)]
    bounded = budget < inf
    if bounded:
        floors = [min([row[k] for row in pair[:k] + pair[k + 1:]], default=0.0) for k in range(m)]
        # The first limit of s, budget - (the floors of the points outside s
        # and of the leg back), is base + low[s & mask] + high[s >> half]:
        # subset sums of the floors of the low and the high half of the points.
        half = m // 2
        low, high = [0.0], [0.0]
        for k, floor in enumerate(floors):
            sums = low if k < half else high
            sums += [x + floor for x in sums]
        base = budget - min(first, default=0.0) - sum(floors)
        mask = (1 << half) - 1
        # D over the points and the start, which is point m.
        dist = [row + [leg] for row, leg in zip(pair, first)] + [first + [0.0]]
        for w, via in enumerate(dist):
            for row in dist:
                row[:] = [min(x, row[w] + y) for x, y in zip(row, via)]
        # tails[k]: (D[k][t] + D[t][start], bit of t), farthest first, then
        # (D[k][start], 0), which every bit set leaves outside.
        tails = [
            sorted([(dist[k][t] + dist[t][m], 1 << t) for t in range(m) if t != k], reverse=True) + [(dist[k][m], 0)]
            for k in range(m)
        ]

    def targets(s: int) -> list[tuple[int, int, float]]:
        """``(k, s | 1 << k, the largest value entry (s | 1 << k, k) keeps)``
        for every k outside ``s``."""
        out = []
        for k, b in bits:
            if not s & b:
                t = s | b
                if bounded:
                    for tail, c in tails[k]:
                        if not t & c:
                            break
                    limit = base + low[t & mask] + high[t >> half]
                    if budget - tail < limit:
                        limit = budget - tail
                    out.append((k, t, limit))
                else:
                    out.append((k, t, inf))
        return out

    # One slot per bit set, so an offer finds its row by index; a slot holds
    # a row only while its set is in the layer being read or being built.
    rows: list[dict[int, float] | None] = [None] * (1 << m)
    layer = []
    for k, t, limit in targets(0):
        if first[k] <= limit:
            rows[t] = {k: first[k]}
            layer.append(t)
    while layer:
        built = []
        for s in layer:
            row = rows[s]
            rows[s] = None
            yield s, row
            out = targets(s)
            for j, v in row.items():
                legs = pair[j]
                for k, t, limit in out:
                    offer = v + legs[k]
                    if offer <= limit:
                        target = rows[t]
                        if target is None:
                            rows[t] = {k: offer}
                            built.append(t)
                        elif offer < target.get(k, inf):
                            target[k] = offer
        layer = built


def tsp_optimal(points: Sequence[Waypoint]) -> float:
    """Exact minimum Hamiltonian tour length in metres via Held-Karp.

    The tour is anchored at point 0; ``_path_rows`` keeps the paths over
    the other points that can still close within a budget from one real
    tour: nearest neighbour from point 0, improved by 2-opt. That tour's
    legs summed left to right are one of the sums the DP minimises, so the
    optimal tour stays within the budget, and the last row the kernel yields
    is the full set; only that row is kept. ``distance_m`` is symmetric bit
    for bit, so the legs back to point 0 equal the legs out. Limited to
    HELD_KARP_MAX_POINTS.
    """
    pts = [w.point for w in points]
    n = len(pts)
    if n > HELD_KARP_MAX_POINTS:
        raise ValueError(
            f"tsp_optimal supports at most {HELD_KARP_MAX_POINTS} points, got {n}; "
            "instances above HELD_KARP_MAX_POINTS have no exact reference"
        )
    if n <= 1:
        return 0.0

    c = [[distance_m(a, b) for b in pts] for a in pts]
    tour = [0]
    left = list(range(1, n))
    while left:
        tour.append(min(left, key=c[tour[-1]].__getitem__))
        left.remove(tour[-1])
    tour.append(0)
    # A move must shorten its two legs by more than rounding. Legs are
    # symmetric, so the reversed stretch keeps its length, the exact tour
    # length strictly falls and no tour repeats: 2-opt ends.
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b, d, e = tour[i - 1], tour[i], tour[j], tour[j + 1]
                if c[a][d] + c[b][e] < (c[a][b] + c[d][e]) * _RING_SLACK:
                    tour[i:j + 1] = tour[j:i - 1:-1]
                    improved = True
    length = 0.0
    for a, b in zip(tour, tour[1:]):
        length += c[a][b]
    closing = [row[0] for row in c[1:]]
    for _, full in _path_rows(c[0][1:], [row[1:] for row in c[1:]], length / _RING_SLACK):
        pass
    return min([v + closing[k] for k, v in full.items()])


def mtsp_lower_bound(points: Sequence[Waypoint], n_agents: int) -> float:
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


def _cheapest_order(rows: dict[int, dict[int, float]], pair: list[list[float]], s: int) -> list[int]:
    """A visit order of bit set ``s`` whose left-to-right cost is the least
    entry of ``rows[s]``, a row of the unbounded DP.

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


def brute_force_mtsp(points: Sequence[Waypoint], agents: Sequence[Agent]):
    """Exact min-makespan reference, agents starting from their homes.

    For each agent an open-path subset DP (``_path_rows``) gives the cheapest
    path from its home over every subset of the points, kept as a dict of
    rows by bit set; every assignment of the points to the agents, as
    disjoint subset masks, is then scored by its slowest agent. The value is
    the float that enumerating every visiting order gives; on ties the
    partition may be another optimal one.

    Returns ``(makespan_seconds, partition)`` where partition maps agent id to
    its optimally ordered Waypoint list. Limited to ORACLE_MAX_POINTS points
    and ORACLE_MAX_AGENTS agents.
    """
    agents = list(agents)
    _check_fleet(agents)
    n = len(points)
    if n > ORACLE_MAX_POINTS or len(agents) > ORACLE_MAX_AGENTS:
        raise ValueError(
            f"instance too large for the exhaustive oracle "
            f"(max {ORACLE_MAX_POINTS} points, {ORACLE_MAX_AGENTS} agents)"
        )
    positions = [w.point for w in points]
    home_cost = [[distance_m(a.home, p) for p in positions] for a in agents]
    pair_cost = [[distance_m(p, q) for q in positions] for p in positions]

    tables = [dict(_path_rows(first, pair_cost)) for first in home_cost]
    durations = [
        [0.0] + [min(rows[s].values()) / a.velocity_mps for s in range(1, 1 << n)] for a, rows in zip(agents, tables)
    ]

    def slowest(cover: tuple[int, ...]) -> float:
        return max(0.0, *map(list.__getitem__, durations, cover))

    cover = min(_covers((1 << n) - 1, len(agents)), key=slowest)
    partition = {
        a.id: [points[k] for k in _cheapest_order(rows, pair_cost, s)] for a, rows, s in zip(agents, tables, cover)
    }
    return slowest(cover), partition
