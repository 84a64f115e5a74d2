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
from operator import attrgetter
from typing import Iterator, Sequence

from .geodesy import METERS_PER_DEG_LAT, GeoPoint, _check_number, _check_point, _shown, _utf8_error, distance_m
from .grid import Waypoint

# Held-Karp makes a dict entry per path over the n - 1 other points that
# can still close within its budget, at most (n - 1) * 2^(n - 2), but holds
# only two layers of set sizes at a time. At n = 18 (one tsp_optimal, CPU
# best of 3 and tracemalloc peak, Python 3.11.7 on a 2-core x86 VM): on
# coincident points nothing prunes, 1.3 s and 17 MB; on a line at 20 m
# spacing about a fifth of the entries live, 0.50 s and 9.6 MB. Larger
# instances have no exact reference.
HELD_KARP_MAX_POINTS = 18
ORACLE_MAX_POINTS = 8
ORACLE_MAX_AGENTS = 3


@dataclass(frozen=True)
class Agent:
    """A survey drone: unique non-empty ``str`` id with a UTF-8 encoding, launch point, constant cruise speed."""

    id: str
    home: GeoPoint
    velocity_mps: float

    def __post_init__(self) -> None:
        if type(self.id) is not str:
            raise ValueError(f"agent id must be a string, got {_shown(self.id, repr)}")
        if not self.id:
            raise ValueError("agent id must be non-empty")
        if _utf8_error(self.id):
            raise ValueError(f"agent id: {_utf8_error(self.id)}")
        _check_point("home", self.home)
        _check_number("velocity_mps", self.velocity_mps, "be positive and finite", lambda v: v > 0.0)


def _check_fleet(agents: Sequence[Agent], plan: dict[str, list[Waypoint]] | None = None) -> dict[str, Agent]:
    """The fleet rules: at least one agent, unique ids and, given a plan (agent
    id -> that agent's ordered Waypoints, home excluded), no route of an
    agent outside the fleet. Returns the fleet by id."""
    if not agents:
        raise ValueError("fleet must have at least one agent")
    by_id = {a.id: a for a in agents}
    if len(by_id) != len(agents):
        raise ValueError("agent ids must be unique within the fleet")
    if plan is not None:
        unknown = [aid for aid in plan if aid not in by_id]
        if unknown:
            raise ValueError(f"plan references agents not in the fleet: {unknown}")
    return by_id


# Pruning bounds are scaled by this: the ring lower bound is multiplied by
# it, the Held-Karp budget divided by it, and a 2-opt move must save this
# factor. Rounding in the cell indices, in distance_m and in sums of a few
# dozen legs is orders of magnitude below 1e-9 relative.
_RING_SLACK = 1.0 - 1e-9


def _cell_layout(lats: list[float], lons: list[float]):
    """Cell grid for exact nearest queries among the waypoints at ``lats``
    and ``lons``: ``(cell_m, lat0, lon0, dlat, dlon, rows, cols)``.

    A cell is ``cell_m`` tall and ``cell_m`` wide at the largest |latitude|
    of the waypoints. ``distance_m`` between two of them scales longitude by
    cos(midpoint latitude), which is never smaller, and the vertical term
    only adds; they span S < 180 degrees east of ``lon0``, so no leg between
    two of them wraps. A point ``r`` cell rings from another is therefore at
    least ``(r - 1) * cell_m`` away. Fewer than two points, no extent or
    S >= 180 give ``cell_m`` = inf: one cell, the scan. For a box H x W
    metres, c = ``cell_m`` is at least max(H, W) / n and
    sqrt(1.25 * H * W / n), so rows * cols <= (H/c + 1)(W/c + 1) <= 1.8n + 1.8.
    """
    n = len(lats)
    cos_min = math.cos(math.radians(max(map(abs, lats), default=0.0)))
    lat0 = min(lats, default=0.0)
    lon0 = min(lons, default=0.0)
    lat_span = max(lats, default=0.0) - lat0
    lon_span = max(lons, default=0.0) - lon0
    height_m = lat_span * METERS_PER_DEG_LAT
    width_m = lon_span * METERS_PER_DEG_LAT * cos_min
    cell_m = math.inf
    if n > 1 and lon_span < 180.0:
        # About 1.25 waypoints per cell of the bounding box; a line-like extent
        # falls back to n cells along its length. Bucketed search is cheapest
        # near one per cell (Bentley, Weide and Yao, ACM TOMS 6(4), 1980), but
        # at one a full lattice's cells fall below its spacing.
        cell_m = max(math.sqrt(1.25 * height_m * width_m / n), max(height_m, width_m) / n) or math.inf
    dlat = cell_m / METERS_PER_DEG_LAT
    dlon = cell_m / (METERS_PER_DEG_LAT * cos_min)
    rows = int(lat_span / dlat) + 1
    cols = int(lon_span / dlon) + 1
    return cell_m, lat0, lon0, dlat, dlon, rows, cols


def _nearest(
    ring: list[int], here: GeoPoint, positions: list[GeoPoint], lats: list[float], best_cost: float, best_k: int,
) -> tuple[float, int]:
    """The smallest ``(distance, k)`` over the waypoints ``k`` of ``ring`` and
    the best so far, measured from the path end ``here``. Every distance it
    measures is ``distance_m(here, positions[k])``.

    A waypoint whose north offset alone exceeds the best distance so far is
    skipped unmeasured: the offset is ``distance_m``'s own north term, and
    ``math.hypot`` is faithfully rounded (Python 3.10 and later), so it never
    returns less than the magnitude of an argument, and that waypoint's
    distance would be larger still. The test is strict, so a tie on the
    distance is still measured and broken by ``k``.
    """
    lat = here.lat_deg
    for k in ring:
        north = (lats[k] - lat) * METERS_PER_DEG_LAT
        if north > best_cost or -north > best_cost:
            continue
        c = distance_m(here, positions[k])
        if c < best_cost or (c == best_cost and k < best_k):
            best_cost = c
            best_k = k
    return best_cost, best_k


def _ring(cells: list[list[int]], rows: int, cols: int, qi: int, west: int, east: int, r: int) -> list[int]:
    """The waypoints of the cells at Chebyshev distance ``r`` >= 1 from the
    cells ``(qi, west .. east)``: row slices above and below, then column
    steps left and right."""
    ring = []
    lo, hi = max(west - r, 0), min(east + r, cols - 1)
    for row in (qi - r, qi + r):
        if 0 <= row < rows:
            for cell in cells[row * cols + lo: row * cols + hi + 1]:
                ring += cell
    top, bottom = max(qi - r + 1, 0), min(qi + r, rows)
    for col in (west - r, east + r):
        if 0 <= col < cols:
            for cell in cells[top * cols + col: bottom * cols + col: cols]:
                ring += cell
    return ring


def plan_routes(agents: Sequence[Agent], waypoints: Sequence[Waypoint]) -> dict[str, list[Waypoint]]:
    """Assign every waypoint to exactly one agent by round-robin nearest neighbor.

    Each agent's path is seeded at its home. On its turn an agent claims the
    unvisited waypoint nearest (``distance_m``) to its current path end, then
    the turn passes to the next agent. Routes hold the caller's Waypoints. The
    claim is the smallest ``(distance, lattice index)``: what a scan over the
    remaining waypoints in index order picks, keeping the first strict minimum.

    The remaining waypoints are bucketed on a lat/lon grid of about 1.25 per
    cell, which makes a cell wider than the spacing of any lattice of 11 or
    more rows and columns (a polygon's mask only widens it). A claim first
    measures the 3 x 3 block of cells around the cell of the path end
    (rings 0 and 1: ring 1 is always measured), then gathers rings of cells
    further out, one list per ring, and stops when the next ring cannot
    hold a waypoint as near as the best so far; while a lattice neighbour
    of the path end is free, that is after the block. ``_nearest`` measures each list, skipping a waypoint whose
    north offset alone rules it out; the block lists the path end's own row
    first. The claimed waypoint leaves its cell. On the campus lattice
    scaled 1x to 16x a claim gathers 6-8 waypoints and measures 2.2-2.5 of
    them, so planning n waypoints takes close to O(n) time against O(n^2)
    for the scan. Sparse or clustered layouts visit more empty
    cells, never more than the grid's 1.8n + 1.8 at most.

    The waypoints alone lay the cells out (``_cell_layout``). A home is
    queried once, for its agent's first claim, from its row clamped onto the
    grid across every column, so its block and rings are whole rows. A
    waypoint ``r`` rows from that row is at least ``(r - 1) * cell_m`` north
    or south of the home, which ``distance_m``'s hypot never undercuts: the
    stop test holds whatever the home's latitude or longitude, and no home
    is placed in a column. Every waypoint goes into one cell, and the search
    is that scan, when there are fewer than two, they span 180 degrees of
    longitude or more, or all share one latitude/longitude. The plan is the
    routes, keyed by agent id in fleet order; each home stays on its
    ``Agent``.
    """
    agents = list(agents)
    _check_fleet(agents)

    order = sorted(waypoints, key=attrgetter("index"))
    positions = [w.point for w in order]
    lats = [p.lat_deg for p in positions]
    lons = [p.lon_deg for p in positions]
    alts = [p.alt_m for p in positions]
    n = len(positions)
    if len(set(zip(lats, lons, alts))) != n:
        seen: set[tuple[float, float, float]] = set()
        for key in zip(lats, lons, alts):
            if key in seen:
                raise ValueError(f"duplicate waypoint at {key}; each point must be visited exactly once")
            seen.add(key)

    cell_m, lat0, lon0, dlat, dlon, rows, cols = _cell_layout(lats, lons)
    where = [(int((lat - lat0) / dlat), int((lon - lon0) / dlon)) for lat, lon in zip(lats, lons)]
    cells: list[list[int]] = [[] for _ in range(rows * cols)]
    for k, (i, j) in enumerate(where):
        cells[i * cols + j].append(k)  # ascending k within every cell

    routes: dict[str, list[Waypoint]] = {a.id: [] for a in agents}
    # Per row, the first cell of each row of its 3 x 3 block, its own row
    # first so that _nearest finds a near best before it skips by north gap;
    # per column, a query from it: its first and last column, then its
    # block's column bounds, clipped to the grid. A home's query spans every
    # column.
    block_rows = [[r * cols for r in (i, i - 1, i + 1) if 0 <= r < rows] for i in range(rows)]
    block_cols = [(j, j, max(j - 1, 0), min(j + 2, cols)) for j in range(cols)]
    # An agent's path end, its row and its columns.
    ends = {}
    for a in agents:
        qi = min(max(int((a.home.lat_deg - lat0) / dlat), 0), rows - 1)
        ends[a.id] = (a.home, qi, (0, cols - 1, 0, cols))
    nearest = _nearest
    ids = [a.id for a in agents]
    # Ring 2's stop test, (2 - 1) * cell_m * _RING_SLACK > best, ends most
    # claims after the block.
    ring_2 = cell_m * _RING_SLACK
    for turn in range(n):
        aid = ids[turn % len(ids)]
        here, qi, (west, east, lo, hi) = ends[aid]
        # Rings 0 and 1 as one block of row slices: ring 1's stop test,
        # 0 * cell_m > best, never fires.
        block = []
        for row in block_rows[qi]:
            for cell in cells[row + lo: row + hi]:
                block += cell
        # (inf, n) loses to every candidate, even one at an overflowed distance.
        best_cost, best_k = nearest(block, here, positions, lats, math.inf, n)
        if not ring_2 > best_cost:
            for r in range(2, max(qi, rows - 1 - qi, west, cols - 1 - east) + 1):
                if (r - 1) * cell_m * _RING_SLACK > best_cost:
                    break
                ring = _ring(cells, rows, cols, qi, west, east, r)
                best_cost, best_k = nearest(ring, here, positions, lats, best_cost, best_k)
        routes[aid].append(order[best_k])
        i, j = where[best_k]
        ends[aid] = (positions[best_k], i, block_cols[j])
        cells[i * cols + j].remove(best_k)
    return routes


def route_length(home: GeoPoint, route: Sequence[Waypoint]) -> float:
    """Metres flown home -> route[0] -> ... -> route[-1].

    Any route is measured as it would be flown, a waypoint routed twice
    included.

    The legs are added left to right with ``+=``: ``sum()`` of floats is
    compensated from Python 3.12 on and would give other bits there.
    """
    total = 0.0
    previous = home
    for wp in route:
        total += distance_m(previous, wp.point)
        previous = wp.point
    return total


def makespan(plan: dict[str, list[Waypoint]], agents: Sequence[Agent]) -> float:
    """Longest per-agent flight time, all agents launching at once.

    Per agent: (home-to-first leg plus consecutive legs) / velocity, without
    dwell: the makespan the CLI prints, not the last ``route_complete`` time.
    Any plan is evaluated as it would be flown, a waypoint routed twice
    included; ``simulate`` and ``export_geojson`` refuse such a plan.
    """
    by_id = _check_fleet(agents, plan)
    worst = 0.0
    for aid, route in plan.items():
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
    float as minimising over every order. ``GeoPoint`` refuses NaN, so no
    leg is NaN and no minimum depends on the order of its arguments.

    Every offer into ``(t, k)`` comes from the one row ``t ^ 1 << k``, in the
    layer of sets one point smaller (Held and Karp, J. SIAM 10(1), 1962), so
    the order of the rows within a layer changes no value. The kernel holds
    only the layer being read and the one being built, and lets go of a row
    once it has made that row's offers.

    A ``budget`` bounds closed tours that go back to the start by the legs in
    ``first``: the legs back must equal them. An entry is kept only if its
    value plus each of two floors on the rest of the tour is within it:

    - the shortest leg between two points once per point outside ``s``,
      each still to be entered from another point, plus the cheapest leg back;
    - the shortest path from ``k`` back to the start through the farthest
      point outside ``s``, or straight back when none is left. Paths are
      measured in ``D``, the Floyd-Warshall closure of the legs.

    A real rest of the tour is never shorter, with no triangle inequality
    needed. One point fewer outside lowers the first floor by the shortest
    leg, which no leg undercuts, so an entry over its limit only offers
    entries over theirs: every entry that can end within the budget is
    kept, with its value, and offers over a limit are not stored.
    """
    m = len(first)
    inf = math.inf
    bits = [(k, 1 << k) for k in range(m)]
    # by_size[j]: the first limit of a set with j points outside it.
    # tails[k]: (budget - (D[k][t] + D[t][start]), bit of t), smallest first,
    # then (budget - D[k][start], 0), which every bit set leaves outside.
    by_size, tails = [inf] * (m + 1), [[(inf, 0)]] * m
    if budget < inf:
        shortest = min([x for j, row in enumerate(pair) for x in row[:j] + row[j + 1:]], default=0.0)
        by_size = [budget - min(first, default=0.0) - j * shortest for j in range(m + 1)]
        # D over the points and the start, which is point m.
        dist = [row + [leg] for row, leg in zip(pair, first)] + [first + [0.0]]
        for w, via in enumerate(dist):
            for row in dist:
                row[:] = [min(x, row[w] + y) for x, y in zip(row, via)]
        tails = [sorted([(budget - (row[t] + dist[t][m]), 1 << t) for t in range(m) if t != k]) + [(budget - row[m], 0)]
                 for k, row in enumerate(dist[:m])]

    def targets(s: int) -> list[tuple[int, int, float]]:
        """``(k, s | 1 << k, the largest value entry (s | 1 << k, k) keeps)``
        for every k outside ``s``."""
        cap = by_size[m - 1 - s.bit_count()]
        out = []
        for k, b in bits:
            if not s & b:
                t = s | b
                for limit, c in tails[k]:
                    if not t & c:
                        break
                out.append((k, t, limit if limit < cap else cap))
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
    first = c[0][1:]
    for _, full in _path_rows(first, [row[1:] for row in c[1:]], length / _RING_SLACK):
        pass
    return min([v + first[k] for k, v in full.items()])


def mtsp_lower_bound(points: Sequence[Waypoint], n_agents: int) -> float:
    """Optimal single-agent tour cost divided by the agent count, in metres.

    It ignores the legs from the agents' homes, so it is not a proven lower
    bound on the makespan.
    """
    _check_number("n_agents", n_agents, "be >= 1", lambda v: v >= 1)
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
