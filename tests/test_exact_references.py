"""The subset-DP exact references against the enumerating code they replaced.

``tsp_optimal`` and ``brute_force_mtsp`` add the same operands in the same
left-to-right order as ``loop_tsp_optimal`` and
``permutation_brute_force_mtsp`` in ``helpers``, and float addition is
monotone, so the values must be equal with ``==``, not approximately. On ties
the oracle's partition may be another optimal one than the reference's, so
the partition is checked as an exact cover whose makespan is the value, bit
for bit.

Held-Karp's entries are bounded by a budget from a 2-opt tour; with it,
``tsp_optimal`` must still equal the unbounded DP in ``helpers`` with ``==``,
and every entry the kernel keeps must hold the unbounded value, on the
lattice shapes ``bound_eval`` draws and on random points. The kernel yields
its rows one layer of set sizes at a time, each set once, so ``tsp_optimal``
holds far less than the whole table.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from helpers import (
    lattice_row,
    loop_tsp_optimal,
    permutation_brute_force_mtsp,
    random_points,
    unbounded_path_rows,
    unbounded_tsp_optimal,
)
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    GeoPoint,
    Waypoint,
    NoiseSpec,
    WaypointGrid,
    brute_force_mtsp,
    distance_m,
    export_geojson,
    gps_offset,
    makespan,
    simulate,
    tsp_optimal,
)
from uavsurvey import routing
from uavsurvey.geodesy import meters_per_degree
from uavsurvey.sim import WAYPOINT_REACHED, config_digest

ORIGIN = GeoPoint(47.6, -122.3, 0.0)


def lattice_points(rng: random.Random, n: int) -> list[Waypoint]:
    """``n`` distinct nodes of a 4x4 grid with 10 m spacing: many equal tours."""
    nodes = rng.sample(range(16), n)
    return lattice_row(gps_offset(ORIGIN, EnuOffset(10.0 * (k % 4), 10.0 * (k // 4), 0.0)) for k in nodes)


def instances(seed: int, n: int):
    """One seeded random instance and one tie-heavy lattice instance of ``n`` points."""
    rng = random.Random(seed)
    return [lattice_row(random_points(rng, ORIGIN, n, 300.0)), lattice_points(rng, n)]


def fleet(rng: random.Random, n_agents: int) -> list[Agent]:
    """Agents with their own homes and speeds; the lattice homes can tie."""
    out = []
    for k in range(n_agents):
        home = gps_offset(ORIGIN, EnuOffset(10.0 * rng.randrange(-1, 5), 10.0 * rng.randrange(-1, 5), 0.0))
        out.append(Agent(f"a{k}", home, rng.choice([1.0, 2.0, rng.uniform(1.0, 10.0)])))
    return out


@pytest.mark.parametrize("n", range(13))
def test_held_karp_equals_loop_reference(n):
    for pts in instances(100 + n, n):
        assert tsp_optimal(pts) == loop_tsp_optimal(pts)


def assert_oracle_matches(pts, agents):
    value, partition = brute_force_mtsp(pts, agents)
    ref_value, _ = permutation_brute_force_mtsp(pts, agents)
    assert value == ref_value
    assert list(partition) == [a.id for a in agents]
    # The partition holds the caller's Waypoint objects.
    visited = sorted(id(w) for route in partition.values() for w in route)
    assert visited == sorted(map(id, pts))
    assert makespan(partition, agents) == value


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_oracle_equals_permutation_reference(n, n_agents):
    rng = random.Random(1000 * n + n_agents)
    for pts in instances(300 + 10 * n + n_agents, n):
        assert_oracle_matches(pts, fleet(rng, n_agents))


def test_oracle_partition_is_a_plan():
    """The oracle's partition goes unchanged into every consumer of a plan."""
    rng = random.Random(77)
    pts = lattice_row(random_points(rng, ORIGIN, 7, 300.0, alt_m=32.0))
    agents = fleet(rng, 3)
    value, partition = brute_force_mtsp(pts, agents)
    assert type(partition) is dict and any(partition.values())
    assert makespan(partition, agents) == value
    camera = CameraModel()
    log = simulate(partition, agents, seed=5, camera=camera)
    assert log.config_digest == config_digest(partition, agents, (), NoiseSpec(), 5, camera, 0.0)
    for aid, route in partition.items():
        flown = [e.waypoint for e in log.events if e.agent_id == aid and e.kind == WAYPOINT_REACHED]
        assert len(flown) == len(route) and all(f is w for f, w in zip(flown, route))
    doc = export_geojson(WaypointGrid(10.0, tuple(pts)), partition, agents)
    visits = {}
    for feature in doc["features"]:
        props = feature["properties"]
        if feature["geometry"]["type"] == "Point":
            visits[tuple(props["lattice_index"])] = (props["agent_id"], props["visit_order"])
        else:
            assert props["leg_count"] == len(partition[props["agent_id"]])
    assert visits == {w.index: (aid, k) for aid, route in partition.items() for k, w in enumerate(route, start=1)}


def rectangle(rows: int, cols: int, spacing_m: float, lat_deg: float) -> list[Waypoint]:
    """A rows x cols lattice from its SW corner in row-major order, with fixed
    degree steps: the waypoints of one of ``bound_eval``'s rectangles."""
    m_lat, m_lon = meters_per_degree(lat_deg)
    return [
        Waypoint(GeoPoint(lat_deg + i * spacing_m / m_lat, 20.0 + j * spacing_m / m_lon, 0.0), (i, j))
        for i in range(rows)
        for j in range(cols)
    ]


def legs(waypoints) -> tuple[list[float], list[list[float]], list[float]]:
    """Held-Karp's kernel input: the legs from point 0, between the other
    points, and back to point 0."""
    pts = [w.point for w in waypoints]
    c = [[distance_m(a, b) for b in pts] for a in pts]
    return c[0][1:], [row[1:] for row in c[1:]], [row[0] for row in c[1:]]


def dense(pairs, m: int) -> list:
    """The ``(bit set, row)`` pairs ``_path_rows`` yields as one list
    ``rows[s]`` over all 2^m bit sets, None where no row was yielded.
    No bit set may be yielded twice."""
    rows = [None] * (1 << m)
    for s, row in pairs:
        assert rows[s] is None, s
        rows[s] = row
    return rows


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every ``_path_rows`` call as ``(first, pair, budget, rows)``, with
    ``rows`` rebuilt by ``dense``; the caller gets what the kernel yielded."""
    calls = []
    kernel = routing._path_rows

    def recording(first, pair, budget=math.inf):
        pairs = list(kernel(first, pair, budget))
        calls.append((first, pair, budget, dense(pairs, len(first))))
        return iter(pairs)

    monkeypatch.setattr(routing, "_path_rows", recording)
    return calls


def entries(rows) -> int:
    return sum(len(row) for row in rows if row is not None)


def assert_kept_entries_are_exact(first, pair, rows):
    """Every kept entry is the unbounded DP's value, bit for bit."""
    ref = unbounded_path_rows(first, pair)
    for s, row in enumerate(rows):
        for k, v in (row or {}).items():
            assert s >> k & 1, (s, k)
            assert v == ref[s][k], (s, k)


# bound_eval's shapes: a side of at most 4, n = 9..16, lines both ways.
LATTICES = [(1, 9), (11, 1), (1, 13), (1, 16), (2, 5), (6, 2), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4)]


@pytest.mark.parametrize("rows, cols", LATTICES)
def test_bounded_held_karp_equals_unbounded_on_lattices(rows, cols, kernel_calls):
    """Also a pruning guard: a 2x8 lattice keeps under 10 % of its rows, and
    the row floor keeps 3x4, 4x4 and 6x2 under 10, 25 and 5 % (they read
    0.050, 0.144 and 0.015; with the return-trip floor alone, 0.546, 0.867
    and 0.191). On a line every subset lies on an optimal out-and-back
    tour, so every row keeps an entry. But entry (s, k) lives only if k is
    the last point of s on the way out, or the way back has passed every
    point outside s: a 1x16 line keeps about 1.5 of the m 2^(m - 1) dense
    entries per row."""
    rng = random.Random(rows * 100 + cols)
    pts = rectangle(rows, cols, rng.uniform(5.0, 40.0), rng.uniform(-60.0, 60.0))
    assert tsp_optimal(pts) == unbounded_tsp_optimal(pts)
    (first, pair, _, table), = kernel_calls
    assert_kept_entries_are_exact(first, pair, table)
    live = sum(row is not None for row in table)
    if 1 in (rows, cols):
        assert live == len(table) - 1
    if (rows, cols) == (1, 16):
        m = len(first)
        assert entries(table) <= 0.25 * m * 2 ** (m - 1)
    ceiling = {(2, 8): 0.10, (3, 4): 0.10, (4, 4): 0.25, (6, 2): 0.05}.get((rows, cols))
    if ceiling is not None:
        assert live < ceiling * len(table)


@pytest.mark.parametrize("n", range(9, 17))
def test_bounded_held_karp_equals_unbounded_on_random_points(n, kernel_calls):
    pts = lattice_row(random_points(random.Random(500 + n), ORIGIN, n, 300.0))
    assert tsp_optimal(pts) == unbounded_tsp_optimal(pts)
    (first, pair, _, table), = kernel_calls
    assert_kept_entries_are_exact(first, pair, table)


def test_loose_budget_keeps_the_optimum(kernel_calls):
    """Here 2-opt stops at a tour about 9 % longer than the optimum."""
    pts = lattice_row(random_points(random.Random(31), ORIGIN, 10, 300.0))
    optimum = unbounded_tsp_optimal(pts)
    assert tsp_optimal(pts) == optimum
    (_, _, budget, _), = kernel_calls
    assert budget > 1.05 * optimum


def test_budget_is_the_tour_with_slack(kernel_calls):
    """On a 2x6 lattice 2-opt finds an optimal tour, so the budget is the
    optimum over 1 - 1e-9, to rounding."""
    pts = rectangle(2, 6, 20.0, 45.0)
    optimum = tsp_optimal(pts)
    (_, _, budget, _), = kernel_calls
    assert budget == pytest.approx(optimum / (1.0 - 1e-9), rel=1e-13, abs=0.0)


def test_coincident_points_sit_on_the_budget(kernel_calls):
    """A zero tour: the budget is 0 and every entry equals its limit, so an
    entry at its limit must be kept, and nothing is pruned."""
    assert tsp_optimal(lattice_row([ORIGIN] * 6)) == 0.0
    (first, _, budget, table), = kernel_calls
    m = len(first)
    assert budget == 0.0
    assert entries(table) == m * 2 ** (m - 1)


def test_no_budget_keeps_every_row():
    """Every entry of every row, with the unbounded value."""
    first, pair, _ = legs(lattice_row(random_points(random.Random(7), ORIGIN, 10, 300.0)))
    rows = dense(routing._path_rows(first, pair), len(first))
    ref = unbounded_path_rows(first, pair)
    assert rows[0] is None
    for s in range(1, len(rows)):
        assert rows[s] == {k: v for k, v in enumerate(ref[s]) if s >> k & 1}, s


def tail_floors(first, pair):
    """The kernel's two floors on the rest of a tour from entry (s, k), by
    the definitions: ``rows(s)``, the shortest leg between two points once
    per point outside s plus the cheapest leg back, and ``paths(s, k)``, the
    shortest path from k back to the start through a point outside s, or
    straight back."""
    m = len(first)
    dist = [row + [leg] for row, leg in zip(pair, first)] + [first + [0.0]]
    for w in range(m + 1):
        for i in range(m + 1):
            for j in range(m + 1):
                dist[i][j] = min(dist[i][j], dist[i][w] + dist[w][j])
    shortest = min(pair[j][k] for j in range(m) for k in range(m) if j != k)

    def rows(s):
        return (m - s.bit_count()) * shortest + min(first)

    def paths(s, k):
        return max([dist[k][m]] + [dist[k][t] + dist[t][m] for t in range(m) if not s >> t & 1])

    return rows, paths


@pytest.mark.parametrize(
    "pts",
    [rectangle(3, 4, 15.0, -30.0), rectangle(1, 12, 15.0, 10.0),
     lattice_row(random_points(random.Random(11), ORIGIN, 12, 300.0))],
    ids=["lattice-3x4", "line-1x12", "random-12"],
)
def test_kept_rows_are_those_that_can_end_within_the_budget(pts):
    """Entry (s, k) is kept iff its unbounded value plus each floor on the
    rest of the tour is within the budget, and a kept entry holds the
    unbounded value. The row floor is (points outside s) x (shortest leg
    between two points) + (cheapest leg back); the return-trip floor is the
    shortest path from k back through the farthest point outside s.
    Entries within 1e-12 of the budget are left out."""
    first, pair, closing = legs(pts)
    assert first == closing
    m = len(first)
    ref = unbounded_path_rows(first, pair)
    budget = min(map(sum, zip(ref[-1], closing))) / (1.0 - 1e-9)
    rows = dense(routing._path_rows(first, pair, budget), m)
    rest_rows, rest_paths = tail_floors(first, pair)
    tol = 1e-12 * budget
    kept = 0
    for s in range(1, 1 << m):
        for k in range(m):
            if not s >> k & 1:
                continue
            least = ref[s][k] + max(rest_rows(s), rest_paths(s, k))
            if least > budget + tol:
                assert k not in (rows[s] or {}), (s, k)
            elif least <= budget - tol:
                assert rows[s][k] == ref[s][k], (s, k)
                kept += 1
    assert 0 < kept < m << (m - 1)


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize(
    "pts",
    [rectangle(3, 4, 15.0, -30.0), rectangle(1, 12, 15.0, 10.0),
     lattice_row(random_points(random.Random(13), ORIGIN, 10, 300.0))],
    ids=["lattice-3x4", "line-1x12", "random-10"],
)
def test_kernel_yields_each_row_once_by_set_size(pts, bounded):
    """Bit sets come in non-decreasing size, each once, the full set last,
    and every entry is the unbounded DP's value, bit for bit. Without a
    budget every row is yielded whole."""
    first, pair, closing = legs(pts)
    m = len(first)
    ref = unbounded_path_rows(first, pair)
    budget = min(map(sum, zip(ref[-1], closing))) / (1.0 - 1e-9) if bounded else math.inf
    pairs = list(routing._path_rows(first, pair, budget))
    sets = [s for s, _ in pairs]
    sizes = [s.bit_count() for s in sets]
    assert sizes == sorted(sizes)
    assert len(set(sets)) == len(sets)
    assert sets[-1] == (1 << m) - 1
    for s, row in pairs:
        assert row, s
        for k, v in row.items():
            assert s >> k & 1, (s, k)
            assert v == ref[s][k], (s, k)
    if not bounded:
        assert len(pairs) == (1 << m) - 1
        assert all(len(row) == s.bit_count() for s, row in pairs)


def traced_peak(call) -> int:
    """The tracemalloc peak in bytes while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tsp_optimal_holds_under_half_the_table(kernel_calls, monkeypatch):
    """Memory guard: one ``tsp_optimal`` on a 1x14 line peaks at no more
    than half of what holding every yielded row takes, same inputs and
    budget. It reads about 0.24; a 1x16 line about 0.22 (2.6 against
    11.9 MB)."""
    pts = rectangle(1, 14, 15.0, 10.0)
    tsp_optimal(pts)
    (first, pair, budget, _), = kernel_calls
    monkeypatch.undo()
    every_row = traced_peak(lambda: list(routing._path_rows(first, pair, budget)))
    assert traced_peak(lambda: tsp_optimal(pts)) <= 0.5 * every_row
