"""The subset-DP exact references against the enumerating code they replaced.

``tsp_optimal`` and ``brute_force_mtsp`` add the same operands in the same
left-to-right order as ``loop_tsp_optimal`` and
``permutation_brute_force_mtsp`` in ``helpers``, and float addition is
monotone, so the values must be equal with ``==``, not approximately. On ties
the oracle's partition may be another optimal one than the reference's, so
the partition is checked as an exact cover whose makespan is the value, bit
for bit.
"""

from __future__ import annotations

import random

import pytest

from helpers import loop_tsp_optimal, permutation_brute_force_mtsp, random_points
from uavsurvey import Agent, EnuOffset, GeoPoint, brute_force_mtsp, gps_offset, makespan, tsp_optimal
from uavsurvey.routing import RoutePlan

ORIGIN = GeoPoint(47.6, -122.3, 0.0)


def lattice_points(rng: random.Random, n: int) -> list[GeoPoint]:
    """``n`` distinct nodes of a 4x4 grid with 10 m spacing: many equal tours."""
    return [gps_offset(ORIGIN, EnuOffset(10.0 * (k % 4), 10.0 * (k // 4), 0.0)) for k in rng.sample(range(16), n)]


def instances(seed: int, n: int):
    """One seeded random instance and one tie-heavy lattice instance of ``n`` points."""
    rng = random.Random(seed)
    return [random_points(rng, ORIGIN, n, 300.0), lattice_points(rng, n)]


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
    # Bare points come back as Waypoints wrapping the caller's objects.
    assert all(w.index is None for route in partition.values() for w in route)
    visited = sorted(id(w.point) for route in partition.values() for w in route)
    assert visited == sorted(id(p) for p in pts)
    assert makespan(RoutePlan(routes=partition), agents) == value


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_oracle_equals_permutation_reference(n, n_agents):
    rng = random.Random(1000 * n + n_agents)
    for pts in instances(300 + 10 * n + n_agents, n):
        assert_oracle_matches(pts, fleet(rng, n_agents))
