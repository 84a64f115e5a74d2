"""Checks on what one CLI operation wrote and printed.

Every check raises :class:`VerificationError`; the runner counts an operation
that raises as failed. The checks use only the output bytes, the generated
config and, for ``bound``, the package's public functions called again
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass


class VerificationError(Exception):
    """An operation's outputs are wrong."""


def _reject_constant(token: str):
    raise VerificationError(f"non-finite JSON token {token}")


def strict_loads(text: str):
    """json.loads that refuses the NaN / Infinity / -Infinity extensions."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"invalid JSON: {exc}") from None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class SurveyResult:
    """What the benchmark keeps from a verified ``simulate`` operation."""

    waypoints: int
    makespan_s: float
    plan_sha256: str
    log_sha256: str
    bytes_written: int
    points: list  # ((row, col), (lat, lon, alt)) of every waypoint
    events: int


def verify_survey(config: dict, plan_bytes: bytes, log_bytes: bytes, stdout: str,
                  expected_waypoints: int | None = None) -> SurveyResult:
    """Check a ``simulate`` operation's plan.geojson, observations.jsonl and
    printout against each other and against the config."""
    fleet = {a["id"]: a for a in config["fleet"]}
    doc = strict_loads(plan_bytes.decode("utf-8"))
    if doc.get("type") != "FeatureCollection":
        raise VerificationError("plan.geojson is not a FeatureCollection")
    points, lines = [], {}
    for feature in doc["features"]:
        kind = feature["geometry"]["type"]
        if kind == "Point":
            points.append(feature)
        elif kind == "LineString":
            aid = feature["properties"]["agent_id"]
            if aid in lines:
                raise VerificationError(f"two routes for agent {aid}")
            lines[aid] = feature
        else:
            raise VerificationError(f"unexpected geometry {kind}")
    n = len(points)
    if expected_waypoints is not None and n != expected_waypoints:
        raise VerificationError(f"{n} waypoints, expected {expected_waypoints}")

    # Every grid waypoint sits in exactly one route, visit orders 1..len.
    routes: dict[str, dict[int, list]] = {aid: {} for aid in fleet}
    for feature in points:
        props = feature["properties"]
        aid, order = props["agent_id"], props["visit_order"]
        if aid not in routes or not isinstance(order, int):
            raise VerificationError(f"waypoint {props['lattice_index']} is not assigned to a fleet agent")
        if order in routes[aid]:
            raise VerificationError(f"agent {aid} visits two waypoints at order {order}")
        routes[aid][order] = feature["geometry"]["coordinates"]
    makespan = 0.0
    for aid, by_order in routes.items():
        if sorted(by_order) != list(range(1, len(by_order) + 1)):
            raise VerificationError(f"agent {aid} visit orders are not 1..{len(by_order)}")
        if not by_order:
            if aid in lines:
                raise VerificationError(f"empty route for agent {aid} has a LineString")
            continue
        line = lines.get(aid)
        if line is None:
            raise VerificationError(f"agent {aid} has waypoints but no route")
        home = fleet[aid]["home"]
        coords = line["geometry"]["coordinates"]
        expected = [[home[1], home[0], home[2]]] + [by_order[k] for k in range(1, len(by_order) + 1)]
        if coords != expected or line["properties"]["leg_count"] != len(by_order):
            raise VerificationError(f"route of agent {aid} does not match its waypoints")
        length = line["properties"]["total_length_m"]
        if not isinstance(length, float) or length < 0.0:
            raise VerificationError(f"route length of agent {aid} is {length!r}")
        makespan = max(makespan, length / fleet[aid]["velocity_mps"])
    if set(lines) - set(routes):
        raise VerificationError("route for an agent outside the fleet")

    # observations.jsonl: header + takeoff/complete per agent + one per waypoint.
    text = log_bytes.decode("utf-8")
    if not text.endswith("\n"):
        raise VerificationError("observations.jsonl does not end with a newline")
    rows = [strict_loads(line) for line in text[:-1].split("\n")]
    if len(rows) != 1 + 2 * len(fleet) + n:
        raise VerificationError(f"observations.jsonl has {len(rows)} lines, expected {1 + 2 * len(fleet) + n}")
    header = rows[0]
    if header.get("event_count") != len(rows) - 1:
        raise VerificationError(f"header event_count {header.get('event_count')} != {len(rows) - 1} events")
    if header.get("mission_id") != config.get("mission_id", header.get("mission_id")):
        raise VerificationError("header mission_id does not match the config")
    seen, last_t = 0, 0.0
    for row in rows[1:]:
        if row["t"] < last_t:
            raise VerificationError("events are not ordered by time")
        last_t = row["t"]
        if row["event"] == "waypoint_reached":
            seen += 1
            if not row["radiation_usv_s"] >= 0.0:
                raise VerificationError(f"negative reading {row['radiation_usv_s']}")
    if seen != n:
        raise VerificationError(f"{seen} observations for {n} waypoints")

    printed = re.search(r"^makespan: (\S+) s$", stdout, re.M)
    if printed is None or printed.group(1) != f"{makespan:.1f}":
        raise VerificationError(f"printed makespan {printed and printed.group(1)} != {makespan:.1f}")
    pts = [(tuple(f["properties"]["lattice_index"]), (c[1], c[0], c[2]))
           for f, c in ((f, f["geometry"]["coordinates"]) for f in points)]
    return SurveyResult(
        waypoints=n,
        makespan_s=makespan,
        plan_sha256=sha256(plan_bytes),
        log_sha256=sha256(log_bytes),
        bytes_written=len(plan_bytes) + len(log_bytes),
        points=pts,
        events=len(rows) - 1,
    )


def makespan_bound_s(uavsurvey, config: dict, points) -> float:
    """A lower bound on any plan's makespan over these lattice waypoints.

    The larger of two bounds. Reach: some agent must fly from its home to
    each waypoint. Legs: every waypoint is entered by one leg, from a home or
    another waypoint, so the fleet flies at least the sum over waypoints of
    the distance to the nearest home or other waypoint, and the last agent to
    finish needs at least that total divided by the summed speeds. On a
    lattice of near-square cells the nearest other waypoint is one of the
    eight lattice neighbours whenever one is present; a waypoint with none
    adds nothing.
    """
    homes = [(uavsurvey.GeoPoint(*a["home"]), a["velocity_mps"]) for a in config["fleet"]]
    by_index = {index: uavsurvey.GeoPoint(*p) for index, p in points}
    distance = uavsurvey.distance_m
    reach = legs = 0.0
    for (i, j), p in by_index.items():
        reach = max(reach, min(distance(h, p) / v for h, v in homes))
        near = [distance(q, p) for q in (by_index.get((i + di, j + dj)) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                                         if di or dj) if q is not None]
        if near:
            legs += min(near + [distance(h, p) for h, _ in homes])
    return max(reach, legs / sum(v for _, v in homes))


@dataclass
class BoundResult:
    waypoints: int
    heuristic_s: float
    optimum_s: float | None  # exhaustive optimum, where the oracle ran
    tour_window_m: tuple[float, float] | None  # (below, above) the optimal closed tour, where Held-Karp ran


def tour_window_m(distance, points) -> tuple[float, float]:
    """Two numbers that bracket the shortest closed tour through ``points``.

    Below: each point meets two edges of the tour, together at least as long
    as its distances to its two nearest other points, and every edge meets
    two points. Above: the length of one tour, nearest-neighbour from each
    start and then improved by 2-opt, the best of these.
    """
    n = len(points)
    d = [[distance(a, b) for b in points] for a in points]
    if n < 3:
        return (0.0, 0.0) if n < 2 else (2 * d[0][1], 2 * d[0][1])
    below = sum(sum(sorted(d[i][j] for j in range(n) if j != i)[:2]) for i in range(n)) / 2
    above = math.inf
    for first in range(n):
        tour, left = [first], set(range(n)) - {first}
        while left:
            nxt = min(left, key=lambda j: (d[tour[-1]][j], j))
            tour.append(nxt)
            left.remove(nxt)
        improved = True
        while improved:
            improved = False
            for i in range(n - 1):
                for j in range(i + 2, n if i else n - 1):
                    a, b, c, e = tour[i], tour[i + 1], tour[j], tour[(j + 1) % n]
                    if d[a][c] + d[b][e] < d[a][b] + d[c][e] - 1e-9:
                        tour[i + 1:j + 1] = reversed(tour[i + 1:j + 1])
                        improved = True
        above = min(above, sum(d[tour[k - 1]][tour[k]] for k in range(n)))
    return below, above


def _printed(stdout: str, pattern: str) -> str | None:
    match = re.search(pattern, stdout, re.M)
    return None if match is None else match.group(1)


def verify_bound(config: dict, stdout: str, reference: BoundResult) -> None:
    """Check a ``bound`` operation's printout against a reference recomputed
    through the public functions (see :func:`bound_reference`)."""
    n, k = reference.waypoints, len(config["fleet"])
    if _printed(stdout, r"^waypoints: (\d+), agents: \d+$") != str(n):
        raise VerificationError(f"printed waypoint count differs from {n}")
    if _printed(stdout, r"^nearest-neighbor makespan: (\S+) s") != f"{reference.heuristic_s:.3f}":
        raise VerificationError("printed heuristic makespan differs from the recomputed one")
    if reference.tour_window_m is not None:
        # The printed bound is the optimal closed tour over the waypoints
        # divided by the agent count, rounded to 0.1 m.
        lower = _printed(stdout, r"^lower bound \(optimal tour / n\): (\S+) m$")
        below, above = (x / k for x in reference.tour_window_m)
        if lower is None or not below - 0.05 - 1e-6 <= float(lower) <= above + 0.05 + 1e-6:
            raise VerificationError(f"printed lower bound {lower} m is outside [{below:.3f}, {above:.3f}], "
                                    "the range that holds the optimal tour / n")
    elif "lower bound unavailable" not in stdout:
        raise VerificationError(f"lower bound printed for {n} waypoints, above the exact limit")
    optimum = _printed(stdout, r"^exhaustive optimum makespan: (\S+) s$")
    if reference.optimum_s is None:
        if optimum is not None or "exhaustive optimum skipped" not in stdout:
            raise VerificationError(f"oracle ran on an instance of {n} waypoints and {k} agents")
        return
    if optimum != f"{reference.optimum_s:.3f}":
        raise VerificationError("printed exhaustive optimum differs from the recomputed one")


def bound_reference(uavsurvey, config_text: str, expected_waypoints: int) -> BoundResult:
    """Recompute a ``bound`` instance through the public API and check that
    the exhaustive optimum does not exceed the heuristic makespan."""
    config = uavsurvey.parse_mission_config(config_text)
    grid = uavsurvey.generate_waypoints(config.region, config.camera)
    n = len(grid.points)
    if n != expected_waypoints:
        raise VerificationError(f"grid has {n} waypoints, expected {expected_waypoints}")
    plan = uavsurvey.plan_routes(config.fleet, grid.points)
    heuristic = uavsurvey.makespan(plan, config.fleet)
    window = None
    if n <= uavsurvey.routing.HELD_KARP_MAX_POINTS:
        window = tour_window_m(uavsurvey.distance_m, [w.point for w in grid.points])
    optimum = None
    if n <= uavsurvey.routing.ORACLE_MAX_POINTS and len(config.fleet) <= uavsurvey.routing.ORACLE_MAX_AGENTS:
        optimum, _ = uavsurvey.brute_force_mtsp(grid.points, config.fleet)
        if not 0.0 < optimum <= heuristic * (1.0 + 1e-12):
            raise VerificationError(f"oracle optimum {optimum} exceeds heuristic makespan {heuristic}")
    return BoundResult(n, heuristic, optimum, window)
