"""Deterministic mission simulation.

Every agent departs home at t = 0 and flies its route legs at constant
velocity; each waypoint arrival emits one observation. The merged event log
is ordered by (t, agent id) and is byte-reproducible for identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .geodesy import GeoPoint, distance_m
from .grid import CameraModel, Waypoint
from .radiation import NoiseSpec, RadiationSource, field_levels, sample_reading
from .routing import Agent, RoutePlan, _check_fleet

TAKEOFF = "takeoff"
WAYPOINT_REACHED = "waypoint_reached"
ROUTE_COMPLETE = "route_complete"
_EVENT_RANK = {TAKEOFF: 0, WAYPOINT_REACHED: 1, ROUTE_COMPLETE: 2}


@dataclass(frozen=True)
class Event:
    """One entry of the log. A ``waypoint_reached`` event stands in for an
    image: it carries the plan's own waypoint and the reading taken there."""

    t: float
    agent_id: str
    kind: str
    waypoint: Waypoint | None = None
    radiation_usv_s: float | None = None


@dataclass
class EventLog:
    """The full mission data stream: takeoffs, observations, completions,
    and the camera every observation was taken with."""

    mission_id: str
    config_digest: str
    events: list[Event]
    camera: CameraModel

    @property
    def observations(self) -> list[Event]:
        return [e for e in self.events if e.kind == WAYPOINT_REACHED]


def leg_duration(a: GeoPoint, b: GeoPoint, velocity_mps: float) -> float:
    """Travel time between two points at constant speed."""
    if not velocity_mps > 0.0:
        raise ValueError(f"velocity_mps must be > 0, got {velocity_mps}")
    return distance_m(a, b) / velocity_mps


def _check_dwell(dwell_s: float) -> None:
    """The dwell rule: a finite number of seconds, >= 0."""
    if not math.isfinite(dwell_s):
        raise ValueError(f"dwell_s: expected a finite number, got {dwell_s}")
    if dwell_s < 0.0:
        raise ValueError("dwell_s: must be >= 0")


def _geo_payload(p: GeoPoint) -> list[float]:
    return [p.lat_deg, p.lon_deg, p.alt_m]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _routes_text(routes: dict) -> str:
    """``_canonical(routes)`` with each waypoint as ``[[lat, lon, alt], [i, j]]``.

    Latitudes repeat along lattice rows, longitudes along columns and the
    altitude everywhere, so each nonzero float is rendered once per call (0.0
    and -0.0 are equal keys with two texts). Ids come in ``sorted`` order, as
    ``sort_keys`` takes them; anything not a float or an int pair goes to
    ``json``.
    """
    floats: dict = {}

    def text(x) -> str:
        if type(x) is float and x:
            t = floats.get(x)
            if t is None:
                t = floats[x] = json.dumps(x)
            return t
        return _canonical(x)

    members = []
    for aid in sorted(routes):
        items = []
        for w in routes[aid]:
            p, index = w.point, w.index
            if type(index) is tuple and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
                index_text = "[%d,%d]" % index
            else:
                index_text = _canonical(list(index))
            items.append("[[%s,%s,%s],%s]" % (text(p.lat_deg), text(p.lon_deg), text(p.alt_m), index_text))
        # The key as sort_keys writes it: an int, float, bool or None id becomes a string.
        members.append("%s:[%s]" % (_canonical({aid: 0})[1:-3], ",".join(items)))
    return "{%s}" % ",".join(members)


def config_digest(
    plan: RoutePlan,
    fleet: Sequence[Agent],
    sources: Sequence[RadiationSource],
    noise: NoiseSpec,
    seed: int,
    camera: CameraModel,
    dwell_s: float,
) -> str:
    """SHA-256 over a canonical rendering of every input that shapes the log:
    ``_canonical`` of one dict whose ``routes`` member, rendered by
    ``_routes_text``, sits between the keys that sort before and after it."""
    before = {
        "camera": [camera.half_fov_deg, camera.overlap_fraction, camera.altitude_m],
        "dwell_s": dwell_s,
        "fleet": [[a.id, _geo_payload(a.home), a.velocity_mps] for a in fleet],
        "noise": [noise.kind, noise.relative_sd],
    }
    after = {
        "seed": seed,
        "sources": [[_geo_payload(s.position), s.sigma] for s in sources],
    }
    blob = '%s,"routes":%s,%s' % (_canonical(before)[:-1], _routes_text(plan.routes), _canonical(after)[1:])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def simulate(
    plan: RoutePlan,
    fleet: Sequence[Agent],
    sources: Sequence[RadiationSource] = (),
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    *,
    camera: CameraModel,
    dwell_s: float = 0.0,
    mission_id: str | None = None,
) -> EventLog:
    """Fly the plan and log an observation at every waypoint.

    All agents launch at t = 0; turns are instantaneous and per-waypoint dwell
    defaults to zero. Noise draws use one generator per agent keyed on
    (seed, agent id), so per-agent results do not depend on fleet order.
    """
    _check_fleet(fleet, plan)
    by_id = {a.id: a for a in fleet}
    _check_dwell(dwell_s)
    altitudes = {w.point.alt_m for route in plan.routes.values() for w in route}
    if len(altitudes) > 1:
        raise ValueError(f"waypoints must share the mission altitude, got {sorted(altitudes)}")

    digest = config_digest(plan, fleet, sources, noise, seed, camera, dwell_s)
    if mission_id is None:
        mission_id = f"mission-{digest[:12]}"

    positions = [w.point for route in plan.routes.values() for w in route]
    levels = iter(field_levels(sources, positions))

    events: list[Event] = []
    for aid, route in plan.routes.items():
        agent = by_id[aid]
        rng = random.Random(f"{seed}:{aid}")
        events.append(Event(t=0.0, agent_id=aid, kind=TAKEOFF))
        t = 0.0
        here = agent.home
        for wp in route:
            p = wp.point
            t += leg_duration(here, p, agent.velocity_mps)
            reading = sample_reading(next(levels), noise, rng)
            events.append(Event(t, aid, WAYPOINT_REACHED, wp, reading))
            here = p
            t += dwell_s
        final_t = events[-1].t if route else 0.0
        events.append(Event(t=final_t, agent_id=aid, kind=ROUTE_COMPLETE))

    events.sort(key=lambda e: (e.t, e.agent_id, _EVENT_RANK[e.kind]))
    return EventLog(mission_id, digest, events, camera)
