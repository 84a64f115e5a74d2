"""Deterministic mission simulation.

Every agent departs home at t = 0 and flies its route legs at constant
velocity; each waypoint arrival emits one observation. The merged event log
is ordered by (t, agent id) and is byte-reproducible for identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .geodesy import _NON_NEGATIVE, _check_number, distance_m
from .geojson_io import config_digest
from .grid import CameraModel, Waypoint
from .radiation import NoiseSpec, RadiationSource, field_levels, sample_reading
from .routing import Agent, _check_fleet

TAKEOFF = "takeoff"
WAYPOINT_REACHED = "waypoint_reached"
ROUTE_COMPLETE = "route_complete"


@dataclass(frozen=True, slots=True)
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


def simulate(
    plan: dict[str, list[Waypoint]],
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

    A plan that routes one waypoint twice (equal position and index) is
    refused, as ``export_geojson`` refuses it, and so is one whose
    waypoints do not share one altitude.

    All agents launch at t = 0; turns are instantaneous and per-waypoint dwell
    defaults to zero. Noise draws use one generator per agent keyed on
    (seed, agent id), so per-agent results do not depend on fleet order.
    Events sort stably by (t, agent id): legs and dwell are >= 0, so one
    agent's ties keep takeoff, its route's order, then completion.
    """
    by_id = _check_fleet(fleet, plan)
    _check_number("dwell_s", dwell_s, *_NON_NEGATIVE)
    keys = {(w.point.lat_deg, w.point.lon_deg, w.point.alt_m, w.index) for route in plan.values() for w in route}
    if len(keys) != sum(map(len, plan.values())):
        seen: set = set()
        for w in (w for route in plan.values() for w in route):
            key = (w.point.lat_deg, w.point.lon_deg, w.point.alt_m, w.index)
            if key in seen:
                raise ValueError(f"plan routes a waypoint more than once: {w}")
            seen.add(key)
    altitudes = {key[2] for key in keys}
    if len(altitudes) > 1:
        raise ValueError(f"waypoints must share the mission altitude, got {sorted(altitudes)}")

    digest = config_digest(plan, fleet, sources, noise, seed, camera, dwell_s)
    if mission_id is None:
        mission_id = f"mission-{digest[:12]}"

    positions = [w.point for route in plan.values() for w in route]
    levels = iter(field_levels(sources, positions))

    events: list[Event] = []
    for aid, route in plan.items():
        agent = by_id[aid]
        rng = random.Random(f"{seed}:{aid}")
        events.append(Event(t=0.0, agent_id=aid, kind=TAKEOFF))
        t = 0.0
        previous = agent.home
        # One distance_m call per leg, as in route_length; Agent refuses a velocity <= 0.
        for wp in route:
            t += distance_m(previous, wp.point) / agent.velocity_mps
            previous = wp.point
            reading = sample_reading(next(levels), noise, rng)
            events.append(Event(t, aid, WAYPOINT_REACHED, wp, reading))
            t += dwell_s
        events.append(Event(t=events[-1].t, agent_id=aid, kind=ROUTE_COMPLETE))

    events.sort(key=attrgetter("t", "agent_id"))
    return EventLog(mission_id, digest, events, camera)
