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
from .grid import CameraModel, footprint_width
from .radiation import NoiseSpec, RadiationSource, field_levels, sample_reading
from .routing import Agent, RoutePlan, _check_fleet

TAKEOFF = "takeoff"
WAYPOINT_REACHED = "waypoint_reached"
ROUTE_COMPLETE = "route_complete"
_EVENT_RANK = {TAKEOFF: 0, WAYPOINT_REACHED: 1, ROUTE_COMPLETE: 2}


@dataclass(frozen=True)
class CameraMeta:
    """Camera metadata standing in for the image itself."""

    altitude_m: float
    half_fov_deg: float | None
    footprint_width_m: float | None
    lattice_index: tuple[int, int] | None


@dataclass(frozen=True)
class ObservationRecord:
    """One simulated data capture at a waypoint."""

    t: float
    agent_id: str
    position: GeoPoint
    radiation_usv_s: float
    camera: CameraMeta


@dataclass(frozen=True)
class Event:
    t: float
    agent_id: str
    kind: str
    observation: ObservationRecord | None = None


@dataclass
class EventLog:
    """The full mission data stream: takeoffs, observations, completions."""

    mission_id: str
    config_digest: str
    events: list[Event]

    @property
    def observations(self) -> list[ObservationRecord]:
        return [e.observation for e in self.events if e.kind == WAYPOINT_REACHED]


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


def config_digest(
    plan: RoutePlan,
    fleet: Sequence[Agent],
    sources: Sequence[RadiationSource],
    noise: NoiseSpec,
    seed: int,
    camera: CameraModel | None,
    dwell_s: float,
) -> str:
    """SHA-256 over a canonical rendering of every input that shapes the log."""
    payload = {
        "routes": {
            aid: [[_geo_payload(w.point), list(w.index or ())] for w in route]
            for aid, route in plan.routes.items()
        },
        "fleet": [[a.id, _geo_payload(a.home), a.velocity_mps] for a in fleet],
        "sources": [[_geo_payload(s.position), s.sigma] for s in sources],
        "noise": [noise.kind, noise.relative_sd],
        "seed": seed,
        "dwell_s": dwell_s,
        "camera": None
        if camera is None
        else [camera.half_fov_deg, camera.overlap_fraction, camera.altitude_m],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def simulate(
    plan: RoutePlan,
    fleet: Sequence[Agent],
    sources: Sequence[RadiationSource] = (),
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
    *,
    camera: CameraModel | None = None,
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

    half_fov = camera.half_fov_deg if camera is not None else None
    footprint = footprint_width(camera) if camera is not None else None

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
            meta = CameraMeta(
                altitude_m=p.alt_m,
                half_fov_deg=half_fov,
                footprint_width_m=footprint,
                lattice_index=wp.index,
            )
            record = ObservationRecord(
                t=t, agent_id=aid, position=p, radiation_usv_s=reading, camera=meta
            )
            events.append(Event(t=t, agent_id=aid, kind=WAYPOINT_REACHED, observation=record))
            here = p
            t += dwell_s
        final_t = events[-1].t if route else 0.0
        events.append(Event(t=final_t, agent_id=aid, kind=ROUTE_COMPLETE))

    events.sort(key=lambda e: (e.t, e.agent_id, _EVENT_RANK[e.kind]))
    return EventLog(mission_id=mission_id, config_digest=digest, events=events)
