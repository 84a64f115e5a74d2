"""GeoJSON export of grids and routes, plus observation-log serialization.

GeoJSON follows RFC 7946 conventions: [longitude, latitude, altitude]
coordinate order, WGS-84. All float output uses Python's shortest
round-trip repr, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import json

from .geodesy import GeoPoint, distance_m
from .grid import WaypointGrid
from .routing import RoutePlan, position_of, route_length
from .sim import WAYPOINT_REACHED, EventLog


def _coords(p: GeoPoint) -> list[float]:
    return [p.lon_deg, p.lat_deg, p.alt_m]


def export_geojson(grid: WaypointGrid, plan: RoutePlan) -> dict:
    """FeatureCollection with one Point per waypoint and one LineString per
    non-empty agent route (starting at the agent's home).

    Point properties carry the lattice index plus the assigned agent and
    1-based visit order (null when unassigned). Route properties carry the
    agent id, leg count, and total length in meters.
    """
    assignment: dict = {}
    for aid, route in plan.routes.items():
        for order, wp in enumerate(route, start=1):
            assignment[wp] = (aid, order)
    grid_points = set(grid.points)
    stray = [wp for wp in assignment if wp not in grid_points]
    if stray:
        raise ValueError(f"plan contains waypoints not in the grid: {stray[:3]}")

    features = []
    for wp in grid.points:
        aid, order = assignment.get(wp, (None, None))
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": _coords(wp.point)},
                "properties": {
                    "lattice_index": list(wp.index),
                    "agent_id": aid,
                    "visit_order": order,
                },
            }
        )
    for aid, route in plan.routes.items():
        if not route:
            continue  # a LineString needs at least two positions
        home = plan.homes.get(aid)
        if home is None:
            raise ValueError(f"plan carries no home position for agent {aid!r}")
        coordinates = [_coords(home)] + [_coords(position_of(wp)) for wp in route]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coordinates},
                "properties": {
                    "agent_id": aid,
                    "leg_count": len(route),
                    "total_length_m": route_length(home, route, distance_m),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def dumps_geojson(doc: dict) -> str:
    """Strict JSON: a NaN or infinite coordinate raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_observation_log(log: EventLog) -> str:
    """Line-delimited JSON: one header line, then one line per event.

    Line count is 1 + 2 * agents + observations (takeoff and route-complete
    per agent, one observation per waypoint). Output is strict JSON: a NaN
    or infinite value raises ValueError.
    """
    header = {
        "mission_id": log.mission_id,
        "config_digest": log.config_digest,
        "event_count": len(log.events),
    }
    lines = [json.dumps(header, separators=(",", ":"), allow_nan=False)]
    for event in log.events:
        rec: dict = {"event": event.kind, "t": event.t, "agent_id": event.agent_id}
        if event.kind == WAYPOINT_REACHED:
            obs = event.observation
            meta = obs.camera
            rec.update(
                lat=obs.position.lat_deg,
                lon=obs.position.lon_deg,
                alt=obs.position.alt_m,
                radiation_usv_s=obs.radiation_usv_s,
                camera={
                    "altitude_m": meta.altitude_m,
                    "half_fov_deg": meta.half_fov_deg,
                    "footprint_width_m": meta.footprint_width_m,
                    "lattice_index": None if meta.lattice_index is None else list(meta.lattice_index),
                },
            )
        lines.append(json.dumps(rec, separators=(",", ":"), allow_nan=False))
    return "\n".join(lines) + "\n"
