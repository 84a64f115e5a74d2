"""GeoJSON export of grids and routes, plus observation-log serialization.

GeoJSON follows RFC 7946 conventions: [longitude, latitude, altitude]
coordinate order, WGS-84. All float output uses Python's shortest
round-trip repr, so identical inputs serialize to identical bytes.

``dumps_geojson`` writes the bytes of ``json.dumps(doc, indent=2,
allow_nan=False)`` and ``write_observation_log`` those of one compact
``json.dumps(record, separators=(",", ":"), allow_nan=False)`` per line.
CPython encodes indented JSON only in pure Python, so both fill templates
of the shapes they meet (the Point and LineString features
``export_geojson`` builds, the two event lines) and hand every other shape
to ``json.dumps`` itself, shifted to the indentation it starts at.
"""

from __future__ import annotations

import json
from typing import Sequence

from .geodesy import GeoPoint
from .grid import WaypointGrid, footprint_width
from .routing import Agent, RoutePlan, _check_fleet, route_length
from .sim import WAYPOINT_REACHED, EventLog


def _coords(p: GeoPoint) -> list[float]:
    return [p.lon_deg, p.lat_deg, p.alt_m]


def _check_on_grid(grid: WaypointGrid, plan: RoutePlan, assignment: dict) -> None:
    """Refuse a plan with a waypoint not in ``grid``, ``assignment`` being keyed
    as ``export_geojson`` keys it. The set of grid keys is freed on return,
    before the features are built."""
    on_grid = {(wp.point.lat_deg, wp.point.lon_deg, wp.point.alt_m, wp.index) for wp in grid.points}
    if not on_grid.issuperset(assignment):
        stray = dict.fromkeys(
            wp
            for route in plan.routes.values()
            for wp in route
            if (wp.point.lat_deg, wp.point.lon_deg, wp.point.alt_m, wp.index) not in on_grid
        )
        raise ValueError(f"plan contains waypoints not in the grid: {list(stray)[:3]}")


def export_geojson(grid: WaypointGrid, plan: RoutePlan, fleet: Sequence[Agent]) -> dict:
    """FeatureCollection with one Point per waypoint and one LineString per
    non-empty agent route (starting at that agent's home in ``fleet``).

    Point properties carry the lattice index plus the assigned agent and
    1-based visit order (null when unassigned). Route properties carry the
    agent id, leg count, and total length in meters. ``fleet`` obeys the
    fleet rules of ``makespan`` and ``simulate`` or ValueError is raised.

    A route's waypoint is matched to the grid's by ``(lat, lon, alt,
    index)``, a tuple equal exactly when the waypoints are, but hashed in C
    instead of by two dataclass ``__hash__`` calls.
    """
    _check_fleet(fleet, plan)
    homes = {a.id: a.home for a in fleet}
    assignment: dict = {}
    for aid, route in plan.routes.items():
        for order, wp in enumerate(route, start=1):
            p = wp.point
            assignment[p.lat_deg, p.lon_deg, p.alt_m, wp.index] = (aid, order)
    _check_on_grid(grid, plan, assignment)

    features = []
    for wp in grid.points:
        p = wp.point
        aid, order = assignment.get((p.lat_deg, p.lon_deg, p.alt_m, wp.index), (None, None))
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [p.lon_deg, p.lat_deg, p.alt_m]},
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
        home = homes[aid]
        coordinates = [_coords(home)] + [_coords(wp.point) for wp in route]
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coordinates},
                "properties": {
                    "agent_id": aid,
                    "leg_count": len(route),
                    "total_length_m": route_length(home, route),
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


def _encode(value, newline: str | None) -> str:
    """JSON text of ``value`` as ``json.dumps(value, allow_nan=False)`` writes
    it: compact (``separators=(",", ":")``) when ``newline`` is None, else
    with ``indent=2``, ``newline`` being "\\n" plus the indentation of the
    line ``value`` starts on.

    A finite float, an int and None are rendered here; anything else goes to
    ``json``. Its indented text has no raw "\\n" but its line breaks (strings
    escape every control character), so shifting it to ``newline`` is exact.
    """
    kind = type(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if newline is None:
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", newline)


def _cached(cache: dict, value, newline: str | None) -> str:
    """``_encode(value, newline)``, kept in ``cache`` for strings and nonzero floats.

    Agent ids, altitudes and the coordinates of a waypoint (in its Point and
    again in its route) repeat, and a float repr is the dearest step of a
    writer. Equal floats share a repr except 0.0 and -0.0, which are not
    kept, and no str equals a float.
    """
    if type(value) is not str and (type(value) is not float or not value):
        return _encode(value, newline)
    text = cache.get(value)
    if text is None:
        text = cache[value] = _encode(value, None)
    return text


def _xyz_template(newline: str) -> str:
    inner = newline + "  "
    return "[" + inner + "%s," + inner + "%s," + inner + "%s" + newline + "]"


# "\n" plus the indentation of a line at each depth: a feature starts at
# depth 2, its properties at 3, a Point's position at 4 and a LineString's
# positions at 5.
_NL = tuple("\n" + "  " * depth for depth in range(6))
_POINT_XYZ = _xyz_template(_NL[4])
_LINE_XYZ = _xyz_template(_NL[5])
_FEATURE = (
    '    {\n      "type": "Feature",\n      "geometry": {\n        "type": "%s",\n'
    '        "coordinates": %s\n      },\n      "properties": %s\n    }'
)
_POINT_PROPERTIES = (
    '{\n        "lattice_index": [\n          %d,\n          %d\n        ],\n'
    '        "agent_id": %s,\n        "visit_order": %s\n      }'
)
# A Point with the three properties export_geojson gives it, in one template.
_POINT_FEATURE = _FEATURE % ("Point", _POINT_XYZ, _POINT_PROPERTIES)


def _position(cache: dict, c, template: str, newline: str) -> str:
    """One [lon, lat, alt] list; three floats fill ``template``."""
    if type(c) is list and len(c) == 3:
        x, y, z = c
        if type(x) is float and type(y) is float and type(z) is float:
            get = cache.get  # a cached text is never empty; a miss or a zero goes to _cached
            return template % (
                get(x) or _cached(cache, x, None),
                get(y) or _cached(cache, y, None),
                get(z) or _cached(cache, z, None),
            )
    return _encode(c, newline)


def _feature(cache: dict, feature) -> str:
    """One element of a FeatureCollection's ``features``, indented."""
    if (
        type(feature) is dict
        and tuple(feature) == ("type", "geometry", "properties")
        and feature["type"] == "Feature"
    ):
        geometry = feature["geometry"]
        if type(geometry) is dict and tuple(geometry) == ("type", "coordinates"):
            kind, coords = geometry["type"], geometry["coordinates"]
            if kind == "Point":
                props = feature["properties"]
                if (
                    type(coords) is list
                    and len(coords) == 3
                    and type(props) is dict
                    and tuple(props) == ("lattice_index", "agent_id", "visit_order")
                ):
                    x, y, z = coords
                    index, aid, order = props.values()
                    if (
                        type(x) is float and type(y) is float and type(z) is float
                        and type(index) is list and len(index) == 2
                        and type(index[0]) is int and type(index[1]) is int
                    ):
                        get = cache.get
                        return _POINT_FEATURE % (
                            get(x) or _cached(cache, x, None),
                            get(y) or _cached(cache, y, None),
                            get(z) or _cached(cache, z, None),
                            index[0],
                            index[1],
                            _cached(cache, aid, _NL[4]),
                            _encode(order, _NL[4]),
                        )
                text = _position(cache, coords, _POINT_XYZ, _NL[4])
                return _FEATURE % ("Point", text, _encode(props, _NL[3]))
            if kind == "LineString" and type(coords) is list and coords:
                text = ("," + _NL[5]).join([_position(cache, c, _LINE_XYZ, _NL[5]) for c in coords])
                text = "[" + _NL[5] + text + _NL[4] + "]"
                return _FEATURE % ("LineString", text, _encode(feature["properties"], _NL[3]))
    return "    " + _encode(feature, _NL[2])


def dumps_geojson(doc: dict) -> str:
    """Strict JSON: a NaN or infinite coordinate raises ValueError."""
    if type(doc) is dict and tuple(doc) == ("type", "features"):
        features = doc["features"]
        if type(features) is list and features:
            kind = _encode(doc["type"], _NL[1])
            cache: dict = {}
            body = ",\n".join([_feature(cache, f) for f in features])
            return '{\n  "type": %s,\n  "features": [\n%s\n  ]\n}\n' % (kind, body)
    return _encode(doc, _NL[0]) + "\n"


_BOOKEND_LINE = '{"event":%s,"t":%s,"agent_id":%s}'
_OBSERVATION_LINE = (
    '{"event":"waypoint_reached","t":%s,"agent_id":%s,"lat":%s,"lon":%s,"alt":%s,'
    '"radiation_usv_s":%s,"camera":{"altitude_m":%s,"half_fov_deg":%s,'
    '"footprint_width_m":%s,"lattice_index":%s}}'
)


def _lattice_index(index) -> str:
    """A waypoint's lattice index on a log line: "[i,j]"."""
    if type(index) is tuple and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
        return "[%d,%d]" % index
    return _encode(list(index), None)


def write_observation_log(log: EventLog) -> str:
    """Line-delimited JSON: one header line, then one line per event.

    Line count is 1 + 2 * agents + observations (takeoff and route-complete
    per agent, one observation per waypoint). Every observation line repeats
    the camera's half FOV and footprint width, rendered once per log, and
    its waypoint's altitude as the camera altitude. Latitudes, longitudes and
    altitudes repeat along lattice rows and columns, so each is rendered once
    too. Output is strict JSON: a NaN or infinite value raises ValueError.
    """
    header = {
        "mission_id": log.mission_id,
        "config_digest": log.config_digest,
        "event_count": len(log.events),
    }
    lines = [_encode(header, None)]
    half_fov = _encode(log.camera.half_fov_deg, None)
    footprint = _encode(footprint_width(log.camera), None)
    cache: dict = {}
    for event in log.events:
        if event.kind == WAYPOINT_REACHED:
            wp = event.waypoint
            p = wp.point
            alt = _cached(cache, p.alt_m, None)
            lines.append(_OBSERVATION_LINE % (
                _encode(event.t, None),
                _cached(cache, event.agent_id, None),
                _cached(cache, p.lat_deg, None),
                _cached(cache, p.lon_deg, None),
                alt,
                _encode(event.radiation_usv_s, None),
                alt,
                half_fov,
                footprint,
                _lattice_index(wp.index),
            ))
        else:
            lines.append(_BOOKEND_LINE % (
                _cached(cache, event.kind, None),
                _encode(event.t, None),
                _cached(cache, event.agent_id, None),
            ))
    return "\n".join(lines) + "\n"
