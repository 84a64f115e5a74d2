"""GeoJSON export of grids and routes, plus observation-log serialization.

GeoJSON follows RFC 7946 conventions: [longitude, latitude, altitude]
coordinate order, WGS-84. All float output uses Python's shortest
round-trip repr, so identical inputs serialize to identical bytes.

``dumps_geojson`` writes the bytes of ``json.dumps(doc, indent=2,
allow_nan=False)`` and ``write_observation_log`` those of one compact
``json.dumps(record, separators=(",", ":"), allow_nan=False)`` per line.
CPython encodes indented JSON only in pure Python, so both fill templates
of the shapes they meet (the Point and LineString features
``export_geojson`` builds, the two event lines) and encode anything else
with ``_encode``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .geodesy import GeoPoint
from .grid import WaypointGrid
from .routing import RoutePlan, route_length
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


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps(value, allow_nan=False)`` renders it."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(value, newline: str | None) -> str:
    """JSON text of ``value`` as ``json.dumps(value, allow_nan=False)`` writes
    it: compact (``separators=(",", ":")``) when ``newline`` is None, else
    with ``indent=2``, ``newline`` being "\\n" plus the indentation of the
    line ``value`` starts on."""
    if type(value) is float and value - value == 0.0:  # the common case: a finite float
        return float.__repr__(value)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _scalar(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = None if newline is None else newline + "  "
    if is_dict:
        colon = ":" if newline is None else ": "
        items = [
            _quote(k if isinstance(k, str) else _scalar(k)) + colon + _encode(v, inner)
            for k, v in value.items()
        ]
    else:
        items = [_encode(v, inner) for v in value]
    body = ",".join(items) if newline is None else inner + ("," + inner).join(items) + newline
    return ("{%s}" if is_dict else "[%s]") % body


def _cached(cache: dict, value, newline: str | None) -> str:
    """``_encode(value, newline)``, kept in ``cache`` for strings and nonzero floats.

    Agent ids, altitudes, camera constants and the coordinates of a waypoint
    (in its Point and again in its route) repeat, and a float repr is the
    dearest step of a writer. Equal floats share a repr except 0.0 and -0.0,
    which are not kept, and no str equals a float.
    """
    if type(value) is not str and (type(value) is not float or not value):
        return _encode(value, newline)
    text = cache.get(value)
    if text is None:
        text = cache[value] = _scalar(value)
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


def _position(cache: dict, c, template: str, newline: str) -> str:
    """One [lon, lat, alt] list; three floats fill ``template``."""
    if type(c) is list and len(c) == 3:
        x, y, z = c
        if type(x) is float and type(y) is float and type(z) is float:
            return template % (_cached(cache, x, None), _cached(cache, y, None), _cached(cache, z, None))
    return _encode(c, newline)


def _point_properties(cache: dict, props) -> str:
    if type(props) is dict and tuple(props) == ("lattice_index", "agent_id", "visit_order"):
        index, aid, order = props.values()
        if type(index) is list and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
            i, j = index
            return _POINT_PROPERTIES % (i, j, _cached(cache, aid, _NL[4]), _encode(order, _NL[4]))
    return _encode(props, _NL[3])


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
                text = _position(cache, coords, _POINT_XYZ, _NL[4])
                return _FEATURE % ("Point", text, _point_properties(cache, feature["properties"]))
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
    """A camera's lattice index on a log line: "[i,j]", or null."""
    if type(index) is tuple and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
        return "[%d,%d]" % index
    return "null" if index is None else _encode(list(index), None)


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
    lines = [_encode(header, None)]
    cache: dict = {}
    for event in log.events:
        if event.kind == WAYPOINT_REACHED:
            obs = event.observation
            p = obs.position
            meta = obs.camera
            lines.append(_OBSERVATION_LINE % (
                _encode(event.t, None),
                _cached(cache, event.agent_id, None),
                _encode(p.lat_deg, None),
                _encode(p.lon_deg, None),
                _cached(cache, p.alt_m, None),
                _encode(obs.radiation_usv_s, None),
                _cached(cache, meta.altitude_m, None),
                _cached(cache, meta.half_fov_deg, None),
                _cached(cache, meta.footprint_width_m, None),
                _lattice_index(meta.lattice_index),
            ))
        else:
            lines.append(_BOOKEND_LINE % (
                _cached(cache, event.kind, None),
                _encode(event.t, None),
                _cached(cache, event.agent_id, None),
            ))
    return "\n".join(lines) + "\n"
