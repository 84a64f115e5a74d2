"""GeoJSON export of grids and routes, plus observation-log serialization.

GeoJSON follows RFC 7946 conventions: [longitude, latitude, altitude]
coordinate order, WGS-84. All float output uses Python's shortest
round-trip repr, so identical inputs serialize to identical bytes.

``dumps_geojson`` writes the bytes of ``json.dumps(doc, indent=2,
allow_nan=False) + "\n"``, which CPython before 3.13 encodes only in pure
Python. When every feature is a Point or LineString of the shape
``export_geojson`` builds, with finite floats, it fills templates; any
other document is that one ``json.dumps`` call. ``write_observation_log``
fills a template per event line, the bytes of one compact
``json.dumps(record, separators=(",", ":"), allow_nan=False)`` per line,
and ``config_digest`` hashes the compact text of the mission's inputs,
rendered by the same helpers.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .grid import CameraModel, Waypoint, WaypointGrid, _int_pair, footprint_width
from .radiation import NoiseSpec, RadiationSource
from .routing import Agent, _check_fleet, route_length

if TYPE_CHECKING:
    from .sim import EventLog


def export_geojson(grid: WaypointGrid, plan: dict[str, list[Waypoint]], fleet: Sequence[Agent]) -> dict:
    """FeatureCollection with one Point per waypoint and one LineString per
    non-empty agent route (starting at that agent's home in ``fleet``).

    Point properties carry the lattice index plus the assigned agent and
    1-based visit order (null when unassigned). Route properties carry the
    agent id, leg count, and total length in meters. ``fleet`` obeys the
    fleet rules of ``makespan`` and ``simulate``, ``grid`` holds each
    waypoint once, and every waypoint of the plan is in ``grid`` and routed
    once, or ValueError is raised: a grid's copies would share one owner. Of
    a stray and a repeat, the one first in plan order is named.

    A waypoint is keyed by ``(lat, lon, alt, index)``, a tuple equal exactly
    when the waypoints are, but hashed in C instead of by two dataclass
    ``__hash__`` calls. One dict maps each grid key to its position, and one
    walk of the plan fills each position's owner.
    """
    by_id = _check_fleet(fleet, plan)
    points = grid.points
    slot = {(w.point.lat_deg, w.point.lon_deg, w.point.alt_m, w.index): k for k, w in enumerate(points)}
    if len(slot) != len(points):  # a repeated key keeps its last position
        for k, w in enumerate(points):
            if slot[w.point.lat_deg, w.point.lon_deg, w.point.alt_m, w.index] != k:
                raise ValueError(f"grid holds a waypoint more than once: {w}")
    free = (None, None)
    owners = [free] * len(points)
    for aid, route in plan.items():
        for order, wp in enumerate(route, start=1):
            p = wp.point
            k = slot.get((p.lat_deg, p.lon_deg, p.alt_m, wp.index))
            if k is None:
                every = (w for r in plan.values() for w in r)
                stray = [w for w in every if (w.point.lat_deg, w.point.lon_deg, w.point.alt_m, w.index) not in slot]
                raise ValueError(f"plan contains waypoints not in the grid: {stray[:3]}")
            if owners[k] is not free:
                raise ValueError(f"plan routes a waypoint more than once: {wp}")
            owners[k] = (aid, order)
    del slot

    features = []
    for wp, (aid, order) in zip(points, owners):
        p = wp.point
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
    for aid, route in plan.items():
        if not route:
            continue  # a LineString needs at least two positions
        home = by_id[aid].home
        coordinates = [[p.lon_deg, p.lat_deg, p.alt_m] for p in (home, *[wp.point for wp in route])]
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


def _encode(value) -> str:
    """JSON text of ``value`` as ``json.dumps(value, separators=(",", ":"),
    allow_nan=False)`` writes it. A finite float, an int and None are
    rendered here; anything else goes to ``json``."""
    kind = type(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _cached(cache: dict, value) -> str:
    """``_encode(value)``, kept in ``cache`` for strings and nonzero floats.

    Agent ids, altitudes and the coordinates of a waypoint (in its Point and
    again in its route) repeat, and a float repr is the dearest step of a
    writer. Equal floats share a repr except 0.0 and -0.0, which are not
    kept, and no str equals a float.
    """
    if type(value) is not str and (type(value) is not float or not value):
        return _encode(value)
    text = cache.get(value)
    if text is None:
        text = cache[value] = _encode(value)
    return text


class _OffTemplate(Exception):
    """A document the templates of ``dumps_geojson`` do not cover."""


def _scalar(cache: dict, value) -> str:
    """``_cached(cache, value)`` for a str, an int, a finite float or None,
    whose compact text is also its indented one; any other is off-template."""
    kind = type(value)
    if kind is str or kind is int or value is None or (kind is float and value - value == 0.0):
        return _cached(cache, value)
    raise _OffTemplate


_POINT_KEYS = ("lattice_index", "agent_id", "visit_order")
_LINE_KEYS = ("agent_id", "leg_count", "total_length_m")
_FEATURE = (
    '    {\n      "type": "Feature",\n      "geometry": {\n        "type": "%s",\n'
    '        "coordinates": %s\n      },\n      "properties": {\n%s\n      }\n    }'
)
# The two features export_geojson builds, as json.dumps(indent=2) writes them
# at the depth of a feature in the collection.
_POINT_FEATURE = _FEATURE % (
    "Point",
    "[\n          %s,\n          %s,\n          %s\n        ]",
    '        "lattice_index": [\n          %d,\n          %d\n        ],\n'
    '        "agent_id": %s,\n        "visit_order": %s',
)
_LINE_FEATURE = _FEATURE % (
    "LineString",
    "[\n          %s\n        ]",
    '        "agent_id": %s,\n        "leg_count": %s,\n        "total_length_m": %s',
)
_LINE_XYZ = "[\n            %s,\n            %s,\n            %s\n          ]"
_COLLECTION = '{\n  "type": "FeatureCollection",\n  "features": [\n%s\n  ]\n}\n'
_EMPTY_COLLECTION = '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'


def _position(cache: dict, c) -> str:
    """One [lon, lat, alt] of three floats in a LineString."""
    if type(c) is list and len(c) == 3:
        x, y, z = c
        if type(x) is float and type(y) is float and type(z) is float:
            get = cache.get  # a cached text is never empty; a miss or a zero goes to _scalar
            return _LINE_XYZ % (get(x) or _scalar(cache, x), get(y) or _scalar(cache, y), get(z) or _scalar(cache, z))
    raise _OffTemplate


def _line_feature(cache: dict, coords, props: dict) -> str:
    """A LineString feature's template filled from its coordinates and
    properties as ``export_geojson`` builds them; any other is off-template."""
    if tuple(props) == _LINE_KEYS and type(coords) is list and coords:
        text = ",\n          ".join([_position(cache, c) for c in coords])
        return _LINE_FEATURE % (text, *[_scalar(cache, v) for v in props.values()])
    raise _OffTemplate


def _features(features: list) -> str:
    """The texts of ``features``, joined: each a Point or LineString feature
    as ``export_geojson`` builds it, filled into its template; any other
    feature is off-template.

    A Point is matched and filled here, a LineString by ``_line_feature``.
    An int visit order and the lattice index are formatted by ``%``; an
    agent id is looked up in the cache only once it is known to be a str, as
    ``cache.get`` of an unhashable value raises TypeError. The parts die with
    this call, before the caller wraps their join in the collection.
    """
    cache: dict = {}
    get = cache.get  # a cached text is never empty; a miss or a zero goes to _scalar
    parts = []
    append = parts.append
    for feature in features:
        if type(feature) is dict and tuple(feature) == ("type", "geometry", "properties") and feature["type"] == "Feature":
            geometry, props = feature["geometry"], feature["properties"]
            if type(geometry) is dict and tuple(geometry) == ("type", "coordinates") and type(props) is dict:
                kind, coords = geometry["type"], geometry["coordinates"]
                if kind == "Point":
                    if tuple(props) == _POINT_KEYS and type(coords) is list and len(coords) == 3:
                        (x, y, z), (index, aid, order) = coords, props.values()
                        if (
                            type(x) is float and type(y) is float and type(z) is float
                            and type(index) is list and len(index) == 2
                            and type(index[0]) is int and type(index[1]) is int
                        ):
                            append(_POINT_FEATURE % (
                                get(x) or _scalar(cache, x), get(y) or _scalar(cache, y),
                                get(z) or _scalar(cache, z), index[0], index[1],
                                (get(aid) or _scalar(cache, aid)) if type(aid) is str else _scalar(cache, aid),
                                order if type(order) is int else _scalar(cache, order),
                            ))
                            continue
                elif kind == "LineString":
                    append(_line_feature(cache, coords, props))
                    continue
        raise _OffTemplate
    return ",\n".join(parts)


def dumps_geojson(doc: dict) -> str:
    """Strict JSON: a NaN or infinite coordinate raises ValueError.

    An empty collection is fixed text, so it makes no ``json.dumps`` call,
    whose pure-Python encoder leaves a cycle under ``cli.main``'s paused
    collector."""
    if type(doc) is dict and tuple(doc) == ("type", "features") and doc["type"] == "FeatureCollection":
        features = doc["features"]
        if type(features) is list:
            if not features:
                return _EMPTY_COLLECTION
            try:
                body = _features(features)
            except _OffTemplate:
                pass
            else:
                return _COLLECTION % body
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_BOOKEND_LINE = '{"event":%s,"t":%s,"agent_id":%s}'
_OBSERVATION_LINE = (
    '{"event":"waypoint_reached","t":%s,"agent_id":%s,"lat":%s,"lon":%s,"alt":%s,'
    '"radiation_usv_s":%s,"camera":{"altitude_m":%s,"half_fov_deg":%s,'
    '"footprint_width_m":%s,"lattice_index":[%d,%d]}}'
)


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
    lines = [_encode(header)]
    half_fov = _encode(log.camera.half_fov_deg)
    footprint = _encode(footprint_width(log.camera))
    cache: dict = {}
    for event in log.events:
        if event.kind == "waypoint_reached":
            p = event.waypoint.point
            alt = _cached(cache, p.alt_m)
            lines.append(_OBSERVATION_LINE % (
                _encode(event.t), _cached(cache, event.agent_id), _cached(cache, p.lat_deg), _cached(cache, p.lon_deg),
                alt, _encode(event.radiation_usv_s), alt, half_fov, footprint, *_int_pair(event.waypoint.index),
            ))
        else:
            lines.append(_BOOKEND_LINE % (_cached(cache, event.kind), _encode(event.t), _cached(cache, event.agent_id)))
    return "\n".join(lines) + "\n"


_DIGEST = '{"camera":[%s,%s,%s],"dwell_s":%s,"fleet":[%s],"noise":[%s,%s],"routes":{%s},"seed":%s,"sources":[%s]}'


def _geo(cache: dict, p) -> str:
    """A position in the digest: "[lat,lon,alt]"."""
    return "[%s,%s,%s]" % (_cached(cache, p.lat_deg), _cached(cache, p.lon_deg), _cached(cache, p.alt_m))


def config_digest(
    plan: dict[str, list[Waypoint]],
    fleet: Sequence[Agent],
    sources: Sequence[RadiationSource],
    noise: NoiseSpec,
    seed: int,
    camera: CameraModel,
    dwell_s: float,
) -> str:
    """SHA-256 of the compact JSON of every input that shapes the log, keys
    and agent ids sorted, with each waypoint as ``[[lat,lon,alt],[i,j]]``.
    ``fleet`` obeys the fleet rules, so ids are ``Agent``'s strings and each
    index is ``Waypoint``'s int pair. Each coordinate is rendered once per call."""
    _check_fleet(fleet, plan)
    cache: dict = {}
    routes = []
    for aid in sorted(plan):
        items = ",".join(["[%s,[%d,%d]]" % (_geo(cache, w.point), *w.index) for w in plan[aid]])
        routes.append("%s:[%s]" % (_cached(cache, aid), items))
    blob = _DIGEST % (
        _encode(camera.half_fov_deg), _encode(camera.overlap_fraction), _encode(camera.altitude_m), _encode(dwell_s),
        ",".join(["[%s,%s,%s]" % (_cached(cache, a.id), _geo(cache, a.home), _encode(a.velocity_mps)) for a in fleet]),
        _encode(noise.kind), _encode(noise.relative_sd), ",".join(routes), _encode(seed),
        ",".join(["[%s,%s]" % (_geo(cache, s.position), _encode(s.sigma)) for s in sources]),
    )
    import hashlib  # here, not at the top: only simulate hashes, so no other command loads OpenSSL
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
