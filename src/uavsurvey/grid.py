"""Waypoint lattice generation over a polygonal survey region.

Pipeline: axis-aligned bounding rectangle, camera-driven spacing, lattice
axes with one spacing of overhang past the north/east edges, then a
scanline point-in-polygon filter over the rows, south to north; only the
points it keeps are built.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress

from .geodesy import GeoPoint, _is_finite, _shown, _warn_if_wide, meters_per_degree


# Most lattice points one mission may ask for. A camera spacing of
# centimeters over a region of hundreds of meters would otherwise ask for
# billions of points.
MAX_LATTICE_POINTS = 1_000_000


class EmptyGridWarning(UserWarning):
    """No lattice point fell inside the polygon."""


def _xy(p: GeoPoint) -> tuple[float, float]:
    return (p.lon_deg, p.lat_deg)


def _orient(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _between(a, b, c) -> bool:
    """True if collinear point c lies within the bounding box of segment ab."""
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """True if segment p1p2 touches or crosses segment p3p4."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and 0.0 not in (d1, d2, d3, d4):
        return True
    if d1 == 0.0 and _between(p3, p4, p1):
        return True
    if d2 == 0.0 and _between(p3, p4, p2):
        return True
    if d3 == 0.0 and _between(p1, p2, p3):
        return True
    if d4 == 0.0 and _between(p1, p2, p4):
        return True
    return False


@dataclass(frozen=True)
class PolygonRegion:
    """A simple polygon of WGS-84 vertices; implicitly closed, altitude ignored."""

    vertices: tuple[GeoPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(self.vertices)}")
        pts = [_xy(v) for v in self.vertices]
        lon_span = max(pts)[0] - min(pts)[0]  # (lon, lat) tuples order by longitude first
        if lon_span >= 180.0:
            raise ValueError(
                f"vertex longitudes span {lon_span} degrees; a region must span less than "
                "180 degrees of longitude, and one across the antimeridian is not supported"
            )
        n = len(pts)
        for k in range(n):
            if pts[k] == pts[(k + 1) % n]:
                raise ValueError(f"repeated consecutive vertex at position {k}")
        # A triangle has no non-adjacent edges for the test below to check.
        if n == 3 and _orient(*pts) == 0.0:
            raise ValueError("polygon's 3 vertices are collinear; region must have nonzero area")
        # Non-adjacent edges must not touch or cross; edge i runs from vertex
        # i to i + 1, and its neighbours are i - 1 and i + 1 modulo n. Edges
        # can touch only if their bounding boxes overlap: sweep the boxes
        # west to east to collect those pairs, then test them in (i, j) order
        # so the pair reported is the lexicographically first that touches.
        edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
        boxes = sorted(
            (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]), i)
            for i, (a, b) in enumerate(edges)
        )
        pairs = []
        for k, (_, east, south, north, i) in enumerate(boxes):
            m = k + 1
            while m < n and boxes[m][0] <= east:
                _, _, south2, north2, j = boxes[m]
                if south2 <= north and south <= north2 and (i - j) % n not in (1, n - 1):
                    pairs.append((i, j) if i < j else (j, i))
                m += 1
        for i, j in sorted(pairs):
            if _segments_intersect(*edges[i], *edges[j]):
                raise ValueError(f"polygon edges {i} and {j} intersect; region must be simple")


@dataclass(frozen=True)
class CircumRectangle:
    """Axis-aligned latitude/longitude bounds enclosing the survey polygon."""

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise ValueError("rectangle bounds must satisfy min <= max on both axes")


@dataclass(frozen=True)
class CameraModel:
    """Downward survey camera: half field of view, image overlap, flight altitude."""

    half_fov_deg: float = 45.0
    overlap_fraction: float = 0.2
    altitude_m: float = 32.0

    def __post_init__(self) -> None:
        if not (_is_finite(self.half_fov_deg) and 0.0 < self.half_fov_deg < 90.0):
            raise ValueError(f"half_fov_deg must be within (0, 90), got {_shown(self.half_fov_deg)}")
        if not (_is_finite(self.overlap_fraction) and 0.0 <= self.overlap_fraction < 1.0):
            raise ValueError(
                f"overlap_fraction must satisfy 0 <= overlap_fraction < 1, got {_shown(self.overlap_fraction)}"
            )
        if not (_is_finite(self.altitude_m) and self.altitude_m > 0.0):
            raise ValueError(f"altitude_m must be > 0, got {_shown(self.altitude_m)}")
        if not math.isfinite(footprint_width(self)):
            raise ValueError("footprint width 2 * altitude_m * tan(half_fov_deg) must be finite, got inf")


def _int_pair(index) -> tuple[int, int]:
    """The lattice index rule: ``index`` if it is a tuple of two ints, else ValueError naming it."""
    if type(index) is tuple and len(index) == 2 and type(index[0]) is int and type(index[1]) is int:
        return index
    raise ValueError(f"lattice index must be a pair of ints, got {_shown(index, repr)}")


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A survey point and its (row, column) lattice index, two ints by ``_int_pair``'s rule."""

    point: GeoPoint
    index: tuple[int, int]

    def __post_init__(self) -> None:
        _int_pair(self.index)


@dataclass(frozen=True)
class WaypointGrid:
    """The filtered survey lattice plus its spacing."""

    spacing_m: float
    points: tuple[Waypoint, ...]


def bounding_rectangle(region: PolygonRegion) -> CircumRectangle:
    """Component-wise min/max over the region's vertices."""
    lats = [v.lat_deg for v in region.vertices]
    lons = [v.lon_deg for v in region.vertices]
    return CircumRectangle(min(lats), max(lats), min(lons), max(lons))


def footprint_width(camera: CameraModel) -> float:
    """Ground width imaged from the flight altitude: 2 * h * tan(half FOV)."""
    return 2.0 * camera.altitude_m * math.tan(math.radians(camera.half_fov_deg))


def grid_spacing(camera: CameraModel) -> float:
    """Waypoint spacing in meters giving the requested overlap between images."""
    y = camera.overlap_fraction
    return footprint_width(camera) * (1.0 - y) / (1.0 + y)


def _axis_count(low: float, high: float, step: float, quotient: float) -> int:
    """How many of ``low + k * step``, k = 1, 2, ..., lie below ``high + step``,
    plus k = 0, up to ``MAX_LATTICE_POINTS + 1``: about ``ceil(quotient) + 1``
    for the span over the step as ``quotient``, corrected with that comparison."""
    n = math.ceil(min(quotient, MAX_LATTICE_POINTS)) + 1
    while n > 1 and not low + (n - 1) * step < high + step:
        n -= 1
    while n <= MAX_LATTICE_POINTS and low + n * step < high + step:
        n += 1
    return n


def _lattice_axes(rect: CircumRectangle, spacing_m: float) -> tuple[list[float], list[float]]:
    """The lattice's row latitudes and column longitudes, from the
    rectangle's SW corner.

    Rows and columns extend one spacing past the north/east edges so tiles
    may overhang the rectangle; a spacing many times its size leaves only
    the SW corner in it. Degree steps are converted once at the southern
    latitude. Refused before any point is built, whatever the spacing: one
    that is not positive and finite, a lattice of more than
    :data:`MAX_LATTICE_POINTS` points, and a last row north of 90 degrees.
    """
    if isinstance(spacing_m, (int, float)) and not spacing_m > 0.0:
        raise ValueError(f"spacing_m must be > 0, got {_shown(spacing_m)}")
    if not _is_finite(spacing_m):
        raise ValueError(f"spacing_m must be finite, got {_shown(spacing_m)}")
    m_lat, m_lon = meters_per_degree(rect.min_lat)
    span_lat_m = (rect.max_lat - rect.min_lat) * m_lat
    span_lon_m = (rect.max_lon - rect.min_lon) * m_lon
    dlat = spacing_m / m_lat
    dlon = spacing_m / m_lon
    rows = _axis_count(rect.min_lat, rect.max_lat, dlat, span_lat_m / spacing_m)
    cols = _axis_count(rect.min_lon, rect.max_lon, dlon, span_lon_m / spacing_m)
    if rows * cols > MAX_LATTICE_POINTS:
        raise ValueError(
            f"grid spacing {spacing_m:.4g} m over a {span_lat_m:.0f} m x {span_lon_m:.0f} m rectangle "
            f"gives more than {MAX_LATTICE_POINTS} lattice points"
        )
    lats = [rect.min_lat + i * dlat for i in range(rows)]
    if lats[-1] > 90.0:
        raise ValueError(
            f"lattice row at {lats[-1]} degrees passes the north pole: the region ends within "
            f"one grid spacing ({spacing_m:.3f} m) of 90 degrees north"
        )
    return lats, [rect.min_lon + j * dlon for j in range(cols)]


def generate_lattice(rect: CircumRectangle, spacing_m: float, origin_alt_m: float) -> list[Waypoint]:
    """The whole lattice of :func:`_lattice_axes`, in row-major (i, j) order."""
    lats, lons = _lattice_axes(rect, spacing_m)
    return [
        Waypoint(GeoPoint(lat, lon, origin_alt_m), (i, j))
        for i, lat in enumerate(lats)
        for j, lon in enumerate(lons)
    ]


def point_in_polygon(p: GeoPoint, region: PolygonRegion) -> bool:
    """Ray-cast containment test: an eastward ray crossing the boundary an odd
    number of times means the point is inside.

    Boundary points count as inside. Vertex hits are resolved by the half-open
    rule: an edge is crossed iff exactly one endpoint is strictly north of the
    ray latitude. This is the row filter of :func:`generate_waypoints` on a
    one-point row.
    """
    return next(_rows_inside(_edges(region), (p.lat_deg,), (p.lon_deg,)))[0]


def _edges(region: PolygonRegion) -> list[tuple[float, float, float, float]]:
    """The polygon's edges as ``(alat, alon, blat, blon)`` tuples."""
    v = region.vertices
    return [(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg) for a, b in zip(v[-1:] + v[:-1], v)]


def _rows_inside(edges, lats, lons):
    """:func:`point_in_polygon` over a lattice: yields one keep-mask over
    ``lons`` per row latitude of ``lats``, both ascending.

    Polygon scan conversion with an active edge table (Foley, van Dam,
    Feiner and Hughes, Computer Graphics, 2nd ed., 1990, 3.6), in scanline
    order: an edge enters the active list when the rows reach its south end
    and leaves once a row lies north of its north end, so a row sees only
    the edges whose latitude range holds it. Their crossings come in pairs
    (each flips whether the boundary lies north of the row, and a closed
    boundary ends where it starts), and each pair of sorted crossings bounds
    one inside run of columns, filled by one slice. A column parity left
    outside is inside if it lies on an active edge: within its longitude
    range (found by bisect) and collinear with it (cross product exactly 0).
    O(V log V + active edges per row + columns in their ranges) in all.
    """
    order = sorted(  # by south end first
        (min(alat, blat), max(alat, blat), min(alon, blon), max(alon, blon), alat, alon, blat, blon)
        for alat, alon, blat, blon in edges
    )
    k = 0
    active = []
    for lat in lats:
        while k < len(order) and order[k][0] <= lat:
            active.append(order[k])
            k += 1
        active = [e for e in active if e[1] >= lat]
        crossings = sorted([
            alon + (lat - alat) * (blon - alon) / (blat - alat)
            for _, _, _, _, alat, alon, blat, blon in active
            if (alat > lat) != (blat > lat)
        ])
        # A column lies west of a crossing iff it comes before the crossing's cut.
        cuts = [bisect_left(lons, x) for x in crossings]
        inside = [False] * len(lons)
        for a, b in zip(cuts[::2], cuts[1::2]):
            inside[a:b] = [True] * (b - a)
        for _, _, west, east, alat, alon, blat, blon in active:
            t = (blon - alon) * (lat - alat)
            for j in range(bisect_left(lons, west), bisect_right(lons, east)):
                if not inside[j] and (blat - alat) * (lons[j] - alon) - t == 0.0:
                    inside[j] = True
        yield inside


def generate_waypoints(region: PolygonRegion, camera: CameraModel) -> WaypointGrid:
    """Survey grid for the region: the lattice points over its bounding
    rectangle that lie inside or on the polygon, filtered row by row by
    :func:`_rows_inside` and built only if kept. A rectangle wider than
    :data:`~uavsurvey.geodesy.FLAT_PLANE_MAX_SPAN_DEG` on either axis raises
    :class:`~uavsurvey.geodesy.FlatPlaneWarning`."""
    rect = bounding_rectangle(region)
    _warn_if_wide(rect.max_lat - rect.min_lat, rect.max_lon - rect.min_lon)
    spacing = grid_spacing(camera)
    lats, lons = _lattice_axes(rect, spacing)
    kept = tuple(
        Waypoint(GeoPoint(lat, lon, camera.altitude_m), (i, j))
        for i, (lat, inside) in enumerate(zip(lats, _rows_inside(_edges(region), lats, lons)))
        for j, lon in compress(enumerate(lons), inside)
    )
    if not kept:
        warnings.warn(
            "no lattice point falls inside the region; grid is empty",
            EmptyGridWarning,
            stacklevel=2,
        )
    return WaypointGrid(spacing_m=spacing, points=kept)
