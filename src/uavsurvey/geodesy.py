"""Flat-plane geodesy for small survey regions.

Converts between WGS-84 positions and local east/north/up offsets in
meters. Everything uses a spherical-earth equirectangular approximation
with the WGS-84 equatorial radius, which is adequate for regions spanning
well under a degree; wider spans raise :class:`FlatPlaneWarning`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

EARTH_RADIUS_M = 6378137.0  # WGS-84 equatorial radius
METERS_PER_DEG_LAT = math.pi * EARTH_RADIUS_M / 180.0

# Above this span (degrees, either axis) the flat-plane model degrades.
FLAT_PLANE_MAX_SPAN_DEG = 1.0


class FlatPlaneWarning(UserWarning):
    """Points are far enough apart to strain the flat-plane assumption."""


def _is_finite(value) -> bool:
    """True for a finite float and for an int that some float equals. A bool,
    a value that is not an int or a float (``"7"``, None), an int beyond the
    float range and one no float equals (``2**53 + 1``) are not finite. By
    this rule every value class refuses a non-finite number with ValueError,
    and keeps only ints that parse back equal from their serialized form."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and float(value) == value
    except OverflowError:
        return False


def _utf8_error(text: str) -> str | None:
    """Why ``text`` has no UTF-8 encoding to print or write, or None if it has
    one: a lone surrogate (JSON's "\\ud800") has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"lone surrogate {text[exc.start]!r} at index {exc.start} has no UTF-8 encoding"
    return None


def _shown(value, show=format) -> str:
    """``show(value)`` for a refusal message, as an f-string field shows it.
    Python refuses to print an int of more than ``sys.get_int_max_str_digits()``
    digits, so such a value, or one holding it, is shown as a placeholder and
    the message still names its field."""
    try:
        return show(value)
    except ValueError:
        return "<int too large to print>"


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 position: latitude/longitude in degrees, altitude in meters.

    Each coordinate is a finite int or float, not a bool. Longitude is
    normalized into [-180, 180); latitude must lie in [-90, 90] and altitude
    must be non-negative.
    """

    lat_deg: float
    lon_deg: float
    alt_m: float = 0.0

    def __post_init__(self) -> None:
        lat, lon, alt = self.lat_deg, self.lon_deg, self.alt_m
        # Floats already in range, such as every lattice point, need nothing
        # more; any other value takes the checks below.
        if (
            type(lat) is float and type(lon) is float and type(alt) is float
            and -90.0 <= lat <= 90.0 and -180.0 <= lon < 180.0 and 0.0 <= alt < math.inf
        ):
            return
        for name in ("lat_deg", "lon_deg", "alt_m"):
            value = getattr(self, name)
            if type(value) is bool:
                raise ValueError(f"{name} must be a number, got bool")
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite")
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"lat_deg must be within [-90, 90], got {self.lat_deg}")
        if self.alt_m < 0.0:
            raise ValueError(f"alt_m must be >= 0, got {self.alt_m}")
        if not -180.0 <= self.lon_deg < 180.0:
            # Wrap only when out of range so in-range values stay bit-identical.
            lon = math.remainder(self.lon_deg, 360.0)  # exact, within [-180, 180]
            object.__setattr__(self, "lon_deg", -180.0 if lon == 180.0 else lon)


@dataclass(frozen=True)
class EnuOffset:
    """A metric displacement: east/north/up components in meters."""

    east_m: float
    north_m: float
    up_m: float = 0.0

    def __post_init__(self) -> None:
        for name in ("east_m", "north_m", "up_m"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def meters_per_degree(lat_deg: float) -> tuple[float, float]:
    """Meters spanned by one degree of latitude and of longitude at ``lat_deg``.

    Returns:
        ``(m_per_deg_lat, m_per_deg_lon)``. The latitude figure is the constant
        pi * R / 180; the longitude figure shrinks with cos(latitude) and
        vanishes at the poles.
    """
    if not (isinstance(lat_deg, (int, float)) and -90.0 <= lat_deg <= 90.0):
        raise ValueError(f"latitude out of range [-90, 90]: {_shown(lat_deg)}")
    return METERS_PER_DEG_LAT, METERS_PER_DEG_LAT * math.cos(math.radians(lat_deg))


def _warn_if_wide(dlat_deg: float, dlon_deg: float) -> None:
    if abs(dlat_deg) > FLAT_PLANE_MAX_SPAN_DEG or abs(dlon_deg) > FLAT_PLANE_MAX_SPAN_DEG:
        warnings.warn(
            f"span of ({abs(dlat_deg):.3f}, {abs(dlon_deg):.3f}) degrees exceeds "
            f"{FLAT_PLANE_MAX_SPAN_DEG}; the flat-plane approximation degrades",
            FlatPlaneWarning,
            stacklevel=3,
        )


def gps_difference(origin: GeoPoint, target: GeoPoint) -> EnuOffset:
    """Displacement from ``origin`` to ``target`` in meters.

    The longitude scale factor is evaluated at the origin latitude. Longitude
    differences wrap across the antimeridian so the short way is measured.
    """
    dlat = target.lat_deg - origin.lat_deg
    dlon = math.remainder(target.lon_deg - origin.lon_deg, 360.0)
    _warn_if_wide(dlat, dlon)
    m_lat, m_lon = meters_per_degree(origin.lat_deg)
    return EnuOffset(
        east_m=dlon * m_lon,
        north_m=dlat * m_lat,
        up_m=target.alt_m - origin.alt_m,
    )


def gps_offset(origin: GeoPoint, offset: EnuOffset) -> GeoPoint:
    """Position reached from ``origin`` by ``offset``; inverse of gps_difference."""
    m_lat, m_lon = meters_per_degree(origin.lat_deg)
    return GeoPoint(
        lat_deg=origin.lat_deg + offset.north_m / m_lat,
        lon_deg=origin.lon_deg + offset.east_m / m_lon,
        alt_m=origin.alt_m + offset.up_m,
    )


def distance_m(a: GeoPoint, b: GeoPoint) -> float:
    """Straight-line distance in meters, including the vertical component.

    Symmetric by construction: the longitude scale factor uses the midpoint
    latitude and the wrapped longitude difference is an odd function, so
    ``distance_m(a, b) == distance_m(b, a)`` bit for bit.
    """
    north = (b.lat_deg - a.lat_deg) * METERS_PER_DEG_LAT
    dlon = math.remainder(b.lon_deg - a.lon_deg, 360.0)
    east = dlon * METERS_PER_DEG_LAT * math.cos(math.radians(0.5 * (a.lat_deg + b.lat_deg)))
    return math.hypot(east, north, b.alt_m - a.alt_m)

