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


def _check_number(name: str, value, rule: str = "be finite", ok=None) -> None:
    """The number rule of every value class and numeric parameter. A bool, or a
    value that is not an int or a float (``"7"``, None), raises ValueError
    "{name} must be a number, got {type}". So does, as "{name} must {rule},
    got {value}", a value that is not finite, an int that no float equals
    (``2**53 + 1``; an int beyond the float range is not finite) or one that
    fails ``ok``. An accepted int thus parses back equal from its serialized
    form."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {type(value).__name__}")
    try:
        exact = math.isfinite(value) and float(value) == value
    except OverflowError:
        exact = False
    if not (exact and (ok is None or ok(value))):
        raise ValueError(f"{name} must {rule}, got {_shown(value)}")


# Rules that more than one field takes, as _check_number's rule and ok.
_LATITUDE = ("be within [-90, 90]", lambda v: -90.0 <= v <= 90.0)
_NON_NEGATIVE = ("be finite and >= 0", lambda v: v >= 0.0)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 position: latitude/longitude in degrees, altitude in meters.

    Each coordinate takes :func:`_check_number`'s rule. Longitude is
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
        _check_number("lat_deg", lat, *_LATITUDE)
        _check_number("lon_deg", lon)
        _check_number("alt_m", alt, "be >= 0", lambda v: v >= 0.0)
        if not -180.0 <= lon < 180.0:
            # Wrap only when out of range so in-range values stay bit-identical.
            lon = math.remainder(lon, 360.0)  # exact, within [-180, 180]
            object.__setattr__(self, "lon_deg", -180.0 if lon == 180.0 else lon)


def _check_point(name: str, value) -> None:
    """The position rule: ``value`` is a GeoPoint, else ValueError
    "{name} must be a GeoPoint, got {type}"."""
    if not isinstance(value, GeoPoint):
        raise ValueError(f"{name} must be a GeoPoint, got {type(value).__name__}")


@dataclass(frozen=True)
class EnuOffset:
    """A metric displacement: east/north/up components in meters."""

    east_m: float
    north_m: float
    up_m: float = 0.0

    def __post_init__(self) -> None:
        _check_number("east_m", self.east_m)
        _check_number("north_m", self.north_m)
        _check_number("up_m", self.up_m)


def meters_per_degree(lat_deg: float) -> tuple[float, float]:
    """Meters spanned by one degree of latitude and of longitude at ``lat_deg``.

    Returns:
        ``(m_per_deg_lat, m_per_deg_lon)``. The latitude figure is the constant
        pi * R / 180; the longitude figure shrinks with cos(latitude) and
        vanishes at the poles.
    """
    _check_number("lat_deg", lat_deg, *_LATITUDE)
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

