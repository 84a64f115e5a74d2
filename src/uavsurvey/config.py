"""Mission configuration: JSON parsing, validation, serialization.

The schema is a key-value tree documented in the README. Parse errors name
the offending path; invariant violations surface the violated rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .geodesy import METERS_PER_DEG_LAT, GeoPoint, _utf8_error
from .grid import CameraModel, PolygonRegion, _lattice_axes, bounding_rectangle, grid_spacing
from .radiation import GAUSS_MAX_Z, MIN_DISTANCE_M, NoiseSpec, RadiationSource
from .routing import Agent, _check_fleet
from .sim import _check_dwell


class ConfigError(ValueError):
    """A mission config failed schema or invariant validation."""


@dataclass(frozen=True, kw_only=True)
class MissionConfig:
    """Everything one survey mission needs, validated: the document's keys, in its order."""

    mission_id: str | None = None
    region: PolygonRegion
    camera: CameraModel = field(default_factory=CameraModel)
    fleet: tuple[Agent, ...]
    sources: tuple[RadiationSource, ...] = ()
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    dwell_s: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise _fail("seed", f"expected an integer, got {type(self.seed).__name__}")
        if self.mission_id is not None:
            _string(self.mission_id, "mission_id")
        _check_fleet(self.fleet)
        _check_dwell(self.dwell_s)
        lats, lons = _build("camera", _lattice_axes, bounding_rectangle(self.region), grid_spacing(self.camera))
        # An agent flies at most one leg and one dwell per lattice point. A leg
        # is at most the sum of the spans over the lattice and the homes below,
        # since distance_m is a hypot of wrapped differences. Twice the bound
        # on event times must be finite, the factor covering rounding.
        ends = [(lats[i], lons[i], self.camera.altitude_m) for i in (0, -1)]
        ends += [(a.home.lat_deg, a.home.lon_deg, a.home.alt_m) for a in self.fleet]
        lat_span, lon_span, alt_span = (max(x) - min(x) for x in zip(*ends))
        k, slowest = min(enumerate(self.fleet), key=lambda item: item[1].velocity_mps)
        leg_m = (lat_span + lon_span) * METERS_PER_DEG_LAT + alt_span
        leg_s = leg_m / slowest.velocity_mps
        points = len(lats) * len(lons)
        if not 2.0 * points * (self.dwell_s + leg_s) < math.inf:
            if self.dwell_s >= leg_s:
                path = "dwell_s"
            elif 2.0 * points * (self.dwell_s + leg_m) < math.inf:  # the times fit at 1 m/s
                path = f"fleet[{k}].velocity_mps"
            else:
                # Degrees are bounded, so the leg is long because of an
                # altitude: the one farthest from zero, the camera's first.
                alts = [self.camera.altitude_m] + [a.home.alt_m for a in self.fleet]
                j = max(range(len(alts)), key=lambda i: abs(alts[i]))
                path = f"fleet[{j - 1}].home" if j else "camera.altitude_m"
            raise _fail(path, f"event times up to {points} x ({self.dwell_s} s dwell + {leg_s:.6g} s leg) overflow")
        # Every reading is at most the sources' levels at the MIN_DISTANCE_M
        # clamp, summed as field_levels sums, times 1 + GAUSS_MAX_Z * sd for
        # gaussian noise. Float rounding is monotone, so this bound in the
        # same operations must be finite.
        ceiling = 0.0
        for k, source in enumerate(self.sources):
            ceiling += source.sigma / (MIN_DISTANCE_M * MIN_DISTANCE_M)
            if ceiling == math.inf:
                message = f"readings up to the sum of sigma / {MIN_DISTANCE_M}^2 over sources[:{k + 1}] overflow"
                raise _fail(f"sources[{k}].sigma", message)
        sd = self.noise.relative_sd
        if self.noise.kind == "gaussian" and ceiling > 0.0 and not ceiling * (1.0 + GAUSS_MAX_Z * sd) < math.inf:
            message = f"readings up to {ceiling:.6g} uSv/s x (1 + {GAUSS_MAX_Z} x {sd}) overflow"
            raise _fail("noise.relative_sd", message)


def _fail(path: str, message) -> ConfigError:
    """``message`` as a ConfigError naming ``path``, unless that is the top level ("")."""
    return ConfigError(f"{path}: {message}" if path else str(message))


def _build(path: str, make, *args):
    """``make(*args)``, with the path prefixed to any ValueError it raises
    other than a ConfigError, which already names its own path."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise _fail(path, exc) from None


def _object(value, path: str, cls, table: dict, required: tuple, expected: str = "an object"):
    """``cls`` built from the config object ``value`` at ``path`` ("" for the
    top level): its type, unknown keys and ``required`` keys checked in that
    order, then each key present converted in ``table``'s order. An absent key
    takes ``cls``'s default."""
    where = path or "top level"
    if not isinstance(value, dict):
        raise _fail(where, f"expected {expected}")
    if not value.keys() <= table.keys():
        raise _fail(where, f"unknown key(s) {sorted(value.keys() - table.keys())}; allowed: {sorted(table)}")
    for key in required:
        if key not in value:
            raise _fail(f"{path}.{key}" if path else key, "required key is missing")
    prefix = f"{path}." if path else ""
    kwargs = {key: convert(value[key], prefix + key) for key, convert in table.items() if key in value}
    return _build(path, lambda: cls(**kwargs))


def _list(value, path: str, expected: str, convert, *args) -> tuple:
    """The list ``value`` at ``path``, item k converted by ``convert(item, f"{path}[{k}]", *args)``."""
    if not isinstance(value, list):
        raise _fail(path, f"expected {expected}")
    return tuple([convert(item, f"{path}[{k}]", *args) for k, item in enumerate(value)])


def _number(value, path: str) -> float:
    # A JSON value's type is exact: a bool's is bool, not int.
    if type(value) is not float:
        if type(value) is not int:
            raise _fail(path, f"expected a number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
    if not math.isfinite(value):
        raise _fail(path, f"expected a finite number, got {value}")
    return value


def _string(value, path: str) -> str:
    """``value``, refused if it is not a str or has no UTF-8 encoding."""
    if not isinstance(value, str):
        raise _fail(path, "expected a string")
    if _utf8_error(value):
        raise _fail(path, _utf8_error(value))
    return value


def _given(value, path: str):
    """``value`` as it is, for a key whose class checks it."""
    return value


def _geopoint(value, path: str) -> GeoPoint:
    if not isinstance(value, list) or len(value) not in (2, 3):
        raise _fail(path, "expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]")
    lat = _number(value[0], f"{path}[0]")
    lon = _number(value[1], f"{path}[1]")
    if len(value) == 3:
        return _build(path, GeoPoint, lat, lon, _number(value[2], f"{path}[2]"))
    return _build(path, GeoPoint, lat, lon)


def _fleet(value, path: str) -> tuple[Agent, ...]:
    fleet = _list(value, path, "a list of agents", _object, *_AGENT)
    _build(path, _check_fleet, fleet)
    return fleet


def _schema(cls, **table) -> tuple:
    """``_object``'s ``cls``, ``table`` (a converter per field, in declaration
    order) and ``required`` (the fields with no default)."""
    required = tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    return cls, table, required


_CAMERA = _schema(CameraModel, half_fov_deg=_number, overlap_fraction=_number, altitude_m=_number)
_AGENT = _schema(Agent, id=_string, home=_geopoint, velocity_mps=_number)
_SOURCE = _schema(RadiationSource, position=_geopoint, sigma=_number)
_NOISE = _schema(NoiseSpec, kind=_given, relative_sd=_number)
_MISSION = _schema(
    MissionConfig,
    mission_id=_given,
    region=lambda value, path: _build(path, PolygonRegion, _list(value, path, "a list of vertices", _geopoint)),
    camera=lambda value, path: _object(value, path, *_CAMERA),
    fleet=_fleet,
    sources=lambda value, path: _list(value, path, "a list", _object, *_SOURCE),
    noise=lambda value, path: _object(  # the object, or its kind alone as a string
        {"kind": value} if isinstance(value, str) else value, path, *_NOISE, expected="'none', 'gaussian', or an object"
    ),
    seed=_given,
    dwell_s=_number,
)


def parse_mission_config(text: str) -> MissionConfig:
    """Parse and fully validate a mission config document. An absent key takes
    its value class's default (``MissionConfig``, ``CameraModel``, ``NoiseSpec``)."""
    try:
        raw = json.loads(text)
    # ValueError: a JSONDecodeError, or an integer literal longer than
    # sys.get_int_max_str_digits(); RecursionError: nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return _object(raw, "", *_MISSION)


def _document(value):
    """``value`` in its document form: a GeoPoint as [lat, lon, alt], a region as
    its vertices, a tuple as a list, a config object as its fields but None ones."""
    if isinstance(value, GeoPoint):
        return [value.lat_deg, value.lon_deg, value.alt_m]
    if isinstance(value, PolygonRegion):
        value = value.vertices
    if isinstance(value, tuple):
        return [_document(item) for item in value]
    if is_dataclass(value):
        return {f.name: _document(getattr(value, f.name)) for f in fields(value) if getattr(value, f.name) is not None}
    return value


def serialize_mission_config(config: MissionConfig) -> str:
    """Render a config back to its JSON document form (parse round-trips)."""
    return json.dumps(_document(config), indent=2, allow_nan=False) + "\n"
