"""Mission configuration: JSON parsing, validation, serialization.

The schema is a key-value tree documented in the README. Parse errors name
the offending path; invariant violations surface the violated rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .geodesy import METERS_PER_DEG_LAT, GeoPoint
from .grid import CameraModel, PolygonRegion, _lattice_axes, bounding_rectangle, grid_spacing
from .radiation import GAUSS_MAX_Z, MIN_DISTANCE_M, NoiseSpec, RadiationSource
from .routing import Agent, _check_fleet
from .sim import _check_dwell

# Each config object's allowed keys, then its required keys in the order checked.
_TOP_KEYS = (
    {"mission_id", "region", "camera", "fleet", "sources", "noise", "seed", "dwell_s"},
    ("region", "fleet"),
)
_CAMERA_KEYS = {"half_fov_deg", "overlap_fraction", "altitude_m"}, ()
_AGENT_KEYS = {"id", "home", "velocity_mps"}, ("id", "home", "velocity_mps")
_SOURCE_KEYS = {"position", "sigma"}, ("position", "sigma")
_NOISE_KEYS = {"kind", "relative_sd"}, ()


class ConfigError(ValueError):
    """A mission config failed schema or invariant validation."""


@dataclass(frozen=True)
class MissionConfig:
    """Everything one survey mission needs, validated."""

    region: PolygonRegion
    fleet: tuple[Agent, ...]
    camera: CameraModel = field(default_factory=CameraModel)
    sources: tuple[RadiationSource, ...] = ()
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    dwell_s: float = 0.0
    mission_id: str | None = None

    def __post_init__(self) -> None:
        _check_fleet(self.fleet)
        _check_dwell(self.dwell_s)
        try:
            lats, lons = _lattice_axes(bounding_rectangle(self.region), grid_spacing(self.camera))
        except ValueError as exc:
            raise _fail("camera", exc) from None
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
    return ConfigError(f"{path}: {message}")


def _object(value, path: str, keys, expected: str = "an object") -> dict:
    """``value`` checked as the config object at ``path`` ("" for the top
    level): its type, then unknown keys, then ``keys``' required keys."""
    allowed, required = keys
    where = path or "top level"
    if not isinstance(value, dict):
        raise _fail(where, f"expected {expected}")
    extra = set(value) - allowed
    if extra:
        raise _fail(where, f"unknown key(s) {sorted(extra)}; allowed: {sorted(allowed)}")
    for key in required:
        if key not in value:
            raise _fail(f"{path}.{key}" if path else key, "required key is missing")
    return value


def _build(path: str, make):
    """``make()``, with the path prefixed to any ValueError it raises other
    than a ConfigError, which already names its own path."""
    try:
        return make()
    except ConfigError:
        raise
    except ValueError as exc:
        raise _fail(path, exc) from None


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {number}")
    return number


def _string(value, path: str) -> None:
    """Refuse a value that is not a str, or one with a lone surrogate (JSON's
    "\\ud800"), which has no UTF-8 encoding to print or write."""
    if not isinstance(value, str):
        raise _fail(path, "expected a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _fail(path, f"lone surrogate {value[exc.start]!r} at index {exc.start} has no UTF-8 encoding") from None


def _geopoint(value, path: str) -> GeoPoint:
    if not isinstance(value, list) or len(value) not in (2, 3):
        raise _fail(path, "expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]")
    lat = _number(value[0], f"{path}[0]")
    lon = _number(value[1], f"{path}[1]")
    alt = _number(value[2], f"{path}[2]") if len(value) == 3 else 0.0
    try:  # not _build: a closure per vertex and source shows in parse time
        return GeoPoint(lat, lon, alt)
    except ValueError as exc:
        raise _fail(path, exc) from None


def parse_mission_config(text: str) -> MissionConfig:
    """Parse and fully validate a mission config document.

    Defaults: camera altitude 32 m, overlap 0.2, half FOV 45 degrees; no
    sources; noise none; seed 0; dwell 0.
    """
    try:
        raw = json.loads(text)
    # ValueError: a JSONDecodeError, or an integer literal longer than
    # sys.get_int_max_str_digits(); RecursionError: nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    _object(raw, "", _TOP_KEYS)

    region_raw = raw["region"]
    if not isinstance(region_raw, list):
        raise _fail("region", "expected a list of vertices")
    vertices = tuple(
        _geopoint(v, f"region[{k}]") for k, v in enumerate(region_raw)
    )
    region = _build("region", lambda: PolygonRegion(vertices))

    camera_raw = _object(raw.get("camera", {}), "camera", _CAMERA_KEYS)
    camera_kwargs = {k: _number(v, f"camera.{k}") for k, v in camera_raw.items()}
    camera = _build("camera", lambda: CameraModel(**camera_kwargs))

    fleet_raw = raw["fleet"]
    if not isinstance(fleet_raw, list):
        raise _fail("fleet", "expected a list of agents")
    fleet = []
    for k, item in enumerate(fleet_raw):
        path = f"fleet[{k}]"
        _object(item, path, _AGENT_KEYS)
        _string(item["id"], f"{path}.id")
        home = _geopoint(item["home"], f"{path}.home")
        fleet.append(_build(path, lambda: Agent(
            item["id"], home, _number(item["velocity_mps"], f"{path}.velocity_mps"),
        )))
    _build("fleet", lambda: _check_fleet(fleet))

    sources_raw = raw.get("sources", [])
    if not isinstance(sources_raw, list):
        raise _fail("sources", "expected a list")
    sources = []
    for k, item in enumerate(sources_raw):
        path = f"sources[{k}]"
        _object(item, path, _SOURCE_KEYS)
        sources.append(_build(path, lambda: RadiationSource(
            _geopoint(item["position"], f"{path}.position"), _number(item["sigma"], f"{path}.sigma"),
        )))

    noise_raw = raw.get("noise", "none")
    if isinstance(noise_raw, str):
        noise_raw = {"kind": noise_raw}
    _object(noise_raw, "noise", _NOISE_KEYS, expected="'none', 'gaussian', or an object")
    noise = _build("noise", lambda: NoiseSpec(
        kind=noise_raw.get("kind", "none"),
        relative_sd=_number(noise_raw.get("relative_sd", 0.0), "noise.relative_sd"),
    ))

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _fail("seed", f"expected an integer, got {type(seed).__name__}")

    dwell_s = _number(raw.get("dwell_s", 0.0), "dwell_s")

    mission_id = raw.get("mission_id")
    if mission_id is not None:
        _string(mission_id, "mission_id")

    try:
        return MissionConfig(
            region=region,
            fleet=tuple(fleet),
            camera=camera,
            sources=tuple(sources),
            noise=noise,
            seed=seed,
            dwell_s=dwell_s,
            mission_id=mission_id,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_mission_config(config: MissionConfig) -> str:
    """Render a config back to its JSON document form (parse round-trips)."""
    doc: dict = {}
    if config.mission_id is not None:
        doc["mission_id"] = config.mission_id
    doc["region"] = [[v.lat_deg, v.lon_deg, v.alt_m] for v in config.region.vertices]
    doc["camera"] = {
        "half_fov_deg": config.camera.half_fov_deg,
        "overlap_fraction": config.camera.overlap_fraction,
        "altitude_m": config.camera.altitude_m,
    }
    doc["fleet"] = [
        {"id": a.id, "home": [a.home.lat_deg, a.home.lon_deg, a.home.alt_m], "velocity_mps": a.velocity_mps}
        for a in config.fleet
    ]
    doc["sources"] = [
        {"position": [s.position.lat_deg, s.position.lon_deg, s.position.alt_m], "sigma": s.sigma}
        for s in config.sources
    ]
    doc["noise"] = {"kind": config.noise.kind, "relative_sd": config.noise.relative_sd}
    doc["seed"] = config.seed
    doc["dwell_s"] = config.dwell_s
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
