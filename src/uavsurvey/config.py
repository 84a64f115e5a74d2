"""Mission configuration: JSON parsing, validation, serialization.

The schema is a key-value tree documented in the README. Parse errors name
the offending path; invariant violations surface the violated rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .geodesy import GeoPoint
from .grid import CameraModel, PolygonRegion
from .radiation import NoiseSpec, RadiationSource
from .routing import Agent

_TOP_KEYS = {"mission_id", "region", "camera", "fleet", "sources", "noise", "seed", "dwell_s"}
_CAMERA_KEYS = {"half_fov_deg", "overlap_fraction", "altitude_m"}
_AGENT_KEYS = {"id", "home", "velocity_mps"}
_SOURCE_KEYS = {"position", "sigma"}
_NOISE_KEYS = {"kind", "relative_sd"}


class ConfigError(ValueError):
    """A mission config failed schema or invariant validation."""


@dataclass
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
        if not self.fleet:
            raise ValueError("fleet must be non-empty")
        ids = [a.id for a in self.fleet]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique within the fleet")


def _fail(path: str, message) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise _fail(path, f"unknown key(s) {sorted(extra)}; allowed: {sorted(allowed)}")


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


def _geopoint(value, path: str, default_alt: float = 0.0) -> GeoPoint:
    if not isinstance(value, list) or len(value) not in (2, 3):
        raise _fail(path, "expected [lat_deg, lon_deg] or [lat_deg, lon_deg, alt_m]")
    lat = _number(value[0], f"{path}[0]")
    lon = _number(value[1], f"{path}[1]")
    alt = _number(value[2], f"{path}[2]") if len(value) == 3 else default_alt
    try:
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _require_keys(raw, _TOP_KEYS, "top level")

    if "region" not in raw:
        raise ConfigError("region: required key is missing")
    region_raw = raw["region"]
    if not isinstance(region_raw, list):
        raise _fail("region", "expected a list of vertices")
    vertices = tuple(
        _geopoint(v, f"region[{k}]") for k, v in enumerate(region_raw)
    )
    try:
        region = PolygonRegion(vertices)
    except ValueError as exc:
        raise _fail("region", exc) from None

    camera_raw = raw.get("camera", {})
    if not isinstance(camera_raw, dict):
        raise _fail("camera", "expected an object")
    _require_keys(camera_raw, _CAMERA_KEYS, "camera")
    camera_kwargs = {k: _number(v, f"camera.{k}") for k, v in camera_raw.items()}
    try:
        camera = CameraModel(**camera_kwargs)
    except ValueError as exc:
        raise _fail("camera", exc) from None

    if "fleet" not in raw:
        raise ConfigError("fleet: required key is missing")
    fleet_raw = raw["fleet"]
    if not isinstance(fleet_raw, list):
        raise _fail("fleet", "expected a list of agents")
    if not fleet_raw:
        raise _fail("fleet", "must be non-empty")
    fleet = []
    for k, item in enumerate(fleet_raw):
        path = f"fleet[{k}]"
        if not isinstance(item, dict):
            raise _fail(path, "expected an object")
        _require_keys(item, _AGENT_KEYS, path)
        for key in ("id", "home", "velocity_mps"):
            if key not in item:
                raise _fail(f"{path}.{key}", "required key is missing")
        if not isinstance(item["id"], str):
            raise _fail(f"{path}.id", "expected a string")
        home = _geopoint(item["home"], f"{path}.home")
        try:
            fleet.append(Agent(item["id"], home, _number(item["velocity_mps"], f"{path}.velocity_mps")))
        except ValueError as exc:
            raise _fail(path, exc) from None

    sources_raw = raw.get("sources", [])
    if not isinstance(sources_raw, list):
        raise _fail("sources", "expected a list")
    sources = []
    for k, item in enumerate(sources_raw):
        path = f"sources[{k}]"
        if not isinstance(item, dict):
            raise _fail(path, "expected an object")
        _require_keys(item, _SOURCE_KEYS, path)
        for key in ("position", "sigma"):
            if key not in item:
                raise _fail(f"{path}.{key}", "required key is missing")
        try:
            sources.append(
                RadiationSource(_geopoint(item["position"], f"{path}.position"),
                                _number(item["sigma"], f"{path}.sigma"))
            )
        except ValueError as exc:
            raise _fail(path, exc) from None

    noise_raw = raw.get("noise", "none")
    if isinstance(noise_raw, str):
        noise_raw = {"kind": noise_raw}
    if not isinstance(noise_raw, dict):
        raise _fail("noise", "expected 'none', 'gaussian', or an object")
    _require_keys(noise_raw, _NOISE_KEYS, "noise")
    try:
        noise = NoiseSpec(
            kind=noise_raw.get("kind", "none"),
            relative_sd=_number(noise_raw.get("relative_sd", 0.0), "noise.relative_sd"),
        )
    except ValueError as exc:
        raise _fail("noise", exc) from None

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise _fail("seed", f"expected an integer, got {type(seed).__name__}")

    dwell_s = _number(raw.get("dwell_s", 0.0), "dwell_s")
    if dwell_s < 0.0:
        raise _fail("dwell_s", "must be >= 0")

    mission_id = raw.get("mission_id")
    if mission_id is not None and not isinstance(mission_id, str):
        raise _fail("mission_id", "expected a string")

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
    return json.dumps(doc, indent=2) + "\n"
