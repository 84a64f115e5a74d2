"""Point-source ionizing radiation with inverse-square falloff.

Propagation is lossless and unoccluded; the field from several sources
superposes linearly. Readings can optionally carry multiplicative gaussian
noise driven by a caller-owned random generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geodesy import _NON_NEGATIVE, METERS_PER_DEG_LAT, GeoPoint, _check_number, _check_point, _shown, distance_m

# Distances clamp here to keep readings finite near the emitter; a drone
# never physically reaches the point source.
MIN_DISTANCE_M = 0.1


@dataclass(frozen=True)
class RadiationSource:
    """A point emitter; sigma is the level measured 1 m away, in uSv/s."""

    position: GeoPoint
    sigma: float

    def __post_init__(self) -> None:
        _check_point("position", self.position)
        _check_number("sigma", self.sigma, *_NON_NEGATIVE)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: kind 'none', or 'gaussian' with a relative std dev."""

    kind: str = "none"
    relative_sd: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"noise kind must be 'none' or 'gaussian', got {_shown(self.kind, repr)}")
        _check_number("relative_sd", self.relative_sd, *_NON_NEGATIVE)


def strength_at(source: RadiationSource, p: GeoPoint) -> float:
    """Field level at p: sigma / d^2, with d clamped at MIN_DISTANCE_M."""
    d = distance_m(source.position, p)
    if d < MIN_DISTANCE_M:
        d = MIN_DISTANCE_M
    return source.sigma / (d * d)


def field_levels(sources, points) -> list[float]:
    """The superposed level from all ``sources`` at every point of the sequence
    ``points``, in order; zero everywhere for no sources.

    Points are grouped into rows of one exact latitude and altitude, and each
    source's north offset, longitude scale and climb to a row are computed
    once per row (lattice rows share one latitude). Each source's east offset
    before scaling is computed once per distinct longitude (lattice columns
    share one). A level then adds the sources' ``strength_at`` terms left to
    right with ``+=``, from the operands :func:`distance_m` uses in its
    order: its bits equal ``strength_at``'s sum and do not depend on the
    Python version, as those of ``sum()`` do (compensated for floats from 3.12).
    """
    groups: dict[tuple[float, float], list[int]] = {}
    for k, p in enumerate(points):
        groups.setdefault((p.lat_deg, p.alt_m), []).append(k)
    emitters = [(s.position, s.sigma, s.sigma / (MIN_DISTANCE_M * MIN_DISTANCE_M)) for s in sources]
    a_lons = [a.lon_deg for a, _, _ in emitters]
    hypot, remainder, cos, radians = math.hypot, math.remainder, math.cos, math.radians
    easts: dict[float, list[float]] = {}  # longitude -> each source's east offset before the cos scale
    levels = [0.0] * len(points)
    for (lat, alt), members in groups.items():
        row = [
            ((lat - a.lat_deg) * METERS_PER_DEG_LAT, cos(radians(0.5 * (a.lat_deg + lat))), alt - a.alt_m, sigma, ceiling)
            for a, sigma, ceiling in emitters
        ]
        for k in members:
            lon = points[k].lon_deg
            east = easts.get(lon)
            if east is None:
                east = easts[lon] = [remainder(lon - a_lon, 360.0) * METERS_PER_DEG_LAT for a_lon in a_lons]
            t = 0.0
            for e, (north, scale, up, sigma, ceiling) in zip(east, row):
                d = hypot(e * scale, north, up)
                t += ceiling if d < MIN_DISTANCE_M else sigma / (d * d)
            levels[k] = t
    return levels


# random.gauss draws z = cos(a) * sqrt(-2 log(1 - u)) with 1 - u >= 2^-53,
# so |z| <= sqrt(106 ln 2) = 8.57 standard deviations.
GAUSS_MAX_Z = 8.6


def sample_reading(intensity: float, noise: NoiseSpec, rng: random.Random | None = None) -> float:
    """One simulated detector sample, deterministic given the rng state.

    Gaussian noise multiplies by (1 + eps), eps ~ N(0, sd^2), clamped at zero.
    """
    if noise.kind == "none":
        return intensity
    if rng is None:
        raise ValueError("gaussian noise requires a seeded random generator")
    value = intensity * (1.0 + rng.gauss(0.0, noise.relative_sd))
    return value if value > 0.0 else 0.0
