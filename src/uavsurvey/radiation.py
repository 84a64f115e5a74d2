"""Point-source ionizing radiation with inverse-square falloff.

Propagation is lossless and unoccluded; the field from several sources
superposes linearly. Readings can optionally carry multiplicative gaussian
noise driven by a caller-owned random generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geodesy import GeoPoint, distance_m, distances_to_rows

# Distances clamp here to keep readings finite near the emitter; a drone
# never physically reaches the point source.
MIN_DISTANCE_M = 0.1


@dataclass(frozen=True)
class RadiationSource:
    """A point emitter; sigma is the level measured 1 m away, in uSv/s."""

    position: GeoPoint
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise: kind 'none', or 'gaussian' with a relative std dev."""

    kind: str = "none"
    relative_sd: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"noise kind must be 'none' or 'gaussian', got {self.kind!r}")
        if not (math.isfinite(self.relative_sd) and self.relative_sd >= 0.0):
            raise ValueError(f"relative_sd must be finite and >= 0, got {self.relative_sd}")


def strength_at(source: RadiationSource, p: GeoPoint) -> float:
    """Field level at p: sigma / d^2, with d clamped at MIN_DISTANCE_M."""
    d = distance_m(source.position, p)
    if d < MIN_DISTANCE_M:
        d = MIN_DISTANCE_M
    return source.sigma / (d * d)


def total_intensity(sources, p: GeoPoint) -> float:
    """Superposed level at p from all sources; zero for an empty list."""
    return field_levels(sources, (p,))[0]


def field_levels(sources, points) -> list[float]:
    """:func:`total_intensity` at every point of the sequence ``points``, in order.

    Points are grouped into rows of one exact latitude and altitude, so each
    source's terms that depend on them are computed once per row (lattice
    rows share one latitude). Each level adds the sources' ``strength_at``
    terms left to right with ``+=``: its bits do not depend on the Python
    version, as those of ``sum()`` do (compensated for floats from 3.12).
    """
    groups: dict[tuple[float, float], list[int]] = {}
    for k, p in enumerate(points):
        groups.setdefault((p.lat_deg, p.alt_m), []).append(k)
    rows = [(lat, alt, [points[k].lon_deg for k in members]) for (lat, alt), members in groups.items()]
    acc = [0.0] * len(points)
    for s in sources:
        sigma = s.sigma
        ceiling = sigma / (MIN_DISTANCE_M * MIN_DISTANCE_M)
        acc = [
            t + (ceiling if d < MIN_DISTANCE_M else sigma / (d * d))
            for t, d in zip(acc, distances_to_rows(s.position, rows))
        ]
    levels = [0.0] * len(points)
    for k, t in zip((k for members in groups.values() for k in members), acc):
        levels[k] = t
    return levels


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
