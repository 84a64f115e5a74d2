"""Seeded generation of the benchmark's mission configs.

Every workload is a fixed pool of operations derived from ``--seed`` alone;
the package under test only ever sees the JSON config files written here.
Mission parameters are drawn by stratified (Latin-hypercube) sampling, so
each seed gives a different pool carrying nearly the same amount of work,
which keeps the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("survey_large", "survey_sweep", "bound_eval")
DEFAULT_SEED = 0

# Flat-plane constants matching the package's spherical model; the generator
# only needs them to place vertices a given number of metres apart.
_EARTH_RADIUS_M = 6378137.0
_M_PER_DEG_LAT = math.pi * _EARTH_RADIUS_M / 180.0

# The campus mission from the paper's demo; scaled about the vertex centroid.
CAMPUS_REGION = (
    (53.280746, -9.060599),
    (53.279308, -9.058045),
    (53.276793, -9.059246),
    (53.276434, -9.063303),
    (53.278859, -9.065106),
)
CAMPUS_HOME = (53.276164, -9.065406, 0.0)
CAMPUS_SOURCE = (53.278141, -9.060974, 0.0)
LARGE_SCALE = 8
LARGE_WAYPOINTS = 5086  # campus x8 with the default camera

SWEEP_MISSIONS = 100
ORACLE_REPEATS = 2  # each (waypoints 3..8, agents 1..3) pair
HELD_KARP_REPEATS = 3  # each waypoint count 9..16


@dataclass
class Operation:
    """One closed-loop operation: a CLI command over one generated config."""

    op_id: str
    command: str  # "simulate" or "bound"
    config: dict
    expected_waypoints: int | None = None  # known by construction, else None
    path: Path | None = field(default=None, repr=False)
    out_dir: Path | None = field(default=None, repr=False)

    @property
    def argv(self) -> list[str]:
        argv = [self.command, "--config", str(self.path)]
        if self.command == "simulate":
            argv += ["--out", str(self.out_dir)]
        return argv


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, n: int) -> list[float]:
    """n values in [0, 1), one per equal-width stratum, in shuffled order."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _offset(lat: float, lon: float, east_m: float, north_m: float) -> tuple[float, float]:
    m_lon = _M_PER_DEG_LAT * math.cos(math.radians(lat))
    return lat + north_m / _M_PER_DEG_LAT, lon + east_m / m_lon


def _altitude_for_spacing(spacing_m: float, half_fov_deg: float, overlap: float) -> float:
    """Invert the camera spacing law s = 2 h tan(fov) (1 - y) / (1 + y)."""
    return spacing_m * (1.0 + overlap) / ((1.0 - overlap) * 2.0 * math.tan(math.radians(half_fov_deg)))


def survey_large(seed: int) -> list[Operation]:
    """The campus mission scaled x8: 5086 waypoints, 3 agents, 1 source.

    The default seed reproduces the campus config exactly, scaled. Other
    seeds move the shared home and the source, which changes the plan but
    not the waypoint count, so every seed costs the same planner work.
    """
    clat = sum(v[0] for v in CAMPUS_REGION) / len(CAMPUS_REGION)
    clon = sum(v[1] for v in CAMPUS_REGION) / len(CAMPUS_REGION)
    region = [[clat + LARGE_SCALE * (lat - clat), clon + LARGE_SCALE * (lon - clon)] for lat, lon in CAMPUS_REGION]
    home, source, sigma = list(CAMPUS_HOME), list(CAMPUS_SOURCE), 120.0
    if seed != DEFAULT_SEED:
        rng = _rng("survey_large", seed)
        home[0], home[1] = _offset(home[0], home[1], rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        source[0], source[1] = _offset(clat, clon, rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0))
        sigma = rng.uniform(50.0, 500.0)
    config = {
        "mission_id": "campus-demo",
        "region": region,
        "camera": {"half_fov_deg": 45.0, "overlap_fraction": 0.2, "altitude_m": 32.0},
        "fleet": [{"id": f"rav-{k}", "home": home, "velocity_mps": 8.0} for k in (1, 2, 3)],
        "sources": [{"position": source, "sigma": sigma}],
        "noise": "none",
        "seed": seed,
    }
    return [Operation("large-0", "simulate", config, expected_waypoints=LARGE_WAYPOINTS)]


def _star_region(rng, lat, lon, vertices, r_out_m, inner_ratio):
    """A star-shaped (hence simple) polygon: strictly increasing angles around
    the centre, radii alternating between outer and inner. Returns the
    vertex list and its area in square metres."""
    pts_m = []
    for k in range(vertices):
        theta = 2.0 * math.pi * (k + rng.uniform(-0.3, 0.3)) / vertices
        r = r_out_m * (1.0 if k % 2 == 0 else inner_ratio) * rng.uniform(0.95, 1.05)
        pts_m.append((r * math.cos(theta), r * math.sin(theta)))
    area = 0.5 * abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts_m, pts_m[1:] + pts_m[:1])))
    return [list(_offset(lat, lon, e, n)) for e, n in pts_m], area


def survey_sweep(seed: int) -> list[Operation]:
    """SWEEP_MISSIONS small missions for a parameter study.

    Star polygons of 48-128 vertices and 80-160 m radius at |lat| <= 60 and
    |lon| <= 170; camera spacing chosen so each mission has about 100-330
    waypoints; 2-8 agents, 64-160 sources, gaussian noise, dwell 0.5-5 s.
    The mix (shapes, sizes, counts, speeds, home placements) is the same for
    every seed, so every seed carries the same work; the seed places the
    missions on the globe and sets their sources and noise seeds.
    """
    mix = _rng("survey_sweep", "mix")
    n = SWEEP_MISSIONS
    cols = {name: _strata(mix, n) for name in (
        "vertices", "radius", "inner", "waypoints", "fov", "overlap", "agents", "sources", "sd", "dwell")}
    rng = _rng("survey_sweep", seed)
    lats, lons = _strata(rng, n), _strata(rng, n)
    ops = []
    for i in range(n):
        u = {name: values[i] for name, values in cols.items()}
        lat = -60.0 + 120.0 * lats[i]
        lon = -170.0 + 340.0 * lons[i]
        r_out = 80.0 + 80.0 * u["radius"]
        region, area = _star_region(mix, lat, lon, 48 + int(81 * u["vertices"]), r_out, 0.55 + 0.3 * u["inner"])
        spacing = math.sqrt(area / (100.0 + 230.0 * u["waypoints"]))
        half_fov = 30.0 + 30.0 * u["fov"]
        overlap = 0.1 + 0.5 * u["overlap"]
        fleet = []
        for k in range(2 + int(7 * u["agents"])):
            bearing = mix.uniform(0.0, 2.0 * math.pi)
            dist = r_out * mix.uniform(1.1, 1.5)
            h_lat, h_lon = _offset(lat, lon, dist * math.cos(bearing), dist * math.sin(bearing))
            fleet.append({"id": f"uav-{k}", "home": [h_lat, h_lon, 0.0], "velocity_mps": mix.uniform(5.0, 15.0)})
        sources = []
        for _ in range(64 + int(97 * u["sources"])):
            s_lat, s_lon = _offset(lat, lon, rng.uniform(-1.2, 1.2) * r_out, rng.uniform(-1.2, 1.2) * r_out)
            sources.append({"position": [s_lat, s_lon, 0.0], "sigma": rng.uniform(10.0, 500.0)})
        config = {
            "mission_id": f"sweep-{seed}-{i}",
            "region": region,
            "camera": {
                "half_fov_deg": half_fov,
                "overlap_fraction": overlap,
                "altitude_m": _altitude_for_spacing(spacing, half_fov, overlap),
            },
            "fleet": fleet,
            "sources": sources,
            "noise": {"kind": "gaussian", "relative_sd": 0.02 + 0.18 * u["sd"]},
            "seed": rng.randrange(2**31),
            "dwell_s": 0.5 + 4.5 * u["dwell"],
        }
        ops.append(Operation(f"sweep-{i}", "simulate", config))
    return ops


def _bound_instance(rng, op_id, rows, cols, spacing, agents, u_lat, u_lon):
    """An axis-aligned rectangle holding exactly rows x cols lattice points.

    The lattice starts at the rectangle's SW corner, so its first row and
    column lie exactly on the boundary (inside); the far edges sit half a
    spacing beyond the last row and column, so the count does not depend on
    rounding.
    """
    half_fov = rng.uniform(30.0, 60.0)
    overlap = rng.uniform(0.1, 0.6)
    lat = -60.0 + 120.0 * u_lat
    lon = -170.0 + 340.0 * u_lon
    top, east = _offset(lat, lon, (cols - 0.5) * spacing, (rows - 0.5) * spacing)
    region = [[lat, lon], [lat, east], [top, east], [top, lon]]
    fleet = []
    for k, (u_east, u_south, speed) in enumerate(agents):
        h_lat, h_lon = _offset(lat, lon, (u_east * (cols + 6.0) - 3.0) * spacing, -(0.5 + 2.5 * u_south) * spacing)
        fleet.append({"id": f"uav-{k}", "home": [h_lat, h_lon, 0.0], "velocity_mps": speed})
    config = {
        "mission_id": op_id,
        "region": region,
        "camera": {
            "half_fov_deg": half_fov,
            "overlap_fraction": overlap,
            "altitude_m": _altitude_for_spacing(spacing, half_fov, overlap),
        },
        "fleet": fleet,
        "seed": 0,
    }
    return Operation(op_id, "bound", config, expected_waypoints=rows * cols)


def _shape(rng, n):
    """A random (rows, cols) factorisation of n with one side at most 4."""
    return rng.choice([(r, n // r) for r in range(1, n + 1) if n % r == 0 and min(r, n // r) <= 4])


def bound_eval(seed: int) -> list[Operation]:
    """Tiny instances for the exact references.

    Oracle instances: every (waypoints 3..8, agents 1..3) pair, ORACLE_REPEATS
    times; they run Held-Karp and the exhaustive oracle. Held-Karp-only
    instances: every waypoint count 9..16, HELD_KARP_REPEATS times, with 2-5
    agents. Shapes, spacings, speeds and home offsets are the same for every
    seed; the seed places the rectangles and sets the camera angles.
    """
    mix = _rng("bound_eval", "mix")
    specs = [(n, k) for n in range(3, 9) for k in (1, 2, 3) for _ in range(ORACLE_REPEATS)]
    specs += [(n, 2 + mix.randrange(4)) for n in range(9, 17) for _ in range(HELD_KARP_REPEATS)]
    mix.shuffle(specs)
    specs = [(_shape(mix, n), mix.uniform(5.0, 40.0),
              [(mix.random(), mix.random(), mix.uniform(3.0, 15.0)) for _ in range(k)]) for n, k in specs]
    rng = _rng("bound_eval", seed)
    lats, lons = _strata(rng, len(specs)), _strata(rng, len(specs))
    ops = []
    for i, ((rows, cols), spacing, agents) in enumerate(specs):
        ops.append(_bound_instance(rng, f"bound-{i}", rows, cols, spacing, agents, lats[i], lons[i]))
    return ops


GENERATORS = {"survey_large": survey_large, "survey_sweep": survey_sweep, "bound_eval": bound_eval}


def generate(workload: str, seed: int) -> list[Operation]:
    return GENERATORS[workload](seed)


def materialise(ops: list[Operation], work_dir: Path) -> None:
    """Write each operation's config under work_dir and give it an out dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path = work_dir / f"{op.op_id}.json"
        op.path.write_text(json.dumps(op.config, indent=2) + "\n", encoding="utf-8")
        op.out_dir = work_dir / op.op_id
