"""Golden digests: the campus mission scaled about its vertex centroid, and
a many-edge, many-source star mission, must keep producing byte-identical
``plan.geojson`` and ``observations.jsonl``.

The campus digests were recorded from the brute-force planner, the star
digests from the per-point ray cast and per-source field sum, all on Python
3.11. Any change that alters the lattice filter, routes, readings, event
order or serialization shows up here, and so does a reading that depends on
the Python version; re-record only when a change to the outputs is intended
and documented.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from helpers import REPO_CONFIG
from uavsurvey import cli

# scale -> (sha256 of plan.geojson, sha256 of observations.jsonl)
GOLDEN = {
    1: (
        "a635419aa94510bfa0747c80bac14585d9a28bd7935206ec28d3effdbf03ab85",
        "3800a59e35799428a9e3c09c64f8e3fc7d473fa037da65c9cb38fa0ce411e24c",
    ),
    4: (
        "92cdea721aa5be7b1de01e4bda0aecfc2588aee7226c72114a05e3c379229b10",
        "0f2c67e1496295d2747b53509449e0f5c88c1c87e6e092bd4d09e91d1ae439e4",
    ),
    8: (
        "6d4e810760b2ef5f580395ee72eecf29d00818e9436c5bd222be26bd74fcaceb",
        "da85d6d01ed919578f4b129fdfec5d008f1901496d1c7abbe9af31879d2dcf63",
    ),
    16: (
        "49fd3c217182c0c0225d59a0ba835189592e06531d73d60aec6107f3bedced55",
        "9f07b4f196c6a7d47f50a81c0b82a8920a7b5e3a7b9b74b21d1aaaf0e36a720e",
    ),
}

STAR_GOLDEN = (
    "3cd22ebf8d93f240169430a1cc84c1415f1f988b9760e3d03295e4a8e63c82f1",
    "c0cfd5bbce9378b724086d2b25a6089738765705917f0db34bc0935a254fb6f7",
)


def scaled_campus(scale: int) -> dict:
    """The campus config with its region scaled about the vertex centroid."""
    config = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
    region = config["region"]
    clat = sum(v[0] for v in region) / len(region)
    clon = sum(v[1] for v in region) / len(region)
    config["region"] = [[clat + scale * (lat - clat), clon + scale * (lon - clon)] for lat, lon in region]
    return config


def star_mission() -> dict:
    """A 72-vertex star with 80 sources, gaussian noise and a dwell.

    Built from exact binary operations and a seeded generator, never a float
    ``sum()``, so the config is the same bytes on every Python version. The
    vertices alternate between two radii along the 72 integer directions on
    the boundary of the square [-9, 9]^2, in counter-clockwise order, so the
    polygon is star-shaped about its centre and therefore simple; rows of
    the lattice pass through some of its vertices.
    """
    directions = (
        [(9, y) for y in range(-8, 10)]
        + [(x, 9) for x in range(8, -10, -1)]
        + [(-9, y) for y in range(8, -10, -1)]
        + [(x, -9) for x in range(-8, 10)]
    )
    region = []
    for k, (x, y) in enumerate(directions):
        r = 2e-4 if k % 2 == 0 else 1.2e-4
        region.append([47.5 + y * r, 8.5 + x * (1.5 * r)])
    rng = random.Random("golden-star")
    sources = [
        {
            "position": [47.5 + rng.uniform(-0.002, 0.002), 8.5 + rng.uniform(-0.003, 0.003), 0.0],
            "sigma": rng.uniform(10.0, 500.0),
        }
        for _ in range(80)
    ]
    return {
        "mission_id": "golden-star",
        "region": region,
        "camera": {"half_fov_deg": 45.0, "overlap_fraction": 0.2, "altitude_m": 16.0},
        "fleet": [
            {"id": "uav-a", "home": [47.4975, 8.4960, 0.0], "velocity_mps": 7.5},
            {"id": "uav-b", "home": [47.5025, 8.5040, 0.0], "velocity_mps": 9.0},
            {"id": "uav-c", "home": [47.4975, 8.5040, 0.0], "velocity_mps": 11.0},
            {"id": "uav-d", "home": [47.5025, 8.4960, 0.0], "velocity_mps": 6.0},
        ],
        "sources": sources,
        "noise": {"kind": "gaussian", "relative_sd": 0.1},
        "seed": 11,
        "dwell_s": 2.5,
    }


def simulate_digests(config: dict, tmp_path) -> tuple[str, str]:
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("plan.geojson", "observations.jsonl")
    )


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_scaled_campus_outputs_are_byte_identical(scale, tmp_path):
    assert simulate_digests(scaled_campus(scale), tmp_path) == GOLDEN[scale]


def test_star_mission_outputs_are_byte_identical(tmp_path):
    assert simulate_digests(star_mission(), tmp_path) == STAR_GOLDEN
