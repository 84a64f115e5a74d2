"""Golden digests: the campus mission scaled about its vertex centroid must
keep producing byte-identical ``plan.geojson`` and ``observations.jsonl``.

The digests were recorded from the brute-force planner. Any change that
alters routes, event order or serialization shows up here; re-record only
when a change to the outputs is intended and documented.
"""

from __future__ import annotations

import hashlib
import json

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
}


def scaled_campus(scale: int) -> dict:
    """The campus config with its region scaled about the vertex centroid."""
    config = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
    region = config["region"]
    clat = sum(v[0] for v in region) / len(region)
    clon = sum(v[1] for v in region) / len(region)
    config["region"] = [[clat + scale * (lat - clat), clon + scale * (lon - clon)] for lat, lon in region]
    return config


def simulate_digests(scale: int, tmp_path) -> tuple[str, str]:
    path = tmp_path / f"campus_x{scale}.json"
    path.write_text(json.dumps(scaled_campus(scale)), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("plan.geojson", "observations.jsonl")
    )


@pytest.mark.parametrize("scale", sorted(GOLDEN))
def test_scaled_campus_outputs_are_byte_identical(scale, tmp_path):
    assert simulate_digests(scale, tmp_path) == GOLDEN[scale]
