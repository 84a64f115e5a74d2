"""Command-line behavior: subcommands, flags, exit codes, file outputs."""

from __future__ import annotations

import json
import os
import stat

import pytest

from helpers import REPO_CONFIG, assert_valid_geojson
from uavsurvey import grid
from uavsurvey.cli import main

TINY = {
    "region": [[0.0, 0.0], [0.0, 0.00055], [0.00055, 0.00055], [0.00055, 0.0]],
    "fleet": [
        {"id": "a", "home": [0.0, 0.0], "velocity_mps": 5.0},
        {"id": "b", "home": [0.0, 0.0], "velocity_mps": 5.0},
    ],
    "sources": [{"position": [0.0, 0.0002], "sigma": 100.0}],
    "seed": 11,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", "--config", str(REPO_CONFIG)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_broken_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"region": [[0, 0], [0, 1], [1, 0]], "fleet": []}', encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 1
        assert "fleet" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1

    def test_region_within_one_spacing_of_the_north_pole(self, tmp_path, capsys):
        # The last lattice row of the campus camera's 42.667 m spacing would
        # sit at 90.00027 N, which plan refuses; so does validate.
        doc = dict(TINY, region=[[89.9995, -9.0606], [89.9999, -9.0580], [89.9999, -9.0651]])
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: camera: lattice row at 90.0002")


class TestPlan:
    def test_writes_geojson(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["plan", "--config", str(tiny_config), "--out", str(out)]) == 0
        doc = json.loads((out / "plan.geojson").read_text(encoding="utf-8"))
        assert_valid_geojson(doc)
        assert "waypoints" in capsys.readouterr().out

    def test_agents_truncation(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["plan", "--config", str(tiny_config), "--out", str(out), "--agents", "1"]) == 0
        doc = json.loads((out / "plan.geojson").read_text(encoding="utf-8"))
        lines = [f for f in doc["features"] if f["geometry"]["type"] == "LineString"]
        assert len(lines) == 1
        assert lines[0]["properties"]["agent_id"] == "a"

    def test_agents_beyond_fleet_rejected(self, tiny_config, tmp_path, capsys):
        assert main(["plan", "--config", str(tiny_config), "--out", str(tmp_path), "--agents", "5"]) == 1
        assert "fleet size" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_determinism(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(tiny_config), "--out", str(out), "--seed", "3"]) == 0
        assert (out1 / "plan.geojson").read_bytes() == (out2 / "plan.geojson").read_bytes()
        assert (out1 / "observations.jsonl").read_bytes() == (out2 / "observations.jsonl").read_bytes()

    def test_seed_override_changes_digest(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(tiny_config), "--out", str(out1)])
        main(["simulate", "--config", str(tiny_config), "--out", str(out2), "--seed", "99"])
        header1 = json.loads((out1 / "observations.jsonl").read_text().splitlines()[0])
        header2 = json.loads((out2 / "observations.jsonl").read_text().splitlines()[0])
        assert header1["config_digest"] != header2["config_digest"]

    def test_campus_mission_runs(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(REPO_CONFIG), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campus-demo" in out
        lines = (tmp_path / "observations.jsonl").read_text().strip().splitlines()
        assert len(lines) > 80

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_outputs_take_the_umask_mode(self, tiny_config, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert main(["simulate", "--config", str(tiny_config), "--out", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        for name in ("plan.geojson", "observations.jsonl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask

    def test_outputs_leave_the_umask_alone(self, tiny_config, tmp_path, monkeypatch):
        def no_umask(mask):
            raise AssertionError("the process umask was touched")

        monkeypatch.setattr(os, "umask", no_umask)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["observations.jsonl", "plan.geojson"]

    def test_failed_write_leaves_no_temp_file(self, tiny_config, tmp_path, monkeypatch, capsys):
        def no_replace(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", no_replace)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: replace refused\n"
        assert list(out.iterdir()) == []

    def test_region_at_north_pole_refused(self, tmp_path, capsys):
        doc = dict(TINY, region=[[89.9997, 0.0], [89.99995, 0.0], [89.99995, 10.0]])
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # Refused at parse time, before generate_waypoints would warn that
        # the region spans 10 degrees of longitude.
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: camera: lattice row at 90.0000")
        assert "passes the north pole" in err and "(42.667 m)" in err
        assert not (tmp_path / "out").exists()

    def test_lattice_over_the_ceiling_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # The campus region at 1 cm altitude would ask for about 1.3e9 lattice points.
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        doc["camera"]["altitude_m"] = 0.01
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def no_point(*args):
            raise AssertionError("a lattice point was built")

        monkeypatch.setattr(grid, "Waypoint", no_point)
        out = tmp_path / "out"
        for argv in (["validate", "--config", str(path)], ["simulate", "--config", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error: camera: grid spacing 0.01333 m over a 480 m x 470 m rectangle "
                "gives more than 1000000 lattice points\n"
            )
        assert not out.exists()


class TestBound:
    def test_reports_all_references(self, tiny_config, capsys):
        assert main(["bound", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert "nearest-neighbor makespan" in out
        assert "lower bound" in out
        assert "exhaustive optimum" in out

    def test_large_instance_skips_oracle(self, capsys):
        assert main(["bound", "--config", str(REPO_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "lower bound unavailable" in out
        assert "skipped" in out
