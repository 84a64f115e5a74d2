"""Command-line behavior: subcommands, flags, exit codes, file outputs."""

from __future__ import annotations

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import uavsurvey
from helpers import REPO_CONFIG, assert_valid_geojson
from uavsurvey import config as config_module
from uavsurvey import generate_waypoints, grid, parse_mission_config
from uavsurvey import cli
from uavsurvey.cli import build_parser, main

TINY = {
    "region": [[0.0, 0.0], [0.0, 0.00055], [0.00055, 0.00055], [0.00055, 0.0]],
    "fleet": [
        {"id": "a", "home": [0.0, 0.0], "velocity_mps": 5.0},
        {"id": "b", "home": [0.0, 0.0], "velocity_mps": 5.0},
    ],
    "sources": [{"position": [0.0, 0.0002], "sigma": 100.0}],
    "seed": 11,
}

# Six waypoints, two agents launching from different homes at different
# speeds: small enough for both exact references of ``bound``.
SMALL = {
    "region": [[0.0, 0.0], [0.0, 0.0008], [0.0004, 0.0008], [0.0004, 0.0]],
    "fleet": [
        {"id": "a", "home": [0.0, -0.0003], "velocity_mps": 5.0},
        {"id": "b", "home": [0.0006, 0.0008], "velocity_mps": 7.0},
    ],
    "sources": [{"position": [0.0, 0.0002], "sigma": 100.0}],
    "seed": 11,
}


def on_a_waypoint() -> list[float]:
    """The campus mission's first waypoint, at the camera's altitude."""
    config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
    p = generate_waypoints(config.region, config.camera).points[0].point
    return [p.lat_deg, p.lon_deg, p.alt_m]


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

    @pytest.mark.parametrize("agents", ["0", "-1"])
    @pytest.mark.parametrize("command", ["plan", "simulate", "bound"])
    def test_agents_below_one_rejected(self, tiny_config, tmp_path, monkeypatch, capsys, command, agents):
        monkeypatch.chdir(tmp_path)  # plan and simulate default --out to the working directory
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--config", str(tiny_config), "--agents", agents]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --agents must be >= 1, got {agents}\n"
        assert sorted(tmp_path.rglob("*")) == before


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

    @pytest.mark.parametrize(
        "path, value, error",
        [
            (("dwell_s",), 1e308,
             "error: dwell_s: event times up to 169 x (1e+308 s dwell + 182.963 s leg) overflow\n"),
            (("fleet", 0, "velocity_mps"), 1e-306,
             "error: fleet[0].velocity_mps: event times up to 169 x (0.0 s dwell + inf s leg) overflow\n"),
            (("camera", "altitude_m"), 1e308,
             "error: camera: footprint width 2 * altitude_m * tan(half_fov_deg) must be finite, got inf\n"),
            (("fleet", 1, "home", 2), 1e308,
             "error: fleet[1].home: event times up to 169 x (0.0 s dwell + 1.25e+307 s leg) overflow\n"),
            (("sources", 0, "sigma"), 1e308,
             "error: sources[0].sigma: readings up to the sum of sigma / 0.1^2 over sources[:1] overflow\n"),
            (("noise",), {"kind": "gaussian", "relative_sd": 1e308},
             "error: noise.relative_sd: readings up to 12000 uSv/s x (1 + 8.6 x 1e+308) overflow\n"),
        ],
        ids=["dwell", "velocity", "altitude", "home", "sigma", "noise"],
    )
    def test_log_refused_leaves_no_plan(self, tmp_path, capsys, path, value, error):
        # Event times, a footprint or readings past the float range would
        # give a log no strict JSON writer can write: validate and simulate
        # refuse the mission at parse time, naming the config path, and
        # write nothing. The source sits on a waypoint at the camera's
        # altitude, where its level is sigma / 0.1^2.
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        doc["sources"][0]["position"] = on_a_waypoint()
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["validate", "--config", str(config)], ["simulate", "--config", str(config), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == error
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "path, error",
        [
            (("mission_id",), "error: mission_id: lone surrogate '\\ud800' at index 4 has no UTF-8 encoding\n"),
            (("fleet", 1, "id"), "error: fleet[1].id: lone surrogate '\\ud800' at index 4 has no UTF-8 encoding\n"),
        ],
        ids=["mission_id", "agent_id"],
    )
    def test_lone_surrogate_refused_before_any_output(self, tmp_path, capsys, path, error):
        # UTF-8 cannot encode the id, so printing it after the files are
        # written would fail: every command refuses it at parse time.
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = "rav-\ud800"
        config = tmp_path / "surrogate.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        for command in ("validate", "plan", "simulate"):
            argv = [command, "--config", str(config)] + (["--out", str(out)] if command != "validate" else [])
            assert main(argv) == 1
            assert capsys.readouterr().err == error
        assert list(out.iterdir()) == []

    def test_readings_just_inside_the_bound_are_written(self, tmp_path):
        # A source on a waypoint whose clamped level times the largest noise
        # factor, 1e307 x (1 + 8.6 x 1.0), is just below the float range.
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        doc["sources"][0] = {"position": on_a_waypoint(), "sigma": 1e305}
        doc["noise"] = {"kind": "gaussian", "relative_sd": 1.0}
        config = tmp_path / "hot.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "observations.jsonl").read_text(encoding="utf-8").splitlines()
        readings = [event["radiation_usv_s"] for event in map(json.loads, lines) if "radiation_usv_s" in event]
        assert all(math.isfinite(r) for r in readings)
        assert max(readings) > 1e306

    def test_overrides_rerun_the_mission_rules_once(self, tmp_path, monkeypatch):
        # Parsing counts the lattice once and the --agents/--seed overrides
        # once more; generate_waypoints counts it through grid, not config.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return grid._lattice_axes(*args, **kwargs)

        monkeypatch.setattr(config_module, "_lattice_axes", counted)
        argv = ["simulate", "--config", str(REPO_CONFIG), "--agents", "2", "--seed", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 2


class TestPrintouts:
    """The exact stdout of ``plan`` and ``bound``: per-agent lines follow the
    fleet's order and each agent's own home."""

    def test_plan_campus(self, tmp_path, capsys):
        assert main(["plan", "--config", str(REPO_CONFIG), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "waypoints: 80 at spacing 42.667 m\n"
            "  rav-1: 27 waypoints, 1499.4 m\n"
            "  rav-2: 27 waypoints, 1534.1 m\n"
            "  rav-3: 26 waypoints, 1387.7 m\n"
            "makespan: 191.8 s\n"
            f"wrote {tmp_path / 'plan.geojson'}\n"
        )

    def test_plan_campus_two_agents(self, tmp_path, capsys):
        assert main(["plan", "--config", str(REPO_CONFIG), "--out", str(tmp_path), "--agents", "2"]) == 0
        assert capsys.readouterr().out == (
            "waypoints: 80 at spacing 42.667 m\n"
            "  rav-1: 40 waypoints, 1944.1 m\n"
            "  rav-2: 40 waypoints, 1987.6 m\n"
            "makespan: 248.5 s\n"
            f"wrote {tmp_path / 'plan.geojson'}\n"
        )

    def test_plan_small_mission(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text(json.dumps(SMALL), encoding="utf-8")
        assert main(["plan", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "waypoints: 6 at spacing 42.667 m\n"
            "  a: 3 waypoints, 131.6 m\n"
            "  b: 3 waypoints, 125.6 m\n"
            "makespan: 26.3 s\n"
            f"wrote {tmp_path / 'plan.geojson'}\n"
        )

    def test_bound_small_mission(self, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text(json.dumps(SMALL), encoding="utf-8")
        assert main(["bound", "--config", str(path)]) == 0
        assert capsys.readouterr().out == (
            "waypoints: 6, agents: 2\n"
            "nearest-neighbor makespan: 26.317 s (longest route 131.6 m)\n"
            "lower bound (optimal tour / n): 128.0 m\n"
            "exhaustive optimum makespan: 24.035 s\n"
        )

    def test_simulate_makespan_is_flight_time_without_dwell(self, tmp_path, capsys):
        # makespan is max(total_length_m / velocity) over plan.geojson's
        # routes; the last route_complete also waits out 26 dwells of 5 s.
        doc = dict(json.loads(REPO_CONFIG.read_text(encoding="utf-8")), dwell_s=5.0)
        config = tmp_path / "dwell.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "makespan: 191.8 s\n" in capsys.readouterr().out
        plan = json.loads((tmp_path / "plan.geojson").read_text(encoding="utf-8"))
        routes = [f["properties"] for f in plan["features"] if f["geometry"]["type"] == "LineString"]
        assert f"{max(r['total_length_m'] for r in routes) / 8.0:.1f}" == "191.8"
        lines = (tmp_path / "observations.jsonl").read_text(encoding="utf-8").splitlines()
        ends = [event["t"] for event in map(json.loads, lines[1:]) if event["event"] == "route_complete"]
        assert f"{max(ends):.1f}" == "321.8"


def run_cli(argv, encoding, cwd):
    """``python -m uavsurvey.cli`` in a child process whose stdout encodes
    with ``encoding`` and strict errors."""
    env = dict(os.environ, PYTHONIOENCODING=f"{encoding}:strict", PYTHONPATH=str(Path(uavsurvey.__file__).parents[1]))
    argv = [sys.executable, "-m", "uavsurvey.cli", *argv]
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=120, check=False)


class TestUnencodablePrintouts:
    """A character stdout cannot encode is printed as a backslash escape, after
    both files are written, and the command still exits 0."""

    def test_mission_id_outside_ascii(self, tmp_path):
        doc = dict(json.loads(REPO_CONFIG.read_text(encoding="utf-8")), mission_id="r\u00e4v")
        (tmp_path / "rav.json").write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli(["simulate", "--config", "rav.json", "--out", "out"], "ascii", tmp_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (
            b"mission r\\xe4v: 80 observations, seed 0\n"
            b"makespan: 191.8 s\n"
            b"wrote out/plan.geojson\n"
            b"wrote out/observations.jsonl\n"
        )
        assert (tmp_path / "out" / "plan.geojson").is_file()
        header = json.loads((tmp_path / "out" / "observations.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert header["mission_id"] == "r\u00e4v"

    def test_out_path_outside_utf8(self, tmp_path):
        out = os.fsdecode(b"out\xff")  # the str sys.argv holds for these bytes
        proc = run_cli(["simulate", "--config", str(REPO_CONFIG), "--out", out], "utf-8", tmp_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        wrote = [b"wrote out\\udcff/plan.geojson", b"wrote out\\udcff/observations.jsonl"]
        assert proc.stdout.splitlines()[-2:] == wrote
        assert sorted(os.listdir(os.fsencode(tmp_path / out))) == [b"observations.jsonl", b"plan.geojson"]


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


class TestRepeatedCalls:
    """``main`` builds its parser once; every call still parses its own argv."""

    @staticmethod
    def call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_repeat_their_output_and_exit_code(self, tiny_config, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        config = str(tiny_config)
        calls = [
            ["bound", "--config", config],
            ["bound", "--config", config, "--agents", "1"],
            ["plan", "--config", config, "--agents", "5", "--out", str(tmp_path)],  # a ConfigError
            ["simulate", "--config", config, "--seed", "3", "--out", str(tmp_path)],
            ["plan", "--out", str(tmp_path)],  # an argparse error: --config is missing
            ["validate", "--config", config],
        ]
        first = [self.call(argv, capsys) for argv in calls]
        # In reverse, so each option set earlier must not linger into a call without it.
        again = [self.call(argv, capsys) for argv in reversed(calls)][::-1]
        assert again == first
        assert [code for code, _, _ in first] == [0, 0, 1, 0, 2, 0]
        assert "agents: 2" in first[0][1] and "agents: 1" in first[1][1]
        assert first[2][2] == "error: --agents 5 exceeds fleet size 2\n"
        assert "the following arguments are required: --config" in first[4][2]
        assert len(builds) <= 1  # none once an earlier call has built the parser
