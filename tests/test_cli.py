"""Command-line behavior: subcommands, flags, exit codes, file outputs."""

from __future__ import annotations

import contextlib
import errno
import gc
import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import uavsurvey
from helpers import REPO_CONFIG, assert_valid_geojson
from uavsurvey import config as config_module
from uavsurvey import generate_waypoints, grid, parse_mission_config
from uavsurvey import cli
from uavsurvey.cli import build_parser, main
from uavsurvey.geodesy import meters_per_degree

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
        assert capsys.readouterr().err == "error: fleet: fleet must have at least one agent\n"

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
        for command in ("plan", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: replace refused\n"
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty_out", "earlier_pair"])
    @pytest.mark.parametrize("step", ["open", "write"])
    def test_second_file_failing_leaves_no_half_pair(self, tiny_config, tmp_path, monkeypatch, capsys, step, earlier):
        # The disk fills while simulate writes its second file: it exits 1,
        # and --out holds what it held before, with no new file beside it.
        # The earlier pair flies one agent, so its plan.geojson differs too.
        out = tmp_path / "out"
        out.mkdir()
        if earlier:
            assert main(["simulate", "--config", str(tiny_config), "--agents", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        created = []

        def full_disk(path, mode="r", **kwargs):
            if mode == "x":
                created.append(path)
                if len(created) == 2 and step == "open":
                    raise OSError(errno.ENOSPC, "No space left on device")
            handle = open(path, mode, **kwargs)
            if len(created) == 2:
                def write(text):
                    raise OSError(errno.ENOSPC, "No space left on device")
                handle.write = write
            return handle

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert [p.name.split(".")[1] for p in created] == ["plan", "observations"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_second_rename_failing_leaves_each_file_old_or_new(self, tiny_config, tmp_path, monkeypatch, capsys):
        # POSIX has no rename of two files at once: when the second
        # os.replace fails, the first file is already renamed. simulate exits
        # 1, leaves no temp file, and each file holds its earlier or its new
        # bytes. The earlier pair flies one agent, so both files differ.
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["simulate", "--config", str(tiny_config), "--agents", "1", "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(tiny_config), "--out", str(fresh)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        new = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert sorted(before) == sorted(new) == ["observations.jsonl", "plan.geojson"]
        assert all(before[name] != new[name] for name in before)
        capsys.readouterr()
        replace = os.replace
        renames = []

        def second_fails(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError("replace refused")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: replace refused\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        for name in before:
            assert (out / name).read_bytes() in (before[name], new[name])

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty_out", "earlier_pair"])
    @pytest.mark.parametrize("refuser", ["simulate", "write_observation_log"])
    def test_refusal_after_the_plan_is_written(self, tiny_config, tmp_path, monkeypatch, capsys, refuser, earlier):
        # The plan's new file is written before simulate flies: a refusal
        # there or in the log writer removes it, and --out holds what it
        # held before. The earlier pair flies one agent, so its files differ.
        out = tmp_path / "out"
        out.mkdir()
        if earlier:
            assert main(["simulate", "--config", str(tiny_config), "--agents", "1", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def refused(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(cli, refuser, refused)
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: refused\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_interrupt_in_simulate_leaves_no_temp_file(self, tiny_config, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "simulate", interrupted)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--config", str(tiny_config), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_plan_is_written_before_simulate_flies(self, tiny_config, tmp_path, monkeypatch):
        # The memory bound rests on this order: when simulate is called, the
        # plan's text is already in its new file, and no target is renamed.
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["simulate", "--config", str(tiny_config), "--agents", "1", "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(tiny_config), "--out", str(fresh)]) == 0
        old_plan = (out / "plan.geojson").read_bytes()
        seen = []
        real_simulate = cli.simulate

        def looked(*args, **kwargs):
            staged = sorted(p for p in out.iterdir() if p.name.startswith("."))
            seen.append(([p.name.split(".")[1] for p in staged], [p.read_bytes() for p in staged],
                         (out / "plan.geojson").read_bytes()))
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate", looked)
        assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 0
        new_plan = (fresh / "plan.geojson").read_bytes()
        assert new_plan != old_plan
        assert seen == [(["plan"], [new_plan], old_plan)]
        assert (out / "plan.geojson").read_bytes() == new_plan

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


def run_cli(argv, encoding, cwd, **env):
    """``python -m uavsurvey.cli`` in a child process whose stdout encodes
    with ``encoding`` and strict errors, with ``env`` added to its environment."""
    env = dict(
        os.environ, PYTHONIOENCODING=f"{encoding}:strict", PYTHONPATH=str(Path(uavsurvey.__file__).parents[1]), **env
    )
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


class TestHashlibImport:
    """Only ``simulate`` hashes (``config_digest``), so in a fresh interpreter
    no other command imports ``hashlib`` or loads OpenSSL's ``_hashlib``."""

    @pytest.mark.parametrize("command", ["validate", "plan", "bound", "simulate"])
    def test_only_simulate_imports_hashlib(self, tmp_path, command):
        argv = [command, "--config", str(REPO_CONFIG)] + (["--out", "out"] if command in ("plan", "simulate") else [])
        # The child lists each module it imports on stderr.
        proc = run_cli(argv, "utf-8", tmp_path, PYTHONPROFILEIMPORTTIME="1")
        assert proc.returncode == 0
        imported = {line.rsplit(b"|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert b"uavsurvey.geojson_io" in imported
        hashing = {b"hashlib", b"_hashlib"} & imported
        assert hashing == ({b"hashlib", b"_hashlib"} if command == "simulate" else set())


class TestCampusEndToEnd:
    """Whole commands on the campus mission and on variants of it: the bytes
    each writes, how its two files agree, and what ``bound`` prints at the
    Held-Karp limit. A successful run leaves its outputs and no temp file."""

    @staticmethod
    def variant(tmp_path: Path, name: str, change) -> Path:
        """The campus config after ``change(doc)``, written to ``name``.json."""
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        change(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @staticmethod
    def run(command: str, config: Path, out: Path, *options: str) -> Path:
        """``command`` exits 0 and leaves exactly its outputs in ``out``."""
        assert main([command, "--config", str(config), "--out", str(out), *options]) == 0
        written = ["plan.geojson"] if command == "plan" else ["observations.jsonl", "plan.geojson"]
        assert sorted(os.listdir(out)) == written
        return out

    def test_plan_and_simulate_write_the_same_plan(self, tmp_path):
        plan = self.run("plan", REPO_CONFIG, tmp_path / "plan")
        simulated = self.run("simulate", REPO_CONFIG, tmp_path / "simulate")
        assert (plan / "plan.geojson").read_bytes() == (simulated / "plan.geojson").read_bytes()

    def test_same_bytes_under_any_string_hash_seed(self, tmp_path):
        here = self.run("simulate", REPO_CONFIG, tmp_path / "here", "--seed", "4")
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"hash-{hash_seed}"
            argv = ["simulate", "--config", str(REPO_CONFIG), "--seed", "4", "--out", str(out)]
            proc = run_cli(argv, "utf-8", tmp_path, PYTHONHASHSEED=hash_seed)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert sorted(os.listdir(out)) == ["observations.jsonl", "plan.geojson"]
            for name in ("plan.geojson", "observations.jsonl"):
                assert (out / name).read_bytes() == (here / name).read_bytes(), (hash_seed, name)

    def test_files_agree_with_each_other(self, tmp_path):
        out = self.run("simulate", REPO_CONFIG, tmp_path, "--seed", "4")
        text = (out / "plan.geojson").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
        lines = (out / "observations.jsonl").read_text(encoding="utf-8").splitlines()
        for line in lines:
            assert line == json.dumps(json.loads(line), separators=(",", ":"), allow_nan=False)
        # Lattice indexes are int pairs, agent ids strings, and the plan's
        # Points are the waypoints observed.
        features = json.loads(text)["features"]
        points = [f for f in features if f["geometry"]["type"] == "Point"]
        events = [json.loads(line) for line in lines[1:]]
        observed = [e["camera"]["lattice_index"] for e in events if e["event"] == "waypoint_reached"]
        indexes = [p["properties"]["lattice_index"] for p in points] + observed
        assert all(type(i) is list and len(i) == 2 and all(type(v) is int for v in i) for i in indexes)
        ids = [f["properties"]["agent_id"] for f in features] + [e["agent_id"] for e in events]
        assert all(type(a) is str for a in ids)
        assert {tuple(p["properties"]["lattice_index"]) for p in points} == {tuple(i) for i in observed}
        # Each LineString flies, after its home, its agent's Points in visit
        # order, one leg each; an unassigned Point has no visit order.
        routes = [f for f in features if f["geometry"]["type"] == "LineString"]
        assert len(routes) == 3
        for route in routes:
            aid = route["properties"]["agent_id"]
            mine = sorted(
                (p for p in points if p["properties"]["agent_id"] == aid), key=lambda p: p["properties"]["visit_order"]
            )
            assert route["geometry"]["coordinates"][1:] == [p["geometry"]["coordinates"] for p in mine]
            assert route["properties"]["leg_count"] == len(mine)
        assert all(p["properties"]["visit_order"] is None for p in points if p["properties"]["agent_id"] is None)

    def test_camera_high_above_the_campus_leaves_an_empty_grid(self, tmp_path):
        # A 133 km spacing over the 480 m campus rectangle: the lattice's one
        # point in it, its SW corner, lies outside the campus, so each of
        # the 3 agents logs a takeoff and a completion under the header.
        config = self.variant(tmp_path, "high", lambda doc: doc["camera"].update(altitude_m=100000))
        assert main(["validate", "--config", str(config)]) == 0
        with pytest.warns(grid.EmptyGridWarning):
            out = self.run("simulate", config, tmp_path / "out")
        empty = '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'
        assert (out / "plan.geojson").read_text(encoding="utf-8") == empty
        assert len((out / "observations.jsonl").read_text(encoding="utf-8").splitlines()) == 7

    # The third home across the antimeridian at longitude 175: its first leg
    # is the wrapped one, about 176 degrees of longitude at latitude 53, not
    # the 184 degrees east (12,250 km). At 89 N its first leg runs about
    # 35.7 degrees south to the campus.
    @pytest.mark.parametrize(
        "home, start, low, high",
        [
            ([53.276164, 175.0, 0.0], [175.0, 53.276164, 0.0], 11.6e6, 11.8e6),
            ([89.0, -9.065406], [-9.065406, 89.0, 0.0], 3.9e6, 4.0e6),
        ],
        ids=["longitude_175", "latitude_89"],
    )
    def test_far_home_flies_its_route_from_that_home(self, tmp_path, home, start, low, high):
        config = self.variant(tmp_path, "far", lambda doc: doc["fleet"][2].update(home=home))
        assert main(["validate", "--config", str(config)]) == 0
        out = self.run("simulate", config, tmp_path / "out")
        features = json.loads((out / "plan.geojson").read_text(encoding="utf-8"))["features"]
        far = [f for f in features if f["geometry"]["type"] == "LineString"][2]
        assert far["properties"]["agent_id"] == "rav-3"
        assert far["geometry"]["coordinates"][0] == start
        assert low < far["properties"]["total_length_m"] < high

    @pytest.mark.parametrize("rows, cols", [(3, 6), (6, 3), (1, 19)], ids=["3x6", "6x3", "1x19"])
    def test_bound_at_the_held_karp_limit(self, tmp_path, capsys, rows, cols):
        # A rectangle from the campus's first vertex holding exactly rows x
        # cols lattice points: the first row and column lie on its south and
        # west edges, the far edges half a spacing past the last ones.
        config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
        spacing = grid.grid_spacing(config.camera)
        lat, lon = config.region.vertices[0].lat_deg, config.region.vertices[0].lon_deg
        m_lat, m_lon = meters_per_degree(lat)
        top, east = lat + (rows - 0.5) * spacing / m_lat, lon + (cols - 0.5) * spacing / m_lon
        region = [[lat, lon], [lat, east], [top, east], [top, lon]]
        path = self.variant(tmp_path, "limit", lambda doc: doc.update(region=region))
        assert main(["bound", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"waypoints: {rows * cols}, agents: 3"
        if rows * cols <= 18:
            assert lines[2].startswith("lower bound (optimal tour / n): ") and lines[2].endswith(" m")
        else:
            assert lines[2] == "lower bound unavailable: 19 waypoints exceeds the exact limit of 18"


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


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore its state."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def garbage_left_by(call) -> tuple[int, Counter]:
    """Run ``call()`` with the collector off, then return what ``gc.collect()``
    finds unreachable: the count, and the objects' types."""
    gc.collect()
    debug = gc.get_debug()
    with collector(False):
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
    return found, kinds


def empty_grid_config(path: Path) -> Path:
    """TINY over an anti-diagonal sliver under a metre wide that no lattice
    point hits, so ``generate_waypoints`` raises ``EmptyGridWarning``."""
    m_lat, m_lon = meters_per_degree(0.0)
    region = [[0.0, 100.0 / m_lon], [0.0, 100.7 / m_lon], [100.0 / m_lat, 0.7 / m_lon], [100.0 / m_lat, 0.0]]
    path.write_text(json.dumps({**TINY, "region": region}), encoding="utf-8")
    return path


class TestNoCyclicGarbage:
    """``main`` pauses the cyclic collector because a command leaves no
    reference cycle behind: reference counting frees what it builds, an
    empty grid's ``plan.geojson`` included."""

    CASES = {
        "validate": (["validate", "--config", "{campus}"], 0),
        "plan": (["plan", "--config", "{campus}", "--out", "{out}"], 0),
        "simulate": (["simulate", "--config", "{campus}", "--out", "{out}"], 0),
        "bound": (["bound", "--config", "{campus}"], 0),
        "simulate_two_agents": (["simulate", "--config", "{campus}", "--agents", "2", "--seed", "4", "--out", "{out}"], 0),
        "empty_grid": (["simulate", "--config", "{empty}", "--out", "{out}"], 0),
        "config_error": (["simulate", "--config", "{broken}", "--out", "{out}"], 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_command_leaves_no_cycles(self, case, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"region": [[0, 0], [0, 1], [1, 0]], "fleet": []}', encoding="utf-8")
        paths = {"campus": REPO_CONFIG, "out": tmp_path / "out", "broken": broken,
                 "empty": empty_grid_config(tmp_path / "empty.json")}
        template, code = self.CASES[case]
        argv = [arg.format(**paths) for arg in template]
        codes = []

        def run() -> None:
            if case != "empty_grid":
                codes.append(main(argv))
                return
            with pytest.warns(grid.EmptyGridWarning):
                codes.append(main(argv))

        run()  # warms every cache the command fills
        left = garbage_left_by(run)
        assert codes == [code, code]
        assert left == (0, Counter())
        capsys.readouterr()


class TestCollectorPause:
    """``main`` runs the command with the collector off and restores the
    caller's state however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def enabled(self, request):
        """The caller's collector state, set for the test and restored after it."""
        with collector(request.param):
            yield request.param

    @staticmethod
    def use_handler(monkeypatch, handler) -> list[bool]:
        """Make ``main`` call ``handler(args)`` in place of the command's own;
        the list returned records ``gc.isenabled()`` as each parse begins."""
        parser = build_parser()
        parse = parser.parse_args
        parsing = []

        def parse_args(argv):
            parsing.append(gc.isenabled())
            args = parse(argv)
            args.handler = handler
            return args

        monkeypatch.setattr(parser, "parse_args", parse_args)
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        return parsing

    def test_handler_runs_paused(self, enabled, monkeypatch):
        seen = []
        parsing = self.use_handler(monkeypatch, lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["validate", "--config", str(REPO_CONFIG)]) == 0
        assert (parsing, seen) == ([enabled], [False])
        assert gc.isenabled() is enabled

    def test_restored_after_exit_0(self, enabled, capsys):
        assert main(["validate", "--config", str(REPO_CONFIG)]) == 0
        assert gc.isenabled() is enabled

    def test_restored_after_config_error(self, enabled, tmp_path, capsys):
        assert main(["plan", "--config", str(REPO_CONFIG), "--agents", "9", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --agents 9 exceeds fleet size 3\n"
        assert gc.isenabled() is enabled

    def test_restored_after_usage_error(self, enabled, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate"])
        assert exit_info.value.code == 2
        assert gc.isenabled() is enabled

    def test_restored_after_uncaught_exception(self, enabled, monkeypatch):
        def fail(args):
            raise RuntimeError("handler failed")

        self.use_handler(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["validate", "--config", str(REPO_CONFIG)])
        assert gc.isenabled() is enabled
