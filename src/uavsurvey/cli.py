"""Command-line surface: validate, plan, simulate, bound."""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, MissionConfig, parse_mission_config
from .geojson_io import dumps_geojson, export_geojson, write_observation_log
from .grid import generate_waypoints, grid_spacing
from .routing import (
    HELD_KARP_MAX_POINTS,
    ORACLE_MAX_AGENTS,
    ORACLE_MAX_POINTS,
    brute_force_mtsp,
    makespan,
    mtsp_lower_bound,
    plan_routes,
    route_length,
)
from .sim import simulate


@contextlib.contextmanager
def _staged_writes():
    """Yield ``stage(path, text)``, which writes ``text`` to a new file beside
    ``path`` and closes it at once, so the caller can drop ``text`` before it
    renders the next output. When the block ends, each new file is renamed
    over its ``path`` in the order staged. A failure before the renames,
    in the block or in a write, removes every new file and leaves every
    ``path`` as it was. POSIX has no rename of two files at once: if a later
    ``os.replace`` fails, the files renamed before it are new beside older
    ones. Opened with "x", a new file takes the mode ``open()`` gives (0o666
    less the umask) and is never one this call did not create."""
    staged = []

    def stage(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
        with open(tmp, "x", encoding="utf-8") as handle:
            staged.append((tmp, path))
            handle.write(text)

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _say(line: str, stream=None) -> None:
    """Print ``line`` to ``stream`` (stdout by default), escaping what its encoding
    cannot hold: a mission id or ``--out`` path never fails a command after its files exist."""
    stream = stream or sys.stdout
    if stream.encoding:
        line = line.encode(stream.encoding, "backslashreplace").decode(stream.encoding)
    print(line, file=stream)


def _load_config(args) -> MissionConfig:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_mission_config(text)
    overrides: dict = {}  # one replace, so the mission rules rerun once
    agents = args.agents
    if agents is not None:
        if agents < 1:
            raise ConfigError(f"--agents must be >= 1, got {agents}")
        if agents > len(config.fleet):
            raise ConfigError(f"--agents {agents} exceeds fleet size {len(config.fleet)}")
        overrides["fleet"] = config.fleet[:agents]
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(config, **overrides) if overrides else config


def _plan_mission(config: MissionConfig):
    grid = generate_waypoints(config.region, config.camera)
    plan = plan_routes(config.fleet, grid.points)
    return grid, plan


def cmd_validate(args) -> int:
    config = _load_config(args)
    _say(
        f"config OK: {len(config.region.vertices)} region vertices, "
        f"{len(config.fleet)} agent(s), {len(config.sources)} source(s), "
        f"spacing {grid_spacing(config.camera):.3f} m, seed {config.seed}"
    )
    return 0


def cmd_plan(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
    out = Path(args.out) / "plan.geojson"
    with _staged_writes() as stage:
        stage(out, dumps_geojson(export_geojson(grid, plan, config.fleet)))
    _say(f"waypoints: {len(grid.points)} at spacing {grid.spacing_m:.3f} m")
    for agent in config.fleet:
        route = plan[agent.id]
        _say(f"  {agent.id}: {len(route)} waypoints, {route_length(agent.home, route):.1f} m")
    _say(f"makespan: {makespan(plan, config.fleet):.1f} s")
    _say(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
    out_dir = Path(args.out)
    geojson_path = out_dir / "plan.geojson"
    log_path = out_dir / "observations.jsonl"
    # Each text is written and dropped before the next phase builds its
    # objects, so peak memory is the larger phase, not the sum of both. A
    # refusal in simulate or in the log writer removes the plan's new file.
    with _staged_writes() as stage:
        stage(geojson_path, dumps_geojson(export_geojson(grid, plan, config.fleet)))
        log = simulate(
            plan,
            config.fleet,
            config.sources,
            config.noise,
            config.seed,
            camera=config.camera,
            dwell_s=config.dwell_s,
            mission_id=config.mission_id,
        )
        stage(log_path, write_observation_log(log))
    _say(f"mission {log.mission_id}: {len(log.observations)} observations, seed {config.seed}")
    _say(f"makespan: {makespan(plan, config.fleet):.1f} s")
    _say(f"wrote {geojson_path}")
    _say(f"wrote {log_path}")
    return 0


def cmd_bound(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
    fleet = config.fleet
    nn_makespan = makespan(plan, fleet)
    longest = max(route_length(a.home, plan[a.id]) for a in fleet)
    n_points = len(grid.points)
    _say(f"waypoints: {n_points}, agents: {len(fleet)}")
    _say(f"nearest-neighbor makespan: {nn_makespan:.3f} s (longest route {longest:.1f} m)")
    if n_points <= HELD_KARP_MAX_POINTS:
        bound = mtsp_lower_bound(grid.points, len(fleet))
        _say(f"lower bound (optimal tour / n): {bound:.1f} m")
    else:
        _say(f"lower bound unavailable: {n_points} waypoints exceeds the exact limit of {HELD_KARP_MAX_POINTS}")
    if n_points <= ORACLE_MAX_POINTS and len(fleet) <= ORACLE_MAX_AGENTS:
        optimum, _ = brute_force_mtsp(grid.points, fleet)
        _say(f"exhaustive optimum makespan: {optimum:.3f} s")
    else:
        _say("exhaustive optimum skipped: instance exceeds oracle limits")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavsurvey",
        description="Plan, evaluate, and simulate multi-drone survey missions.",
    )
    parser.set_defaults(agents=None, seed=None)  # for the commands without these options
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=False, seed=False, agents=False):
        p.add_argument("--config", required=True, help="mission config JSON path")
        if out:
            p.add_argument("--out", default=".", help="output directory (default: current)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        if agents:
            p.add_argument("--agents", type=int, help="use only the first N fleet agents")

    p = sub.add_parser("validate", help="parse and lint a mission config")
    add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("plan", help="generate the waypoint grid and routes, export GeoJSON")
    add_common(p, out=True, agents=True)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("simulate", help="plan and fly the mission, writing the observation log")
    add_common(p, out=True, seed=True, agents=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("bound", help="compare the heuristic against exact references")
    add_common(p, agents=True)
    p.set_defaults(handler=cmd_bound)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs about twenty parses."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused. It builds
    tens of thousands of containers that stay live until it returns
    (waypoints, events, the exported document) and leaves no cycles behind,
    so every automatic collection walks them and frees nothing: at campus
    x8 that was about 8 % of ``simulate``'s CPU. Argument parsing is not
    paused, and the caller's collector state is restored however the
    command ends.
    """
    args = _parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        _say(f"error: {exc}", sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
