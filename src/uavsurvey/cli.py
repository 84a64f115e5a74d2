"""Command-line surface: validate, plan, simulate, bound."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        umask = os.umask(0)  # mkstemp creates 0600; give the file the mode open() would
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_config(args) -> MissionConfig:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_mission_config(text)
    agents = args.agents
    if agents is not None:
        if agents < 1:
            raise ConfigError(f"--agents must be >= 1, got {agents}")
        if agents > len(config.fleet):
            raise ConfigError(f"--agents {agents} exceeds fleet size {len(config.fleet)}")
        config = replace(config, fleet=config.fleet[:agents])
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _plan_mission(config: MissionConfig):
    grid = generate_waypoints(config.region, config.camera)
    plan = plan_routes(config.fleet, grid.points)
    return grid, plan


def cmd_validate(args) -> int:
    config = _load_config(args)
    print(
        f"config OK: {len(config.region.vertices)} region vertices, "
        f"{len(config.fleet)} agent(s), {len(config.sources)} source(s), "
        f"spacing {grid_spacing(config.camera):.3f} m, seed {config.seed}"
    )
    return 0


def cmd_plan(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
    out = Path(args.out) / "plan.geojson"
    _atomic_write(out, dumps_geojson(export_geojson(grid, plan)))
    print(f"waypoints: {len(grid.points)} at spacing {grid.spacing_m:.3f} m")
    for aid, route in plan.routes.items():
        length = route_length(plan.homes[aid], route)
        print(f"  {aid}: {len(route)} waypoints, {length:.1f} m")
    print(f"makespan: {makespan(plan, config.fleet):.1f} s")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
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
    out_dir = Path(args.out)
    geojson_path = out_dir / "plan.geojson"
    log_path = out_dir / "observations.jsonl"
    _atomic_write(geojson_path, dumps_geojson(export_geojson(grid, plan)))
    _atomic_write(log_path, write_observation_log(log))
    print(f"mission {log.mission_id}: {len(log.observations)} observations, seed {config.seed}")
    print(f"makespan: {makespan(plan, config.fleet):.1f} s")
    print(f"wrote {geojson_path}")
    print(f"wrote {log_path}")
    return 0


def cmd_bound(args) -> int:
    config = _load_config(args)
    grid, plan = _plan_mission(config)
    fleet = config.fleet
    nn_makespan = makespan(plan, fleet)
    longest = max(route_length(plan.homes[aid], route) for aid, route in plan.routes.items())
    n_points = len(grid.points)
    print(f"waypoints: {n_points}, agents: {len(fleet)}")
    print(f"nearest-neighbor makespan: {nn_makespan:.3f} s (longest route {longest:.1f} m)")
    if n_points <= HELD_KARP_MAX_POINTS:
        bound = mtsp_lower_bound(grid.points, len(fleet))
        print(f"lower bound (optimal tour / n): {bound:.1f} m")
    else:
        print(f"lower bound unavailable: {n_points} waypoints exceeds the exact limit of {HELD_KARP_MAX_POINTS}")
    if n_points <= ORACLE_MAX_POINTS and len(fleet) <= ORACLE_MAX_AGENTS:
        optimum, _ = brute_force_mtsp(grid.points, fleet)
        print(f"exhaustive optimum makespan: {optimum:.3f} s")
    else:
        print("exhaustive optimum skipped: instance exceeds oracle limits")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
