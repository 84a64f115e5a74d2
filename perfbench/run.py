#!/usr/bin/env python3
"""The uavsurvey benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload survey_sweep --seed 3 --seconds 20 --trace 0

``--workload`` is ``survey_large``, ``survey_sweep``, ``bound_eval`` or
``all``. The load model is a closed loop with one client: each operation is
an in-process ``uavsurvey.cli.main([...])`` call, started only after the
previous one returned, repeated in whole passes over the workload's pool
until ``--seconds`` have passed. Every operation's outputs are verified
outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a traced run plus a profiled pass; see tracing.py). Times are CPU
seconds scaled to a reference machine speed (see tracing.SpeedProbe). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
operation passed verification, 1 when one failed, and 2 when the checkout
holds no ``src/uavsurvey`` package to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from tracing import cpu_clock
import verifier
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 20

# name -> unit, for the metrics each mode reports
END_TO_END = {
    "setup_s": "s",
    "waypoints_per_s": "1/s",
    "instances_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "flight_makespan_s": "s",
    "makespan_ratio": "ratio",
}
PER_LAYER = {
    "config.parse_s": "s",
    "config.edge_pairs": "count",
    "grid.generate_s": "s",
    "grid.lattice_points": "count",
    "grid.waypoints": "count",
    "grid.kept_ratio": "ratio",
    "grid.pip_edge_tests": "count",
    "grid.pip_calls": "count",
    "routing.plan_s": "s",
    "routing.plan_share": "ratio",
    "routing.distance_calls": "count",
    "routing.evals_per_claim": "ratio",
    "routing.heldkarp_s": "s",
    "routing.heldkarp_states": "count",
    "routing.oracle_s": "s",
    "routing.oracle_assignments": "count",
    "sim.simulate_s": "s",
    "sim.events": "count",
    "radiation.strength_calls": "count",
    "geojson_io.export_s": "s",
    "geojson_io.obslog_s": "s",
    "geojson_io.bytes": "B",
    "geojson_io.mb_per_s": "MB/s",
    "geodesy.distance_calls": "count",
    "geodesy.distance_calls.route_length": "count",
    "geodesy.distance_calls.strength_at": "count",
    "geodesy.distance_calls.leg_duration": "count",
    "cli.self_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}
# Span names of the traced run, each reported as "<name>_s" self time.
LAYER_SPANS = tuple(dict.fromkeys(tracing.LAYER_CALLS.values()))
# Per-layer metrics scaled to the reference machine speed (see tracing.SpeedProbe).
SCALED_TIMES = {f"{name}_s" for name in LAYER_SPANS} | {
    "cli.self_s", "trace.traced_s", "trace.untraced_s", "trace.overhead_s"}
SCALED_RATES = {"geojson_io.mb_per_s"}


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def load_package(root: Path):
    """Import uavsurvey from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "uavsurvey" / "__init__.py").is_file():
        raise SetupError(f"no uavsurvey package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("uavsurvey")
    if Path(package.__file__).resolve().parent != (src / "uavsurvey").resolve():
        raise SetupError(f"imported uavsurvey from {package.__file__}, not from {src}")
    for module in ("cli", "geodesy", "grid", "radiation", "routing"):
        importlib.import_module(f"uavsurvey.{module}")
    return package


def measure_setup(root: Path) -> tuple[float, float]:
    """Median CPU time of ``import uavsurvey.cli`` in a fresh interpreter, at
    the reference speed and as measured (see setup_probe.py).

    One untimed import first writes the bytecode cache, as an installed
    package has one. The interpreters run one at a time.
    """
    command = [sys.executable, str(HERE / "setup_probe.py"), str(root / "src")]
    scaled, measured = [], []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
        elapsed, kernel = map(float, proc.stdout.split())
        if k:
            measured.append(elapsed)
            scaled.append(elapsed * tracing.KERNEL_REF_S / kernel)
    return statistics.median(scaled), statistics.median(measured)


def measure_peak_rss(root: Path, ops) -> float:
    """Peak resident memory (MiB) of a fresh interpreter that runs one pass
    of ``ops`` through ``cli.main`` and nothing else (see peak_rss.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), str(root / "src")],
        cwd=root, input=json.dumps([op.argv for op in ops]), capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def call_cli(uavsurvey, argv: list[str], clock=cpu_clock) -> tuple[float, str]:
    """One operation: cli.main with stdout/stderr captured; (CPU seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        rc = uavsurvey.cli.main(argv)
        elapsed = clock() - start
    if rc != 0:
        raise verifier.VerificationError(f"exit code {rc}: {err.getvalue().strip()}")
    return elapsed, out.getvalue()


def call_traced(uavsurvey, op, tracer: tracing.Tracer) -> str:
    with tracing.traced_cli(uavsurvey.cli, tracer, op.op_id):
        return call_cli(uavsurvey, op.argv)[1]


@dataclass
class Outcome:
    """Per-operation facts gathered from verified outputs, first pass only."""

    waypoints: int
    makespan_s: float
    reference_s: float | None  # the makespan ratio's denominator, if any
    events: int = 0
    bytes_written: int = 0
    digest: str = ""


@dataclass
class Checker:
    """Verifies operations and remembers each distinct one's first outcome."""

    uavsurvey: object
    outcomes: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)

    def check(self, op, stdout: str) -> Outcome:
        if op.command == "bound":
            reference = self.references.get(op.op_id)
            if reference is None:
                reference = verifier.bound_reference(self.uavsurvey, op.path.read_text(encoding="utf-8"),
                                                     op.expected_waypoints)
                self.references[op.op_id] = reference
            verifier.verify_bound(op.config, stdout, reference)
            outcome = Outcome(reference.waypoints, reference.heuristic_s, reference.optimum_s,
                              digest=verifier.sha256(stdout.encode("utf-8")))
        else:
            plan = (op.out_dir / "plan.geojson").read_bytes()
            log = (op.out_dir / "observations.jsonl").read_bytes()
            result = verifier.verify_survey(op.config, plan, log, stdout, op.expected_waypoints)
            first = self.outcomes.get(op.op_id)
            reference = first.reference_s if first else verifier.makespan_bound_s(
                self.uavsurvey, op.config, result.points)
            outcome = Outcome(result.waypoints, result.makespan_s, reference, result.events,
                              result.bytes_written, f"{result.plan_sha256} {result.log_sha256}")
        first = self.outcomes.setdefault(op.op_id, outcome)
        if outcome.digest != first.digest:
            raise verifier.VerificationError(f"{op.op_id}: outputs differ between runs of the same config")
        return outcome

    def golden_errors(self, workload: str, seed: int) -> list[str]:
        """Compare the default seed's output digests with the recorded ones."""
        if seed != workloads.DEFAULT_SEED or workload not in GOLDEN:
            return []
        lines = "".join(f"{op_id} {o.digest}\n" for op_id, o in sorted(self.outcomes.items()))
        digest = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        if digest == GOLDEN[workload]:
            return []
        return [f"{workload}: output digest {digest} differs from the recorded {GOLDEN[workload]}"]

    def quality(self) -> dict[str, float]:
        """Plan quality over the distinct operations; deterministic per seed."""
        ratios = [o.makespan_s / o.reference_s for o in self.outcomes.values() if o.reference_s]
        return {
            "flight_makespan_s": sum(o.makespan_s for o in self.outcomes.values()),
            "makespan_ratio": statistics.fmean(ratios),
        }


class Run:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, op, action):
        """Run ``action()``; any exception counts the operation as failed."""
        self.attempted += 1
        try:
            return action()
        except Exception as exc:  # the closed loop must keep running
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.op_id}: {exc!r}\n{traceback.format_exc(limit=3)}")
            return None


def timed_run(uavsurvey, ops, seconds: float, run: Run, checker: Checker,
              speed: tracing.SpeedProbe) -> tuple[dict[str, float], dict[str, float]]:
    """The closed loop with tracing off; returns the end-to-end metrics at
    the reference speed and as measured.

    Each operation's time is scaled by the machine's speed around it. Rates
    are taken per whole pass over the pool and reported as the median over
    passes. The median latency is taken over the pool's operations, each at
    the median of its repeats: the pool's latencies form clusters, and a
    median over all repeats would jump between the two clusters nearest the
    middle from run to run.
    """
    done = []  # (op id, pass, CPU seconds, waypoints, slowdown) per completed operation

    def one(op, pass_index):
        start = perf_counter()
        elapsed, stdout = call_cli(uavsurvey, op.argv, speed.clock)
        waypoints = checker.check(op, stdout).waypoints
        done.append((op.op_id, pass_index, elapsed, waypoints, (start, perf_counter())))

    start = perf_counter()
    passes = 0
    with speed.sampling():
        while True:
            for op in ops:
                run.attempt(op, lambda: one(op, passes))
            passes += 1
            if perf_counter() - start >= seconds:
                break
    if not done:
        return {}, {}
    done = [(op_id, p, elapsed, n, speed.slowdown_near(*interval)) for op_id, p, elapsed, n, interval in done]

    def summary(scaled: bool) -> dict[str, float]:
        latencies = [elapsed / (slow if scaled else 1.0) for _, _, elapsed, _, slow in done]
        by_pass: dict[int, list] = {}
        by_op: dict[str, list] = {}
        for (op_id, p, _, n, _), latency in zip(done, latencies):
            by_pass.setdefault(p, []).append((latency, n))
            by_op.setdefault(op_id, []).append(latency)
        return {
            "waypoints_per_s": statistics.median(sum(n for _, n in v) / sum(t for t, _ in v)
                                                 for v in by_pass.values()),
            "instances_per_s": statistics.median(len(v) / sum(t for t, _ in v) for v in by_pass.values()),
            "op_s.p50": statistics.median(statistics.median(v) for v in by_op.values()),
            "op_s.p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1
            else latencies[0],
        }

    quality = checker.quality()
    return {**summary(True), **quality}, {**summary(False), **quality}


def computed_counts(uavsurvey, ops, checker: Checker) -> dict[str, float]:
    """Work counts derived from the inputs rather than measured."""
    routing = uavsurvey.routing
    counts = dict.fromkeys(("config.edge_pairs", "grid.lattice_points", "grid.pip_edge_tests",
                            "routing.heldkarp_states", "routing.oracle_assignments"), 0)
    for op in ops:
        config = uavsurvey.parse_mission_config(op.path.read_text(encoding="utf-8"))
        v = len(config.region.vertices)
        lattice = len(uavsurvey.generate_lattice(uavsurvey.bounding_rectangle(config.region),
                                                 uavsurvey.grid_spacing(config.camera), config.camera.altitude_m))
        n = checker.outcomes[op.op_id].waypoints
        counts["config.edge_pairs"] += v * (v - 3) // 2
        counts["grid.lattice_points"] += lattice
        counts["grid.pip_edge_tests"] += lattice * v
        if op.command == "bound" and n <= routing.HELD_KARP_MAX_POINTS:
            counts["routing.heldkarp_states"] += 2**n * n
        if op.command == "bound" and n <= routing.ORACLE_MAX_POINTS and len(config.fleet) <= routing.ORACLE_MAX_AGENTS:
            counts["routing.oracle_assignments"] += len(config.fleet) ** n
    return counts


def traced_run(uavsurvey, ops, seconds: float, run: Run, checker: Checker, spans_path: Path,
               speed: tracing.SpeedProbe) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics at the reference speed and as measured: one profiled
    pass for call counts, then untraced and traced runs of each operation in
    whole passes until ``seconds`` have passed since the start."""
    start = perf_counter()
    try:
        counts = tracing.profile_counts(uavsurvey, ops, lambda op: call_cli(uavsurvey, op.argv))
    except Exception as exc:  # counted as one failed operation
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"profiled pass: {exc!r}")
        return {}, {}
    run.attempted += len(ops)

    tracer = tracing.Tracer(speed.clock)
    untraced = 0.0
    passes = 0

    def untraced_op(op):
        nonlocal untraced
        elapsed, stdout = call_cli(uavsurvey, op.argv, speed.clock)
        checker.check(op, stdout)
        untraced += elapsed

    def traced_op(op):
        checker.check(op, call_traced(uavsurvey, op, tracer))

    with speed.sampling():
        while True:
            for k, op in enumerate(ops):
                # Alternate which goes first, so warm-up favours neither side.
                for action in (untraced_op, traced_op)[::1 if (k + passes) % 2 == 0 else -1]:
                    run.attempt(op, lambda: action(op))
            passes += 1
            if perf_counter() - start >= seconds:
                break
    tracer.write(spans_path)
    if run.failed:
        return {}, {}

    self_times = tracer.self_times()
    traced = tracer.wall()
    metrics = {f"{name}_s": self_times.get(name, 0.0) / passes for name in LAYER_SPANS}
    metrics["cli.self_s"] = self_times.get(tracing.ROOT, 0.0) / passes
    outcomes = [checker.outcomes[op.op_id] for op in ops]
    waypoints = sum(o.waypoints for o in outcomes)
    io_s = metrics["geojson_io.export_s"] + metrics["geojson_io.obslog_s"]
    written = sum(o.bytes_written for o in outcomes)
    metrics.update(computed_counts(uavsurvey, ops, checker))
    metrics.update({
        "grid.waypoints": waypoints,
        "grid.kept_ratio": waypoints / metrics["grid.lattice_points"],
        "grid.pip_calls": counts["grid.pip_calls"],
        "routing.plan_share": metrics["routing.plan_s"] * passes / traced,
        "routing.distance_calls": counts["geodesy.distance_calls.plan_routes"],
        "routing.evals_per_claim": counts["geodesy.distance_calls.plan_routes"] / waypoints,
        "sim.events": sum(o.events for o in outcomes),
        "radiation.strength_calls": counts["radiation.strength_calls"],
        "geojson_io.bytes": written,
        "geojson_io.mb_per_s": written / 1e6 / io_s if io_s else 0.0,
        "trace.traced_s": traced / passes,
        "trace.untraced_s": untraced / passes,
        "trace.overhead_s": (traced - untraced) / passes,
    })
    for name in ("geodesy.distance_calls", "geodesy.distance_calls.route_length",
                 "geodesy.distance_calls.strength_at", "geodesy.distance_calls.leg_duration"):
        metrics[name] = counts[name]
    slowdown = speed.slowdown()
    scaled = {name: value / slowdown if name in SCALED_TIMES else value * slowdown if name in SCALED_RATES
              else value for name, value in metrics.items()}
    return scaled, metrics


def run_workload(uavsurvey, root: Path, workload: str, seed: int, seconds: float, trace: bool):
    run = Run()
    checker = Checker(uavsurvey)
    ops = workloads.generate(workload, seed)
    work_dir = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        workloads.materialise(ops, work_dir)
        gc.collect()
        speed = tracing.SpeedProbe()
        if trace:
            spans = root / ".perfbench_out" / f"spans-{workload}-{seed}.jsonl"
            metrics, raw = traced_run(uavsurvey, ops, seconds, run, checker, spans, speed)
            units = PER_LAYER
        else:
            setup, setup_measured = measure_setup(root)
            try:
                peak_rss = measure_peak_rss(root, ops)
            except (subprocess.CalledProcessError, ValueError, IndexError) as exc:
                run.attempted += 1
                run.failed += 1
                run.errors.append(f"peak RSS pass: {exc!r} {getattr(exc, 'stderr', '')}")
                peak_rss = None
            metrics, raw = timed_run(uavsurvey, ops, seconds, run, checker, speed)
            metrics["setup_s"], raw["setup_s"] = setup, setup_measured
            if peak_rss is not None:
                metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    slowdown = speed.slowdown()
    errors = run.errors + checker.golden_errors(workload, seed)
    correct = run.failed == 0 and not errors and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    return result, errors, raw, slowdown


def report(workload: str, result: dict, errors: list[str], raw: dict, slowdown: float) -> None:
    for error in errors:
        print(f"{workload}: FAILED {error}", file=sys.stderr)
    print(f"== {workload}: {result['attempted']} operations, {result['failed']} failed")
    print(f"{workload} error_rate {result['failed'] / max(1, result['attempted']):.6g} ratio")
    print(f"{workload} slowdown {slowdown:.6g} x (calibration kernel against the reference, whole run)")
    for name, metric in result["metrics"].items():
        note = f" (measured {raw[name]:.6g})" if raw[name] != metric["value"] else ""
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        uavsurvey = load_package(root)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, errors, raw, slowdown = run_workload(uavsurvey, root, name, args.seed, args.seconds,
                                                     bool(args.trace))
        report(name, result, errors, raw, slowdown)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
