"""Measurement from outside the package: the clock and machine-speed probe
every run times with, and the per-layer passes.

Two per-layer passes, both separate from the timed closed loop:

* The traced run calls the real ``cli.main`` with a span around it and
  around each layer function it calls (see :func:`traced_cli`). Spans stay
  in memory until the run ends. A layer's self time is its spans' duration
  minus their child spans; the root span's self time is ``cli.self_s``.
* The profiled pass runs the real ``cli.main`` under ``cProfile`` only to
  count calls; its times are discarded.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import pstats
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = "cli.main"


def cpu_clock() -> float:
    """CPU seconds used so far by this process, its threads and its reaped
    children, user plus system.

    The benchmark times with this clock rather than wall time: on a shared
    virtual machine, time the process waits while another tenant holds the
    CPU spreads wall-clock figures by 15 % between identical runs. For this
    single-threaded, in-memory workload the two clocks agree on an idle
    machine.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# CPU time of calibration_kernel() on the reference machine (2 vCPU Xeon at
# 2.1 GHz, Python 3.11) at its usual speed, rounded. It only sets the scale
# of the scaled figures; changing it changes every baseline.
KERNEL_REF_S = 0.005

_M_PER_DEG = 111319.49


@dataclass(frozen=True)
class _Point:
    lat: float
    lon: float
    alt: float = 0.0


def _distance(a: _Point, b: _Point) -> float:
    north = (b.lat - a.lat) * _M_PER_DEG
    east = math.remainder(b.lon - a.lon, 360.0) * _M_PER_DEG * math.cos(math.radians(0.5 * (a.lat + b.lat)))
    return math.hypot(east, north, b.alt - a.alt)


# About 1 MB of small objects, like the planner's waypoint list at x8 scale.
_POINTS = [_Point(53.0 + (i * 0.618 % 1.0) * 0.01, -9.0 + (i * 0.414 % 1.0) * 0.01) for i in range(6000)]


def calibration_kernel() -> float:
    """A fixed mix of the interpreter work the package's hot loops do, built
    from the benchmark's own code so that a change to the package cannot
    move it: a nearest-point scan over a list of small objects through a
    flat-plane distance function (like the planner), then a bitmask dynamic
    program over 9 nodes (like Held-Karp). On the reference machine this mix
    tracks the speed of the planner, of a sweep mission and of a ``bound``
    run about twice as closely as generic arithmetic and memory reads do."""
    here, best = _POINTS[0], math.inf
    for p in _POINTS:
        c = _distance(here, p)
        if 0.0 < c < best:
            best = c
    n = 9
    cost = [[(i * j % 7) + 1.0 for j in range(n)] for i in range(n)]
    table = [math.inf] * ((1 << n) * n)
    table[n] = 0.0
    for mask in range(1, 1 << n, 2):
        for k in range(n):
            v = table[mask * n + k]
            if v == math.inf:
                continue
            for j in range(n):
                if not mask >> j & 1:
                    slot = (mask | 1 << j) * n + j
                    if v + cost[k][j] < table[slot]:
                        table[slot] = v + cost[k][j]
    return best + min(table[-n:])


class SpeedProbe:
    """Measures how fast the machine runs this process while operations run.

    The benchmark's host is shared: for seconds to minutes at a time the
    same work can take up to 2x the CPU time it takes at other times. While
    sampling is on (for the whole closed loop), a timer interrupts the
    process every INTERVAL_S and times a fixed kernel, so the samples follow
    the run's periods of fast and slow running. A slowdown is the samples' trimmed
    mean against KERNEL_REF_S; dividing a time by the slowdown around it
    reports it at the reference speed, so runs made in fast and slow
    periods compare. ``clock()`` leaves the kernel's own time out.
    """

    INTERVAL_S = 0.2
    WINDOW_S = 1.0  # samples this close to an operation describe its speed
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter time, kernel CPU seconds)
        self.kernel_s = 0.0

    def clock(self) -> float:
        """cpu_clock() minus the time spent in the kernel."""
        while True:
            spent = self.kernel_s
            now = cpu_clock()
            if spent == self.kernel_s:  # no sample ran in between
                return now - spent

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            start = cpu_clock()
            calibration_kernel()
            spent = cpu_clock() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append((time.perf_counter(), spent))
        self.kernel_s += spent

    @contextmanager
    def sampling(self):
        # A wall-clock timer: a CPU-time one (ITIMER_PROF) would coarsen the
        # process CPU clock to whole scheduler ticks while it is armed.
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        """The whole run's speed against the reference: above 1 means slower."""
        return _trimmed_mean([spent for _, spent in self.samples]) / KERNEL_REF_S if self.samples else 1.0

    def slowdown_near(self, start: float, end: float) -> float:
        """The speed around an operation that ran from ``start`` to ``end``
        (perf_counter times), or the run's when too few samples fall near."""
        near = [spent for t, spent in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return _trimmed_mean(near) / KERNEL_REF_S if len(near) >= self.MIN_SAMPLES else self.slowdown()


def _trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


@dataclass
class Span:
    op_id: str
    name: str
    parent: int | None  # index of the enclosing span
    start: float
    end: float


class Tracer:
    """Records nested spans in memory."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(op_id, name, parent, self.clock(), 0.0))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
            if span.parent is not None:
                parent = self.spans[span.parent].name
                totals[parent] = totals.get(parent, 0.0) - (span.end - span.start)
        return totals

    def wall(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# Span name for each layer function that uavsurvey.cli imports and calls.
LAYER_CALLS = {
    "parse_mission_config": "config.parse",
    "generate_waypoints": "grid.generate",
    "plan_routes": "routing.plan",
    "mtsp_lower_bound": "routing.heldkarp",
    "brute_force_mtsp": "routing.oracle",
    "simulate": "sim.simulate",
    "export_geojson": "geojson_io.export",
    "dumps_geojson": "geojson_io.export",
    "write_observation_log": "geojson_io.obslog",
}


@contextmanager
def traced_cli(cli, tracer: Tracer, op_id: str):
    """Wrap ``cli.main`` and the layer functions ``cli`` calls in spans.

    The names are replaced in the ``cli`` module only, so the spans follow
    whatever its ``cmd_*`` functions call, and calls between the package's
    other modules stay untraced. Everything is restored on exit.
    """
    saved = {name: getattr(cli, name) for name in (*LAYER_CALLS, "main")}

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name, op_id):
                return fn(*args, **kwargs)
        return traced

    for name, span_name in {**LAYER_CALLS, "main": ROOT}.items():
        setattr(cli, name, wrap(saved[name], span_name))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


# distance_m callers reported on their own; every caller counts in the total.
DISTANCE_CALLERS = ("plan_routes", "route_length", "strength_at", "leg_duration")


def profile_counts(uavsurvey, ops, run_op) -> dict[str, int]:
    """Call counts over one pass of ``ops``; ``run_op(op)`` runs one operation.

    The profiler is on only inside ``run_op``. The counts depend on the
    inputs alone, so they repeat exactly for a given seed.
    """
    profiler = cProfile.Profile(builtins=False)
    for op in ops:
        profiler.enable()
        try:
            run_op(op)
        finally:
            profiler.disable()
    stats = pstats.Stats(profiler).stats

    def entry(fn):
        return stats.get(cProfile.label(fn.__code__), (0, 0, 0.0, 0.0, {}))

    distance = entry(uavsurvey.geodesy.distance_m)
    by_caller: dict[str, int] = {}
    for caller, calls in distance[4].items():
        by_caller[caller[2]] = by_caller.get(caller[2], 0) + calls[0]
    counts = {
        "geodesy.distance_calls": distance[1],
        "grid.pip_calls": entry(uavsurvey.grid.point_in_polygon)[1],
        "radiation.strength_calls": entry(uavsurvey.radiation.strength_at)[1],
    }
    for name in DISTANCE_CALLERS:
        counts[f"geodesy.distance_calls.{name}"] = by_caller.get(name, 0)
    return counts
