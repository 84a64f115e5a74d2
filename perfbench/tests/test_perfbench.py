"""Tests of the benchmark itself: inputs, verifier, load generator."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import verifier  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = [op.config for op in workloads.generate(workload, 7)]
    again = [op.config for op in workloads.generate(workload, 7)]
    other = [op.config for op in workloads.generate(workload, 8)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_bound_instances_have_their_constructed_waypoint_counts():
    uavsurvey = run.load_package(REPO)
    for op in workloads.generate("bound_eval", 3):
        config = uavsurvey.parse_mission_config(json.dumps(op.config))
        assert len(uavsurvey.generate_waypoints(config.region, config.camera).points) == op.expected_waypoints


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One small sweep mission run through the CLI, plus a Checker that has
    seen its outputs."""
    uavsurvey = run.load_package(REPO)
    op = workloads.generate("survey_sweep", 1)[0]
    workloads.materialise([op], tmp_path_factory.mktemp("op"))
    _, stdout = run.call_cli(uavsurvey, op.argv)
    checker = run.Checker(uavsurvey)
    checker.check(op, stdout)
    plan = (op.out_dir / "plan.geojson").read_bytes()
    log = (op.out_dir / "observations.jsonl").read_bytes()
    return uavsurvey, op, stdout, checker, plan, log


def test_verifier_accepts_the_real_outputs(simulated):
    _, op, stdout, _, plan, log = simulated
    result = verifier.verify_survey(op.config, plan, log, stdout)
    assert result.events == result.waypoints + 2 * len(op.config["fleet"])


def test_verifier_rejects_a_flipped_byte(simulated):
    _, op, stdout, checker, plan, log = simulated
    at = plan.index(b'"visit_order": ') + len(b'"visit_order": ')
    flipped = plan[:at] + bytes([plan[at] ^ 0x01]) + plan[at + 1:]
    with pytest.raises(verifier.VerificationError):
        verifier.verify_survey(op.config, flipped, log, stdout)
    # A flip that keeps the outputs self-consistent still changes the digest.
    at = log.index(b'"radiation_usv_s":') + len(b'"radiation_usv_s":') + 3
    flipped = log[:at] + bytes([log[at] ^ 0x01]) + log[at + 1:]
    (op.out_dir / "observations.jsonl").write_bytes(flipped)
    try:
        with pytest.raises(verifier.VerificationError, match="outputs differ"):
            checker.check(op, stdout)
    finally:
        (op.out_dir / "observations.jsonl").write_bytes(log)


def test_verifier_rejects_an_injected_nan(simulated):
    _, op, stdout, _, plan, log = simulated
    start = log.index(b'"radiation_usv_s":') + len(b'"radiation_usv_s":')
    end = log.index(b",", start)
    with pytest.raises(verifier.VerificationError, match="NaN"):
        verifier.verify_survey(op.config, plan, log[:start] + b"NaN" + log[end:], stdout)


def test_verifier_rejects_a_dropped_waypoint_line(simulated):
    _, op, stdout, _, plan, log = simulated
    lines = log.split(b"\n")
    k = next(i for i, line in enumerate(lines) if b"waypoint_reached" in line)
    with pytest.raises(verifier.VerificationError, match="lines"):
        verifier.verify_survey(op.config, plan, b"\n".join(lines[:k] + lines[k + 1:]), stdout)


def test_verifier_rejects_a_wrong_lower_bound(tmp_path):
    uavsurvey = run.load_package(REPO)
    op = next(op for op in workloads.generate("bound_eval", 1) if op.expected_waypoints >= 6)
    workloads.materialise([op], tmp_path)
    _, stdout = run.call_cli(uavsurvey, op.argv)
    reference = verifier.bound_reference(uavsurvey, op.path.read_text(encoding="utf-8"), op.expected_waypoints)
    verifier.verify_bound(op.config, stdout, reference)
    printed = re.search(r"^lower bound \(optimal tour / n\): (\S+) m$", stdout, re.M).group(1)
    for wrong in ("0.0", f"{float(printed) * 2:.1f}"):
        with pytest.raises(verifier.VerificationError, match="lower bound"):
            verifier.verify_bound(op.config, stdout.replace(f": {printed} m", f": {wrong} m"), reference)


def test_traced_call_records_a_span_per_layer_call(simulated):
    uavsurvey, op, _, checker, _, _ = simulated
    saved = {name: getattr(uavsurvey.cli, name) for name in (*tracing.LAYER_CALLS, "main")}
    tracer = tracing.Tracer(tracing.cpu_clock)
    checker.check(op, run.call_traced(uavsurvey, op, tracer))
    names = [span.name for span in tracer.spans]
    assert names[0] == tracing.ROOT and tracer.spans[0].parent is None
    assert sorted(names[1:]) == sorted(["config.parse", "grid.generate", "routing.plan", "sim.simulate",
                                        "geojson_io.export", "geojson_io.export", "geojson_io.obslog"])
    assert all(span.parent == 0 for span in tracer.spans[1:])
    assert {name: getattr(uavsurvey.cli, name) for name in saved} == saved


def test_peak_rss_is_the_childs_own(tmp_path):
    """A large benchmark process must not raise the figure of its child."""
    ops = workloads.generate("bound_eval", 1)[:2]
    workloads.materialise(ops, tmp_path)
    ballast = b"x" * (96 << 20)
    assert run.measure_peak_rss(REPO, ops) < 64
    del ballast


@pytest.mark.parametrize("trace", ["0", "1"])
def test_load_generator_stays_within_nproc(monkeypatch, capsys, tmp_path, trace):
    """Threads and live child processes never exceed the CPU count."""
    ops = workloads.generate("bound_eval", 2)[:4]
    monkeypatch.setitem(workloads.GENERATORS, "bound_eval", lambda seed: ops)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)  # the run writes its files under the checkout root
    uavsurvey = run.load_package(REPO)
    live: list[subprocess.Popen] = []
    peak = {"processes": 0, "threads": 0}
    real_popen_init = subprocess.Popen.__init__
    real_main = uavsurvey.cli.main

    def popen_init(self, *args, **kwargs):
        live[:] = [p for p in live if p.poll() is None]
        real_popen_init(self, *args, **kwargs)
        live.append(self)
        peak["processes"] = max(peak["processes"], len(live))

    def main(argv=None):
        peak["threads"] = max(peak["threads"], threading.active_count())
        return real_main(argv)

    monkeypatch.setattr(subprocess.Popen, "__init__", popen_init)
    monkeypatch.setattr(uavsurvey.cli, "main", main)
    assert run.main(["--workload", "bound_eval", "--seed", "2", "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= len(ops)
    assert peak["threads"] == 1
    assert peak["processes"] <= (os.cpu_count() or 1)
    assert peak["processes"] == (1 if trace == "0" else 0)
