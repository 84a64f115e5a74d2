#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
each metric the median of its values and the distance between their first
and third quartiles as a share of that median. Run from the checkout root:

    python3 perfbench/spread.py --workload survey_large --seeds 1-10 --trace 0 --json out.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['attempted']} attempted, {result['failed']} failed", flush=True)

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}, {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
        print(f"{name:42s} median {s['median']:<12.6g} spread {s['spread']:.4f}{note}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                               "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
