"""Peak resident memory of one pass of CLI operations.

Reads a JSON list of ``uavsurvey`` argument lists on standard input, runs
each through ``uavsurvey.cli.main`` in this process, one after another, and
prints the process's peak resident set size in MiB. The process runs nothing
else, so the figure is the program's own: no verifier, no timer, no earlier
workload.

    python3 perfbench/peak_rss.py src < argv-lists.json
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout


def peak_mib() -> float:
    """This process's own peak resident set size (VmHWM), in MiB.

    Not ``ru_maxrss``: Linux carries that across exec, so a child of a large
    parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import uavsurvey.cli

    for argv in json.load(sys.stdin):
        with redirect_stdout(io.StringIO()):
            rc = uavsurvey.cli.main(argv)
        if rc != 0:
            print(f"exit code {rc} from uavsurvey {' '.join(argv)}", file=sys.stderr)
            return rc
    print(peak_mib())
    return 0


if __name__ == "__main__":
    sys.exit(main())
