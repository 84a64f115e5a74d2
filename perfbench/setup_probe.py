"""Set-up cost of one CLI call, measured inside a fresh interpreter.

Times ``import uavsurvey.cli`` in this process's CPU clock, then times the
benchmark's calibration kernel in the same process, and prints both in
seconds: ``<import> <kernel>``. The kernel runs on the same CPU right after
the import, so their ratio leaves out how fast the shared machine happened
to be at that moment (see tracing.SpeedProbe).

    python3 perfbench/setup_probe.py src
"""

import sys
import time

start = time.process_time()
sys.path.insert(0, sys.argv[1])
import uavsurvey.cli  # noqa: E402,F401

elapsed = time.process_time() - start

import gc  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402

gc.disable()
kernel = []
for _ in range(5):
    begin = time.process_time()
    tracing.calibration_kernel()
    kernel.append(time.process_time() - begin)
print(elapsed, statistics.median(kernel))
