"""Speed probe pinned to one core: the host speed where other processes run.

``common.CoreMeters`` starts one per usable core while a workload's work
runs in other processes (the 2-worker pool, the service).  Every
``SpeedMeter.INTERVAL_S`` it times ``_reference_work`` on its core and
appends ``<perf_counter> <seconds>`` to the output file, one flushed line
per sample, until it is terminated.

    python3 perfbench/coreprobe.py <cpu> <output file>
"""

from __future__ import annotations

import os
import sys
import time

from common import SpeedMeter, _reference_work


def main(cpu: int, path: str) -> int:
    os.sched_setaffinity(0, {cpu})
    for _ in range(SpeedMeter.WARM_CALLS):
        _reference_work()
    with open(path, "w", buffering=1) as out:
        while True:
            time.sleep(SpeedMeter.INTERVAL_S)
            _reference_work()  # untimed: a core woken from idle runs cold
            begin = time.perf_counter()
            _reference_work()
            now = time.perf_counter()
            out.write(f"{now!r} {now - begin!r}\n")


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
