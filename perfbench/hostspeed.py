"""How fast the host runs right now, from a fixed memory-bound probe.

The benchmark shares a few cores of a busy host.  Other tenants' load on the
shared caches and memory slows Python code by up to a third for tens of
seconds at a time, so host seconds alone do not repeat from run to run.  A
probe that chases pointers through a working set larger than the caches
slows down with the program (their times correlate), while it never calls
ringsim and so does not change when the program does.

The probe runs in a helper process started by :class:`Probe`, so its working
set does not count towards the peak memory of the process under test.  It
only runs when asked, between the program's pieces of work, never beside
them.  Timings are rescaled to a host where one probe sample takes
``NOMINAL_S``.

    python3 perfbench/hostspeed.py --serve    # the helper; reads counts on stdin
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Seconds of one probe sample on a quiet baseline machine (see README.md);
# a time t measured while samples take s seconds is reported as t * NOMINAL_S / s.
NOMINAL_S = 0.02

SAMPLES = 4            # samples per request; the request reports their median
ENTRIES = 300_000      # dicts in the working set (about 80 MB)
TOUCHES = 20_000       # random entries read and written per sample


def _working_set():
    table = [{"key": i, "value": float(i)} for i in range(ENTRIES)]
    order = random.Random(3).sample(range(ENTRIES), TOUCHES)
    return table, order


def _sample(table, order) -> float:
    start = time.perf_counter()
    total = 0.0
    for index in order:
        entry = table[index]
        total += entry["value"]
        entry["key"] += 1
    return time.perf_counter() - start


def serve() -> None:
    """Answer each line on stdin with the median of that many samples."""
    table, order = _working_set()
    gc.disable()    # the working set never changes; keep collections out
    print("ready", flush=True)
    for line in sys.stdin:
        count = int(line)
        print(repr(statistics.median(_sample(table, order) for _ in range(count))),
              flush=True)


class Probe:
    """The probe's helper process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host speed probe failed to start")
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds of one probe sample now (median of SAMPLES)."""
        self._proc.stdin.write(f"{SAMPLES}\n")
        self._proc.stdin.flush()
        value = float(self._proc.stdout.readline())
        self.samples.append(value)
        return value

    @staticmethod
    def scale(samples) -> float:
        """Factor that rescales host seconds measured alongside ``samples``."""
        return NOMINAL_S / statistics.median(samples)

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        raise SystemExit(__doc__)
    serve()
