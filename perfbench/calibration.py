"""Host-speed calibration: a fixed kernel timed between epochs.

On a shared 2-vCPU virtual machine, identical census epochs took anywhere
from 0.53 s to 2.09 s.  The whole machine sped up and slowed down for tens
of seconds at a time, so the median epoch of one 10 s run differed from
another's by up to 1.8x.  No run length averages that away.  The benchmark
therefore times this kernel between epochs, outside the timed region, and
scales every timing metric to the kernel's reference speed::

    calibrated seconds = measured seconds * REFERENCE_S / median(kernel times)

The kernel walks a dictionary far larger than the CPU caches, in a shuffled
order.  Over six census runs the spread (quartile distance over median) of
the median epoch fell from 0.246 raw to 0.018 calibrated; a small,
cache-resident kernel only reached 0.23, so the drift is in memory access
rather than instruction speed.  The kernel runs in a helper process of its
own (:class:`Calibrator`): inside the measured process its allocations would
trigger the program's garbage collections and time them.  The cold starts
run in other processes just before the epochs and share the run's factor:
between two ten-run sets, raw census ``setup_s`` medians were 2.06 s and
1.31 s, calibrated 2.13 s and 2.03 s.  No change to ``repro`` can move the
kernel, so the scaling cancels only the host's drift.  Every run also
prints the raw figures and ``machine_speed`` (``REFERENCE_S`` over the
median kernel time: above 1 the host was faster than the reference).
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

#: The kernel's time on the reference host.
REFERENCE_S = 0.25
ENTRIES = 150_000
LOOKUPS = 75_000


def kernel() -> int:
    """Build a 150k-entry dict of tuples, then read half of it in random order."""
    rng = random.Random(777)
    table = {}
    for index in range(ENTRIES):
        table[index * 7919 % 1_000_003] = (index, rng.random())
    keys = list(table)
    rng.shuffle(keys)
    total = 0
    for key in keys[:LOOKUPS]:
        total += table[key][0]
    return total


def sample() -> float:
    """One calibration sample: the kernel's wall time, in seconds."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Calibrator:
    """A helper process that times the kernel whenever :meth:`sample` asks."""

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def close(self) -> None:
        """Tell the helper to quit and wait for it.

        An explicit ``quit`` line, not end of input: worker processes forked
        after the helper started hold copies of its stdin pipe.
        """
        try:
            self._process.stdin.write("quit\n")
            self._process.stdin.close()
            self._process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def speed(samples: list[float]) -> float:
    """The host's speed relative to the reference (above 1: faster)."""
    return REFERENCE_S / statistics.median(samples)


def serve() -> None:
    """The helper's loop: one sample per line read, until ``quit``."""
    for line in sys.stdin:
        if line.strip() == "quit":
            return
        print(sample(), flush=True)


if __name__ == "__main__":
    serve()
