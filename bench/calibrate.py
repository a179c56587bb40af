"""Host-speed calibration: timings in *reference seconds*.

The benchmark runs on a shared two-core virtual machine whose speed
drifts by a third over minutes: a fixed pure-Python loop measured
0.107–0.167 s in twenty back-to-back runs, and ten-second averages of a
fixed server set-up ranged over 145–192 ms.  No window that fits the
driver's time budget averages that away, and no wall-clock timing taken
on such a host can repeat within a tenth.

So every timing is taken next to a reference kernel — a few milliseconds
of dictionary, float and small-array work, the same mix the program is
made of — and scaled by how fast the kernel ran in the same interval:
``reference seconds = wall seconds * REFERENCE_S / kernel seconds``.  In
the experiment above the scaled ten-second averages stayed within 3.4 %
(interquartile, against 17.5 % unscaled).  The kernel runs *between*
timed operations, never inside one.

A result in reference seconds compares two versions of the program on
whatever host speed each run happened to get; it is not a wall-clock
promise for any particular machine.  ``bench.host_speed`` reports the
factor of every traced run so that a reader can undo the scaling.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from . import ROOT

#: the kernel's duration on the host and at the speed the baseline in
#: ``bench/README.md`` is quoted for; a constant, so results from
#: different days and hosts share one unit
REFERENCE_S = 0.0025

_ARRAY = np.arange(4096, dtype=np.float64)


def kernel() -> float:
    """About three milliseconds of the program's own kind of work."""
    total = 0.0
    table = {}
    for i in range(12000):
        table[i & 1023] = i
        total += (i * 0.5) ** 0.5
        if i & 7 == 0:
            total += len(table)
    for _ in range(40):
        total += float(np.sqrt(_ARRAY * 1.5 + 2.0).sum())
    return total


def _peer_main() -> None:
    """The paired sampler's other half (``python -m bench.calibrate``):
    time one kernel per line on stdin, until stdin closes."""
    for _ in sys.stdin:
        started = perf_counter()
        kernel()
        print(repr(perf_counter() - started), flush=True)


class HostSpeed:
    """Kernel timings taken around and between the timed operations of a run.

    ``paired=True`` is for a workload whose work runs on two cores at once
    (the fleet's two worker processes).  Neighbours on the host take away
    parallel capacity before they slow a single core: over a quarter of an
    hour the fleet's throughput fell by a quarter while the single-process
    workloads, scaled by a single kernel, stayed flat.  A paired sample
    runs the kernel here and in a helper process *at the same time* and
    keeps the mean of the two durations.
    """

    def __init__(self, paired: bool = False) -> None:
        self._peer: Optional[subprocess.Popen] = None
        if paired:
            self._peer = subprocess.Popen(
                [sys.executable, "-m", "bench.calibrate"], cwd=ROOT,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        #: (perf_counter at start, kernel seconds); perf_counter is the
        #: system-wide monotonic clock, so samples taken by a child
        #: process can be pooled with the parent's
        self.samples: List[Tuple[float, float]] = []
        #: total seconds spent inside the kernel by :meth:`sample`, so an
        #: operation that samples between its own steps can discount them
        self.spent = 0.0

    def sample(self, repeats: int = 1, charge: bool = True) -> None:
        """Run the kernel ``repeats`` times and keep each duration.

        ``charge=False`` is for a sampler that runs beside the timed
        operation (on an event loop that is otherwise waiting), whose time
        must not be discounted from it.
        """
        for _ in range(repeats):
            started = perf_counter()
            if self._peer is not None:
                self._peer.stdin.write("go\n")
                self._peer.stdin.flush()
            kernel()
            elapsed = perf_counter() - started
            duration = elapsed
            if self._peer is not None:
                duration = (elapsed + float(self._peer.stdout.readline())) / 2
                elapsed = perf_counter() - started
            self.samples.append((started, duration))
            if charge:
                self.spent += elapsed

    def close(self) -> None:
        """Stop the helper process of a paired sampler."""
        if self._peer is not None:
            self._peer.stdin.close()
            self._peer.wait(timeout=10)
            self._peer.stdout.close()
            self._peer = None

    @property
    def peer_pid(self) -> Optional[int]:
        """The helper's pid, so memory accounting can leave it out."""
        return self._peer.pid if self._peer is not None else None

    def reference_seconds(self, operation, burst: int = 5):
        """Run ``operation()`` between two bursts of kernel samples; return
        ``(its duration in reference seconds, its result)``.  Samples the
        operation takes between its own steps count towards the factor
        and are discounted from the duration."""
        first = len(self.samples)
        self.sample(burst)
        started, spent = perf_counter(), self.spent
        result = operation()
        elapsed = (perf_counter() - started) - (self.spent - spent)
        self.sample(burst)
        durations = [d for _, d in self.samples[first:]]
        return elapsed * REFERENCE_S / (sum(durations) / len(durations)), result

    def factor(self, since: float, until: float) -> float:
        """Reference seconds per wall second over ``[since, until]``
        (perf_counter readings): above 1 on a host faster than the
        reference, below 1 on a slower one."""
        durations = [d for at, d in self.samples if since <= at <= until]
        if not durations:
            raise ValueError("no kernel sample was taken in the interval")
        return REFERENCE_S / (sum(durations) / len(durations))


if __name__ == "__main__":
    _peer_main()
