"""A probe of how fast this machine runs at the moment.

On a shared host, neighbours slow this machine's cores by up to ~1.7x, over
seconds and over minutes, which swamps any change a program makes.  The probe
times five fixed kernels that stress what entcat's workloads stress: the
interpreter loop, scalar numpy calls, big-integer arithmetic, sorting numpy
rows and faulting in fresh pages.  In 5 s windows of 100-150 s traces, each
workload's time tracked their geometric mean with correlation 0.9-0.95.
While the workload runs, a timer signal interrupts it every ``PERIOD_S`` for
one pass of the kernels, so the samples cover every call however long it is.
``slowdown`` is the geometric mean, over the kernels, of the mean measured
time divided by the kernel's reference time; a time divided by it reads as
seconds at the reference speed.  ``clock`` stops while the probe runs, so
time spent probing never counts as the workload's.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import signal
import time

import numpy as np

# Seconds between probe passes while a workload runs; a pass takes ~35 ms.
PERIOD_S = 0.3

# Median time of each kernel, in seconds, on the reference machine (a 2-core
# Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2) while a workload runs.
REFERENCE_S = {
    "interpreter": 4.2e-3, "numpy_scalar": 10.1e-3, "bigint": 13.8e-3, "numpy_sort": 1.8e-3, "page_faults": 2.3e-3,
}


def _interpreter() -> None:
    total = 0
    for i in range(60_000):
        total += i * i % 7


def _numpy_scalar(rng) -> None:
    total = 0.0
    for _ in range(20_000):
        total += rng.random()


def _bigint() -> None:
    x = 3**5000
    for _ in range(300):
        x = (x * 12_345_678_901) % 7**6000


def _numpy_sort(block) -> None:
    np.sort(block * 1.000001, axis=1)


def _page_faults() -> None:
    """Touch every page of a fresh 4 MB anonymous mapping: 1024 page faults."""
    with mmap.mmap(-1, 1 << 22) as region:
        pages = np.frombuffer(region, dtype=np.uint8)
        pages[::4096] = 1
        del pages


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        block = rng.random((8192, 32))
        self._kernels = {
            "interpreter": _interpreter,
            "numpy_scalar": lambda: _numpy_scalar(rng),
            "bigint": _bigint,
            "numpy_sort": lambda: _numpy_sort(block),
            "page_faults": _page_faults,
        }
        self.samples = {name: [] for name in self._kernels}
        self.probe_s = 0.0
        self._running = False

    def clock(self) -> float:
        """perf_counter less the time spent probing so far."""
        return time.perf_counter() - self.probe_s

    def run_pass(self) -> None:
        """Time every kernel once; a timer signal that lands inside a pass is dropped."""
        if self._running:
            return
        self._running = True
        begin = time.perf_counter()
        try:
            for name, kernel in self._kernels.items():
                start = time.perf_counter()
                kernel()
                self.samples[name].append(time.perf_counter() - start)
        finally:
            self.probe_s += time.perf_counter() - begin
            self._running = False

    def mark(self) -> int:
        """Position in the samples, for :meth:`slowdown` over later passes."""
        return len(self.samples["interpreter"])

    def slowdown(self, since: int = 0) -> float:
        """Geometric mean over kernels of mean time / reference time, over passes from ``since``."""
        logs = [
            math.log(sum(s[since:]) / len(s[since:]) / REFERENCE_S[name])
            for name, s in self.samples.items()
        ]
        return math.exp(sum(logs) / len(logs))

    def sample(self, seconds: float) -> float:
        """Run passes for ``seconds``, at least one, and return their slowdown."""
        since = self.mark()
        end = time.perf_counter() + seconds
        self.run_pass()
        while time.perf_counter() < end:
            self.run_pass()
        return self.slowdown(since)

    @contextlib.contextmanager
    def interleaved(self, period_s: float = PERIOD_S):
        """Run a pass every ``period_s`` of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.run_pass())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
