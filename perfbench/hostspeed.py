"""Host-speed normalization of the benchmark's times.

The benchmark runs on shared hosts whose speed swings with the other
tenants' load: for a few seconds a fixed kernel runs 1.5 times slower than
before, then fast again. A run of a few ops of several seconds each cannot
average that out. So the benchmark measures the host's speed while it times:
a fixed probe kernel runs a few times before and after a timed region and,
from a SIGALRM handler, every PERIOD_S inside it.

A region's normalized time is its wall time minus the probes' own time,
times the host's mean speed over the region in units of the speed at which
the probe takes its ref_s (about its time on an idle host). The speed is the
probe's rate, 1 / probe time, so a region that spans a fast and a slow phase
gets their time-weighted mean.

How much a kernel slows down depends on what it does, so each workload
names the probe that mirrors its hot path:

- INTERPRETER: a pure-Python integer loop, then numpy calls on 60-entry
  vectors, as in the per-round bookkeeping and the dual loop;
- MATVEC: scipy CSR matvecs on a 300x300 operator with every entry stored
  (1 MB), as in the Newton workload's radius-4 operators; the dense exact
  Newton workload uses it too.

The probes are the benchmark's own fixed code, never lapflow's, so a change
to lapflow moves the normalized times by the same share as the wall times.
README.md gives the measurements the probes were chosen by.
"""

import contextlib
import signal
import time

import numpy as np
import scipy.sparse

PERIOD_S = 0.1
EDGE_PROBES = 3

_M = scipy.sparse.csr_matrix(np.random.default_rng(0).standard_normal((300, 300)))
_X = np.ones(300)
_A, _B, _C = np.random.default_rng(1).standard_normal((3, 60))


def _interpreter():
    s = 0
    for i in range(10000):
        s += i * i % 7
    for _ in range(75):
        d = _A * _B + _C
        d.sum()
        np.maximum(d, 0.0)
        np.exp(-d)


def _matvec():
    for _ in range(10):
        _M @ _X


class Probe:
    """A fixed kernel and its time on an idle host, ref_s."""

    def __init__(self, kernel, ref_s):
        self.kernel = kernel
        self.ref_s = ref_s

    def time_s(self):
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def factor(self, times):
        """Mean host speed over the probe times, relative to an idle host."""
        return self.ref_s * sum(1.0 / t for t in times) / len(times)


INTERPRETER = Probe(_interpreter, 0.0015)
MATVEC = Probe(_matvec, 0.0008)


class Region:
    """Times of one region: raw_s (wall minus probes), s (normalized), host_factor."""

    raw_s = s = host_factor = None


class HostSpeed:
    """Normalizes the regions timed with region(); probes inside them while entered.

    Outside `with HostSpeed(probe):` no timer runs, and region() probes only
    at its edges.
    """

    def __init__(self, probe, period=PERIOD_S):
        self.probe = probe
        self.period = period
        self._samples = None
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        if self._samples is not None:
            self._samples.append(self.probe.time_s())

    @contextlib.contextmanager
    def region(self):
        r = Region()
        times = [self.probe.time_s() for _ in range(EDGE_PROBES)]
        self._samples = inside = []
        t0 = time.perf_counter()
        try:
            yield r
        finally:
            self._samples = None
            wall = time.perf_counter() - t0
            times += inside + [self.probe.time_s() for _ in range(EDGE_PROBES)]
            r.raw_s = wall - sum(inside)
            r.host_factor = self.probe.factor(times)
            r.s = r.raw_s * r.host_factor
