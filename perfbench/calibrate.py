"""Host-speed calibration: a fixed piece of work timed between operations.

The host this benchmark was written on changes speed by up to 40%, both
from one 10-ms stretch to the next and over stretches of seconds to
minutes, in CPU time as much as in wall time.  Runs made minutes apart
then differ in every raw timing together, and the tail of one run is
mostly the operations that met a slow stretch.  The benchmark therefore
times a fixed kernel after every CAL_EVERY seconds of operations and
scales each operation's time by ``CAL_REF_S`` over the mean of the kernel
timings around it (see ``Calibration.scales``): the times it reports are
those of a host on which the kernel takes CAL_REF_S.  No kernel calls clearq, so a change to clearq
moves the scaled times exactly as it moves the raw ones.

There are two kernels, and each workload names the one like its own work
(``KERNELS``): the host's slow stretches do not slow all code alike.
``kernel`` is a small pure-Python level recursion over a dict keyed by
named tuples, the kind of work clearq's solver, checks and policy
callbacks do.  ``batch_kernel`` is a few lockstep steps over arrays of one
simulator batch, the kind of work clearq's simulator does.
"""
from __future__ import annotations

import bisect
import statistics
from collections import namedtuple
from time import perf_counter, process_time

import numpy as np

CAL_REF_S = 0.001  # kernel time that defines the reference speed
CAL_EVERY = 0.005  # seconds of operations between two kernel timings

_Key = namedtuple("_Key", "i k l")
_LEVELS, _WIDTH = 30, 6
_DRAWS = np.arange(4096) * 0.6180339887 % 1.0  # spread over [0, 1) without loading numpy.random


def kernel():
    """A fixed amount of solver-like work; returns its result so nothing is skipped."""
    v = {_Key(0, k, _WIDTH - k): float(k) for k in range(_WIDTH + 1)}
    spread = 0.0
    for i in range(1, _LEVELS + 1):
        for k in range(_WIDTH + 1):
            l = _WIDTH - k
            acc = 0.3 * i + 1.5 * k + 0.7 * l
            if k > 0:
                acc += k * 2.0 * min(v[_Key(i - 1, k, l)], v[_Key(i - 1, k - 1, l + 1)])
            if l > 0:
                acc += min(l, 2) * 1.3 * min(v[_Key(i - 1, k + 1, l - 1)], v[_Key(i - 1, k, l)])
            v[_Key(i, k, l)] = acc / (1.0 + 2.0 * k + 1.3 * min(l, 2))
        if i % 3 == 0:
            spread += float(np.minimum(_DRAWS * i, 0.5).sum())
    return v[_Key(_LEVELS, 0, _WIDTH)] + spread


_BATCH = 16384  # replications per batch in clearq.simulate
_UNIFORM = (np.arange(_BATCH) * 0.6180339887 % 1.0) * 0.998 + 0.001
_START = np.arange(_BATCH, dtype=np.int64) % 5
_STEPS = 3


def batch_kernel():
    """A fixed amount of simulator-like work: lockstep steps over one batch of arrays."""
    at1 = _START.copy()
    cost = np.zeros(_BATCH)
    for _ in range(_STEPS):
        rate1 = at1 * 1.5
        total = rate1 + np.minimum(4 - at1, 2) * 0.7 + 0.1
        cost += (at1 * 0.3 + 1.0) * (-np.log(_UNIFORM) / total)
        station1 = _UNIFORM * total < rate1
        at1 = np.where(station1, np.maximum(at1 - 1, 0), np.minimum(at1 + 1, 4))
    return float(cost.sum())


KERNELS = {"solver": kernel, "simulator": batch_kernel}


class Calibration:
    """Kernel timings taken through a run, and the scale factors they give."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self):
        c0 = process_time()
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.cpu.append(process_time() - c0)
        self.wall.append(t1 - t0)
        self.at.append((t0 + t1) / 2)

    def scales(self, spans, clock):
        """CAL_REF_S / mean kernel time around each (start, end) in ``spans``.

        ``clock`` is "wall" or "cpu".  The mean is over the timings within
        half the span's length either side of it, and always takes in the
        last timing before the span and the first after it, so that a long
        operation is scaled by the host's speed over about its own length.
        """
        samples = getattr(self, clock)
        out = []
        for start, end in spans:
            pad = (end - start) / 2
            lo = min(bisect.bisect_left(self.at, start - pad), bisect.bisect_left(self.at, start) - 1)
            hi = max(bisect.bisect_right(self.at, end + pad), bisect.bisect_right(self.at, end) + 1)
            out.append(CAL_REF_S / statistics.fmean(samples[lo:hi]))
        return out
