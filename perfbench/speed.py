"""Host-speed sampler: puts the benchmark's times on one fixed speed scale.

The benchmark runs on shared virtual CPUs whose speed drifts by a third
within seconds and from minute to minute, for the probe and the engine
alike.  A raw time therefore measures the host as much as the program.

`Sampler` runs a fixed probe kernel (a pure-Python loop plus small numpy
matrix products, the mix the engine itself spends its time in) from a
SIGALRM handler every `PERIOD_S` of wall time, in the same process and
thread as the operations.  Each probe records when it ran and how long it
took.  `Sampler.scaled(a, b)` takes an interval of the process, removes
the probes' own time from it, and multiplies what is left by the host's
speed around that interval: the mean of `REF_PROBE_S / probe time` over
the probes that ran in it or within one period of it.  The result is the
time the interval would have taken on a host where the probe takes
`REF_PROBE_S`.  A change to the engine moves it; a change in the host's
speed, which moves probe and engine together, mostly does not.
"""

from __future__ import annotations

import gc
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.025
# The probe's median time on the machine the benchmark was defined on
# (2-vCPU Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4), so scaled times
# read close to that machine's seconds.
REF_PROBE_S = 0.0006

_A = np.arange(9, dtype=np.int64).reshape(3, 3)


def kernel() -> int:
    s = 0
    d = {}
    lst = []
    for i in range(2000):
        s += (i * i) % 7
        d[i % 31] = s
        lst.append(s)
    m = _A
    for _ in range(60):
        m = (m @ _A) % 101
    return s + int(m[0, 0])


class Sampler:
    def __init__(self):
        self.start = array("d")
        self.wall = array("d")
        self.cpu = array("d")
        self.samples = None

    def probe(self, *_signal_args) -> None:
        """Run the kernel once and record it; also the SIGALRM handler."""
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection would time the engine's heap, not the host
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        if gc_was_on:
            gc.enable()
        self.start.append(t0)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)

    def run(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop probing; `factor` and `scaled` work only after this."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        self.samples = (np.array(self.start), np.array(self.wall), np.array(self.cpu))

    def factor(self, a: float, b: float) -> float:
        """Host speed around [a, b] relative to the reference host."""
        start, wall, _ = self.samples
        near = (start >= a - PERIOD_S) & (start <= b + PERIOD_S)
        if not near.any():
            near = np.abs(start - (a + b) / 2) == np.abs(start - (a + b) / 2).min()
        return float(np.mean(REF_PROBE_S / wall[near]))

    def scaled(self, a: float, b: float, cpu_s: float) -> tuple[float, float]:
        """Wall time of [a, b] and `cpu_s`, the process CPU time over it,
        both without the probes and at reference speed."""
        start, wall, cpu = self.samples
        inside = (start >= a) & (start <= b)
        f = self.factor(a, b)
        return (b - a - float(wall[inside].sum())) * f, (cpu_s - float(cpu[inside].sum())) * f
