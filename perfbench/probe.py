"""Host-speed probe: how fast this process's CPU runs while it is measured.

On a shared host the speed of a vCPU changes from second to second, by up
to half, with the load that other tenants put on the host (see
BASELINE.md). Over the minutes that ten benchmark runs take, that moves a
timing more than any bound worth setting. The probe measures it while the
program runs: a wall-clock interval timer interrupts the process every
``INTERVAL_S``, and the signal handler times a fixed loop of small numpy
operations driven from Python, the kind of work ffcac's autodiff and
encoder do. The loop is the benchmark's own code, so no change to the
program can make it faster or slower. A pure-Python loop was tried first;
in the host's slowest minutes it left 23-49% of the run-to-run spread of
protocol runs in place, against 20-29% for this loop (BASELINE.md).
The loop allocates no object that the garbage collector tracks, so it
does not change when the program's collections run.

A ``Sampler`` gives two things for each timed window:

* ``clock()``: ``time.perf_counter()`` less the time spent in the probe,
  so a timing taken with it leaves the probe's own cost (1-2%) out;
* ``speed()``: the mean over the window's probes of ``REFERENCE_S`` / the
  probe's time, that is the host's speed against a reference speed at
  which the loop takes ``REFERENCE_S``. A timing multiplied by it reads
  the time the same work would take at the reference speed.

The handler runs between two bytecodes of the main thread, so a probe that
falls due inside a long call into C waits until the call returns.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.02
LOOPS = 30
REFERENCE_S = 250e-6  # the loop's time at the reference speed
_MATRIX = np.random.default_rng(0).standard_normal((32, 32)) / 8


def _loop() -> float:
    start = time.perf_counter()
    x = _MATRIX
    for _ in range(LOOPS):
        x = np.tanh(x @ _MATRIX) * 0.5 + 0.1
    return time.perf_counter() - start


class Sampler:
    def __init__(self):
        self.probe_s = 0.0  # time spent in the probe since the sampler was made
        self.ratios: list[float] = []  # REFERENCE_S / probe time, this window

    def _handler(self, signum, frame) -> None:
        took = _loop()
        self.probe_s += took
        self.ratios.append(REFERENCE_S / took)

    def clock(self) -> float:
        return time.perf_counter() - self.probe_s

    @contextlib.contextmanager
    def window(self):
        """Probe the host while the body runs; ``speed()`` covers the body."""
        self.ratios = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """Mean speed over the last window; one probe is run if it had none."""
        if not self.ratios:
            self.ratios.append(REFERENCE_S / _loop())
        return sum(self.ratios) / len(self.ratios)
