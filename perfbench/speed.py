"""The machine's speed, measured next to the work it is compared with.

The host this benchmark runs on may be shared: its speed drifts by tens of
percent within minutes and jumps for a second at a time.  A fixed reference
loop that runs no dualbill code is timed between the operations of a pass,
after every CADENCE_S seconds of operation time, and each stretch of
operations is counted in units of the loop's time measured around it.  The
ratio of work to those units hardly moves when the whole machine slows
down, while a change to the library moves it in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

#: iterations of the reference loop; about 40 ms on a 2-vCPU cloud host
REF_ITERATIONS = 5000
#: operation time between two reference loops
CADENCE_S = 0.25


def reference_loop() -> float:
    """Seconds taken by a fixed loop of complex arithmetic and 3-vector numpy
    operations, the kind of work on the library's hot path."""
    import numpy as np  # here, so that a set-up probe times numpy's import

    t0 = perf_counter()
    acc = 0j
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    for i in range(REF_ITERATIONS):
        z = complex(i % 7, 1.5) * (0.3 - 0.1j)
        acc += z * z / (1 + abs(z))
        if i % 4 == 0:
            v = np.cross(v, np.array([z, 1.0, 2.0]))
            v = v / np.linalg.norm(v)
    return perf_counter() - t0


@dataclass
class PassTiming:
    seconds: float  # wall time of the pass without the reference loops
    units: float  # the same time in reference loops measured around it
    op_seconds: list[float]  # wall time of each operation
    op_units: list[float]  # the same in reference loops
    ref_seconds: list[float]  # the reference loops of the pass


class Meter:
    """Times the operations of one pass and interleaves the reference loop.

    A workload runs each operation through :meth:`timed`.  With a recorder,
    every operation also starts a new operation id for the spans.  Nested
    operations count once, as part of the outermost.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.op_seconds: list[float] = []
        self.op_units: list[float] = []
        self.refs: list[float] = [reference_loop()]
        self._open = 0.0  # operation time since the last reference loop
        self._units = 0.0
        self._depth = 0

    def timed(self, fn, *args, **kwargs):
        if self._depth:
            return fn(*args, **kwargs)
        if self.recorder is not None:
            self.recorder.next_op()
        self._depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._depth -= 1
            self.op_seconds.append(dt)
            self._open += dt
            if self._open >= CADENCE_S:
                self._close(self._open)

    def _close(self, seconds: float) -> None:
        self.refs.append(reference_loop())
        scale = 2 / (self.refs[-2] + self.refs[-1])
        self._units += seconds * scale
        self.op_units += [t * scale for t in self.op_seconds[len(self.op_units):]]
        self._open = 0.0

    def finish(self, wall: float) -> PassTiming:
        """Close the pass, whose wall time (reference loops included) was
        ``wall``: time outside the operations is counted with the last
        stretch."""
        inner = sum(self.refs[1:])
        seconds = wall - inner
        self._close(self._open + seconds - sum(self.op_seconds))
        return PassTiming(seconds, self._units, self.op_seconds, self.op_units, self.refs)
