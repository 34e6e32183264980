"""Timing from the outside, normalised for the host's speed at the time.

On a shared host the CPU's speed drifts, by up to 2x within seconds, when
other tenants load the same cores.  While a :class:`Meter` is open, an
interval timer interrupts the program every :data:`CAL_INTERVAL_S` and
times one run of a fixed pure-Python kernel: a track of the host's speed.
An operation's normalised seconds are its seconds outside those kernel
runs, each stretch scaled by ``CAL_REF_S / c``, where ``c`` is the mean of
the kernel times just before and just after the stretch: the seconds it
would have taken on a host that runs the kernel in :data:`CAL_REF_S`.  The
kernel lives here, not in ``src/``, so a change to the program cannot
move it.
"""

from __future__ import annotations

import bisect
import math
import signal
from dataclasses import dataclass
from time import perf_counter

#: the kernel's time on the reference host; normalised seconds are
#: seconds on a host this fast
CAL_REF_S = 0.0075
CAL_INTERVAL_S = 0.25

_KEYS = [(i * 7919) & 1023 for i in range(40_000)]


class _Probe:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int) -> None:
        self.value += amount


def calibrate() -> float:
    """Seconds one run of the fixed kernel takes now.

    Dict, list, attribute and method-call work, as in the simulator's own
    loops, but allocating no containers, so that running it inside the
    program never triggers the program's garbage collections.
    """
    start = perf_counter()
    probe = _Probe()
    table = dict.fromkeys(range(1024), 0)
    for i, key in enumerate(_KEYS):
        table[key] = table[key] + i
        probe.add(key)
    sorted(_KEYS)
    return perf_counter() - start


@dataclass
class Op:
    """One operation: when it ran and how much work it did."""

    start: float
    end: float
    #: which input of the workload's stream it ran
    input: int = 0
    amount: int = 1
    #: the workload's label for the operation, e.g. the window size
    tag: str | None = None


class Meter:
    """Times operations; a context manager that samples the host's speed.

    Outside a ``with`` block (or with ``calibrated=False``) no kernel runs
    and normalised seconds equal raw seconds.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.ops: list[Op] = []
        #: (start, end, kernel seconds) of each calibration
        self.cal: list[tuple[float, float, float]] = []
        self._start = 0.0
        self._previous = None
        self._armed = False
        #: the input the next operation runs, set by the caller
        self.input = 0

    def _sample(self, *_) -> None:
        start = perf_counter()
        kernel = calibrate()
        self.cal.append((start, perf_counter(), kernel))
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S)

    def __enter__(self) -> Meter:
        if self.calibrated:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            self._armed = True
            self._sample()
        return self

    def __exit__(self, *exc) -> None:
        if self.calibrated:
            # a sample already under way must not re-arm the timer once the
            # previous (possibly default, fatal) handler is back
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self.cal.append((perf_counter(), perf_counter(), calibrate()))

    def start(self) -> None:
        self._start = perf_counter()

    def stop(self, amount: int = 1, tag: str | None = None) -> None:
        self.ops.append(Op(self._start, perf_counter(), self.input, amount, tag))

    def seconds(self, op: Op, normalised: bool = True) -> float:
        """The operation's seconds outside calibration, normalised or raw."""
        if not self.cal:
            return op.end - op.start
        total = 0.0
        # stretch j runs from the end of calibration j-1 to the start of
        # calibration j; the first and last are open-ended
        j = bisect.bisect_right([end for _, end, _ in self.cal], op.start)
        while True:
            lo = self.cal[j - 1][1] if j > 0 else -math.inf
            hi = self.cal[j][0] if j < len(self.cal) else math.inf
            overlap = min(hi, op.end) - max(lo, op.start)
            if overlap > 0:
                if normalised:
                    kernels = [self.cal[k][2] for k in (j - 1, j) if 0 <= k < len(self.cal)]
                    overlap *= CAL_REF_S * len(kernels) / sum(kernels)
                total += overlap
            if hi >= op.end:
                return total
            j += 1
