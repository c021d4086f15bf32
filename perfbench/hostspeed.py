"""How fast the host runs pure-Python code while a repetition runs.

The host this benchmark was written on switches between speeds about
1.5x apart, for seconds to minutes at a time (other tenants share its
cores), and every wall time moves with it: the same ``planar_iso``
repetition read 1.9 s in one minute and 2.8 s in another.  So each
repetition runs a ``Sampler``: every ``INTERVAL_S`` of wall time a
SIGALRM handler times one pass of a small fixed probe.  The mean probe
time, against ``REFERENCE_S``, is the host's speed during that
repetition, and the end-to-end times are scaled by it.  The time spent
in the handler is taken out of the measured times.

The probe does what powmon's hot paths do (a slotted frozen dataclass,
tuple arithmetic, set and dict traffic, sorting by key) but never
imports powmon, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

#: Probe pass time, inside the handler, on the reference host (Intel Xeon
#: under KVM, 2 vCPUs, Python 3.11.7) when it runs fast; measured speeds
#: range from about 0.6 to 1.2.
REFERENCE_S = 0.00035
INTERVAL_S = 0.02
#: Below this many samples a repetition adds probe passes of its own.
MIN_SAMPLES = 20
#: Share of the probe times dropped at each end before averaging, so one
#: pass hit by an interrupt does not count.
TRIM = 0.05


@dataclass(frozen=True, slots=True)
class _Elem:
    free: tuple[int, ...]

    def __add__(self, other: "_Elem") -> "_Elem":
        return _Elem(tuple(a + b for a, b in zip(self.free, other.free)))

    def key(self) -> tuple[int, ...]:
        return self.free


_ELEMS = [_Elem((i % 7 - 3, i % 5 - 2)) for i in range(12)]


def _probe() -> int:
    out: set[_Elem] = set()
    memo: dict[tuple[int, ...], int] = {}
    for u in _ELEMS:
        for v in _ELEMS:
            w = u + v
            out.add(w)
            memo[w.free] = memo.get(w.free, 0) + 1
    return len(sorted(out, key=_Elem.key)) + len(memo)


class Sampler:
    """Times one probe pass every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, to subtract

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self._tick()

    def speed(self) -> float:
        """Host speed relative to the reference state: below 1 when slower."""
        times = sorted(self.samples)
        cut = int(len(times) * TRIM)
        kept = times[cut:len(times) - cut]
        return REFERENCE_S / (sum(kept) / len(kept))
