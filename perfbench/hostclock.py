"""Host time rescaled to a fixed reference speed.

The shared host this benchmark runs on changes speed by tens of percent,
flipping within fractions of a second, which hides real differences
between commits.  Each timed item is therefore paired with a fixed
reference loop run right before and right after it (and, while sampling,
during it), and its host time is rescaled by the loop's nominal duration
over its mean measured duration.  The reference loop builds frozen
dataclasses and does small-int arithmetic, as the library path does; it
runs no cxrns code, so a change to the program moves the scaled times and
not the reference.  Every item's unscaled host time is returned too, so
each scaled figure can be traced back to it.

Sampling during items is needed for sweep calls, which last seconds,
longer than the host keeps one speed: with the reference run only before
and after each call, the quartile spread of `ops_per_s` over five seeds of
sweep-exhaustive (30 s each) was 9%, against 1-2% with sampling.
"""

from __future__ import annotations

import signal
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

REF_STEPS = 3000
NOMINAL_REF_S = 0.003


@dataclass(frozen=True)
class _Word:
    a: int
    b: int
    c: int


def _step(w: _Word, k: int) -> _Word:
    return _Word(w.b & 0xFFFF, (w.a * 31 + k) >> 3, w.c ^ k)


def reference_s() -> float:
    """Host seconds of one pass of the reference loop."""
    t0 = perf_counter()
    w = _Word(1, 2, 3)
    for k in range(REF_STEPS):
        w = _step(w, k)
    return perf_counter() - t0


class HostClock:
    """Scales the host time of consecutive items.

    Inside `sampling(period_s)`, a timer signal also runs the reference
    loop every `period_s` during items; its passes are taken out of the
    item's time.  Use it only where nothing finer than an item is timed.
    """

    def __init__(self) -> None:
        self._last = reference_s()
        self._samples: list[tuple[float, float, float]] = []  # start, end, reference
        self._in_reference = False
        self.factors = array("d")

    def _reference(self) -> float:
        self._in_reference = True
        try:
            return reference_s()
        finally:
            self._in_reference = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._in_reference:
            t0 = perf_counter()
            ref = self._reference()
            self._samples.append((t0, perf_counter(), ref))

    @contextmanager
    def sampling(self, period_s: float):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Scaled and host seconds of the item timed from t0 to t1
        (perf_counter), both without the reference passes inside it."""
        inside = [(end - start, ref) for start, end, ref in self._samples if t0 <= start < t1]
        self._samples = []
        now = self._reference()
        refs = [self._last, now] + [ref for _, ref in inside]
        self._last = now
        f = NOMINAL_REF_S * len(refs) / sum(refs)
        self.factors.append(f)
        host = t1 - t0 - sum(paused for paused, _ in inside)
        return host * f, host
