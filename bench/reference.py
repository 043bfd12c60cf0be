"""The speed reference of the legdual benchmark.

On a host shared with other tenants the speed of a core drifts by tens of
percent over seconds to minutes, so raw seconds from runs minutes apart are
not comparable.  The benchmark therefore also times a fixed piece of work,
`reference_loop`, next to what it measures and reports times in "ref":
multiples of the reference loop's time measured at that moment.  This module
imports nothing from legdual, so a set-up child can time the reference
before importing the library.
"""

from __future__ import annotations

import statistics
import time

REF_TERMS = 8000
# A set-up time in ref, times this, is reported in seconds: seconds on a
# host where the reference loop takes 10 ms.
REF_NOMINAL_S = 0.01
REF_INTERVAL_S = 0.25
REF_WINDOW = 3


def reference_loop(n: int = REF_TERMS) -> complex:
    """Fixed work in the style of the library's inner loops -- a complex
    term recurrence, small-object churn, a sort and dict updates -- whose
    time tracks how fast this machine runs such code right now."""
    items = []
    term = 1 + 0j
    for k in range(n):
        term = term * (0.3 + 0.2j + k) * (-0.7 + 0.1j + k) / ((1.3 + k) * (k + 1.0)) * 0.9
        items.append((k % 97, abs(term), term))
    items.sort()
    sums = {}
    for key, _, t in items:
        sums[key] = sums.get(key, 0j) + t
    return sum(sums.values())


class Speedometer:
    """Measures a pass in ref.

    The meter times the reference loop before and after each pass and,
    between ops, whenever REF_INTERVAL_S has passed; each stretch
    of work between two samples is divided by the mean of those two
    samples, and each op by the mean of the last REF_WINDOW samples.  The
    time spent in the reference loop is kept in `spent`, so that the raw
    seconds can be reported beside the ratios."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self.work_ref = 0.0
        self._last = 0.0

    def _sample(self) -> None:
        now = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if self.samples:
            self.work_ref += (now - self._last) / (0.5 * (self.samples[-1] + end - now))
        self.samples.append(end - now)
        self._last = end

    def start_pass(self) -> None:
        self.samples = []
        self.spent = 0.0
        self.work_ref = 0.0
        self._sample()

    def tick(self) -> None:
        """Inside a pass: sample if due, counting the time in `spent`."""
        if time.perf_counter() - self._last >= REF_INTERVAL_S:
            before = time.perf_counter()
            self._sample()
            self.spent += time.perf_counter() - before

    def local(self) -> float:
        """Reference seconds at the current speed."""
        return statistics.fmean(self.samples[-REF_WINDOW:])

    def end_pass(self) -> float:
        """Closes the pass; returns its work in ref."""
        self._sample()
        return self.work_ref
