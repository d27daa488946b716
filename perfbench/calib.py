"""Host-speed calibration.

The effective CPU speed of a shared host can drift by a factor of two
within seconds.  Every timed interval is therefore bracketed by runs of a
fixed reference loop (pure Python and fractions.Fraction, never tuatara),
and reported in calibrated seconds:

    calibrated = raw * C0 / loop,   loop = mean of the loop times just before
                                    and just after the interval

Both raw and loop are CPU seconds of this process, so time spent waiting
for a core that other processes hold does not count; a single-threaded,
CPU-bound request takes that long on an idle host.  C0 is the loop's time on
a quiet host, so calibrated seconds read as seconds on that host.  Raw wall
seconds are kept alongside for reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

C0 = 0.002  # CPU seconds one reference loop takes on a quiet host


def reference_loop() -> int:
    """A fixed mix of interpreter, small-Fraction and big-integer work (2 to 3 ms)."""
    table: dict[str, int] = {}
    for i in range(1800):
        w = format(i, "b")
        table[w] = table.get(w[:-1], 0) + len(w)
    for _ in range(8):
        total = Fraction(0)
        for k in range(1, 40):
            total += Fraction(1, k)
    x = 3 ** 2000
    acc = 0
    for k in range(1, 400):
        acc += (x * k) // (k + 7)
        acc ^= x >> k
    return acc + total.denominator + len(table)


def loop_seconds() -> float:
    t = time.process_time()
    reference_loop()
    return time.process_time() - t


def calibrate(raw: float, loop_before: float, loop_after: float) -> float:
    return raw * C0 * 2 / (loop_before + loop_after)
