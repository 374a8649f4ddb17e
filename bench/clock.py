"""Host-speed calibration for the benchmark's timings.

The benchmark host is shared: its speed moves between phases that differ by
up to 2x and last from seconds to tens of seconds, which makes raw wall
times of identical runs spread by 20-40%.  A short, fixed piece of Python
work (``calibrate``) runs between operations at least every ``INTERVAL_S``;
each operation's wall time is scaled by ``REF_S`` over the mean of the
calibrations just before and just after it.  Reported times are therefore
"reference seconds": the time the operation takes when the calibration work
takes ``REF_S``.  Raw times are kept in the per-run results file.
"""

from __future__ import annotations

import time

REF_S = 0.0025
INTERVAL_S = 0.1


def calibrate() -> float:
    """Wall time of a fixed mix of dict, set and integer work (~2-3 ms)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(6000):
        k = (i * 7919) % 4093
        table[k] = table.get(k, 0) + i
        if k & 1:
            seen.add(k)
        acc += len(seen) & 3
    return time.perf_counter() - start


def scales(marks: list[tuple[int, float]], count: int) -> list[float]:
    """Per-operation factor from calibrations ``marks`` = [(index of the
    operation the calibration preceded, seconds)], which must start at 0
    and end at ``count``."""
    out = [0.0] * count
    for (j0, c0), (j1, c1) in zip(marks, marks[1:]):
        factor = REF_S / ((c0 + c1) / 2)
        for j in range(j0, j1):
            out[j] = factor
    return out
