"""Host-speed calibration: fixed kernels that time the machine, not p3ap.

The CPU time of the same op drifts from minute to minute on the shared
machine described in README.md, because other tenants change how fast its
cores run: over 30 s windows of a 7-minute series, the quartile spread of
the window medians was 9 % to 28 % of their median.  A kernel of
the same kind of work, run before every op in the same process, drifts with
it.  ``run.py`` divides each op's CPU time by the mean of the kernel times
just before and just after it and multiplies by the kernels' nominal time:
the end-to-end op times are CPU seconds at the host speed where each kernel
takes ``NOMINAL_S``.

The kernels use only numpy and Python builtins, never p3ap, so a change to the
package moves the op times and not the kernel times.
"""

from __future__ import annotations

import numpy as np

from spans import cpu_now

# Median CPU seconds of each kernel over a 7-minute series on the machine in
# README.md.  They only set the scale of the calibrated times.
NOMINAL_S = {"numpy": 0.0826, "loops": 0.0540, "objects": 0.0456}

_KEYS = np.random.default_rng(0).integers(0, 1 << 20, size=(3, 100_000))
_GRID = [[(i * 7 + j * 13) % 5 for j in range(70)] for i in range(70)]


def _numpy():
    """A lexsort and unique over int64 keys, as in the DP's row dedup."""
    order = np.lexsort(_KEYS)
    return np.unique(_KEYS[0][order]).size


def _loops():
    """Nested Python loops over a list-of-lists grid, as in band_normalize."""
    s = 0
    for _ in range(120):
        for i in range(70):
            row = _GRID[i]
            for j in range(70):
                if row[j] and abs(i - j) > s % 60:
                    s += 1
    return s


def _objects():
    """Building and hashing many small tuples, as in all-optima enumeration."""
    rows = [tuple(range(i % 17, i % 17 + 8)) for i in range(60_000)]
    return len(set(rows))


KERNELS = {"numpy": _numpy, "loops": _loops, "objects": _objects}


def time_kernels(names) -> float:
    """CPU seconds that one run of the named kernels takes."""
    start = cpu_now()
    for name in names:
        KERNELS[name]()
    return cpu_now() - start


def nominal_s(names) -> float:
    return sum(NOMINAL_S[name] for name in names)
