"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on shared machines whose speed drifts by up to a
third over minutes, with both CPUs moving together.  No statistic of
one run's op times removes a drift that lasts the whole run.  So the
loop interleaves this kernel with the ops, and every reported time is
scaled to the speed of a reference machine::

    reported = measured * REFERENCE_MS / median(kernel times in the run)

The kernel runs no ``repro`` code, so a change to the program cannot
move it.  It has three parts, because the drift slows interpreter-bound
Python, cache-resident NumPy and memory-streaming NumPy by different
amounts, and the measured paths mix all three.  In 150 s probes of
every workload, this sum cut the spread of 15 s window medians roughly
in half on four workloads and left ``scale_sharded`` about as it was.
No single part did better on all five.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time (ms) the reported times are scaled to: the median over
#: those probes, on a 2-CPU Xeon VM.
REFERENCE_MS = 29.0

_RNG = np.random.default_rng(12345)
_VALUES = _RNG.random(100_000)
_INDEX = _RNG.integers(0, _VALUES.size, _VALUES.size)
_SORTED = np.sort(_VALUES)
#: Larger than the last-level cache, like the O(N) estimator tables.
_STREAM = np.log(np.arange(1, 1_000_001, dtype=np.float64))


def _python_part() -> float:
    table: dict[int, float] = {}
    items: list[float] = []
    total = 0.0
    for i in range(25_000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append(total)
        total += abs(key - 510.5) ** 0.5
    return total + len(items) + sum(table.values())


def _cache_part() -> float:
    ordered = np.sort(_VALUES)
    found = np.searchsorted(_SORTED, _VALUES[:50_000])
    gathered = np.take(_VALUES, _INDEX)
    return float(ordered[0] + found.sum() + np.log1p(gathered).sum())


def _stream_part() -> float:
    weights = np.exp(-0.8 * _STREAM)
    return float(weights @ _STREAM)


def sample_ms() -> float:
    """One kernel timing, in milliseconds."""
    start = time.perf_counter()
    _python_part()
    _cache_part()
    _stream_part()
    return (time.perf_counter() - start) * 1e3
