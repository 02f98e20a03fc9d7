"""Host speed probe: a fixed pure-Python loop timed next to every job.

The shared host this benchmark was built on runs the same code at two or
three speeds, up to 1.8x apart, and switches between them every few
seconds as other tenants come and go.  Wall time alone then measures the
host as much as the program.  So the runner times `probe()` right
before and right after each job, outside the job's timed region, and scales
the job's wall time by REFERENCE_S / (mean of the two probe times): a job
reports the seconds it would have taken on a host that runs the probe in
REFERENCE_S.  The probe is the benchmark's own code and never calls symdual,
so a change to symdual moves the scaled times exactly as it moves wall time.

The loop allocates small frozensets, sorts them and counts them in a dict,
as symdual's inner loops build and look up small sets and tuples.  Over
jobs of the one-orbit-series and verify-oracle workloads, log job time
tracked log probe time with slope 1.0 (correlation 0.89) as the host
changed speed; a tighter loop of dict lookups on a few masks slowed down
1.4 times as much as the jobs did, and over-corrected.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Probe seconds on the reference host (about the median of probe() on a
# shared 2-core x86-64 VM with Python 3.11).
REFERENCE_S = 0.0020

# Loops timed per probe; the median is the probe time.
REPEATS = 5


def _loop() -> int:
    sets = [frozenset((i % 31, i % 17, i % 5)) for i in range(3000)]
    sets.sort(key=len)
    counts: dict[frozenset, int] = {}
    for s in sets:
        counts[s] = counts.get(s, 0) + 1
    return len(counts)


def probe() -> float:
    """Median seconds of REPEATS runs of the fixed loop."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds into reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2)
