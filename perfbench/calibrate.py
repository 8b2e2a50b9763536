"""A fixed reference computation that measures how fast the machine is now.

The speed of a shared host swings by tens of percent within seconds and
drifts over minutes, and it moves a job's wall and CPU time together. A run
therefore times this fixed computation between its jobs and scales its job
times to the speed at which the computation takes `REFERENCE_S`. The computation does not touch npchunk,
so a change to the package cannot move it; it mimics the package's mix of
work (tuple-keyed dict counting over tag sequences, then float lookups). Its
table stays small (under 3000 keys): a pass over a table of 100k keys tracked
the job times less closely, because other tenants' cache use slowed it more
than it slowed the jobs.

    python3 calibrate.py    # prints wall and CPU seconds of one pass

The benchmark runs it as a fresh interpreter with the jobs' environment
(pinned PYTHONHASHSEED), since string hashing and memory layout make the
speed of one interpreter differ from the next.
"""

from __future__ import annotations

import time

# About the wall time of `calibrate()` on an idle 2-vCPU Xeon at 2.0 GHz with
# Python 3.11.7 (0.18-0.22 s). Scaled times read in seconds at that speed.
REFERENCE_S = 0.2

_TAGS = ("DT", "JJ", "NN", "NNS", "NNP", "IN", "VBD", "VBZ", "PRP", "CC", "RB", "CD", ",", ".")


def _work(length: int, window: int) -> float:
    state = 12345
    tags = []
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        tags.append(_TAGS[state % len(_TAGS)])
    counts: dict[tuple[str, ...], list[int]] = {}
    for size in range(1, window + 1):
        for i in range(length - size + 1):
            key = tuple(tags[i:i + size])
            entry = counts.get(key)
            if entry is None:
                counts[key] = entry = [0, 0]
            entry[i & 1] += 1
    score = 0.0
    for i in range(0, length - window, 3):
        entry = counts[tuple(tags[i:i + window])]
        score += entry[0] / (entry[0] + entry[1])
    return score


def calibrate() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one pass of the fixed computation."""
    wall, cpu = time.perf_counter(), time.process_time()
    _work(100000, 3)
    return time.perf_counter() - wall, time.process_time() - cpu


if __name__ == "__main__":
    print("%.9f %.9f" % calibrate())
