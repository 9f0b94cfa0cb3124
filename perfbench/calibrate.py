"""The reference loop that the benchmark's times are scaled by.

The benchmark's host is a shared machine whose speed drifts: back to back,
four runs of the same `word-count` job took medians of 37, 43, 44 and
48 ms, while the job's time over that of a plain-Python counting loop run
between the calls read 3.44-3.54. So every timed call is divided by the
host's speed around it: the mean time of the passes of this loop just
before and just after the call, over NOMINAL_S. A timing then reads as
time on a machine where the loop takes NOMINAL_S, and a change to tadoc
moves it as much as it moves the raw time.

The loop is a word count of a fixed text in plain Python -- split, dict
counting and a sort, the interpreter work tadoc's kernels do -- and
depends on neither the seed nor tadoc.
"""

from __future__ import annotations

import gc
import random
import time

# A nominal time for one pass, about what the README's machine takes; as
# that machine's speed drifted, a pass took 9-21 ms.
NOMINAL_S = 0.012

_rng = random.Random("perfbench-reference-loop")
_WORDS = ["".join(_rng.choices("abcdefghijklmnopqrstuvwxyz", k=3 + i % 7)) for i in range(2000)]
_TEXT = " ".join(_rng.choices(_WORDS, k=50000))


def loop() -> float:
    """Seconds of one pass of the loop, after `gc.collect()`."""
    gc.collect()
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """How much slower than nominal the host ran a call, from the passes
    just before and just after it."""
    return (before + after) / 2 / NOMINAL_S
