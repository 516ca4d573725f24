"""Host-speed probe, so that times measured at different moments compare.

On a shared machine the speed a process gets drifts: on the 2-vCPU host this
benchmark was built on, the probe below took anywhere from 18 to 35 ms within
a few minutes, and the engine's run times moved with it.  Every run
therefore times the probe right before and right after it, and the benchmark
reports each time scaled to the reference speed:

    reported = measured * REFERENCE_NS / mean(probe before, probe after)

that is, the time the run would have taken had the probe taken 20 ms.  The
raw times are printed next to the scaled ones.  The probe uses only the
standard library and numpy, never the engine, so a change to the engine
cannot move it.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 20_000_000
REPEATS = 5

_WORDS = [f"w{i}" for i in range(500)]
_TOKEN = re.compile(r"[a-z0-9]+")


def _work() -> float:
    # The engine's kind of work: sampling, tokenising, counting, sorting,
    # hashing tuples, dict traffic and small numpy vectors.
    rng = random.Random(7)
    vec = np.zeros(64)
    acc = 0
    for i in range(3000):
        words = rng.sample(_WORDS, 4)
        key = tuple(sorted(Counter(_TOKEN.findall(" ".join(words))).items()))
        table = {key: i, "words": words}
        vec[i % 64] += len(table)
        acc += hash(key) & 1
    return float(np.linalg.norm(vec)) + acc


def probe_ns() -> int:
    """The fastest of a few timings of the fixed probe work."""
    best = None
    for _ in range(REPEATS):
        start = perf_counter_ns()
        _work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that maps a time measured between the two probes to the
    reference speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
