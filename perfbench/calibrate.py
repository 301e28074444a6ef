"""Host-speed calibration for the wall-clock metrics.

The benchmark shares its host with other tenants, and the host's speed
drifts by 30-40% over minutes while runs a few seconds apart agree.
Every wall-clock figure is therefore scaled by the host speed of the
moment, which :func:`calibrate` measures by timing a fixed pure-Python
kernel right before and right after each round. The kernel is a
miniature of the program's hot mix: a heap-driven event loop whose
closures build and probe hash tables of string keys and allocate small
dicts. On the 2-vCPU VM the baseline was recorded on, scaling cut the
spread of 30-second medians over a ten-minute window from 24% to 7%
(``rare-churn``) and from 22% to 5% (``publish-conjunctive``).

A scaled figure reads as "what this round would have measured on a host
that runs the kernel in ``REFERENCE_S`` seconds". The kernel belongs to
the benchmark, not to the program: no change to ``src/`` moves it. The
unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import heapq
import random
import time

#: kernel time of the reference host, in seconds
REFERENCE_S = 0.1


def calibrate(queries: int = 650) -> float:
    """Wall seconds the fixed kernel's event loop takes on this host now."""
    rng = random.Random(7)
    keys = [f"{rng.getrandbits(64):016x}" for _ in range(400)]
    heap: list = []
    matches = 0
    rows = 0

    def probe(window: list[str], hop: int) -> None:
        nonlocal matches, rows
        table: dict[str, int] = {}
        for key in keys[:200]:
            table[key] = table.get(key, 0) + 1
        for key in window:
            matches += table.get(key, 0)
        rows += len([{"fileID": key, "hop": hop} for key in window[:20]])

    seq = 0
    for query in range(queries):
        window = keys[query % 200 : query % 200 + 40]
        for hop in range(6):
            seq += 1
            heapq.heappush(
                heap,
                (query * 0.01 + hop * rng.random(), seq,
                 lambda window=window, hop=hop: probe(window, hop)),
            )
    started = time.perf_counter()
    while heap:
        heapq.heappop(heap)[2]()
    return time.perf_counter() - started
