"""Host-speed probe: scale host seconds to a reference host speed.

The sandbox this benchmark runs in shares its CPUs: one vCPU alternates
between speed levels about 1.45x apart for seconds at a time, and the mix
drifts over minutes, so raw host time of identical work spreads by 10-25 %
between runs.  A fixed pure-Python probe that runs none of the program's
code (small objects, a dict, a heap, calls) is timed between the cells of a
pass; the host time between two probes is multiplied by
``(REFERENCE_S / mean of the two probe times) ** SPEED_EXPONENT``.  A
change to the program moves the scaled time as it moves the raw time,
while a change of host speed moves it much less.  Probe time itself is not
counted.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List, Sequence, Tuple

#: Timed probe seconds at the reference speed: the faster of the two levels
#: of the 2-vCPU KVM guest (Xeon, 4.2 GHz TSC) the bounds were tuned on.
REFERENCE_S = 0.017
PROBE_STEPS = 20_000
#: A slower host slows the simulator by about two thirds of what it slows
#: the probe, on a log scale (probably because the probe's small working
#: set feels a busy SMT sibling more).  Estimated from twenty kv-grid runs
#: scaled with exponent 1, whose scaled wall times fell as raw ones rose:
#: their quartile spreads were 5.8 % and 9.8 % (two sets of ten), about 3 %
#: at this exponent, and 14 % unscaled.
SPEED_EXPONENT = 0.65
#: Untimed steps first, so the timed part does not also time the page
#: faults a freshly forked process takes on first touching its memory.
WARMUP_STEPS = 2_000

#: One probe: (host clock at its start, at its end, timed seconds).
Sample = Tuple[float, float, float]


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, following: "_Node"):
        self.key = key
        self.value = value
        self.next = following


def _step(table: dict, heap: list, node: _Node, i: int) -> _Node:
    node = _Node(i & 255, i * 2654435761 % 1000003, node)
    table[node.key] = node
    heapq.heappush(heap, (node.value, i))
    if len(heap) > 64:
        heapq.heappop(heap)
    return node if i & 15 else None


def probe() -> Sample:
    """Run the fixed probe once.

    The cyclic collector is off meanwhile: a full collection of the
    caller's heap would otherwise land in the probe and time the heap's
    size, not the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict = {}
        heap: list = []
        node = None
        for i in range(WARMUP_STEPS):
            node = _step(table, heap, node, i)
        timed = time.perf_counter()
        for i in range(PROBE_STEPS):
            node = _step(table, heap, node, i)
        ended = time.perf_counter()
        return started, ended, ended - timed
    finally:
        if enabled:
            gc.enable()


def scale(samples: Sequence[Sample]) -> Tuple[float, float]:
    """(raw, scaled) host seconds between consecutive probes.

    ``samples`` come from any process of the run (the host clock is
    system-wide); the gaps between one probe's end and the next one's start
    are the measured work.
    """
    ordered: List[Sample] = sorted(samples)
    raw = scaled = 0.0
    for (_, end, timed), (next_start, _, next_timed) in zip(ordered, ordered[1:]):
        gap = next_start - end
        raw += gap
        scaled += gap * (REFERENCE_S / ((timed + next_timed) / 2.0)) ** SPEED_EXPONENT
    return raw, scaled
