"""Interpreter speed, measured next to each simulator repetition.

This host shares its cores: back-to-back repetitions of one simulator
cell ran anywhere between 23k and 40k pps, and process CPU time tracked
wall time, so the slowdowns are slower execution, not lost time slices.
A fixed pure-Python kernel (a small event loop: heap, dict, attribute
and call work, like the simulator's) timed just before and after each
repetition measures the speed the repetition ran at; ``sim_pps`` is
scaled to an interpreter that runs the kernel in :data:`REFERENCE_S`.
The kernel uses only the standard library, so no change to ``src/``
can move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel seconds of the reference interpreter (about this host's fast
#: phase) that ``sim_pps`` is scaled to.
REFERENCE_S = 0.02
#: Kernel runs per measurement; their median is the measurement.
RUNS = 3


class _Node:
    __slots__ = ("node_id", "seen", "total")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.seen = {}
        self.total = 0

    def deliver(self, src: int, value: int) -> int:
        self.seen[src] = self.seen.get(src, 0) + 1
        self.total += value
        return (self.total + src) & 7


def run_kernel() -> float:
    """Run the kernel once; returns its wall time."""
    nodes = [_Node(i) for i in range(8)]
    heap = [(0.0, 0, 0, 1)]
    seq = 1
    started = time.perf_counter()
    while seq < 20000:
        now, _, dst, value = heapq.heappop(heap)
        fanout = nodes[dst].deliver(dst, value)
        for offset in range(fanout % 3 + 1):
            heapq.heappush(
                heap, (now + 0.001 * (offset + 1), seq, (dst + offset) & 7,
                       value + offset))
            seq += 1
    return time.perf_counter() - started


def kernel_seconds() -> float:
    """Median time of :data:`RUNS` kernel runs on this interpreter now."""
    return statistics.median(run_kernel() for _ in range(RUNS))
