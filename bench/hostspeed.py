"""Host-speed calibration: a fixed pure-Python task timed around every
measured sample, so that samples can be scaled to a host of fixed speed.

On a few vCPUs of a shared host, speed can change by a factor of two
from one tenth of a second to the next and drift by a quarter over tens
of seconds, in CPU time as much as in wall time (seen on a 2-vCPU Intel
Xeon VM). A drift that lasts a run moves every sample of the run alike,
so no median over one run removes it. The task is timed just before and
just after each sample. The host's speed during a sample is the median
time of the NEAREST calibrations closest to it in time, and the sample
times REFERENCE_S over that median is the sample on a host where the
task takes REFERENCE_S. The task uses no fdplace code, so a change to
the package leaves it alone, and it does the kinds of work fdplace
does: JSON decoding, building dicts, lists and small objects, a tree
walk, a sort.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time

# The task's median wall time on a 2-vCPU Intel Xeon host.
REFERENCE_S = 0.018
# How many calibrations, the closest in time, set a sample's speed.
NEAREST = 8

_TEXT = json.dumps(
    [{"id": f"n{i}", "parent": f"n{(i - 1) // 4}" if i else None, "capacity": i % 3 or None}
     for i in range(4000)]
)


class _Node:
    __slots__ = ("id", "parent", "capacity")

    def __init__(self, id: str, parent: str | None, capacity: int | None) -> None:
        self.id, self.parent, self.capacity = id, parent, capacity


def task() -> int:
    rows = json.loads(_TEXT)
    nodes = {row["id"]: _Node(row["id"], row["parent"], row["capacity"]) for row in rows}
    children: dict[str, list[str]] = {node_id: [] for node_id in nodes}
    for node in nodes.values():
        if node.parent is not None:
            children[node.parent].append(node.id)
    below: dict[str, int] = {}
    stack = [("n0", False)]
    while stack:
        node_id, done = stack.pop()
        if done:
            below[node_id] = (nodes[node_id].capacity or 0) + sum(below[c] for c in children[node_id])
        else:
            stack.append((node_id, True))
            stack.extend((c, False) for c in children[node_id])
    order = sorted(below.items(), key=lambda item: (-item[1], item[0]))
    return len(order)


def calibrate() -> list[float]:
    """[start, wall time] of one run of the task, on time.perf_counter,
    which is the system's monotonic clock and so is shared by processes.

    The garbage collector is off meanwhile: a collection would scan the
    calling process's heap, which is not the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        task()
        return [start, time.perf_counter() - start]
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The calibrations of one run, and samples scaled by them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.walls: list[float] = []

    def add(self, calibration: list[float]) -> None:
        at = bisect.bisect(self.starts, calibration[0])
        self.starts.insert(at, calibration[0])
        self.walls.insert(at, calibration[1])

    def calibrate(self) -> None:
        self.add(calibrate())

    def scaled(self, start: float, wall: float) -> float:
        """A sample that ran from start for wall seconds, on a host where
        the task takes REFERENCE_S."""
        end = start + wall
        lo = max(0, bisect.bisect_left(self.starts, start) - NEAREST)
        hi = bisect.bisect_right(self.starts, end) + NEAREST

        def gap(i: int) -> float:
            return max(0.0, start - self.starts[i] - self.walls[i], self.starts[i] - end)

        nearest = sorted(range(lo, min(hi, len(self.starts))), key=gap)[:NEAREST]
        return wall * REFERENCE_S / statistics.median(self.walls[i] for i in nearest)
