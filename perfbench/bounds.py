"""Lower bounds the quality ratios divide by.

Every ratio in the benchmark is ``achieved / lower bound`` for the same jobs,
so a ratio reads the scheduler's quality independently of how fast the
seed's machine park happens to be.

The stream bounds hold for related machines (a job's time is its work over
the machine's speed) whose membership windows are ``[join, leave)``.  A
machine can do no work outside its window, and a breakdown or a revoked
placement only wastes capacity, so the bounds stay valid under churn and
faults.
"""

from __future__ import annotations

import heapq

import numpy as np


def batch_flowtime_bound(etc: np.ndarray) -> float:
    """Flowtime bound of one batch released at time zero.

    Relax every job to its best-case time on identical machines; shortest
    first, round robin over the machines, is optimal for the relaxation.
    """
    best = np.sort(etc.min(axis=1))[::-1]
    return float((best * (np.arange(best.size) // etc.shape[1] + 1)).sum())


class Park:
    """Total speed of a machine park over time: a step function."""

    def __init__(self, mips, joins=None, leaves=None) -> None:
        mips = np.asarray(mips, dtype=float)
        joins = np.zeros_like(mips) if joins is None else np.asarray(joins, dtype=float)
        leaves = np.full_like(mips, np.inf) if leaves is None else np.asarray(leaves, dtype=float)
        self.fastest = float(mips.max())
        times = np.concatenate([joins, leaves[np.isfinite(leaves)]])
        deltas = np.concatenate([mips, -mips[np.isfinite(leaves)]])
        order = np.argsort(times, kind="stable")
        #: Breakpoints and the total speed from each breakpoint on.
        self.times = times[order]
        self.speeds = np.cumsum(deltas[order])

    def speed(self, time: float) -> float:
        index = int(np.searchsorted(self.times, time, side="right")) - 1
        return float(self.speeds[index]) if index >= 0 else 0.0

    def next_change(self, time: float) -> float:
        index = int(np.searchsorted(self.times, time, side="right"))
        return float(self.times[index]) if index < self.times.size else float("inf")

    def finish(self, start: float, work: float) -> float:
        """Earliest time the whole park, from *start*, can have done *work*."""
        now = start
        while True:
            speed = self.speed(now)
            change = self.next_change(now)
            if speed > 0 and now + work / speed <= change:
                return now + work / speed
            if change == float("inf"):
                raise ValueError("the park has no capacity left for the work")
            work -= speed * (change - now)
            now = change


def stream_makespan_bound(arrivals: np.ndarray, workloads: np.ndarray, park: Park) -> float:
    """Makespan bound of a job stream.

    The last job to be done cannot finish before its arrival plus its time
    on the fastest machine, and all the work cannot be done before the park,
    running at full speed from the first arrival, has processed it.
    """
    single = float((arrivals + workloads / park.fastest).max())
    return max(single, park.finish(float(arrivals.min()), float(workloads.sum())))


def stream_flowtime_bound(arrivals: np.ndarray, workloads: np.ndarray, park: Park) -> float:
    """Flowtime (sum of completion minus arrival) bound of a job stream.

    The larger of two relaxations: every job alone on the fastest machine,
    and preemptive shortest-remaining-work-first on one machine whose speed
    at every instant is the whole park's (optimal for that machine, which
    can emulate any schedule of the park).
    """
    alone = float((workloads / park.fastest).sum())
    order = np.argsort(arrivals, kind="stable")
    times = arrivals[order].tolist()
    works = workloads[order].tolist()
    heap: list[tuple[float, float]] = []
    now = 0.0
    total = 0.0
    index = 0
    count = len(times)
    while index < count or heap:
        if not heap:
            now = max(now, times[index])
        arrival = times[index] if index < count else float("inf")
        horizon = min(arrival, park.next_change(now))
        speed = park.speed(now)
        while heap and now < horizon:
            remaining, released = heap[0]
            finish = now + remaining / speed if speed > 0 else float("inf")
            if finish <= horizon:
                heapq.heappop(heap)
                now = finish
                total += finish - released
            else:
                heapq.heapreplace(heap, (remaining - (horizon - now) * speed, released))
                now = horizon
        while index < count and times[index] <= now:
            heapq.heappush(heap, (works[index], times[index]))
            index += 1
    return max(alone, total)
