"""Batch-mode heuristics: Min-Min, Max-Min and Sufferage.

"Batch mode" is Maheswaran et al.'s term for heuristics that see a whole
batch of jobs before placing any (the :mod:`~repro.heuristics.immediate`
ones place each job on arrival).  The three share one greedy kernel,
:meth:`BatchModeHeuristic.build`: every step computes each unassigned job's
completion time on each machine, takes each job's best machine, lets the
heuristic's pick rule choose one job and places it on its best machine.
Min-Min (Ibarra & Kim) picks the smallest best completion time, Max-Min
the largest, and Sufferage (Maheswaran et al.) the largest gap between the
second-best and best completion times (0 on a single machine).

Tie order, pinned by the tests: among equal keys the lowest job index
wins, and a job goes to the lowest machine index among its equal
completion times (numpy's first-occurrence ``argmin``/``argmax``).  Each
step is O(n·m) over the n unassigned jobs, so a build is O(n²·m).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.heuristics.base import ConstructiveHeuristic, register_heuristic
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike

__all__ = ["MinMinHeuristic", "MaxMinHeuristic", "SufferageHeuristic"]


class BatchModeHeuristic(ConstructiveHeuristic):
    """The shared batch-mode loop; subclasses supply :meth:`pick`."""

    @staticmethod
    @abc.abstractmethod
    def pick(candidate: np.ndarray, best_time: np.ndarray) -> int:
        """Row of the job to place next.

        ``candidate`` holds the unassigned jobs' completion times, one row
        per job in increasing job index, and ``best_time`` each row's
        minimum.
        """

    def build(self, instance: SchedulingInstance, rng: RNGLike = None) -> Schedule:
        etc = instance.etc
        assignment = np.empty(instance.nb_jobs, dtype=np.int64)
        completion = instance.ready_times.copy()
        unassigned = np.arange(instance.nb_jobs)

        while unassigned.size:
            candidate = completion[None, :] + etc[unassigned, :]
            best_machine = candidate.argmin(axis=1)
            best_time = candidate[np.arange(unassigned.size), best_machine]
            row = self.pick(candidate, best_time)
            job = int(unassigned[row])
            machine = int(best_machine[row])
            assignment[job] = machine
            completion[machine] += etc[job, machine]
            unassigned = np.delete(unassigned, row)

        return Schedule(instance, assignment)


@register_heuristic
class MinMinHeuristic(BatchModeHeuristic):
    """Minimum completion time of minimum completion times."""

    name = "min_min"

    @staticmethod
    def pick(candidate: np.ndarray, best_time: np.ndarray) -> int:
        return int(best_time.argmin())


@register_heuristic
class MaxMinHeuristic(BatchModeHeuristic):
    """Maximum of the per-job minimum completion times."""

    name = "max_min"

    @staticmethod
    def pick(candidate: np.ndarray, best_time: np.ndarray) -> int:
        return int(best_time.argmax())


@register_heuristic
class SufferageHeuristic(BatchModeHeuristic):
    """Schedule first the job with the largest best-vs-second-best gap."""

    name = "sufferage"

    @staticmethod
    def pick(candidate: np.ndarray, best_time: np.ndarray) -> int:
        if candidate.shape[1] == 1:
            return 0  # every sufferage is 0; the lowest job index wins
        second_best = np.partition(candidate, 1, axis=1)[:, 1]
        return int((second_best - best_time).argmax())
