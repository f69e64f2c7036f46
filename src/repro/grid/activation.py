"""One batch-scheduler activation, shared by both clock domains.

The paper's usage claim is a single operation repeated forever: take the
jobs that arrived since the last activation, run the batch scheduler on them
"in batch mode for a very short time", and commit the plan.
:func:`run_activation` is that operation, written once for the event-driven
:class:`~repro.grid.simulator.GridSimulator` (virtual time) and the live
:class:`~repro.service.state.SchedulerCore` (wall time).  It reads no clock:
the driver passes ``now`` and the batch machines' busy-until snapshot, and
the kernel

1. builds the batch :class:`~repro.model.instance.SchedulingInstance` — one
   vectorized :func:`~repro.grid.machine.execution_times_matrix` call, ready
   times ``max(0, busy_until - now)``, stable ``job_ids`` / ``machine_ids``
   metadata for stateful policies;
2. runs and times the driver's solve callable and validates the assignment;
3. lays the plan out in per-machine shortest-processing-time order
   (:class:`BatchPlan`) and hands it to the driver's ``commit`` callback;
4. observes the phase split (``instance_build`` / ``solve`` / ``commit`` plus
   the scheduler's own ``last_phases``) into the driver's histogram, with
   the activation sequence number as exemplar, and emits the
   ``job_batched`` / ``job_assigned`` lifecycle lines.

What a commit *means* stays with the driver: the simulator turns the
offsets into absolute starts on its virtual clock, applies its commit
horizon and pushes ``TASK_END`` events; the live core adds the plan to its
busy-until track under its lock, at the wall-clock instant the solve
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.grid.job import GridJob
from repro.grid.machine import GridMachine, execution_times_matrix
from repro.model.instance import SchedulingInstance
from repro.obs.phases import PhaseTimer
from repro.utils.timer import Stopwatch

__all__ = ["BatchPlan", "Activation", "run_activation"]


@dataclass(frozen=True)
class BatchPlan:
    """A solved batch laid out in per-machine shortest-processing-time order.

    The per-job arrays are indexed by *sorted position*: the batch's jobs
    machine column by machine column, shortest first within a column, ties
    broken by batch position.
    """

    #: Wall-clock seconds the solve callable took.
    solve_seconds: float
    #: Batch position of each sorted position.
    order: np.ndarray
    #: Machine column (index into the batch's machines) per sorted position.
    columns: np.ndarray
    #: Execution time per sorted position.
    durations: np.ndarray
    #: Start offset inside its machine's queue, per sorted position.
    offsets: np.ndarray
    #: Total execution time planned per machine column.
    load: np.ndarray

    def starts(self, base: np.ndarray) -> np.ndarray:
        """Absolute start per sorted position, given each column's queue base."""
        return base[self.columns] + self.offsets

    def queue_ends(self, base: np.ndarray, committed: np.ndarray) -> np.ndarray:
        """Per column, where its queue ends once the *committed* mask runs.

        A column with nothing committed ends at its *base*.
        """
        finishes = self.starts(base) + self.durations
        ends = np.array(base, dtype=float)
        np.maximum.at(ends, self.columns[committed], finishes[committed])
        return ends


@dataclass(frozen=True)
class Activation:
    """What :func:`run_activation` did."""

    plan: BatchPlan
    #: Sorted positions the driver committed.
    committed: np.ndarray
    #: Accumulated seconds per named phase, in first-seen order.
    phases: dict[str, float]


def _spt_plan(etc: np.ndarray, assignment: np.ndarray, solve_seconds: float) -> BatchPlan:
    """Per-machine SPT queueing of the whole batch at once.

    One stable ``(machine, duration)`` sort (ties keep batch order), one
    cumulative sum with per-machine segment resets.
    """
    count = assignment.size
    durations = etc[np.arange(count), assignment]
    order = np.lexsort((durations, assignment))
    columns = assignment[order]
    durations = durations[order]
    before = np.cumsum(durations) - durations
    new_segment = np.empty(count, dtype=bool)
    new_segment[0] = True
    new_segment[1:] = columns[1:] != columns[:-1]
    segment_start = np.maximum.accumulate(np.where(new_segment, np.arange(count), 0))
    return BatchPlan(
        solve_seconds=solve_seconds,
        order=order,
        columns=columns,
        durations=durations,
        offsets=before - before[segment_start],
        load=np.bincount(columns, weights=durations, minlength=etc.shape[1]),
    )


def run_activation(
    jobs: Sequence[GridJob],
    machines: Sequence[GridMachine],
    busy_until: np.ndarray,
    now: float,
    solve: Callable[[SchedulingInstance], Any],
    commit: Callable[[BatchPlan], tuple[float, np.ndarray]],
    *,
    seq: int,
    source: str,
    scheduler: Any,
    phase_histogram: Any,
    trace_log: Any = None,
    attempts: Sequence[int] | None = None,
) -> Activation:
    """Build, solve, plan and commit one non-empty batch.

    *busy_until* holds each machine's end of committed work on the clock of
    *now*.  *solve* maps the batch instance to one machine column per job.
    *commit* applies the :class:`BatchPlan` to the driver's state and
    returns ``(assigned_at, committed)``: the instant stamped on the
    ``job_assigned`` lines and the mask of sorted positions committed.
    *seq* is the activation sequence number (trace field and exemplar),
    *source* the lifecycle lines' ``source`` field, *scheduler* the object
    whose optional ``last_phases`` split is merged after the solve, and
    *attempts* the per-job attempt number traced (default: first attempt).
    Raises :class:`ValueError` before committing anything when the
    assignment has the wrong shape or range.
    """
    timer = PhaseTimer()
    with timer.phase("instance_build"):
        etc = execution_times_matrix(jobs, machines)
        instance = SchedulingInstance(
            etc=etc,
            ready_times=np.maximum(0.0, busy_until - now),
            name=f"batch@t={now:.2f}",
            metadata={
                "job_ids": np.array([job.job_id for job in jobs], dtype=np.int64),
                "machine_ids": np.array(
                    [machine.machine_id for machine in machines], dtype=np.int64
                ),
            },
        )
    if attempts is None:
        attempts = [1] * len(jobs)
    if trace_log is not None:
        trace_log.emit_many(
            "job_batched",
            [
                dict(source=source, time=now, job_id=job.job_id, seq=seq, attempt=attempt)
                for job, attempt in zip(jobs, attempts)
            ],
        )

    stopwatch = Stopwatch()
    assignment = np.asarray(solve(instance), dtype=np.int64)
    solve_seconds = stopwatch.elapsed
    timer.add("solve", solve_seconds)
    if assignment.shape != (len(jobs),):
        raise ValueError(
            f"scheduler returned an assignment of shape {assignment.shape}, "
            f"expected ({len(jobs)},)"
        )
    if assignment.min() < 0 or assignment.max() >= len(machines):
        raise ValueError("scheduler returned machine indices outside the batch")

    with timer.phase("commit"):
        plan = _spt_plan(etc, assignment, solve_seconds)
        assigned_at, mask = commit(plan)
    committed = np.flatnonzero(mask)
    scheduler_phases = getattr(scheduler, "last_phases", None)
    if scheduler_phases:
        timer.merge(scheduler_phases)
    for name, seconds in timer:
        phase_histogram.labels(phase=name).observe(seconds, exemplar=seq)
    if trace_log is not None:
        trace_log.emit_many(
            "job_assigned",
            [
                dict(
                    source=source,
                    time=assigned_at,
                    job_id=jobs[index].job_id,
                    seq=seq,
                    machine_id=machines[column].machine_id,
                    attempt=attempts[index],
                )
                for index, column in zip(
                    plan.order[committed].tolist(), plan.columns[committed].tolist()
                )
            ],
        )
    return Activation(plan=plan, committed=committed, phases=timer.as_dict())
