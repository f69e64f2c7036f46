"""Machines (grid resources) in the dynamic simulation.

A machine has a computing capacity in MIPS and, to model the *inconsistent*
grid scenarios of the benchmark, an optional per-machine affinity profile
that makes some job/machine combinations relatively faster or slower than
the pure MIPS ratio predicts.  Machines can join and leave the grid while
the simulation runs (the paper's "resources could dynamically be
added/dropped from the Grid").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.job import GridJob
from repro.utils.rng import RNGLike
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["GridMachine", "MachineState", "execution_times_matrix", "affinity_factors"]


# --------------------------------------------------------------------------- #
# Deterministic per-(job, machine) affinity noise
# --------------------------------------------------------------------------- #
# The *inconsistent* grid scenarios need execution-time noise that is a pure
# function of the (job_id, machine_id) pair: repeated queries must agree, and
# the scalar `GridMachine.execution_time` path must agree bit-for-bit with the
# batched `execution_times_matrix` hot path.  A counter-based construction —
# SplitMix64 finalizer on a pair key, Box-Muller to a standard normal — gives
# exactly that with whole-matrix numpy expressions (a per-pair
# `np.random.Generator`, the previous implementation, costs a generator
# construction per query and cannot be vectorized).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MACHINE_SALT = np.uint64(0xD1342543DE82EF95)
_STREAM_SALT = np.uint64(0x2545F4914F6CDD1D)


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, elementwise on a uint64 array."""
    z = (keys + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform01(keys: np.ndarray) -> np.ndarray:
    """Map hashed uint64 keys to uniforms in the open interval (0, 1)."""
    return ((keys >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53


def affinity_factors(
    job_ids: np.ndarray, machine_ids: np.ndarray, spreads: np.ndarray
) -> np.ndarray:
    """``(jobs, machines)`` log-normal affinity factors, fully vectorized.

    ``factors[i, j] = exp(spreads[j] * z(job_ids[i], machine_ids[j]))`` where
    *z* is a deterministic standard normal of the id pair (SplitMix64 keys
    pushed through Box-Muller).  Machines with ``spreads == 0`` get exact
    ``1.0`` factors.
    """
    job_ids = np.asarray(job_ids, dtype=np.uint64)
    machine_ids = np.asarray(machine_ids, dtype=np.uint64)
    keys = job_ids[:, None] * _GOLDEN + machine_ids[None, :] * _MACHINE_SALT
    u1 = _uniform01(_splitmix64(keys))
    u2 = _uniform01(_splitmix64(keys ^ _STREAM_SALT))
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return np.exp(np.asarray(spreads, dtype=float)[None, :] * normals)


def execution_times_matrix(
    jobs: Sequence[GridJob], machines: Sequence["GridMachine"]
) -> np.ndarray:
    """``(jobs, machines)`` expected execution times in one array expression.

    The batched :meth:`GridMachine.execution_time`: the base matrix is the
    ``workload / mips`` outer quotient, and machines with a positive
    ``affinity_spread`` are multiplied by their deterministic per-pair
    log-normal factors.  This is the simulator's ETC constructor — one call
    per activation instead of a ``jobs x machines`` scalar double loop.
    """
    workloads = np.array([job.workload for job in jobs], dtype=float)
    mips = np.array([machine.mips for machine in machines], dtype=float)
    etc = workloads[:, None] / mips[None, :]
    spreads = np.array([machine.affinity_spread for machine in machines], dtype=float)
    if np.any(spreads > 0):
        job_ids = np.array([job.job_id for job in jobs], dtype=np.uint64)
        machine_ids = np.array(
            [machine.machine_id for machine in machines], dtype=np.uint64
        )
        etc *= affinity_factors(job_ids, machine_ids, spreads)
    return etc


@dataclass(frozen=True)
class GridMachine:
    """A grid resource.

    Attributes
    ----------
    machine_id:
        Unique identifier within a simulation.
    mips:
        Computing capacity in millions of instructions per second.
    join_time:
        Simulated time at which the machine becomes available.
    leave_time:
        Simulated time at which the machine drops from the grid (``None`` if
        it stays for the whole simulation).
    affinity_spread:
        Standard deviation (in log space) of the per-job execution-time
        noise; 0 gives perfectly consistent behaviour, larger values model
        inconsistent grids where a nominally fast machine can be slow for
        particular jobs.
    breakdowns:
        Ordered, non-overlapping ``(breakdown_time, repair_time)`` windows
        during which the machine is broken: it stays in the park but cannot
        run work, and anything in flight at the breakdown instant is revoked.
        Empty by default (the machine never fails).
    """

    machine_id: int
    mips: float
    join_time: float = 0.0
    leave_time: float | None = None
    affinity_spread: float = 0.0
    breakdowns: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        check_positive("mips", self.mips)
        check_non_negative("join_time", self.join_time)
        if self.leave_time is not None and self.leave_time <= self.join_time:
            raise ValueError("leave_time must be after join_time")
        check_non_negative("affinity_spread", self.affinity_spread)
        object.__setattr__(
            self,
            "breakdowns",
            tuple((float(down), float(up)) for down, up in self.breakdowns),
        )
        previous_up = self.join_time
        for down, up in self.breakdowns:
            if down < previous_up:
                raise ValueError(
                    f"breakdown windows must be ordered, non-overlapping and "
                    f"after join_time, got breakdown at {down} before {previous_up}"
                )
            if up <= down:
                raise ValueError(
                    f"repair_time must be after breakdown_time, got {up} <= {down}"
                )
            previous_up = up

    def execution_time(self, job: GridJob, rng: RNGLike = None) -> float:
        """Expected execution time of *job* on this machine.

        With ``affinity_spread == 0`` this is simply ``workload / mips``;
        otherwise a log-normal factor with the configured spread is applied,
        derived deterministically from the (job, machine) id pair so repeated
        queries agree — and so the scalar path matches
        :func:`execution_times_matrix` exactly.
        """
        base = job.workload / self.mips
        if self.affinity_spread <= 0:
            return base
        factor = affinity_factors(
            np.array([job.job_id], dtype=np.uint64),
            np.array([self.machine_id], dtype=np.uint64),
            np.array([self.affinity_spread]),
        )
        return base * float(factor[0, 0])

    def is_available(self, time: float) -> bool:
        """Whether the machine is part of the grid at simulated *time*."""
        if time < self.join_time:
            return False
        if self.leave_time is not None and time >= self.leave_time:
            return False
        for down, up in self.breakdowns:
            if down <= time < up:
                return False
        return True


@dataclass
class MachineState:
    """Mutable per-machine bookkeeping kept by the simulator."""

    machine: GridMachine
    busy_until: float = 0.0
    busy_time: float = 0.0  # accumulated processing time, for utilization
    completed_jobs: int = 0

    def ready_time(self, now: float) -> float:
        """Time from *now* until the machine finishes its committed work."""
        return max(0.0, self.busy_until - now)

    def utilization(self, horizon: float) -> float:
        """Fraction of the simulated horizon spent processing jobs."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
