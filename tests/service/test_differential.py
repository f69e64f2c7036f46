"""Differential test: the live core and the simulator decide alike.

Same jobs, same park, same policy.  The simulator runs its periodic driver
at 1 s; the live :class:`~repro.service.state.SchedulerCore` runs on a
:class:`~repro.service.clock.FakeClock`, submits every job at its arrival
time and activates at every whole second.  Both hand their policy the same
batches, with the same ready times, and get the same assignments back —
they share one activation kernel, so the sequences must match exactly, not
approximately.
"""

import numpy as np

from repro.core.config import ServiceConfig
from repro.grid import (
    GridJob,
    GridMachine,
    GridSimulator,
    HeuristicBatchPolicy,
    SimulationConfig,
)
from repro.service import FakeClock, SchedulerCore

NB_JOBS = 57


class Spy:
    """Delegates to a policy and records every activation it sees."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.calls = []

    def schedule(self, instance, rng=None):
        assignment = np.asarray(self.policy.schedule(instance, rng), dtype=np.int64)
        self.calls.append(
            (
                tuple(instance.metadata["job_ids"].tolist()),
                np.array(instance.ready_times),
                assignment.copy(),
            )
        )
        return assignment


def workload():
    rng = np.random.default_rng(2007)
    # Arrivals on a 1/8 s grid (exact in binary, so the fake clock lands on
    # them exactly), never on a whole second: no arrival ties with a tick.
    eighths = rng.choice(
        [k for k in range(1, 160) if k % 8], size=NB_JOBS, replace=True
    )
    arrivals = np.sort(eighths) / 8.0
    workloads = rng.uniform(500.0, 6_000.0, size=NB_JOBS)
    jobs = [
        GridJob(job_id=index, workload=float(work), arrival_time=float(arrival))
        for index, (arrival, work) in enumerate(zip(arrivals, workloads))
    ]
    # Non-index machine ids and mixed speeds: the park saturates, so ready
    # times are non-zero and the SPT commit arithmetic matters.
    machines = [
        GridMachine(machine_id=10, mips=1_000.0),
        GridMachine(machine_id=20, mips=2_500.0),
        GridMachine(machine_id=30, mips=4_000.0),
    ]
    return jobs, machines


def simulated_calls(jobs, machines):
    spy = Spy(HeuristicBatchPolicy("mct"))
    GridSimulator(
        jobs, machines, spy, SimulationConfig(activation_interval=1.0), rng=7
    ).run()
    return spy.calls


def live_calls(jobs, machines):
    spy = Spy(HeuristicBatchPolicy("mct"))
    clock = FakeClock()
    core = SchedulerCore(
        machines, spy, ServiceConfig(queue_capacity=1024), clock=clock, rng=7
    )
    queue = list(jobs)
    tick = 0
    while queue or core.backlog:
        while queue and queue[0].arrival_time <= tick:
            job = queue.pop(0)
            clock.advance(job.arrival_time - clock.now())
            assert core.submit(job.workload) == job.job_id
        clock.advance(tick - clock.now())
        core.activate()
        tick += 1
    assert core.scheduled == len(jobs)
    return spy.calls


def test_live_core_matches_the_simulator_activation_for_activation():
    jobs, machines = workload()
    simulated = simulated_calls(jobs, machines)
    live = live_calls(jobs, machines)
    assert len(simulated) > 10
    assert len(live) == len(simulated)
    for (sim_ids, sim_ready, sim_plan), (live_ids, live_ready, live_plan) in zip(
        simulated, live
    ):
        assert live_ids == sim_ids
        np.testing.assert_array_equal(live_ready, sim_ready)
        np.testing.assert_array_equal(live_plan, sim_plan)
    # The comparison has teeth: the park queues work across activations.
    assert any(np.any(ready > 0) for _, ready, _ in simulated)
