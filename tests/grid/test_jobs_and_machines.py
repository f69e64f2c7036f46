"""Tests for the grid job / machine building blocks."""

import pytest

from repro.grid.job import GridJob, JobRecord, JobState
from repro.grid.machine import GridMachine, MachineState


class TestGridJob:
    def test_fields(self):
        job = GridJob(job_id=1, workload=500.0, arrival_time=3.0)
        assert job.workload == 500.0
        assert job.arrival_time == 3.0

    def test_nonpositive_workload_rejected(self):
        with pytest.raises(ValueError):
            GridJob(job_id=1, workload=0.0, arrival_time=0.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            GridJob(job_id=1, workload=1.0, arrival_time=-1.0)


class TestJobRecord:
    def test_initial_state_pending(self):
        record = JobRecord(job=GridJob(0, 10.0, 0.0))
        assert record.state is JobState.PENDING
        assert record.reschedules == 0

    def test_response_time(self):
        record = JobRecord(job=GridJob(0, 10.0, 5.0))
        record.start_time = 8.0
        record.completion_time = 20.0
        assert record.response_time == 15.0
        assert record.waiting_time == 3.0

    def test_response_before_completion_raises(self):
        record = JobRecord(job=GridJob(0, 10.0, 5.0))
        with pytest.raises(ValueError):
            record.response_time
        with pytest.raises(ValueError):
            record.waiting_time


class TestGridMachine:
    def test_execution_time_is_workload_over_mips(self):
        machine = GridMachine(machine_id=0, mips=10.0)
        assert machine.execution_time(GridJob(0, 50.0, 0.0)) == pytest.approx(5.0)

    def test_affinity_spread_perturbs_deterministically(self):
        machine = GridMachine(machine_id=0, mips=10.0, affinity_spread=0.5)
        job = GridJob(3, 50.0, 0.0)
        assert machine.execution_time(job) == machine.execution_time(job)
        assert machine.execution_time(job) != pytest.approx(5.0)

    def test_availability_window(self):
        machine = GridMachine(machine_id=0, mips=1.0, join_time=10.0, leave_time=20.0)
        assert not machine.is_available(5.0)
        assert machine.is_available(15.0)
        assert not machine.is_available(20.0)

    def test_always_available_without_leave_time(self):
        machine = GridMachine(machine_id=0, mips=1.0)
        assert machine.is_available(1e9)

    def test_leave_before_join_rejected(self):
        with pytest.raises(ValueError):
            GridMachine(machine_id=0, mips=1.0, join_time=10.0, leave_time=5.0)

    def test_nonpositive_mips_rejected(self):
        with pytest.raises(ValueError):
            GridMachine(machine_id=0, mips=0.0)


class TestMachineState:
    def test_ready_time_clamped_at_zero(self):
        state = MachineState(machine=GridMachine(0, 1.0), busy_until=5.0)
        assert state.ready_time(now=10.0) == 0.0
        assert state.ready_time(now=2.0) == 3.0

    def test_utilization(self):
        state = MachineState(machine=GridMachine(0, 1.0), busy_time=25.0)
        assert state.utilization(horizon=100.0) == pytest.approx(0.25)
        assert state.utilization(horizon=0.0) == 0.0
        # Utilization is capped at 1 even if accounting overshoots slightly.
        state.busy_time = 150.0
        assert state.utilization(horizon=100.0) == 1.0
