"""Per-job lifecycle timelines: builder units, attribution, and the
legal-lifecycle-DAG property over the full failure-model simulator.

The builder's one load-bearing invariant — each job's phases sum *exactly*
to its end-to-end latency — is asserted in every test here, because the
attribution table's "shares sum to 100%" claim rests on it.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ActivationPolicy, RetryPolicy
from repro.grid.job import GridJob
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs import (
    NULL_TRACE,
    TraceLog,
    attribution_rows,
    attribution_table,
    build_timelines,
    lifecycle_violations,
    read_trace,
    render_timelines,
    slowest_report,
    slowest_table,
    timeline_report,
)
from repro.obs.timeline import JOB_EVENTS, PHASES, waterfall


def _ev(event, **fields):
    return {"event": event, **fields}


def _exact(timeline):
    assert abs(sum(timeline.phases.values()) - timeline.total) < 1e-9


# --------------------------------------------------------------------------- #
# Builder units
# --------------------------------------------------------------------------- #
class TestBuilder:
    def test_happy_path_completed_job(self):
        events = [
            _ev("job_submitted", job_id=0, time=0.0, attempt=1),
            _ev("job_batched", job_id=0, time=2.0, seq=1, attempt=1),
            _ev("job_assigned", job_id=0, time=2.0, seq=1, machine_id=3),
            _ev("job_started", job_id=0, time=5.0),
            _ev("job_completed", job_id=0, time=9.0),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "completed"
        assert timeline.total == 9.0
        assert timeline.attempts == 1
        assert timeline.activation_seqs == (1,)
        assert timeline.phases == {
            "queue_wait": 2.0,
            "scheduling": 0.0,
            "machine_wait": 3.0,
            "execution": 4.0,
        }
        _exact(timeline)
        chain = timeline.chain()
        assert "submitted@0.000" in chain
        assert "batched#1@2.000" in chain
        assert "assigned m3@2.000" in chain
        assert chain.endswith("completed@9.000")

    def test_rebatched_without_commit_counts_as_queue_wait(self):
        # Rolling horizon: a batched-but-uncommitted job is batched again
        # later; the whole gap from admission to the committing batch is
        # queue wait, and both activation seqs are recorded.
        events = [
            _ev("job_submitted", job_id=4, time=0.0),
            _ev("job_batched", job_id=4, time=2.0, seq=1),
            _ev("job_batched", job_id=4, time=6.0, seq=2),
            _ev("job_assigned", job_id=4, time=6.5, machine_id=0),
            _ev("job_started", job_id=4, time=6.5),
            _ev("job_completed", job_id=4, time=7.5),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.phases["queue_wait"] == 6.0
        assert timeline.phases["scheduling"] == 0.5
        assert timeline.activation_seqs == (1, 2)
        _exact(timeline)

    def test_revoke_splits_machine_wait_and_lost_then_retry_backs_off(self):
        events = [
            _ev("job_submitted", job_id=1, time=0.0),
            _ev("job_batched", job_id=1, time=1.0, seq=1),
            _ev("job_assigned", job_id=1, time=1.0, machine_id=0),
            _ev("job_started", job_id=1, time=2.0),
            _ev("job_completed", job_id=1, time=20.0),  # planned, superseded
            _ev("job_revoked", job_id=1, time=3.0, attempt=1, cause="breakdown"),
            _ev("job_retried", job_id=1, time=3.0, attempt=2, retry_at=4.0),
            _ev("job_batched", job_id=1, time=5.0, seq=2),
            _ev("job_assigned", job_id=1, time=5.0, machine_id=1),
            _ev("job_started", job_id=1, time=6.0),
            _ev("job_completed", job_id=1, time=8.0),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "completed"
        assert timeline.attempts == 2
        # Attempt 1: wait 1->2 on the machine, ran 2->3 before the
        # breakdown threw it away; backoff 3->4; attempt 2: queued 4->5,
        # waited 5->6, ran 6->8.
        assert timeline.phases["machine_wait"] == pytest.approx(2.0)
        assert timeline.phases["lost"] == pytest.approx(1.0)
        assert timeline.phases["backoff"] == pytest.approx(1.0)
        assert timeline.phases["queue_wait"] == pytest.approx(2.0)
        assert timeline.phases["execution"] == pytest.approx(2.0)
        assert timeline.total == 8.0
        _exact(timeline)
        assert "revoked(breakdown)@3.000" in timeline.chain()
        assert "retried@4.000" in timeline.chain()

    def test_revoke_before_planned_start_loses_nothing(self):
        events = [
            _ev("job_submitted", job_id=2, time=0.0),
            _ev("job_batched", job_id=2, time=1.0, seq=1),
            _ev("job_assigned", job_id=2, time=1.0, machine_id=0),
            _ev("job_started", job_id=2, time=5.0),
            _ev("job_revoked", job_id=2, time=3.0, cause="machine_leave"),
            _ev("job_dropped", job_id=2, time=3.0, cause="retry limit"),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "failed"
        assert timeline.finished == 3.0
        assert timeline.phases.get("lost", 0.0) == 0.0
        assert timeline.phases["machine_wait"] == pytest.approx(2.0)
        _exact(timeline)

    def test_cancel_in_queue_in_flight_and_during_backoff(self):
        queued = [
            _ev("job_submitted", job_id=0, time=0.0),
            _ev("task_cancel", job_id=0, time=3.0),
        ]
        in_flight = [
            _ev("job_submitted", job_id=1, time=0.0),
            _ev("job_batched", job_id=1, time=1.0, seq=1),
            _ev("job_assigned", job_id=1, time=1.0, machine_id=0),
            _ev("job_started", job_id=1, time=2.0),
            _ev("task_cancel", job_id=1, time=6.0),
        ]
        # The retry instant (retry_at=6) was already accounted as backoff
        # when the cancel lands at t=4: the unspent 2 s must be given back.
        in_backoff = [
            _ev("job_submitted", job_id=2, time=0.0),
            _ev("job_batched", job_id=2, time=1.0, seq=1),
            _ev("job_assigned", job_id=2, time=1.0, machine_id=0),
            _ev("job_started", job_id=2, time=2.0),
            _ev("job_revoked", job_id=2, time=3.0, cause="breakdown"),
            _ev("job_retried", job_id=2, time=3.0, retry_at=6.0),
            _ev("task_cancel", job_id=2, time=4.0),
        ]
        events = queued + in_flight + in_backoff
        assert lifecycle_violations(events) == []
        timelines = build_timelines(events)
        assert [t.terminal for t in timelines] == ["cancelled"] * 3
        by_id = {t.job_id: t for t in timelines}
        assert by_id[0].phases == {"queue_wait": 3.0}
        assert by_id[1].phases["lost"] == pytest.approx(4.0)
        assert by_id[2].phases["backoff"] == pytest.approx(1.0)
        for timeline in timelines:
            _exact(timeline)

    def test_live_service_fire_and_forget_terminal_is_planned(self):
        events = [
            _ev("job_submitted", job_id=9, time=10.0, source="service"),
            _ev("job_batched", job_id=9, time=10.2, seq=3),
            _ev("job_assigned", job_id=9, time=10.25, machine_id=2),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "planned"
        assert timeline.total == pytest.approx(0.25)
        assert timeline.phases["queue_wait"] == pytest.approx(0.2)
        assert timeline.phases["scheduling"] == pytest.approx(0.05)
        _exact(timeline)

    def test_truncated_trace_yields_pending_terminal(self):
        events = [
            _ev("job_submitted", job_id=5, time=0.0),
            _ev("job_batched", job_id=5, time=2.0, seq=1),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "pending"
        assert timeline.finished == 2.0
        _exact(timeline)

    def test_deadline_annotation_is_legal_even_after_the_terminal(self):
        # The simulator settles deadline accounting at collection time, so
        # a failed job's job_deadline_missed arrives after job_dropped.
        events = [
            _ev("job_submitted", job_id=3, time=0.0),
            _ev("job_batched", job_id=3, time=1.0, seq=1),
            _ev("job_assigned", job_id=3, time=1.0, machine_id=0),
            _ev("job_revoked", job_id=3, time=2.0, cause="breakdown"),
            _ev("job_dropped", job_id=3, time=2.0, cause="retry limit"),
            _ev("job_deadline_missed", job_id=3, time=5.0, tardiness=0.0),
        ]
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "failed"
        assert timeline.missed_deadline
        _exact(timeline)

    def test_violations_are_detected_and_named(self):
        cases = [
            # started without an assignment
            (
                [
                    _ev("job_submitted", job_id=0, time=0.0),
                    _ev("job_batched", job_id=0, time=1.0),
                    _ev("job_started", job_id=0, time=2.0),
                ],
                "job_started before job_assigned",
            ),
            # any lifecycle event after a terminal
            (
                [
                    _ev("job_submitted", job_id=0, time=0.0),
                    _ev("task_cancel", job_id=0, time=1.0),
                    _ev("job_batched", job_id=0, time=2.0),
                ],
                "after terminal",
            ),
            # a job whose trace never starts with job_submitted
            ([_ev("job_batched", job_id=0, time=1.0)], "not job_submitted"),
            # duplicate admission
            (
                [
                    _ev("job_submitted", job_id=0, time=0.0),
                    _ev("job_submitted", job_id=0, time=1.0),
                ],
                "duplicate job_submitted",
            ),
            # a job event with no correlation key at all
            ([_ev("job_submitted", time=0.0)], "without a job_id"),
        ]
        for events, expected in cases:
            violations = lifecycle_violations(events)
            assert violations, expected
            assert any(expected in v for v in violations), (violations, expected)

    def test_non_job_events_are_ignored(self):
        events = [
            _ev("activation", time=0.0, seq=1, backlog=3),
            _ev("job_submitted", job_id=0, time=0.0),
            _ev("shed", time=0.5, backlog=64),
            _ev("task_cancel", job_id=0, time=1.0),
            _ev("mode_transition", time=2.0, transition="degrade"),
        ]
        assert "activation" not in JOB_EVENTS
        assert lifecycle_violations(events) == []
        (timeline,) = build_timelines(events)
        assert timeline.terminal == "cancelled"


# --------------------------------------------------------------------------- #
# Attribution, waterfalls, reports
# --------------------------------------------------------------------------- #
def _sample_timelines():
    events = [
        _ev("job_submitted", job_id=0, time=0.0),
        _ev("job_batched", job_id=0, time=2.0, seq=1),
        _ev("job_assigned", job_id=0, time=2.5, machine_id=0),
        _ev("job_started", job_id=0, time=3.0),
        _ev("job_completed", job_id=0, time=9.0),
        _ev("job_submitted", job_id=1, time=1.0),
        _ev("job_batched", job_id=1, time=2.0, seq=1),
        _ev("job_assigned", job_id=1, time=2.5, machine_id=1),
        _ev("job_started", job_id=1, time=2.5),
        _ev("job_revoked", job_id=1, time=4.0, cause="breakdown"),
        _ev("job_retried", job_id=1, time=4.0, retry_at=5.0),
        _ev("job_batched", job_id=1, time=6.0, seq=2),
        _ev("job_assigned", job_id=1, time=6.0, machine_id=0),
        _ev("job_started", job_id=1, time=9.0),
        _ev("job_completed", job_id=1, time=15.0),
        _ev("job_deadline_missed", job_id=1, time=15.0, tardiness=3.0),
    ]
    return events, build_timelines(events)


def test_attribution_shares_sum_to_100_percent():
    events, timelines = _sample_timelines()
    assert lifecycle_violations(events) == []
    headers, rows = attribution_rows(timelines)
    share_column = headers.index("share %")
    assert sum(row[share_column] for row in rows) == pytest.approx(100.0)
    text = attribution_table(timelines)
    assert "Latency attribution over 2 job(s)" in text
    assert "end-to-end" in text and "100" in text


def test_waterfall_bar_is_proportional_and_flagged():
    _, timelines = _sample_timelines()
    multi = next(t for t in timelines if t.attempts > 1)
    row = waterfall(multi, width=40)
    bar = row.split("|")[1]
    assert len(bar) == 40
    # Largest-remainder rounding: the glyph counts fill the bar exactly.
    assert bar.strip(" ") and set(bar) <= {g for g in "qsw#xb"} | {" "}
    assert f"x{multi.attempts}" in row and "missed-due" in row
    # A zero-length timeline renders a placeholder bar, not a crash.
    zero = next(t for t in timelines if t.attempts == 1)
    zero.finished = zero.submitted
    zero.phases = {}
    assert "-" * 10 in waterfall(zero, width=10)


def test_render_and_slowest_and_file_reports(tmp_path):
    events, timelines = _sample_timelines()
    text = render_timelines(events, jobs=1)
    assert "Latency attribution" in text
    assert "job " in text and "|" in text
    for phase in PHASES:
        assert phase in text  # the legend names every phase
    slow = slowest_table(events, top=1)
    assert "dominant phase" in slow
    assert "->" in slow  # causal chains ride along
    # Round-trip through a real trace file and the report entry points.
    path = tmp_path / "trace.jsonl"
    with TraceLog(path) as log:
        for event in events:
            log.emit(**event)
    assert timeline_report(path, jobs=2) == render_timelines(
        read_trace(path), jobs=2
    )
    assert slowest_report(path, top=2) == slowest_table(read_trace(path), top=2)
    assert render_timelines([], jobs=3) == "no job lifecycle events in trace"
    assert slowest_table([], top=3) == "no job lifecycle events in trace"


# --------------------------------------------------------------------------- #
# The simulator end to end: tracing is a pure observer
# --------------------------------------------------------------------------- #
def _failure_jobs_and_machines():
    jobs = [
        GridJob(job_id=0, workload=30_000.0, arrival_time=0.0, due_date=10.0),
        GridJob(job_id=1, workload=8_000.0, arrival_time=1.0, cancel_time=2.0),
        GridJob(job_id=2, workload=20_000.0, arrival_time=2.0),
        GridJob(job_id=3, workload=5_000.0, arrival_time=3.0, due_date=4.0),
        GridJob(job_id=4, workload=12_000.0, arrival_time=8.0),
    ]
    machines = [
        GridMachine(machine_id=0, mips=1_000.0),
        GridMachine(machine_id=1, mips=8_000.0, breakdowns=((2.0, 6.0),)),
        GridMachine(machine_id=2, mips=4_000.0, leave_time=5.0),
    ]
    return jobs, machines


def _run_simulator(trace_log=NULL_TRACE):
    jobs, machines = _failure_jobs_and_machines()
    simulator = GridSimulator(
        jobs,
        machines,
        HeuristicBatchPolicy("min_min"),
        SimulationConfig(
            activation_interval=2.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=1.0, jitter=0.5),
        ),
        rng=7,
        trace_log=trace_log,
    )
    return simulator.run()


def test_simulator_trace_reconstructs_every_job_exactly():
    buffer = io.StringIO()
    log = TraceLog(buffer)
    metrics = _run_simulator(trace_log=log)
    events = read_trace_text(buffer)
    assert lifecycle_violations(events) == []
    timelines = build_timelines(events)
    assert len(timelines) == 5
    terminals = {t.job_id: t.terminal for t in timelines}
    assert terminals[1] == "cancelled"
    completed = [t for t in timelines if t.terminal == "completed"]
    assert len(completed) == metrics.completed_jobs
    for timeline in timelines:
        _exact(timeline)
    # The phase histogram fed the activation envelope too: the simulator's
    # cumulative per-phase seconds rode into the metrics.
    assert set(metrics.phase_seconds) >= {"instance_build", "solve", "commit"}


def test_tracing_is_a_pure_observer_of_the_simulation():
    # Bit-exact: running with the trace log on must not perturb the
    # simulation (tracing reads clocks, never the simulation's RNG).
    bare = _run_simulator()
    traced = _run_simulator(trace_log=TraceLog(io.StringIO()))
    assert bare.makespan == traced.makespan
    assert bare.total_flowtime == traced.total_flowtime
    assert bare.mean_response_time == traced.mean_response_time
    assert bare.nb_activations == traced.nb_activations
    assert bare.completed_jobs == traced.completed_jobs
    assert bare.rescheduled_jobs == traced.rescheduled_jobs
    assert bare.total_tardiness == traced.total_tardiness


def read_trace_text(buffer):
    import json

    return [json.loads(line) for line in buffer.getvalue().splitlines()]


# --------------------------------------------------------------------------- #
# Property: every simulated lifecycle is a legal DAG with exact attribution
# --------------------------------------------------------------------------- #
@st.composite
def _scenarios(draw):
    nb_jobs = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    for job_id in range(nb_jobs):
        arrival = draw(st.floats(min_value=0.0, max_value=30.0))
        job = dict(
            job_id=job_id,
            workload=draw(st.floats(min_value=100.0, max_value=40_000.0)),
            arrival_time=arrival,
        )
        if draw(st.booleans()):
            job["due_date"] = arrival + draw(st.floats(min_value=0.0, max_value=50.0))
        if draw(st.booleans()):
            job["cancel_time"] = arrival + draw(
                st.floats(min_value=0.1, max_value=60.0)
            )
        jobs.append(GridJob(**job))
    # Machine 0 stays healthy so pending work always makes progress and
    # the run terminates even with retry=None.
    machines = [GridMachine(machine_id=0, mips=1_000.0)]
    for machine_id in range(1, draw(st.integers(min_value=2, max_value=3))):
        nb_windows = draw(st.integers(min_value=0, max_value=2))
        bounds = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.5, max_value=70.0),
                    min_size=2 * nb_windows,
                    max_size=2 * nb_windows,
                    unique=True,
                )
            )
        )
        machines.append(
            GridMachine(
                machine_id=machine_id,
                mips=draw(st.floats(min_value=500.0, max_value=10_000.0)),
                breakdowns=tuple(
                    (bounds[2 * i], bounds[2 * i + 1]) for i in range(nb_windows)
                ),
            )
        )
    retry = draw(
        st.one_of(
            st.none(),
            st.builds(
                RetryPolicy,
                max_attempts=st.integers(min_value=1, max_value=3),
                backoff_base=st.floats(min_value=0.0, max_value=4.0),
                jitter=st.sampled_from([0.0, 0.5]),
            ),
        )
    )
    adaptive = draw(st.booleans())
    return jobs, machines, retry, adaptive


class TestLifecycleProperty:
    @settings(max_examples=30, deadline=None)
    @given(scenario=_scenarios())
    def test_every_simulated_lifecycle_is_a_legal_dag(self, scenario):
        jobs, machines, retry, adaptive = scenario
        buffer = io.StringIO()
        simulator = GridSimulator(
            jobs,
            machines,
            HeuristicBatchPolicy("min_min"),
            SimulationConfig(
                activation_interval=5.0,
                activation=(
                    ActivationPolicy.adaptive(backlog_threshold=1, min_interval=0.5)
                    if adaptive
                    else None
                ),
                retry=retry,
            ),
            rng=7,
            trace_log=TraceLog(buffer),
        )
        metrics = simulator.run()
        events = read_trace_text(buffer)
        assert lifecycle_violations(events) == []
        timelines = build_timelines(events)
        assert len(timelines) == len(jobs)
        # Exact attribution: every job's phases sum to its latency.
        for timeline in timelines:
            _exact(timeline)
            assert timeline.terminal in ("completed", "cancelled", "failed")
        # The trace agrees with the simulator's own accounting.
        by_terminal = {"completed": 0, "cancelled": 0, "failed": 0}
        for timeline in timelines:
            by_terminal[timeline.terminal] += 1
        assert by_terminal["completed"] == metrics.completed_jobs
        assert by_terminal["cancelled"] == metrics.cancelled_jobs
        assert by_terminal["failed"] == metrics.failed_jobs
