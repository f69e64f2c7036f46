"""Deterministic fake-clock tests of the live scheduler core.

Everything here drives :class:`repro.service.state.SchedulerCore` directly
with a :class:`~repro.service.clock.FakeClock` — no event loop, no sleeps:
queue bounds and shed accounting, the degrade/recover hysteresis, latency
percentile bookkeeping, activation cadence, and the drain-vs-abort
shutdown contract.
"""

import io
import json

import numpy as np
import pytest

from repro.core.config import ActivationPolicy, ServiceConfig
from repro.grid.machine import GridMachine
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import DynamicSchedulerService
from repro.obs import TraceLog
from repro.service import FakeClock, SchedulerCore


def make_machines(count=4, mips=1000.0):
    return [GridMachine(machine_id=i, mips=mips) for i in range(count)]


def make_core(config=None, scheduler=None, clock=None, machines=None):
    return SchedulerCore(
        machines if machines is not None else make_machines(),
        scheduler if scheduler is not None else HeuristicBatchPolicy("min_min"),
        config if config is not None else ServiceConfig(queue_capacity=16),
        clock=clock if clock is not None else FakeClock(),
        rng=7,
    )


class DegradableStub:
    """Scheduler stub that records which path each batch went through."""

    def __init__(self):
        self.modes = []

    def schedule(self, instance, rng=None):
        self.modes.append("normal")
        return np.zeros(instance.nb_jobs, dtype=np.int64)

    def degraded_schedule(self, instance, rng=None):
        self.modes.append("degraded")
        return np.zeros(instance.nb_jobs, dtype=np.int64)


class TestConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=8, degrade_threshold=4, recover_threshold=4)
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=8, degrade_threshold=16)

    def test_defaults_derive_from_capacity(self):
        config = ServiceConfig(queue_capacity=64)
        assert config.effective_degrade_threshold == 32
        assert config.effective_recover_threshold == 8
        assert config.effective_activation.is_adaptive

    def test_describe_and_evolve(self):
        config = ServiceConfig(queue_capacity=64)
        assert config.describe()["queue capacity"] == 64
        assert config.evolve(queue_capacity=32).queue_capacity == 32


class TestQueueAndShed:
    def test_submissions_accepted_until_capacity_then_shed(self):
        core = make_core(ServiceConfig(queue_capacity=4))
        ids = [core.submit(100.0) for _ in range(6)]
        assert ids[:4] == [0, 1, 2, 3]
        assert ids[4:] == [None, None]
        assert core.accepted == 4
        assert core.shed == 2
        assert core.backlog == 4
        assert core.peak_backlog == 4

    def test_activation_frees_capacity_again(self):
        core = make_core(ServiceConfig(queue_capacity=2))
        core.submit(100.0)
        core.submit(100.0)
        assert core.submit(100.0) is None
        core.activate()
        assert core.backlog == 0
        assert core.submit(100.0) is not None

    def test_idle_activation_is_counted_not_failed(self):
        core = make_core()
        outcome = core.activate()
        assert outcome.idle
        assert outcome.scheduled_ids == ()
        assert core.idle_activations == 1


class TestActivation:
    def test_every_queued_job_is_scheduled_once(self):
        core = make_core()
        ids = [core.submit(100.0 * (k + 1)) for k in range(5)]
        outcome = core.activate()
        assert sorted(outcome.scheduled_ids) == ids
        assert core.scheduled == 5
        assert core.backlog == 0

    def test_commit_advances_busy_until_and_ready_times(self):
        clock = FakeClock()
        seen = []

        class Spy:
            def schedule(self, instance, rng=None):
                seen.append(np.array(instance.ready_times))
                return np.zeros(instance.nb_jobs, dtype=np.int64)

        core = make_core(scheduler=Spy(), clock=clock, machines=make_machines(2))
        core.submit(1000.0)  # 1 second on machine 0
        core.activate()
        core.submit(1000.0)
        core.activate()  # clock has not moved: machine 0 still busy 1s
        assert seen[0][0] == 0.0
        assert seen[1][0] == pytest.approx(1.0)
        assert seen[1][1] == 0.0

    def test_latency_is_wait_plus_scheduling_time(self):
        clock = FakeClock()
        core = make_core(clock=clock)
        core.submit(100.0)
        clock.advance(2.0)
        core.submit(100.0)
        clock.advance(0.5)
        core.activate()
        snapshot = core.snapshot()
        # Latencies are 2.5 and 0.5 seconds; percentiles come from the
        # shared latency_percentiles machinery.  With only two samples the
        # tail percentiles are gated to NaN (a 2-sample p99 would just be
        # the max dressed up as a tail) while the median is reported.
        assert snapshot.p50_latency == pytest.approx(1.5)
        assert np.isnan(snapshot.p95_latency)
        assert np.isnan(snapshot.p99_latency)

    def test_latency_window_is_a_rolling_bound(self):
        clock = FakeClock()
        core = make_core(ServiceConfig(queue_capacity=16, latency_window=3), clock=clock)
        for _ in range(5):
            core.submit(100.0)
        clock.advance(1.0)
        core.activate()
        assert len(core._latencies) == 3


class TestOverloadHysteresis:
    def config(self):
        return ServiceConfig(queue_capacity=16, degrade_threshold=4, recover_threshold=1)

    def test_degrades_at_threshold_and_recovers_with_hysteresis(self):
        stub = DegradableStub()
        core = make_core(self.config(), scheduler=stub)
        for _ in range(4):
            core.submit(100.0)
        core.activate()
        assert core.mode == "degraded"
        # A mid-sized batch (above recover, below degrade) stays degraded.
        core.submit(100.0)
        core.submit(100.0)
        core.activate()
        assert core.mode == "degraded"
        # Only a batch at/below the recover threshold flips back.
        core.submit(100.0)
        core.activate()
        assert core.mode == "normal"
        assert stub.modes == ["degraded", "degraded", "normal"]

    def test_scheduler_without_degraded_path_still_works(self):
        core = make_core(self.config())  # HeuristicBatchPolicy: no degraded hook
        for _ in range(5):
            core.submit(100.0)
        outcome = core.activate()
        assert outcome.mode == "degraded"  # mode tracked, normal path used
        assert core.scheduled == 5

    def test_degraded_path_uses_min_min_and_keeps_warm_plan(self):
        service = DynamicSchedulerService(max_seconds=0.05, max_iterations=3)
        core = make_core(self.config(), scheduler=service)
        for _ in range(6):
            core.submit(100.0)
        core.activate()
        assert service.stats.degraded_batches == 1
        assert service.stats.degraded_jobs == 6
        assert len(service.plan) == 6  # remembered: warm start stays coherent
        assert core.snapshot().degraded_batches == 1


class TestCadence:
    def test_periodic_policy_waits_the_activation_interval(self):
        clock = FakeClock()
        config = ServiceConfig(
            queue_capacity=16,
            activation_interval=2.0,
            activation=ActivationPolicy.periodic(),
        )
        core = make_core(config, clock=clock)
        core.activate()
        assert core.seconds_until_due() == pytest.approx(2.0)
        clock.advance(1.5)
        assert core.seconds_until_due() == pytest.approx(0.5)

    def test_adaptive_policy_fires_early_on_backlog(self):
        clock = FakeClock()
        config = ServiceConfig(
            queue_capacity=16,
            activation_interval=5.0,
            activation=ActivationPolicy.adaptive(
                backlog_threshold=3, min_interval=0.5, max_interval=5.0
            ),
        )
        core = make_core(config, clock=clock)
        core.activate()
        core.submit(100.0)
        assert core.seconds_until_due() == pytest.approx(5.0)
        core.submit(100.0)
        core.submit(100.0)  # threshold crossed: min_interval governs
        assert core.seconds_until_due() == pytest.approx(0.5)
        clock.advance(0.6)
        assert core.seconds_until_due() == 0.0


class TestShutdown:
    def test_drain_schedules_everything(self):
        core = make_core()
        ids = [core.submit(100.0) for _ in range(5)]
        outcomes = core.drain()
        assert sorted(i for o in outcomes for i in o.scheduled_ids) == ids
        assert core.backlog == 0
        assert core.abort() == ()

    def test_abort_sheds_the_remainder(self):
        core = make_core()
        ids = [core.submit(100.0) for _ in range(3)]
        shed = core.abort()
        assert sorted(shed) == ids
        assert core.shed == 3
        assert core.backlog == 0

    def test_drain_respects_the_timeout(self):
        clock = FakeClock()

        class Slow:
            """Slow scheduler with a submission racing in per activation."""

            core = None

            def schedule(self, instance, rng=None):
                clock.advance(10.0)
                self.core.submit(100.0)
                return np.zeros(instance.nb_jobs, dtype=np.int64)

        slow = Slow()
        core = make_core(
            ServiceConfig(queue_capacity=16, drain_timeout=5.0),
            scheduler=slow,
            clock=clock,
        )
        slow.core = core
        core.submit(100.0)
        outcomes = core.drain()
        # The first activation blows the 5s budget, so the racing job stays
        # queued for the caller's abort instead of extending the drain.
        assert len(outcomes) == 1
        assert core.backlog == 1
        assert len(core.abort()) == 1


class TestSnapshot:
    def test_counters_and_rates(self):
        clock = FakeClock()
        core = make_core(clock=clock)
        for _ in range(4):
            core.submit(500.0)
        clock.advance(2.0)
        core.activate()
        snapshot = core.snapshot()
        assert snapshot.accepted == snapshot.scheduled == 4
        assert snapshot.shed == 0
        assert snapshot.backlog == 0
        assert snapshot.mode == "normal"
        assert snapshot.uptime_seconds == pytest.approx(2.0)
        assert snapshot.throughput_per_min == pytest.approx(4 * 60 / 2.0)
        assert 0.0 <= snapshot.utilization <= 1.0
        payload = snapshot.as_dict()
        assert payload["queue_capacity"] == 16
        # Four samples are too few for a tail percentile: the snapshot
        # gates p95/p99 and the JSON payload carries None, not a number.
        assert payload["p50_latency"] >= 0.0
        assert payload["p95_latency"] is None
        assert payload["p99_latency"] is None

    def test_requires_at_least_one_machine(self):
        with pytest.raises(ValueError):
            SchedulerCore([], HeuristicBatchPolicy("min_min"))


class TestLatencyBuckets:
    """The configurable latency histogram buckets (ServiceConfig + wiring)."""

    def test_config_validates_and_coerces(self):
        config = ServiceConfig(queue_capacity=16, latency_buckets=(1, 2.5))
        assert config.latency_buckets == (1.0, 2.5)
        assert ServiceConfig(queue_capacity=16).latency_buckets is None
        with pytest.raises(ValueError, match="empty"):
            ServiceConfig(queue_capacity=16, latency_buckets=())
        with pytest.raises(ValueError, match="positive"):
            ServiceConfig(queue_capacity=16, latency_buckets=(0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            ServiceConfig(queue_capacity=16, latency_buckets=(1.0, 1.0))

    def test_describe_reports_default_or_custom(self):
        assert (
            ServiceConfig(queue_capacity=16).describe()["latency buckets"]
            == "default"
        )
        described = ServiceConfig(
            queue_capacity=16, latency_buckets=(0.5, 2.0)
        ).describe()
        assert described["latency buckets"] == [0.5, 2.0]

    def test_custom_buckets_reach_the_latency_histograms(self):
        from repro.obs import MetricsRegistry, parse_exposition

        registry = MetricsRegistry()
        core = SchedulerCore(
            make_machines(),
            HeuristicBatchPolicy("min_min"),
            ServiceConfig(queue_capacity=16, latency_buckets=(0.5, 2.0)),
            clock=FakeClock(),
            rng=7,
            registry=registry,
        )
        for _ in range(3):
            core.submit(500.0)
        core.activate()
        families = parse_exposition(registry.render())
        for family in (
            "repro_service_scheduler_seconds",
            "repro_service_job_latency_seconds",
            "repro_service_activation_phase_seconds",
        ):
            text = registry.render()
            assert f'{family}_bucket{{' in text or family in families
        # Exactly the configured bounds plus the implicit +Inf, no default
        # bucket ladder.
        text = registry.render()
        latency_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_service_job_latency_seconds_bucket")
        ]
        bounds = [line.split('le="')[1].split('"')[0] for line in latency_lines]
        assert bounds == ["0.5", "2.0", "+Inf"]
        phase_lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_service_activation_phase_seconds_bucket")
        ]
        assert phase_lines, "phase histogram must be live after an activation"
        assert {line.split('le="')[1].split('"')[0] for line in phase_lines} <= {
            "0.5",
            "2.0",
            "+Inf",
        }


class TestFailedActivation:
    """A solve that raises or returns garbage must not lose its batch."""

    class FailsOnce:
        """Fails the first solve, then places everything on machine 0."""

        def __init__(self, failure):
            self.failure = failure
            self.core = None
            self.calls = 0

        def schedule(self, instance, rng=None):
            self.calls += 1
            if self.calls == 1:
                self.core.submit(100.0)  # races in while the batch is out
                if self.failure == "raise":
                    raise RuntimeError("solver crashed")
                return np.full(instance.nb_jobs, instance.nb_machines, dtype=np.int64)
            return np.zeros(instance.nb_jobs, dtype=np.int64)

    @pytest.mark.parametrize(
        "failure, error", [("raise", RuntimeError), ("out_of_range", ValueError)]
    )
    def test_failed_solve_requeues_the_batch_at_the_front(self, failure, error):
        scheduler = self.FailsOnce(failure)
        buffer = io.StringIO()
        core = SchedulerCore(
            make_machines(),
            scheduler,
            ServiceConfig(queue_capacity=16),
            clock=FakeClock(),
            rng=7,
            trace_log=TraceLog(buffer),
        )
        scheduler.core = core
        ids = [core.submit(100.0) for _ in range(3)]
        with pytest.raises(error):
            core.activate()
        snapshot = core.snapshot()
        # Exactly-once partition: every accepted job is still accounted for.
        assert snapshot.accepted == 4
        assert snapshot.accepted == (
            snapshot.scheduled + snapshot.cancelled + snapshot.backlog
        )
        assert snapshot.scheduled == 0
        assert snapshot.backlog == 4
        # The activation span is closed, carrying the error.
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        spans = [event for event in events if event["event"] == "activation"]
        assert len(spans) == 1 and "error" in spans[0]
        # The failed batch keeps its place ahead of the job that raced in.
        outcome = core.activate()
        assert outcome.scheduled_ids == (*ids, 3)
        assert core.scheduled == 4
        assert core.backlog == 0
