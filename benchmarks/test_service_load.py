"""Extension — the live service under open-loop load at 1x and 2x rate.

The ROADMAP's live-service item asks for measured, not anecdotal, overload
behaviour: sustained submissions per minute on one box, the p50/p95/p99
scheduling latency the metrics snapshot exports, and the shed rate when the
offered rate doubles.  This benchmark replays one flash-crowd trace
open-loop against the full service stack (asyncio
:class:`~repro.service.server.SchedulerServer` over the warm
:class:`~repro.grid.service.DynamicSchedulerService`) at a 1x and a 2x
:class:`~repro.core.config.LoadProfile` multiplier and records both runs as
the ``service_load`` section of ``BENCH_engine.json``.

The trace is sized so the flashes fit the queue at 1x but mathematically
exceed it at 2x (more arrivals between two activations than the queue
holds), so "2x sheds more than 1x" is a property of the workload, not of
the machine the benchmark happens to run on.

A third run repeats the 1x load with the observability layer fully on
(metrics registry + activation trace log) and records the
instrumented-vs-off throughput ratio as the overhead row of the same
section: instrumentation must cost at most 5% throughput.  The load is
open-loop, so the offered rate — and with it the throughput — is a
property of the workload, which keeps the ratio stable enough to assert.
"""

import asyncio
import io
import json
import os

from repro.core.config import (
    ActivationPolicy,
    LoadProfile,
    ServiceConfig,
    TraceConfig,
)
from repro.grid.service import DynamicSchedulerService
from repro.grid.workload import StaticResourceModel
from repro.obs import (
    MetricsRegistry,
    TraceLog,
    build_timelines,
    lifecycle_violations,
    parse_exposition,
)
from repro.obs.timeline import JOB_EVENTS
from repro.service import LoadGenerator, SchedulerCore, SchedulerServer
from repro.traces import generate_trace, rescale_trace
from repro.utils.tables import format_table

from .conftest import run_once

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop").lower()

#: Wall-clock compression of the recorded trace (higher = shorter runs).
if _SCALE == "paper":
    _DURATION, _COMPRESSION = 60.0, 3.0
else:
    _DURATION, _COMPRESSION = 30.0, 3.0

_CAPACITY = 96
_MIN_INTERVAL = 0.15


def _overload_trace(seed=2007):
    trace = generate_trace(
        TraceConfig(
            family="flash_crowd",
            duration=_DURATION,
            rate=20.0,
            nb_machines=8,
            extra={"nb_flashes": 2, "flash_size": 250, "flash_window": 2.0},
        ),
        seed=seed,
        name="service-load",
    )
    return rescale_trace(trace, _COMPRESSION)


def _make_server(seed, registry=None, trace_log=None):
    config = ServiceConfig(
        queue_capacity=_CAPACITY,
        degrade_threshold=48,
        recover_threshold=12,
        activation_interval=0.25,
        activation=ActivationPolicy.adaptive(
            backlog_threshold=16, min_interval=_MIN_INTERVAL, max_interval=0.25
        ),
        max_seconds=0.03,
        max_iterations=10,
        max_stagnant_iterations=3,
    )
    machines = StaticResourceModel(nb_machines=8).generate(rng=seed)
    scheduler = DynamicSchedulerService(
        max_seconds=config.max_seconds,
        max_iterations=config.max_iterations,
        max_stagnant_iterations=config.max_stagnant_iterations,
        registry=registry,
    )
    core = SchedulerCore(
        machines, scheduler, config, rng=seed, registry=registry, trace_log=trace_log
    )
    return SchedulerServer(core)


def _run_at(trace, multiplier, seed=2007, registry=None, trace_log=None):
    async def run():
        server = _make_server(seed, registry=registry, trace_log=trace_log)
        await server.start()
        generator = LoadGenerator(
            trace, LoadProfile(multiplier=multiplier), registry=registry
        )
        report = await generator.run(server.submit)
        for _ in range(60):
            if server.snapshot().backlog == 0:
                break
            await asyncio.sleep(0.1)
        snapshot = await server.stop(drain=True)
        return report, snapshot

    return asyncio.run(run())


def _run_loads():
    trace = _overload_trace()
    results = {
        multiplier: _run_at(trace, multiplier) for multiplier in (1.0, 2.0)
    }
    # The 1x load once more with the observability layer fully on: every
    # layer reports through one registry and every activation writes a
    # trace span.  The exposition text rides along so the overhead row can
    # prove the instrumentation was actually live.
    registry = MetricsRegistry()
    buffer = io.StringIO()
    trace_log = TraceLog(buffer)
    report, snapshot = _run_at(trace, 1.0, registry=registry, trace_log=trace_log)
    results["instrumented"] = (report, snapshot)
    exposition = registry.render()
    events = trace_log.events_written
    # Grab the trace text before close() releases the buffer: the overhead
    # row reconciles the per-job lifecycle records against the snapshot.
    trace_text = buffer.getvalue()
    trace_log.close()
    return results, exposition, events, trace_text


def test_service_load(benchmark, record_output, record_json):
    results, exposition, trace_events, trace_text = run_once(benchmark, _run_loads)

    rows = []
    json_rows = []
    for key, (report, snapshot) in results.items():
        label = "1x+obs" if key == "instrumented" else f"{key:g}x"
        offered = report.planned / report.duration_seconds * 60.0
        shed_rate = snapshot.shed / report.planned if report.planned else 0.0
        rows.append(
            [
                label,
                offered,
                snapshot.throughput_per_min,
                snapshot.shed,
                shed_rate,
                snapshot.degraded_batches,
                snapshot.peak_backlog,
                snapshot.p50_latency,
                snapshot.p95_latency,
                snapshot.p99_latency,
            ]
        )
        json_rows.append(
            {
                "multiplier": 1.0 if key == "instrumented" else key,
                "instrumented": key == "instrumented",
                "offered_per_min": offered,
                "max_lag_seconds": report.max_lag_seconds,
                **report.as_dict(),
                **snapshot.as_dict(),
            }
        )
    text = format_table(
        [
            "load",
            "offered/min",
            "scheduled/min",
            "shed",
            "shed rate",
            "degraded",
            "peak backlog",
            "p50 s",
            "p95 s",
            "p99 s",
        ],
        rows,
        title="Live service under open-loop flash-crowd load (1x, 2x, 1x instrumented)",
    )

    report_1x, snap_1x = results[1.0]
    report_2x, snap_2x = results[2.0]
    report_obs, snap_obs = results["instrumented"]

    # Instrumented-vs-off overhead: the registry + trace log must cost at
    # most 5% of the 1x throughput.  The load is open-loop, so throughput
    # is workload-dominated and the ratio is stable.
    events = [json.loads(line) for line in trace_text.splitlines()]
    job_records = [e for e in events if e["event"] in JOB_EVENTS]
    timelines = build_timelines(events)
    overhead = {
        "throughput_ratio": snap_obs.throughput_per_min / snap_1x.throughput_per_min,
        "throughput_off_per_min": snap_1x.throughput_per_min,
        "throughput_instrumented_per_min": snap_obs.throughput_per_min,
        "trace_events": trace_events,
        "job_events": len(job_records),
        "jobs_traced": len(timelines),
    }
    record_output("service_load", text)
    record_json(
        "BENCH_engine",
        {"sections": {"service_load": {"rows": json_rows, "overhead": overhead}}},
    )

    # The queue stayed bounded at both loads, and 2x turned the overload
    # into strictly more shed than 1x (the flashes exceed the queue between
    # two activations at 2x by construction).
    assert snap_1x.peak_backlog <= _CAPACITY
    assert snap_2x.peak_backlog <= _CAPACITY
    assert snap_2x.shed > snap_1x.shed
    assert snap_2x.shed > 0
    # The degraded Min-Min fallback actually fired under the flashes.
    assert snap_2x.degraded_batches > 0
    # Tail latency is reported at both loads, and every accepted job was
    # scheduled (nothing lost at shutdown).
    for _, snapshot in results.values():
        assert snapshot.p99_latency > 0.0
        assert snapshot.scheduled == snapshot.accepted
    # Sustained intake on one box: the 1x run keeps a four-digit
    # scheduled-per-minute rate (the ROADMAP target's lower band starts at
    # 10^4/min; laptop CI boxes stay within reach of it).
    assert snap_1x.throughput_per_min > 2000.0

    # The instrumentation was live (exposition carries the scheduling
    # latency histogram with real samples, the trace log real spans) and
    # cost at most 5% throughput.
    families = parse_exposition(exposition)
    latency = families["repro_service_scheduler_seconds"]
    assert latency.value(sample_name="repro_service_scheduler_seconds_count") > 0
    assert families["repro_service_submissions_total"].value(outcome="accepted") > 0
    assert trace_events > 0
    assert snap_obs.scheduled == snap_obs.accepted
    assert overhead["throughput_ratio"] >= 0.95

    # Per-job lifecycle tracing reconciles with the service's own books:
    # the trace is a legal lifecycle DAG, every accepted job has a
    # timeline ending in the live service's fire-and-forget terminal, and
    # each job's phase split sums to its end-to-end latency (within 1% —
    # the split is exact by construction, so this is a float-noise bound).
    assert lifecycle_violations(events) == []
    assert len(timelines) == snap_obs.accepted
    assert all(t.terminal == "planned" for t in timelines)
    for timeline in timelines:
        total = timeline.total
        assert total >= 0.0
        assert abs(sum(timeline.phases.values()) - total) <= max(0.01 * total, 1e-9)

    print()
    print(text)
