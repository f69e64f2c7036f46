"""Extension — the replay arena over the synthetic scenario families.

The ROADMAP's "dynamic scheduling beyond one service" item asks for an
online comparison harness that replays recorded arrival traces against
multiple policies; this benchmark runs that harness over the trace
subsystem's scenario families (calm Poisson, bursty MMPP, diurnal waves,
heavy-tailed job sizes, flash crowd + churn, flaky breakdown/repair
windows, deadline-carrying jobs) × the default policy roster
(Min-Min, cold cMA, warm cMA, rolling-horizon warm cMA) at an equal
per-activation budget, and dumps the scenario × policy table both as text
and into ``BENCH_engine.json`` (merged next to the engine/dynamic
sections, so partial benchmark runs coexist).

On the calm family the roster is doubled: each of Min-Min and the cold cMA
also enters under the adaptive :class:`~repro.core.config.ActivationPolicy`
(``*-adaptive`` twins), so one arena table shows both activation drivers on
the same trace at the same budget.

``REPRO_BENCH_REPS`` overrides the per-scale repetition count (see
:func:`benchmarks.conftest.bench_repetitions`), so paper-scale runs can
record non-degenerate std / p-value columns without changing CI cost.
"""

import dataclasses
import os

from repro.core.config import ActivationPolicy, ArenaConfig, TraceConfig
from repro.experiments.runner import dynamic_policy_specs
from repro.traces import ReplayArena, generate_trace, summarize_arena
from repro.utils.tables import format_table

from .conftest import bench_repetitions, run_once

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "laptop").lower()

#: Scenario families × scale.  The laptop scale keeps every simulation to a
#: few dozen activations; the paper scale stretches the submission windows
#: and machine parks toward the protocol of the static tables.
if _SCALE == "paper":
    _DURATION, _MACHINES, _REPETITIONS = 300.0, 16, bench_repetitions(3)
else:
    _DURATION, _MACHINES, _REPETITIONS = 50.0, 6, bench_repetitions(1)

SCENARIOS = {
    "calm": TraceConfig(
        family="calm", duration=_DURATION, rate=1.0, nb_machines=_MACHINES,
        job_heterogeneity="lo",
    ),
    "bursty": TraceConfig(
        family="bursty", duration=_DURATION, rate=1.0, nb_machines=_MACHINES,
        job_heterogeneity="lo",
    ),
    "diurnal": TraceConfig(
        family="diurnal", duration=_DURATION, rate=1.0, nb_machines=_MACHINES,
        job_heterogeneity="lo",
    ),
    "heavy_tail": TraceConfig(
        family="heavy_tail", duration=_DURATION, rate=0.8, nb_machines=_MACHINES,
        extra={"pareto_shape": 2.0},
    ),
    "flash_crowd": TraceConfig(
        family="flash_crowd", duration=_DURATION, rate=0.6, nb_machines=_MACHINES,
        job_heterogeneity="lo", churn_fraction=0.25,
    ),
    "flaky": TraceConfig(
        family="flaky", duration=_DURATION, rate=1.0, nb_machines=_MACHINES,
        job_heterogeneity="lo",
    ),
    "deadline": TraceConfig(
        family="deadline", duration=_DURATION, rate=1.0, nb_machines=_MACHINES,
        job_heterogeneity="lo", extra={"tightness": 2.0},
    ),
}

#: Equal, deterministic per-activation budget for every metaheuristic
#: contestant (iteration cap + stagnation stop under a generous wall cap).
_BUDGET = dict(max_seconds=0.15, max_iterations=30, max_stagnant_iterations=5)

_INTERVAL = 10.0

#: Adaptive driver of the calm family's ``*-adaptive`` twins.
_ADAPTIVE = ActivationPolicy.adaptive(
    backlog_threshold=8, min_interval=1.0, max_interval=2 * _INTERVAL
)
#: The periodic contestants duplicated under the adaptive driver.
_ADAPTIVE_TWINS = ("min_min", "cma")


def _run_arenas(seed=2007):
    results = {}
    for scenario, config in SCENARIOS.items():
        trace = generate_trace(config, seed=seed, name=scenario)
        roster = dynamic_policy_specs(horizon=_INTERVAL, **_BUDGET)
        specs = list(roster.values())
        if scenario == "calm":
            # Both activation drivers on one trace, in one table: the twin
            # replays the identical policy spec under the adaptive driver.
            specs += [
                dataclasses.replace(
                    roster[name], name=f"{name}-adaptive", activation=_ADAPTIVE
                )
                for name in _ADAPTIVE_TWINS
            ]
        arena = ReplayArena(
            trace,
            specs,
            ArenaConfig(
                activation_interval=_INTERVAL,
                repetitions=_REPETITIONS,
                seed=seed,
            ),
        )
        results[scenario] = (trace, arena.run())
    return results


def test_trace_replay_arena(benchmark, record_output, record_json):
    results = run_once(benchmark, _run_arenas)

    rows = []
    json_rows = []
    for scenario, (trace, result) in results.items():
        for report in summarize_arena(result):
            rows.append(
                [
                    scenario,
                    report.policy,
                    report.makespan.mean,
                    report.flowtime.mean,
                    report.mean_utilization,
                    report.p95_scheduler_seconds,
                    report.rescheduled_jobs,
                    (
                        f"{report.missed_deadlines:g}/{report.jobs_with_deadlines}"
                        if report.jobs_with_deadlines
                        else "n/a"
                    ),
                ]
            )
            json_rows.append(
                {"scenario": scenario, "jobs": trace.nb_jobs, **report.as_dict()}
            )
    text = format_table(
        [
            "scenario",
            "policy",
            "stream makespan",
            "total flowtime",
            "utilization",
            "sched p95 s",
            "rescheduled",
            "missed due",
        ],
        rows,
        title="Replay arena: scenario families x policies (equal budget)",
    )
    record_output("trace_replay_arena", text)
    record_json("BENCH_engine", {"sections": {"replay_arena": json_rows}})

    # Every policy finishes every scenario's whole stream.
    for scenario, (trace, result) in results.items():
        for report in summarize_arena(result):
            assert report.completed_jobs == trace.nb_jobs, (scenario, report.policy)

    # Statistics hygiene: a Welch p-value is only ever printed with a real
    # variance estimate behind it — any row carrying one must come from at
    # least two repetitions (single-rep rows carry None and render "n/a").
    for scenario, (trace, result) in results.items():
        for report in summarize_arena(result):
            if report.p_value is not None:
                assert report.repetitions >= 2, (scenario, report.policy)

    # Qualitative shape: the metaheuristics stay competitive with Min-Min
    # on the stream makespan in every scenario (the paper's batch-mode
    # deployment claim, now across an order of magnitude more workload
    # shapes), and their per-activation cost respects the budget.
    for scenario, (trace, result) in results.items():
        reports = {report.policy: report for report in summarize_arena(result)}
        baseline = reports["min_min"].makespan.mean
        for name in ("cma", "warm-cma", "warm-cma-rolling"):
            assert reports[name].makespan.mean <= baseline * 1.15, (scenario, name)
            assert reports[name].p95_scheduler_seconds < 1.0, (scenario, name)

    # The adaptive twins of the calm family complete the same stream with a
    # stream makespan in the same league as their periodic originals.
    calm_reports = {r.policy: r for r in summarize_arena(results["calm"][1])}
    for name in _ADAPTIVE_TWINS:
        twin, original = calm_reports[f"{name}-adaptive"], calm_reports[name]
        assert twin.completed_jobs == original.completed_jobs, name
        assert twin.makespan.mean <= original.makespan.mean * 1.2, name

    # The failure families carry their ingredients end to end: the flaky
    # trace actually schedules breakdown windows (the legacy unlimited
    # retry still completes the whole stream, per the assertion above),
    # and every deadline job carries a due date the SLA columns account.
    flaky_trace = results["flaky"][0]
    assert flaky_trace.breakdown_times is not None
    assert flaky_trace.breakdown_times.size > 0
    deadline_trace, deadline_result = results["deadline"]
    for report in summarize_arena(deadline_result):
        assert report.jobs_with_deadlines == deadline_trace.nb_jobs, report.policy
        assert report.missed_deadlines <= report.jobs_with_deadlines, report.policy

    print()
    print(text)
