"""The in-process workloads: the static cMA solve and the two trace replays.

Each workload function takes the seed, the measuring time and an optional
:class:`~perfbench.tracer.Tracer`, and returns an :class:`Outcome` holding
every end-to-end metric (see ``README.md`` for what each one means on each
workload), the workload's own figures, and its correctness checks.
"""

from __future__ import annotations

import time

import numpy as np

from repro import CellularMemeticAlgorithm, CMAConfig, TerminationCriteria
from repro.core.config import ActivationPolicy, TraceConfig
from repro.grid.scheduler import HeuristicBatchPolicy
from repro.grid.service import WarmCMAPolicy
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.model import generate_braun_like_instance
from repro.traces.generators import generate_trace

from bounds import Park, batch_flowtime_bound, stream_flowtime_bound, stream_makespan_bound
from common import Outcome, describe, median, plan_completions, plan_makespan, quantile

# --------------------------------------------------------------------------- #
# static_braun
# --------------------------------------------------------------------------- #
#: The paper's instance shape and its Table 1 configuration.  Fifty
#: iterations is where the cMA's makespan has flattened on these instances,
#: and it leaves time for three distinct instances plus a repeat in a run.
BRAUN_CLASS = "u_i_hihi.0"
BRAUN_JOBS, BRAUN_MACHINES = 512, 16
BRAUN_ITERATIONS = 50
BRAUN_INSTANCES = 3
SETUP_REPEATS = 10


def static_braun(seed: int, seconds: float, tracer=None) -> Outcome:
    """Solve three seed-derived Braun instances, then repeat them until time is up."""
    config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(BRAUN_ITERATIONS))
    instance_seeds = [seed * 1000 + k for k in range(BRAUN_INSTANCES)]
    outcome = Outcome(metrics={}, configs={"cma": describe(config)})
    outcome.report["instance_seeds"] = instance_seeds

    def build(instance_seed):
        started = time.perf_counter()
        instance = generate_braun_like_instance(
            BRAUN_CLASS, rng=instance_seed, nb_jobs=BRAUN_JOBS, nb_machines=BRAUN_MACHINES
        )
        algorithm = CellularMemeticAlgorithm(instance, config, rng=instance_seed)
        return instance, algorithm, time.perf_counter() - started

    setups, solves, step_p50, step_p95 = [], [], [], []
    first: dict[int, tuple[float, float]] = {}
    ratios, flow_ratios, flowtimes, makespans = [], [], [], []
    evaluations = 0
    started = time.perf_counter()
    k = 0
    while k < BRAUN_INSTANCES + 1 or time.perf_counter() - started < seconds:
        index = k % BRAUN_INSTANCES
        # Set-up is instance generation plus construction; it takes about a
        # millisecond, so it is repeated and the last build is solved.
        for _ in range(SETUP_REPEATS):
            instance, algorithm, setup = build(instance_seeds[index])
            setups.append(setup)
        solve_started = time.perf_counter()
        algorithm.start()
        steps = []
        while algorithm.should_continue():
            step_started = time.perf_counter()
            algorithm.step()
            steps.append(time.perf_counter() - step_started)
        result = algorithm.finish()
        solves.append(time.perf_counter() - solve_started)
        step_p50.append(quantile(steps, 0.50))
        step_p95.append(quantile(steps, 0.95))
        evaluations += result.evaluations
        outcome.attempted += 1

        assignment = np.asarray(result.best_schedule.assignment)
        valid = (
            assignment.shape == (BRAUN_JOBS,)
            and np.issubdtype(assignment.dtype, np.integer)
            and assignment.min() >= 0
            and assignment.max() < BRAUN_MACHINES
        )
        ok = valid
        outcome.check(f"solve {k}: valid assignment", valid)
        if valid:
            ready = np.zeros(BRAUN_MACHINES)
            makespan = plan_makespan(instance.etc, ready, assignment)
            flowtime = float(plan_completions(instance.etc, ready, assignment).sum())
            same = np.isclose(makespan, result.makespan, rtol=1e-12, atol=0) and np.isclose(
                flowtime, result.flowtime, rtol=1e-9, atol=0
            )
            ok &= bool(same)
            outcome.check(
                f"solve {k}: makespan and flowtime recomputed from the ETC matrix",
                same, f"{makespan!r} vs {result.makespan!r}",
            )
        if index in first:
            repeat = first[index] == (result.makespan, result.flowtime)
            ok &= repeat
            outcome.check(
                f"solve {k}: bit-identical to the first solve of instance {index}",
                repeat, f"{result.makespan!r} vs {first[index][0]!r}",
            )
        else:
            first[index] = (result.makespan, result.flowtime)
            ratios.append(result.makespan / instance.makespan_lower_bound())
            flow_ratios.append(result.flowtime / batch_flowtime_bound(instance.etc))
            flowtimes.append(result.flowtime)
            makespans.append(result.makespan)
        outcome.failed += not ok
        k += 1

    # Percentiles are taken within each solve and the run reports their
    # median over solves, so a stretch of host slowness during one solve
    # does not move them.
    solve_s = median(solves)
    outcome.metrics = {
        "setup_s": median(setups),
        "solve_s": solve_s,
        "jobs_per_s": BRAUN_JOBS / solve_s,
        "activation_p50_s": median(step_p50),
        "activation_p95_s": median(step_p95),
        "makespan_ratio": median(ratios),
        "flowtime_ratio": median(flow_ratios),
        # Every job of a static batch is placed when its solve returns, so
        # within a solve every placement percentile is the solve time.
        "placement_p50_s": solve_s,
        "placement_p99_s": solve_s,
        "served_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        "normal_mode_ratio": 1.0,
    }
    outcome.report.update(
        solves=len(solves),
        iterations_per_solve=BRAUN_ITERATIONS,
        makespan_gap=median(ratios) - 1.0,
        makespan=median(makespans),
        flowtime=median(flowtimes),
        mean_response_s=median(flowtimes) / BRAUN_JOBS,
        evaluations_per_solve=evaluations / len(solves),
    )
    outcome.layer["engine.evaluations"] = float(evaluations)
    return outcome


# --------------------------------------------------------------------------- #
# Trace replays
# --------------------------------------------------------------------------- #
class TimedPolicy:
    """Delegate batch policy: times every activation and checks its answer."""

    def __init__(self, inner, tracer=None) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.seconds: list[float] = []
        self.job_ids: list[np.ndarray] = []
        self.bad_answers = 0

    def schedule(self, instance, rng=None):
        started = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("grid.policy.schedule"):
                assignment = self.inner.schedule(instance, rng)
        else:
            assignment = self.inner.schedule(instance, rng)
        self.seconds.append(time.perf_counter() - started)
        answer = np.asarray(assignment)
        if not (
            answer.shape == (instance.nb_jobs,)
            and np.issubdtype(answer.dtype, np.integer)
            and (answer.size == 0 or (answer.min() >= 0 and answer.max() < instance.nb_machines))
        ):
            self.bad_answers += 1
        self.job_ids.append(np.asarray(instance.metadata["job_ids"]))
        return assignment

    @property
    def last_phases(self):
        return getattr(self.inner, "last_phases", None)


#: ``event_replay``: a calm 10^5-job stream on 16 machines, scheduled by MCT.
#: One arrival per simulated second keeps the park below saturation, so
#: response times measure the scheduler, not the seed's park capacity.
#: Every pass replays the same trace, so the passes must agree exactly.
REPLAY_TRACE = TraceConfig(
    family="calm", duration=100_000.0, rate=1.0, nb_machines=16,
    job_heterogeneity="lo",
)
REPLAY_SIM = SimulationConfig(
    activation_interval=1.0,
    max_activations=10_000_000,
    activation=ActivationPolicy.adaptive(
        backlog_threshold=256, min_interval=1.0, max_interval=60.0
    ),
)

#: ``warm_flash``: flash crowds on a churning park under the warm cMA with a
#: pure wall-clock budget, in batch mode on a periodic 5 s driver.  A run
#: replays three traces with their own seeds (about 8k jobs and 80
#: activations each): how much work a trace holds depends on how many of its
#: machines churn, and three parks average that out better than one.
FLASH_TRACE = TraceConfig(
    family="flash_crowd", duration=420.0, rate=0.8, nb_machines=16,
    job_heterogeneity="lo", churn_fraction=0.25,
    extra={"nb_flashes": 8, "flash_size": 1000.0, "flash_window": 10.0},
)
FLASH_SIM = SimulationConfig(activation_interval=5.0, commit_horizon=None)
FLASH_BUDGET = dict(max_seconds=0.05, max_iterations=None, max_stagnant_iterations=None)
#: Both replays run at least three passes and report medians over passes, so
#: a stretch of host slowness during one pass does not move them.
MIN_PASSES = 3


def event_replay(seed: int, seconds: float, tracer=None) -> Outcome:
    return _replay(
        seed, seconds, tracer, REPLAY_TRACE, REPLAY_SIM,
        lambda: HeuristicBatchPolicy("mct"), own_seeds=False,
    )


def warm_flash(seed: int, seconds: float, tracer=None) -> Outcome:
    return _replay(
        seed, seconds, tracer, FLASH_TRACE, FLASH_SIM,
        lambda: WarmCMAPolicy(**FLASH_BUDGET), own_seeds=True,
    )


def _replay(seed, seconds, tracer, trace_config, sim_config, make_policy, own_seeds) -> Outcome:
    """Replay seed-derived traces until the time is up; check every pass.

    With *own_seeds* pass k replays the trace of seed ``1000 * seed + k``;
    otherwise every pass replays the trace of *seed* and must reproduce the
    first pass exactly.
    """
    outcome = Outcome(
        metrics={},
        configs={
            "trace": describe(trace_config),
            "simulation": describe(sim_config),
            "policy": repr(make_policy()),
        },
    )
    passes: list[dict[str, float]] = []
    bounds: dict[int, tuple[float, float]] = {}
    batch_sizes: list[int] = []
    evaluations = reallocations = 0
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        number = len(passes)
        trace_seed = seed * 1000 + number if own_seeds else seed
        # Set-up is the trace generation plus the simulator construction.
        setup_started = time.perf_counter()
        trace = generate_trace(trace_config, seed=trace_seed)
        policy = TimedPolicy(make_policy(), tracer)
        simulator = GridSimulator.from_trace(trace, policy, sim_config, rng=trace_seed)
        setup = time.perf_counter() - setup_started
        run_started = time.perf_counter()
        metrics = simulator.run()
        wall = time.perf_counter() - run_started

        jobs = trace.nb_jobs
        outcome.attempted += jobs
        outcome.failed += jobs - metrics.completed_jobs
        revoked = sum(record.reschedules for record in simulator.records.values())
        arrivals = dict(zip(trace.job_ids.tolist(), trace.job_arrivals.tolist()))
        placed: dict[int, float] = {}
        for record, ids in zip(metrics.activations, policy.job_ids):
            for job_id in ids.tolist():
                placed.setdefault(job_id, record.time - arrivals[job_id])
        placed_total = sum(ids.size for ids in policy.job_ids)
        outcome.check(f"pass {number}: every batch answer has the batch's shape and range",
                      policy.bad_answers == 0, f"{policy.bad_answers} bad")
        outcome.check(f"pass {number}: completed + failed + cancelled == jobs",
                      metrics.completed_jobs + metrics.failed_jobs + metrics.cancelled_jobs == jobs,
                      f"{metrics.completed_jobs}+{metrics.failed_jobs}"
                      f"+{metrics.cancelled_jobs} vs {jobs}")
        outcome.check(f"pass {number}: every job completed, none failed or cancelled",
                      metrics.completed_jobs == jobs)
        outcome.check(f"pass {number}: one activation record per scheduler call",
                      len(metrics.activations) == len(policy.job_ids))
        # Jobs are placed once each, plus once more per revocation.
        outcome.check(f"pass {number}: every job placed once, plus once per revocation",
                      placed_total == jobs + revoked and len(placed) == jobs,
                      f"{placed_total} placements, {jobs} jobs, {revoked} revocations")
        if trace_seed not in bounds:
            park = Park(trace.machine_mips, trace.machine_joins, trace.machine_leaves)
            bounds[trace_seed] = (
                stream_makespan_bound(trace.job_arrivals, trace.job_workloads, park),
                stream_flowtime_bound(trace.job_arrivals, trace.job_workloads, park),
            )
        makespan_bound, flowtime_bound = bounds[trace_seed]
        placements = list(placed.values())
        passes.append({
            "setup_s": setup,
            "solve_s": wall,
            "jobs_per_s": metrics.completed_jobs / wall,
            "activation_p50_s": quantile(policy.seconds, 0.50),
            "activation_p95_s": quantile(policy.seconds, 0.95),
            "makespan_ratio": metrics.makespan / makespan_bound,
            "flowtime_ratio": metrics.total_flowtime / flowtime_bound,
            "placement_p50_s": quantile(placements, 0.50),
            "placement_p99_s": quantile(placements, 0.99),
            "served_ratio": metrics.completed_jobs / (jobs - metrics.cancelled_jobs),
            "mean_response_s": metrics.mean_response_time,
            "stream_makespan_s": metrics.makespan,
            "jobs": jobs,
            "activations": len(policy.seconds),
            "revocations": revoked,
            "useful_ratio": metrics.completed_jobs / (metrics.completed_jobs + revoked),
        })
        if number and not own_seeds:
            outcome.check(
                f"pass {number}: stream makespan and mean response identical to pass 0",
                (passes[-1]["stream_makespan_s"], passes[-1]["mean_response_s"])
                == (passes[0]["stream_makespan_s"], passes[0]["mean_response_s"]),
            )
        batch_sizes.extend(ids.size for ids in policy.job_ids)
        stats = getattr(getattr(policy.inner, "service", None), "stats", None)
        evaluations += getattr(stats, "evaluations", 0)
        reallocations += getattr(stats, "capacity_reallocations", 0)

    def over_passes(key):
        return median([entry[key] for entry in passes])

    outcome.metrics = {name: over_passes(name) for name in (
        "setup_s", "solve_s", "jobs_per_s", "activation_p50_s", "activation_p95_s",
        "makespan_ratio", "flowtime_ratio", "placement_p50_s", "placement_p99_s",
        "served_ratio",
    )}
    outcome.metrics["normal_mode_ratio"] = 1.0
    outcome.report.update(
        {name: over_passes(name) for name in (
            "jobs", "activations", "revocations", "mean_response_s", "stream_makespan_s",
        )},
        passes=len(passes),
        batch_jobs_max=max(batch_sizes),
    )
    outcome.layer.update({
        "grid.batch_jobs.p50": quantile(batch_sizes, 0.5),
        "grid.batch_jobs.max": float(max(batch_sizes)),
        "grid.commit.useful_ratio": over_passes("useful_ratio"),
        "engine.evaluations": float(evaluations),
        "grid.service.reallocations": float(reallocations),
    })
    return outcome
