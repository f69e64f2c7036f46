"""Dynamic grid scheduling: the deployment scenario the paper motivates.

The introduction and conclusions of the paper argue that a batch scheduler
that produces high-quality plans in a short, fixed budget can drive a *real*
grid by being re-activated periodically on the jobs that arrived since its
last activation.  This example simulates exactly that with the library's
discrete-event grid simulator:

* a Poisson stream of parameter-sweep style jobs (the Monte-Carlo workload
  of the paper's Section 2),
* a heterogeneous machine park in which some machines join late and leave
  early (grid churn),
* three scheduling policies driving the batch activations — the cMA, Min-Min
  and opportunistic load balancing — compared on stream makespan, mean
  response time, utilization and scheduling overhead.

Run with:  python examples/dynamic_grid_scheduling.py
"""

from __future__ import annotations

from repro.grid import (
    CMABatchPolicy,
    ChurningResourceModel,
    GridSimulator,
    HeuristicBatchPolicy,
    PoissonArrivalModel,
    SimulationConfig,
)
from repro.utils.tables import format_table


def main() -> None:
    seed = 11
    jobs = PoissonArrivalModel(rate=2.0, duration=90.0, heterogeneity="hi").generate(rng=seed)
    machines = ChurningResourceModel(
        nb_machines=12, heterogeneity="hi", churn_fraction=0.25, horizon=200.0
    ).generate(rng=seed)
    print(f"Workload: {len(jobs)} jobs over 90 simulated seconds")
    churny = sum(1 for m in machines if m.leave_time is not None)
    print(f"Machine park: {len(machines)} machines ({churny} with limited membership)")
    print()

    policies = [
        CMABatchPolicy(max_seconds=0.2, max_iterations=60),
        HeuristicBatchPolicy("min_min"),
        HeuristicBatchPolicy("olb"),
    ]

    rows = []
    for policy in policies:
        simulator = GridSimulator(
            jobs,
            machines,
            policy,
            SimulationConfig(activation_interval=15.0),
            rng=seed,
        )
        metrics = simulator.run()
        rows.append(
            [
                metrics.policy,
                metrics.completed_jobs,
                metrics.rescheduled_jobs,
                metrics.makespan,
                metrics.mean_response_time,
                metrics.mean_utilization,
                metrics.mean_scheduler_seconds,
            ]
        )

    print(
        format_table(
            [
                "policy",
                "completed",
                "rescheduled",
                "stream makespan",
                "mean response",
                "utilization",
                "sched s/act.",
            ],
            rows,
            title="Periodic batch scheduling of an arriving workload",
            precision=2,
        )
    )
    print()
    print("The cMA policy spends a bounded, sub-second budget per activation and")
    print("should deliver the lowest (or tied-lowest) stream makespan of the three.")


if __name__ == "__main__":
    main()
