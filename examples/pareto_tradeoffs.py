"""Multi-objective scheduling: a set of makespan/flowtime trade-offs.

The paper optimizes a fixed weighted sum (λ = 0.75) and leaves "finding a set
of non-dominated solutions" as future work.  This example runs the library's
multi-objective extension — the same cellular memetic machinery run under a
small set of scalarization weights feeding a Pareto archive — and prints the
resulting front so a grid operator can pick the trade-off they prefer
(throughput-leaning vs. QoS-leaning, in the paper's terms).

Run with:  python examples/pareto_tradeoffs.py
"""

from __future__ import annotations

from repro import TerminationCriteria, braun_suite
from repro.core import CMAConfig, MOCMAConfig, MultiObjectiveCellularMA
from repro.utils.tables import format_table


def main() -> None:
    instance = braun_suite(nb_jobs=192, nb_machines=16)["u_s_hihi.0"]
    print(f"Instance: {instance.name} ({instance.nb_jobs} jobs x {instance.nb_machines} machines)")

    config = MOCMAConfig(
        base=CMAConfig.paper_defaults(),
        weights=(0.95, 0.75, 0.5, 0.25, 0.05),
        archive_capacity=30,
    )
    result = MultiObjectiveCellularMA(
        instance,
        config,
        termination=TerminationCriteria.by_time(5.0),
        rng=13,
    ).run()

    rows = [[f"{m:,.0f}", f"{f:,.0f}"] for m, f in result.front]
    print(
        format_table(
            ["makespan", "flowtime"],
            rows,
            title=f"Non-dominated schedules found ({len(result.archive)} points, "
            f"{result.evaluations} evaluations, {result.elapsed_seconds:.1f} s)",
        )
    )
    knee_makespan, knee_flowtime = result.knee_point()
    print()
    print(f"Balanced (knee) trade-off: makespan {knee_makespan:,.0f}, flowtime {knee_flowtime:,.0f}")
    print("Per-weight best schedules (the decomposition the front was built from):")
    for weight, run in sorted(result.per_weight_results.items(), reverse=True):
        print(f"  lambda={weight:.2f}: makespan {run.makespan:,.0f}, flowtime {run.flowtime:,.0f}")


if __name__ == "__main__":
    main()
