"""Quickstart: schedule one batch of jobs with the cellular memetic algorithm.

This example mirrors the paper's basic usage: build a Braun-style ETC
instance, compute a few constructive-heuristic schedules for reference, then
run the cMA with the Table 1 configuration under a small time budget and
compare makespan and flowtime.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CellularMemeticAlgorithm,
    CMAConfig,
    TerminationCriteria,
    braun_suite,
    build_schedule,
)
from repro.utils.tables import format_table


def main() -> None:
    # A scaled-down consistent hi/hi instance (the paper uses 512 x 16; this
    # size keeps the example under a few seconds).
    instance = braun_suite(nb_jobs=256, nb_machines=16)["u_c_hihi.0"]
    print(f"Instance: {instance.name}  ({instance.nb_jobs} jobs x {instance.nb_machines} machines)")
    print(f"Consistency: {instance.consistency}")
    print(f"Makespan lower bound: {instance.makespan_lower_bound():,.0f}")
    print()

    # Constructive heuristics as points of reference.
    rows = []
    for heuristic in ("ljfr_sjfr", "min_min", "max_min", "mct", "olb"):
        schedule = build_schedule(heuristic, instance, rng=0)
        rows.append([heuristic, schedule.makespan, schedule.flowtime])

    # The paper's scheduler: Table 1 configuration, 3-second budget.
    config = CMAConfig.paper_defaults(TerminationCriteria.by_time(3.0))
    result = CellularMemeticAlgorithm(instance, config, rng=42).run()
    rows.append(["cMA (3 s)", result.makespan, result.flowtime])

    print(format_table(["scheduler", "makespan", "flowtime"], rows, precision=0))
    print()
    print(
        f"cMA: {result.iterations} iterations, {result.evaluations} evaluations, "
        f"{result.elapsed_seconds:.2f} s elapsed"
    )
    improvement = result.history.improvement_ratio()
    print(f"Makespan reduced by {100 * improvement:.1f}% over the run")


if __name__ == "__main__":
    main()
