"""Extending the library: plug a custom heuristic and local search into the cMA.

A downstream user rarely wants the paper's exact configuration; the operator
registries make every ingredient swappable.  This example

1. registers a new constructive heuristic (a greedy "most loaded last"
   variant) and uses it to seed the population,
2. defines a custom local search (a first-improvement swap restricted to the
   two most loaded machines) and registers it,
3. runs the cMA with the custom pieces next to the paper configuration and
   compares the outcome.

Run with:  python examples/custom_operators.py
"""

from __future__ import annotations

import numpy as np

from repro import CellularMemeticAlgorithm, CMAConfig, TerminationCriteria, braun_suite
from repro.core.local_search import LocalSearch, register_local_search
from repro.heuristics import ConstructiveHeuristic, register_heuristic
from repro.model.schedule import Schedule
from repro.utils.tables import format_table


@register_heuristic
class LightestLoadHeuristic(ConstructiveHeuristic):
    """Assign jobs in decreasing size to the machine with the lightest load."""

    name = "lightest_load"

    def build(self, instance, rng=None):
        order = np.argsort(-instance.etc.mean(axis=1))
        completion = instance.ready_times.copy()
        assignment = np.empty(instance.nb_jobs, dtype=np.int64)
        for job in order:
            machine = int(completion.argmin())
            assignment[job] = machine
            completion[machine] += instance.etc[job, machine]
        return Schedule(instance, assignment)


@register_local_search
class TwoMachineSwapSearch(LocalSearch):
    """First-improvement swap between the two most loaded machines."""

    name = "two_machine_swap"

    def step(self, schedule, evaluator, rng):
        completion = schedule.completion_times
        if completion.shape[0] < 2:
            return False
        first, second = np.argsort(completion)[-2:]
        jobs_a = schedule.machine_jobs(int(second))
        jobs_b = schedule.machine_jobs(int(first))
        if jobs_a.size == 0 or jobs_b.size == 0:
            return False
        before = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        job_a = int(rng.choice(jobs_a))
        job_b = int(rng.choice(jobs_b))
        schedule.swap_jobs(job_a, job_b)
        after = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        if after < before:
            return True
        schedule.swap_jobs(job_a, job_b)
        return False


def main() -> None:
    instance = braun_suite(nb_jobs=192, nb_machines=16)["u_s_hihi.0"]
    budget = TerminationCriteria.by_time(2.0)

    configurations = {
        "paper (LJFR-SJFR + LMCTS)": CMAConfig.paper_defaults(budget),
        "custom (lightest_load + two_machine_swap)": CMAConfig.paper_defaults(budget).evolve(
            seeding_heuristic="lightest_load", local_search="two_machine_swap"
        ),
    }

    rows = []
    for label, config in configurations.items():
        result = CellularMemeticAlgorithm(instance, config, rng=3).run()
        rows.append([label, result.makespan, result.flowtime, result.evaluations])

    print(
        format_table(
            ["configuration", "makespan", "flowtime", "evaluations"],
            rows,
            title=f"Custom operators on {instance.name} ({instance.nb_jobs} jobs)",
            precision=0,
        )
    )
    print()
    print("Any registered heuristic / local search can be selected by name in CMAConfig.")


if __name__ == "__main__":
    main()
