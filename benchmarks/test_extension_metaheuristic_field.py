"""Extension — the cMA against single-solution metaheuristics.

Braun et al.'s original study compared eleven heuristics including simulated
annealing and tabu search; the paper under reproduction only compares
population-based GAs.  This benchmark closes that gap with the library's SA
and TS baselines: under the same wall-clock budget on a consistent hi/hi
instance, the cMA must match or beat both single-solution metaheuristics and
every constructive heuristic.
"""

from repro.experiments.runner import (
    cma_spec,
    heuristic_spec,
    repeat_run,
    simulated_annealing_spec,
    tabu_search_spec,
)
from repro.model.benchmark import generate_braun_like_instance
from repro.utils.tables import format_table

from .conftest import run_once


def _run(settings):
    instance = generate_braun_like_instance(
        "u_c_hihi.0", rng=settings.seed, nb_jobs=settings.nb_jobs, nb_machines=settings.nb_machines
    )
    specs = [
        cma_spec(),
        simulated_annealing_spec(),
        tabu_search_spec(),
        heuristic_spec("min_min"),
        heuristic_spec("ljfr_sjfr"),
    ]
    results = {}
    for spec in specs:
        runs = repeat_run(spec, instance, settings)
        results[spec.name] = (
            min(r.makespan for r in runs),
            min(r.flowtime for r in runs),
        )
    return results


def test_extension_metaheuristic_field(benchmark, table_settings, record_output):
    results = run_once(benchmark, _run, table_settings)
    rows = [[name, makespan, flowtime] for name, (makespan, flowtime) in results.items()]
    text = format_table(
        ["algorithm", "best makespan", "best flowtime"],
        rows,
        title="Extension: cMA vs single-solution metaheuristics and constructive heuristics",
    )
    record_output("extension_metaheuristic_field", text)

    cma_makespan, _ = results["cma"]
    for name, (makespan, _) in results.items():
        assert cma_makespan <= makespan * 1.05, name

    print()
    print(text)
