"""Ablation — the memetic component (local search) of the cMA.

DESIGN.md calls out the local search as one of the two design choices the
paper's scheduler is built on.  This benchmark runs the full cMA and the
cellular GA obtained by switching the local search off, under the same
wall-clock budget, and asserts that the memetic variant wins — the
justification for Section 3.2's "local search methods" machinery.
"""

from repro.experiments.runner import cellular_ga_spec, cma_spec, repeat_run
from repro.model.benchmark import generate_braun_like_instance
from repro.utils.tables import format_table

from .conftest import run_once


def _run_ablation(settings):
    instance = generate_braun_like_instance(
        "u_c_hihi.0", rng=settings.seed, nb_jobs=settings.nb_jobs, nb_machines=settings.nb_machines
    )
    rows = []
    results = {}
    for spec in (cma_spec(), cellular_ga_spec()):
        runs = repeat_run(spec, instance, settings)
        best = min(r.makespan for r in runs)
        flow = min(r.flowtime for r in runs)
        results[spec.name] = (best, flow)
        rows.append([spec.name, best, flow])
    text = format_table(
        ["algorithm", "best makespan", "best flowtime"],
        rows,
        title="Ablation: cMA vs cellular GA (no local search)",
    )
    return results, text


def test_ablation_memetic_component(benchmark, table_settings, record_output):
    results, text = run_once(benchmark, _run_ablation, table_settings)
    record_output("ablation_memetic_component", text)

    cma_makespan, cma_flowtime = results["cma"]
    cga_makespan, cga_flowtime = results["cellular_ga"]
    assert cma_makespan <= cga_makespan * 1.02
    assert cma_flowtime <= cga_flowtime * 1.05

    print()
    print(text)
