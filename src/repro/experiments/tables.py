"""The comparison experiments of Section 5 (Tables 2-5).

Every function reproduces one table of the paper: it runs the relevant
algorithms on the benchmark suite (regenerated at a configurable scale),
extracts the statistic the paper reports (the *best* value over the
repetitions), and lays the measured values next to the paper-reported ones
so the shape of the comparison can be checked.

Delta columns follow the paper's convention: the percentage difference of
the cMA value with respect to the comparison algorithm, positive when the
cMA is better (smaller).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.config import CMAConfig
from repro.experiments import reference
from repro.experiments.runner import (
    AlgorithmSpec,
    ComparisonCell,
    ExperimentSettings,
    braun_ga_spec,
    cma_spec,
    compare_algorithms,
    heuristic_spec,
    steady_state_ga_spec,
    struggle_ga_spec,
)
from repro.model.benchmark import BRAUN_INSTANCE_NAMES, braun_suite
from repro.model.instance import SchedulingInstance
from repro.utils.tables import format_mapping, format_table

__all__ = [
    "TableResult",
    "benchmark_instances",
    "table1_configuration",
    "makespan_table",
    "makespan_comparison_table",
    "flowtime_table",
    "flowtime_comparison_table",
    "robustness_table",
]


@dataclass
class TableResult:
    """A reproduced table: headers, rows and the raw per-cell results."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    cells: dict[tuple[str, str], ComparisonCell] = field(default_factory=dict, repr=False)

    def render(self, *, precision: int = 3) -> str:
        """Monospaced text rendering of the table."""
        return format_table(self.headers, self.rows, title=self.name, precision=precision)

    def row_for(self, instance_name: str) -> list[object]:
        """The row of a given benchmark instance.

        Raises
        ------
        KeyError
            If the instance does not appear in the table.
        """
        for row in self.rows:
            if row and row[0] == instance_name:
                return row
        raise KeyError(f"instance {instance_name!r} not in table {self.name!r}")

    def column(self, header: str) -> list[object]:
        """All values of one column, by header name."""
        try:
            index = self.headers.index(header)
        except ValueError:
            raise KeyError(f"column {header!r} not in table {self.name!r}") from None
        return [row[index] for row in self.rows]


def benchmark_instances(
    settings: ExperimentSettings,
    names: Sequence[str] = BRAUN_INSTANCE_NAMES,
) -> Mapping[str, SchedulingInstance]:
    """The (re-generated) benchmark instances at the scale of *settings*."""
    return braun_suite(
        settings.seed, nb_jobs=settings.nb_jobs, nb_machines=settings.nb_machines, names=tuple(names)
    )


def _delta_percent(reference_value: float, cma_value: float) -> float:
    """Paper-style Δ%: positive when the cMA value is smaller (better)."""
    if reference_value == 0:
        return 0.0
    return 100.0 * (reference_value - cma_value) / abs(reference_value)


def table1_configuration(config: CMAConfig | None = None) -> str:
    """Table 1: the tuned parameter configuration, rendered as text."""
    cfg = config if config is not None else CMAConfig.paper_defaults()
    return format_mapping(cfg.describe(), title="Table 1: values of the parameters")


# --------------------------------------------------------------------------- #
# Table 2 — makespan: Braun et al. GA vs cMA
# --------------------------------------------------------------------------- #
def makespan_table(
    settings: ExperimentSettings,
    instances: Mapping[str, SchedulingInstance] | None = None,
    *,
    ga_spec: AlgorithmSpec | None = None,
    cma: AlgorithmSpec | None = None,
) -> TableResult:
    """Reproduce Table 2 (best makespan of Braun et al.'s GA vs. the cMA)."""
    instances = instances if instances is not None else benchmark_instances(settings)
    ga = ga_spec if ga_spec is not None else braun_ga_spec()
    cma_algorithm = cma if cma is not None else cma_spec()
    cells = compare_algorithms([ga, cma_algorithm], instances, settings)

    headers = [
        "Instance",
        "Braun GA (paper)",
        "cMA (paper)",
        "d% (paper)",
        "Braun GA (measured)",
        "cMA (measured)",
        "d% (measured)",
    ]
    rows: list[list[object]] = []
    for name in instances:
        paper = reference.TABLE2_MAKESPAN.get(name)
        ga_cell = cells[(name, ga.name)]
        cma_cell = cells[(name, cma_algorithm.name)]
        measured_delta = _delta_percent(ga_cell.best_makespan, cma_cell.best_makespan)
        rows.append(
            [
                name,
                paper.braun_ga if paper else float("nan"),
                paper.cma if paper else float("nan"),
                _delta_percent(paper.braun_ga, paper.cma) if paper else float("nan"),
                ga_cell.best_makespan,
                cma_cell.best_makespan,
                measured_delta,
            ]
        )
    return TableResult("Table 2: makespan, Braun et al. GA vs cMA", headers, rows, cells)


# --------------------------------------------------------------------------- #
# Table 3 — makespan: Carretero & Xhafa GA and Struggle GA vs cMA
# --------------------------------------------------------------------------- #
def makespan_comparison_table(
    settings: ExperimentSettings,
    instances: Mapping[str, SchedulingInstance] | None = None,
) -> TableResult:
    """Reproduce Table 3 (makespan of the two other GAs vs. the cMA)."""
    instances = instances if instances is not None else benchmark_instances(settings)
    ssga = steady_state_ga_spec()
    struggle = struggle_ga_spec()
    cma_algorithm = cma_spec()
    cells = compare_algorithms([ssga, struggle, cma_algorithm], instances, settings)

    headers = [
        "Instance",
        "C&X GA (paper)",
        "Struggle GA (paper)",
        "cMA (paper)",
        "C&X GA (measured)",
        "Struggle GA (measured)",
        "cMA (measured)",
    ]
    rows: list[list[object]] = []
    for name in instances:
        paper = reference.TABLE3_MAKESPAN.get(name)
        rows.append(
            [
                name,
                paper.carretero_xhafa_ga if paper else float("nan"),
                paper.struggle_ga if paper else float("nan"),
                paper.cma if paper else float("nan"),
                cells[(name, ssga.name)].best_makespan,
                cells[(name, struggle.name)].best_makespan,
                cells[(name, cma_algorithm.name)].best_makespan,
            ]
        )
    return TableResult(
        "Table 3: makespan, Carretero&Xhafa GA / Struggle GA vs cMA", headers, rows, cells
    )


# --------------------------------------------------------------------------- #
# Table 4 — flowtime: LJFR-SJFR vs cMA
# --------------------------------------------------------------------------- #
def flowtime_table(
    settings: ExperimentSettings,
    instances: Mapping[str, SchedulingInstance] | None = None,
) -> TableResult:
    """Reproduce Table 4 (flowtime of the LJFR-SJFR seed vs. the cMA)."""
    instances = instances if instances is not None else benchmark_instances(settings)
    ljfr = heuristic_spec("ljfr_sjfr")
    cma_algorithm = cma_spec()
    cells = compare_algorithms([ljfr, cma_algorithm], instances, settings)

    headers = [
        "Instance",
        "LJFR-SJFR (paper)",
        "cMA (paper)",
        "d% (paper)",
        "LJFR-SJFR (measured)",
        "cMA (measured)",
        "d% (measured)",
    ]
    rows: list[list[object]] = []
    for name in instances:
        paper = reference.TABLE4_FLOWTIME.get(name)
        ljfr_cell = cells[(name, ljfr.name)]
        cma_cell = cells[(name, cma_algorithm.name)]
        rows.append(
            [
                name,
                paper.ljfr_sjfr if paper else float("nan"),
                paper.cma if paper else float("nan"),
                paper.improvement_over_ljfr_percent if paper else float("nan"),
                ljfr_cell.best_flowtime,
                cma_cell.best_flowtime,
                _delta_percent(ljfr_cell.best_flowtime, cma_cell.best_flowtime),
            ]
        )
    return TableResult("Table 4: flowtime, LJFR-SJFR vs cMA", headers, rows, cells)


# --------------------------------------------------------------------------- #
# Table 5 — flowtime: Struggle GA vs cMA
# --------------------------------------------------------------------------- #
def flowtime_comparison_table(
    settings: ExperimentSettings,
    instances: Mapping[str, SchedulingInstance] | None = None,
) -> TableResult:
    """Reproduce Table 5 (flowtime of the Struggle GA vs. the cMA)."""
    instances = instances if instances is not None else benchmark_instances(settings)
    struggle = struggle_ga_spec()
    cma_algorithm = cma_spec()
    cells = compare_algorithms([struggle, cma_algorithm], instances, settings)

    headers = [
        "Instance",
        "Struggle GA (paper)",
        "cMA (paper)",
        "d% (paper)",
        "Struggle GA (measured)",
        "cMA (measured)",
        "d% (measured)",
    ]
    rows: list[list[object]] = []
    for name in instances:
        paper = reference.TABLE5_FLOWTIME.get(name)
        struggle_cell = cells[(name, struggle.name)]
        cma_cell = cells[(name, cma_algorithm.name)]
        rows.append(
            [
                name,
                paper.struggle_ga if paper else float("nan"),
                paper.cma if paper else float("nan"),
                _delta_percent(paper.struggle_ga, paper.cma) if paper else float("nan"),
                struggle_cell.best_flowtime,
                cma_cell.best_flowtime,
                _delta_percent(struggle_cell.best_flowtime, cma_cell.best_flowtime),
            ]
        )
    return TableResult("Table 5: flowtime, Struggle GA vs cMA", headers, rows, cells)


# --------------------------------------------------------------------------- #
# Section 5.1 — robustness of the cMA
# --------------------------------------------------------------------------- #
def robustness_table(
    settings: ExperimentSettings,
    instances: Mapping[str, SchedulingInstance] | None = None,
) -> TableResult:
    """The robustness observation of Section 5.1: makespan spread across runs.

    The paper reports that the standard deviation of the best makespan over
    the 10 runs is roughly 1 % of the mean; the table reports the coefficient
    of variation per instance for the measured runs.
    """
    instances = instances if instances is not None else benchmark_instances(settings)
    cma_algorithm = cma_spec()
    cells = compare_algorithms([cma_algorithm], instances, settings)

    headers = ["Instance", "best", "mean", "std", "cv (%)"]
    rows: list[list[object]] = []
    for name in instances:
        stats = cells[(name, cma_algorithm.name)].makespan
        rows.append(
            [name, stats.best, stats.mean, stats.std, 100.0 * stats.coefficient_of_variation]
        )
    return TableResult(
        "Section 5.1: robustness of the cMA (makespan spread across runs)",
        headers,
        rows,
        cells,
    )
