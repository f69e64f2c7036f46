"""Experiment harness: the paper's tuning figures and comparison tables.

* :mod:`repro.experiments.reference` — the values printed in the paper.
* :mod:`repro.experiments.runner` — multi-run execution and algorithm specs.
* :mod:`repro.experiments.tuning` — Figures 2-5 (operator tuning sweeps).
* :mod:`repro.experiments.tables` — Tables 2-5 plus the robustness study.
"""

from repro.experiments import reference
from repro.experiments.runner import (
    AlgorithmSpec,
    ComparisonCell,
    ExperimentSettings,
    braun_ga_spec,
    cellular_ga_spec,
    cma_spec,
    compare_algorithms,
    default_algorithm_specs,
    heuristic_spec,
    panmictic_ma_spec,
    repeat_run,
    steady_state_ga_spec,
    struggle_ga_spec,
)
from repro.experiments.tables import (
    TableResult,
    benchmark_instances,
    flowtime_comparison_table,
    flowtime_table,
    makespan_comparison_table,
    makespan_table,
    robustness_table,
    table1_configuration,
)
from repro.experiments.tuning import (
    ALL_SWEEPS,
    SweepResult,
    TuningSettings,
    local_search_sweep,
    neighborhood_sweep,
    run_variant_sweep,
    sweep_order_sweep,
    tournament_sweep,
)
from repro.utils.tables import (
    format_mapping,
    format_number,
    format_series,
    format_table,
)

__all__ = [
    "reference",
    "format_mapping",
    "format_number",
    "format_series",
    "format_table",
    "AlgorithmSpec",
    "ComparisonCell",
    "ExperimentSettings",
    "braun_ga_spec",
    "cellular_ga_spec",
    "cma_spec",
    "compare_algorithms",
    "default_algorithm_specs",
    "heuristic_spec",
    "panmictic_ma_spec",
    "repeat_run",
    "steady_state_ga_spec",
    "struggle_ga_spec",
    "TableResult",
    "benchmark_instances",
    "flowtime_comparison_table",
    "flowtime_table",
    "makespan_comparison_table",
    "makespan_table",
    "robustness_table",
    "table1_configuration",
    "ALL_SWEEPS",
    "SweepResult",
    "TuningSettings",
    "local_search_sweep",
    "neighborhood_sweep",
    "run_variant_sweep",
    "sweep_order_sweep",
    "tournament_sweep",
]
