"""Tests for the experiment runner (settings, specs, multi-run comparison)."""

import math

import numpy as np
import pytest

from repro.engine.service import EvaluationEngine
from repro.experiments.runner import (
    ALGORITHM_SPECS,
    AlgorithmSpec,
    ExperimentSettings,
    braun_ga_spec,
    cellular_ga_spec,
    cma_spec,
    compare_algorithms,
    default_algorithm_specs,
    dynamic_policy_specs,
    heuristic_spec,
    panmictic_ma_spec,
    repeat_run,
    steady_state_ga_spec,
    struggle_ga_spec,
)
from repro.model.benchmark import generate_braun_like_instance


FAST = ExperimentSettings(
    nb_jobs=24, nb_machines=4, runs=2, max_seconds=math.inf, max_iterations=5, seed=11
)


@pytest.fixture(scope="module")
def instance():
    return generate_braun_like_instance("u_c_hihi.0", rng=1, nb_jobs=24, nb_machines=4)


class TestSettings:
    def test_defaults_validate(self):
        ExperimentSettings()

    def test_termination_reflects_budgets(self):
        settings = ExperimentSettings(max_seconds=2.0, max_evaluations=100)
        criteria = settings.termination()
        assert criteria.max_seconds == 2.0
        assert criteria.max_evaluations == 100

    def test_missing_budget_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSettings(max_seconds=math.inf)

    def test_paper_scale_matches_protocol(self):
        settings = ExperimentSettings.paper_scale()
        assert settings.nb_jobs == 512
        assert settings.nb_machines == 16
        assert settings.runs == 10
        assert settings.max_seconds == 90.0

    def test_scaled_copy(self):
        scaled = ExperimentSettings().scaled(runs=7)
        assert scaled.runs == 7
        assert ExperimentSettings().runs != 7


class TestSpecs:
    def test_default_specs_cover_paper_algorithms(self):
        specs = default_algorithm_specs()
        assert {"cma", "braun_ga", "carretero_xhafa_ga", "struggle_ga", "ljfr_sjfr"} == set(specs)

    @pytest.mark.parametrize(
        "factory",
        [
            cma_spec,
            braun_ga_spec,
            steady_state_ga_spec,
            struggle_ga_spec,
            cellular_ga_spec,
            panmictic_ma_spec,
        ],
    )
    def test_each_spec_builds_and_runs(self, factory, instance):
        spec = factory()
        scheduler = spec.build(instance, FAST.termination(), rng=1)
        result = scheduler.run()
        assert result.makespan > 0
        assert result.algorithm == spec.name

    def test_factories_receive_uniform_keywords(self, instance):
        calls = []

        def factory(instance, **keywords):
            calls.append(keywords)
            return keywords

        termination = FAST.termination()
        AlgorithmSpec("probe", factory).build(instance, termination, rng=7)
        assert set(calls[0]) == {"termination", "rng", "engine"}
        assert calls[0]["termination"] is termination
        assert calls[0]["rng"] == 7
        assert isinstance(calls[0]["engine"], EvaluationEngine)

    def test_heuristic_spec_runs_instantly(self, instance):
        result = heuristic_spec("min_min").build(instance, FAST.termination(), rng=1).run()
        assert result.iterations == 0
        assert result.evaluations == 1
        assert len(result.history) == 1


class TestAlgorithmNames:
    @pytest.mark.parametrize("name", list(ALGORITHM_SPECS))
    def test_every_builder_is_named_by_its_key(self, name):
        assert ALGORITHM_SPECS[name]().name == name


class TestDynamicPolicySpecs:
    """The arena roster, pinned field by field to its hand-built predecessor."""

    def test_default_roster(self):
        budget = {"max_seconds": 0.25, "max_iterations": 50, "max_stagnant_iterations": None}
        roster = dynamic_policy_specs()
        assert list(roster) == ["min_min", "cma", "warm-cma", "warm-cma-rolling"]
        expected = {
            "min_min": ("inherit", "HeuristicBatchPolicy", ("min_min",), {}),
            "cma": ("inherit", "CMABatchPolicy", (None,), budget),
            "warm-cma": ("inherit", "WarmCMAPolicy", (None,), budget),
            "warm-cma-rolling": (10.0, "WarmCMAPolicy", (None,), budget),
        }
        for name, spec in roster.items():
            horizon, func, args, keywords = expected[name]
            assert spec.name == name
            assert spec.commit_horizon == horizon
            assert spec.activation == "inherit"
            assert spec.factory.func.__name__ == func
            assert spec.factory.args == args
            assert spec.factory.keywords == keywords

    def test_budget_and_horizon_reach_every_metaheuristic(self):
        roster = dynamic_policy_specs(
            horizon=4.0, max_seconds=0.1, max_iterations=None, max_stagnant_iterations=7
        )
        budget = {"max_seconds": 0.1, "max_iterations": None, "max_stagnant_iterations": 7}
        assert roster["min_min"].factory.keywords == {}
        for name in ("cma", "warm-cma", "warm-cma-rolling"):
            assert roster[name].factory.keywords == budget
        assert roster["warm-cma"].commit_horizon == "inherit"
        assert roster["warm-cma-rolling"].commit_horizon == 4.0


class TestRepeatRun:
    def test_number_of_repetitions(self, instance):
        results = repeat_run(cma_spec(), instance, FAST)
        assert len(results) == FAST.runs

    def test_runs_are_reproducible(self, instance):
        first = [r.makespan for r in repeat_run(cma_spec(), instance, FAST)]
        second = [r.makespan for r in repeat_run(cma_spec(), instance, FAST)]
        assert first == second

    def test_runs_are_independent(self, instance):
        results = repeat_run(cma_spec(), instance, FAST.scaled(runs=3))
        # Different seeds start from different populations and walk different
        # trajectories.  (Final makespans may coincide: on toy instances the
        # whole-grid batch local search drives every run into the same
        # optimum, so the start of the convergence history is the robust
        # independence probe.)
        starts = {round(r.history.fitnesses()[0], 6) for r in results}
        assert len(starts) >= 2


class TestCompareAlgorithms:
    def test_all_cells_present(self, instance):
        specs = [heuristic_spec("ljfr_sjfr"), heuristic_spec("min_min")]
        cells = compare_algorithms(specs, {"i1": instance}, FAST)
        assert set(cells) == {("i1", "ljfr_sjfr"), ("i1", "min_min")}

    def test_cell_statistics(self, instance):
        cells = compare_algorithms([cma_spec()], {"i1": instance}, FAST)
        cell = cells[("i1", "cma")]
        assert cell.makespan.count == FAST.runs
        assert cell.best_makespan == cell.makespan.best
        assert cell.best_flowtime == cell.flowtime.best
        assert len(cell.results) == FAST.runs

    def test_results_stable_when_adding_algorithms(self, instance):
        alone = compare_algorithms([cma_spec()], {"i1": instance}, FAST)
        together = compare_algorithms(
            [cma_spec(), heuristic_spec("min_min")], {"i1": instance}, FAST
        )
        assert alone[("i1", "cma")].makespan.best == pytest.approx(
            together[("i1", "cma")].makespan.best
        )

    def test_cma_beats_heuristic_seed(self, instance):
        cells = compare_algorithms(
            [cma_spec(), heuristic_spec("ljfr_sjfr")],
            {"i1": instance},
            FAST.scaled(max_iterations=15),
        )
        assert (
            cells[("i1", "cma")].best_makespan
            <= cells[("i1", "ljfr_sjfr")].best_makespan
        )
