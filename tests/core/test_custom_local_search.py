"""The local-search extension hook: a custom search that defines only ``step``.

``examples/custom_operators.py`` registers ``TwoMachineSwapSearch``, which
implements one improvement attempt on one schedule and nothing else.  The
base class must carry it through every entry point the built-ins serve:
``improve`` on a detached schedule, ``improve_batch`` on resident rows, and
the cMA under both cell-update disciplines.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import local_search
from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.local_search import LocalSearch
from repro.core.termination import TerminationCriteria
from repro.engine import BatchEvaluator
from repro.heuristics import base as heuristics_base
from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_operators.py"


@pytest.fixture(scope="module")
def example():
    """The example module, its registrations undone after this module's tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(local_search, "_REGISTRY", dict(local_search._REGISTRY))
        patch.setattr(heuristics_base, "_REGISTRY", dict(heuristics_base._REGISTRY))
        spec = importlib.util.spec_from_file_location("custom_operators", EXAMPLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


def fitness_of(schedule: Schedule, evaluator: FitnessEvaluator) -> float:
    return evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)


class TestStepOnlySearch:
    def test_defines_only_the_hook(self, example):
        assert "step" in vars(example.TwoMachineSwapSearch)
        assert "step_batch" not in vars(example.TwoMachineSwapSearch)

    def test_improve_matches_direct_steps(self, example, small_instance):
        evaluator = FitnessEvaluator(0.75)
        search = example.TwoMachineSwapSearch(iterations=6)
        schedule = Schedule.random(small_instance, rng=1)
        twin = schedule.copy()
        before = fitness_of(schedule, evaluator)

        improved = search.improve(schedule, evaluator, np.random.default_rng(2))
        twin_rng = np.random.default_rng(2)
        twin_improved = False
        for _ in range(search.iterations):
            twin_improved |= search.step(twin, evaluator, twin_rng)

        assert improved is twin_improved
        np.testing.assert_array_equal(schedule.assignment, twin.assignment)
        schedule.validate()
        assert fitness_of(schedule, evaluator) <= before

    def test_improve_batch_walks_rows_through_step(self, example, small_instance):
        evaluator = FitnessEvaluator(0.75)
        search = example.TwoMachineSwapSearch(iterations=4)
        batch = BatchEvaluator.random(small_instance, 5, rng=3)
        before = evaluator.scalarize_batch(batch.makespans(), batch.mean_flowtimes())
        original = batch.assignments[:].copy()

        improved = search.improve_batch(batch, np.arange(5), evaluator, rng=4)

        batch.validate()
        after = evaluator.scalarize_batch(batch.makespans(), batch.mean_flowtimes())
        assert np.all(after[improved] < before[improved])
        np.testing.assert_array_equal(batch.assignments[~improved], original[~improved])

    @pytest.mark.parametrize("cell_updates", ["batch", "sequential"])
    def test_runs_inside_the_cma(self, example, small_instance, cell_updates):
        config = CMAConfig.fast_defaults(TerminationCriteria.by_iterations(2)).evolve(
            local_search="two_machine_swap", cell_updates=cell_updates
        )
        result = CellularMemeticAlgorithm(small_instance, config, rng=5).run()
        assert result.iterations == 2
        result.best_schedule.validate()
        fitnesses = result.history.fitnesses()
        assert fitnesses[-1] <= fitnesses[0]


class TestSubclassContract:
    def test_overriding_neither_step_raises_at_definition(self):
        with pytest.raises(TypeError, match="step or step_batch"):

            class Incomplete(LocalSearch):
                name = "_incomplete"

    def test_overriding_either_step_is_enough(self):
        class StepOnly(LocalSearch):
            def step(self, schedule, evaluator, rng):
                return False

        class BatchOnly(LocalSearch):
            def step_batch(self, batch, rows, evaluator, rng):
                return np.zeros(rows.shape[0], dtype=bool)

        assert StepOnly(1).iterations == BatchOnly(1).iterations == 1

    def test_built_ins_define_only_step_batch(self):
        for name in ("none", "lm", "slm", "lmcts", "lmctm", "gsm", "vns"):
            cls = type(local_search.get_local_search(name))
            assert "step" not in vars(cls), name
            assert "step_batch" in vars(cls), name
