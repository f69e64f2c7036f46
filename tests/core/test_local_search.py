"""Tests for the local-search methods (LM, SLM, LMCTS and extensions)."""

import numpy as np
import pytest

from repro.core.local_search import (
    LocalMCTMoveSearch,
    LocalMCTSwapSearch,
    LocalMoveSearch,
    NullLocalSearch,
    SteepestLocalMoveSearch,
    VariableNeighborhoodSearch,
    get_local_search,
    list_local_searches,
)
from repro.model.fitness import FitnessEvaluator
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule

ALL_METHODS = ["lm", "slm", "lmcts", "lmctm", "gsm", "vns"]


class TestRegistry:
    def test_names(self):
        assert set(list_local_searches()) == {
            "none",
            "lm",
            "slm",
            "lmcts",
            "lmctm",
            "gsm",
            "vns",
        }

    def test_iterations_forwarded(self):
        assert get_local_search("lmcts", iterations=9).iterations == 9

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_local_search("tabu")

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            LocalMoveSearch(iterations=-1)


@pytest.mark.parametrize("name", ALL_METHODS)
class TestNeverDegrades:
    """Core memetic invariant: a local-search step never worsens the fitness."""

    def test_fitness_monotone_non_increasing(self, name, small_instance, evaluator):
        schedule = Schedule.random(small_instance, rng=1)
        search = get_local_search(name, iterations=1)
        rng = np.random.default_rng(2)
        previous = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        for _ in range(15):
            search.improve(schedule, evaluator, rng)
            current = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
            assert current <= previous + 1e-9
            previous = current
        schedule.validate()

    def test_improve_reports_progress_truthfully(self, name, small_instance, evaluator):
        schedule = Schedule.random(small_instance, rng=3)
        search = get_local_search(name, iterations=5)
        before = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        improved = search.improve(schedule, evaluator, rng=4)
        after = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        if improved:
            assert after < before
        else:
            assert after == pytest.approx(before)

    def test_single_machine_instance_safe(self, name, evaluator):
        instance = SchedulingInstance(etc=np.arange(1.0, 7.0).reshape(6, 1))
        schedule = Schedule(instance)
        search = get_local_search(name, iterations=3)
        search.improve(schedule, evaluator, rng=0)
        schedule.validate()


class TestNullLocalSearch:
    def test_never_changes_anything(self, small_instance, evaluator):
        schedule = Schedule.random(small_instance, rng=5)
        before = np.array(schedule.assignment)
        assert NullLocalSearch(iterations=10).improve(schedule, evaluator, rng=1) is False
        assert np.array_equal(before, schedule.assignment)


class TestSteepestLocalMove:
    def test_reduces_makespan_on_unbalanced_schedule(self, small_instance, evaluator):
        schedule = Schedule(small_instance)  # every job on machine 0
        improved = SteepestLocalMoveSearch(iterations=10).improve(schedule, evaluator, rng=1)
        assert improved
        assert schedule.makespan < Schedule(small_instance).makespan

    def test_moves_to_best_destination(self, evaluator):
        # Machine 0 heavily loaded; job 0 is cheapest on machine 2.
        etc = np.array(
            [
                [10.0, 9.0, 1.0],
                [10.0, 50.0, 50.0],
                [10.0, 50.0, 50.0],
            ]
        )
        schedule = Schedule(SchedulingInstance(etc=etc), [0, 0, 0])
        rng = np.random.default_rng(0)
        search = SteepestLocalMoveSearch(iterations=1)
        # Run several single steps; whenever job 0 is picked it must go to machine 2.
        for _ in range(20):
            search.improve(schedule, evaluator, rng)
        assert schedule.assignment[0] == 2


class TestLMCTS:
    def test_swaps_reduce_makespan_machine_load(self, evaluator):
        # Machine 0 holds a huge job that machine 1 executes cheaply and vice versa.
        etc = np.array(
            [
                [100.0, 5.0],
                [5.0, 100.0],
                [10.0, 10.0],
            ]
        )
        schedule = Schedule(SchedulingInstance(etc=etc), [0, 1, 0])
        before = schedule.makespan
        improved = LocalMCTSwapSearch(iterations=1).improve(schedule, evaluator, rng=0)
        assert improved
        assert schedule.makespan < before
        # The beneficial swap exchanges jobs 0 and 1.
        assert schedule.assignment[0] == 1 and schedule.assignment[1] == 0

    def test_preserves_job_counts(self, small_instance, evaluator):
        schedule = Schedule.random(small_instance, rng=6)
        counts = schedule.machine_job_counts()
        LocalMCTSwapSearch(iterations=4).improve(schedule, evaluator, rng=1)
        assert np.array_equal(counts, schedule.machine_job_counts())

    def test_converges_on_tiny_instance(self, tiny_instance, evaluator):
        schedule = Schedule.random(tiny_instance, rng=7)
        search = LocalMCTSwapSearch(iterations=1)
        rng = np.random.default_rng(1)
        # Iterate until no improvement twice in a row; must terminate quickly.
        stall = 0
        for _ in range(200):
            if not search.improve(schedule, evaluator, rng):
                stall += 1
                if stall >= 2:
                    break
            else:
                stall = 0
        assert stall >= 2


class TestLMCTM:
    def test_moves_off_the_makespan_machine(self, small_instance, evaluator):
        schedule = Schedule(small_instance)  # all on machine 0
        improved = LocalMCTMoveSearch(iterations=5).improve(schedule, evaluator, rng=1)
        assert improved
        assert schedule.machine_jobs(0).size < small_instance.nb_jobs


class TestVNS:
    def test_combines_stages(self, small_instance, evaluator):
        schedule = Schedule.random(small_instance, rng=8)
        before = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        VariableNeighborhoodSearch(iterations=6).improve(schedule, evaluator, rng=2)
        after = evaluator.scalarize(schedule.makespan, schedule.mean_flowtime)
        assert after <= before


class TestRelativeStrength:
    def test_lmcts_beats_lm_from_same_start(self, small_instance):
        """The qualitative result of Figure 2: LMCTS > LM for the same effort."""
        evaluator = FitnessEvaluator()
        start = Schedule.random(small_instance, rng=9)
        results = {}
        for name in ("lm", "lmcts"):
            schedule = start.copy()
            get_local_search(name, iterations=40).improve(schedule, evaluator, rng=3)
            results[name] = schedule.makespan
        assert results["lmcts"] <= results["lm"]
