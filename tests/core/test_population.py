"""Tests for the resident cellular grid and its initializer."""

import numpy as np
import pytest

from repro.core.individual import Individual
from repro.core.neighborhood import C9Neighborhood, L5Neighborhood
from repro.core.population import PopulationInitializer, ResidentGrid
from repro.engine.batch import BatchEvaluator
from repro.heuristics import build_schedule
from repro.model.schedule import Schedule


def make_grid(instance, evaluator, height=3, width=3, seed=0):
    schedules = [Schedule.random(instance, rng=seed + i) for i in range(height * width)]
    return ResidentGrid(height, width, BatchEvaluator.from_schedules(schedules), evaluator)


class TestResidentGrid:
    def test_size_and_indexing(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.size == len(grid) == 9
        assert isinstance(grid[0], Individual)

    def test_out_of_range_position_rejected(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        with pytest.raises(IndexError):
            grid[9]

    def test_coordinate_conversions(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator, height=3, width=4)
        assert grid.position_of(1, 2) == 6
        assert grid.coordinates_of(6) == (1, 2)
        assert grid.position_of(4, 5) == grid.position_of(1, 1)  # toroidal wrap

    def test_best_and_worst(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        fitnesses = grid.fitness_values()
        assert grid.best().fitness == fitnesses.min()
        assert grid.worst().fitness == fitnesses.max()
        assert grid[grid.best_position()].fitness == fitnesses.min()

    def test_neighborhood_contains_centre(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert len(grid.neighborhood(4, L5Neighborhood())) == 5
        neighbors = grid.neighborhood(4, C9Neighborhood())
        assert any(
            np.array_equal(n.schedule.assignment, grid[4].schedule.assignment)
            for n in neighbors
        )


class TestDiversityMetrics:
    def test_identical_population_has_zero_diversity(self, tiny_instance, evaluator):
        base = Schedule.random(tiny_instance, rng=1)
        grid = ResidentGrid(2, 2, BatchEvaluator.from_schedules([base] * 4), evaluator)
        assert grid.genotypic_diversity() == pytest.approx(0.0)
        assert grid.entropy() == pytest.approx(0.0)

    def test_random_population_has_positive_diversity(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.genotypic_diversity() > 0.3
        assert grid.entropy() > 0.0

    def test_diversity_bounded_by_one(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator)
        assert grid.genotypic_diversity() <= 1.0

    def test_single_cell_grid(self, tiny_instance, evaluator):
        grid = make_grid(tiny_instance, evaluator, height=1, width=1)
        assert grid.genotypic_diversity() == 0.0


def build(instance, height, width, evaluator, rng, **initializer):
    return PopulationInitializer(**initializer).build_resident(
        instance, height, width, evaluator, scratch_rows=2, rng=rng
    )


class TestPopulationInitializer:
    def test_grid_dimensions(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 4, 3, evaluator, rng=1)
        assert grid.height == 4 and grid.width == 3
        assert grid.size == 12
        assert grid.scratch_rows == 2

    def test_every_individual_evaluated(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 3, 3, evaluator, rng=1)
        assert all(ind.is_evaluated for ind in grid)
        assert evaluator.evaluations == 9

    def test_first_individual_is_the_seed_heuristic(self, tiny_instance, evaluator):
        grid = build(tiny_instance, 3, 3, evaluator, rng=1, seeding_heuristic="min_min")
        expected = build_schedule("min_min", tiny_instance)
        assert np.array_equal(grid[0].schedule.assignment, expected.assignment)

    def test_rest_are_perturbations_of_the_seed(self, small_instance, evaluator):
        grid = build(small_instance, 3, 3, evaluator, rng=2, perturbation_rate=0.3)
        seed_assignment = grid[0].schedule.assignment
        for position in range(1, grid.size):
            distance = np.count_nonzero(
                grid[position].schedule.assignment != seed_assignment
            )
            assert 0 < distance <= int(0.3 * small_instance.nb_jobs) + 1

    def test_perturbation_rate_validated(self):
        with pytest.raises(ValueError):
            PopulationInitializer(perturbation_rate=1.5)

    def test_population_is_diverse(self, small_instance, evaluator):
        grid = build(small_instance, 5, 5, evaluator, rng=4)
        assert grid.genotypic_diversity() > 0.1

    def test_deterministic_for_seed(self, tiny_instance, evaluator):
        a = build(tiny_instance, 3, 3, evaluator, rng=5)
        b = build(tiny_instance, 3, 3, evaluator, rng=5)
        for i in range(9):
            assert np.array_equal(a[i].schedule.assignment, b[i].schedule.assignment)
