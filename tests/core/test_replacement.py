"""Tests for the cell replacement policies."""

import pytest

from repro.core.individual import Individual
from repro.core.replacement import (
    AlwaysReplace,
    ReplaceIfBetter,
    ReplaceIfNotWorse,
    get_replacement,
    list_replacements,
)
from repro.model.schedule import Schedule


@pytest.fixture
def pair(tiny_instance, evaluator):
    incumbent = Individual(Schedule.random(tiny_instance, rng=1))
    offspring = Individual(Schedule.random(tiny_instance, rng=2))
    incumbent.evaluate(evaluator)
    offspring.evaluate(evaluator)
    return incumbent, offspring


class TestRegistry:
    def test_names(self):
        assert set(list_replacements()) == {"if_better", "if_not_worse", "always"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_replacement("elitist")


class TestReplaceIfBetter:
    def test_better_offspring_replaces(self, pair):
        incumbent, offspring = pair
        incumbent.fitness, offspring.fitness = 10.0, 5.0
        assert ReplaceIfBetter().accepts(incumbent.fitness, offspring.fitness)

    def test_equal_offspring_does_not_replace(self, pair):
        incumbent, offspring = pair
        incumbent.fitness = offspring.fitness = 7.0
        assert not ReplaceIfBetter().accepts(incumbent.fitness, offspring.fitness)

    def test_worse_offspring_does_not_replace(self, pair):
        incumbent, offspring = pair
        incumbent.fitness, offspring.fitness = 5.0, 10.0
        assert not ReplaceIfBetter().accepts(incumbent.fitness, offspring.fitness)


class TestReplaceIfNotWorse:
    def test_equal_offspring_replaces(self, pair):
        incumbent, offspring = pair
        incumbent.fitness = offspring.fitness = 7.0
        assert ReplaceIfNotWorse().accepts(incumbent.fitness, offspring.fitness)

    def test_worse_offspring_does_not_replace(self, pair):
        incumbent, offspring = pair
        incumbent.fitness, offspring.fitness = 5.0, 10.0
        assert not ReplaceIfNotWorse().accepts(incumbent.fitness, offspring.fitness)


class TestAlwaysReplace:
    def test_always(self, pair):
        incumbent, offspring = pair
        incumbent.fitness, offspring.fitness = 1.0, 100.0
        assert AlwaysReplace().accepts(incumbent.fitness, offspring.fitness)
