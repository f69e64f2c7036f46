"""Tests for the cMA configuration object (Table 1)."""

import pytest

from repro.core.config import ActivationPolicy, CMAConfig
from repro.core.termination import TerminationCriteria


class TestPaperDefaults:
    """The tuned values of Table 1."""

    def test_population_is_5_by_5(self):
        config = CMAConfig.paper_defaults()
        assert config.population_height == 5
        assert config.population_width == 5
        assert config.population_size == 25

    def test_update_stream_sizes(self):
        config = CMAConfig.paper_defaults()
        assert config.nb_recombinations == 25
        assert config.nb_mutations == 12
        assert config.nb_solutions_to_recombine == 3

    def test_operator_choices(self):
        config = CMAConfig.paper_defaults()
        assert config.seeding_heuristic == "ljfr_sjfr"
        assert config.neighborhood == "c9"
        assert config.recombination_order == "fls"
        assert config.mutation_order == "nrs"
        assert config.selection == "n_tournament"
        assert config.tournament_size == 3
        assert config.crossover == "one_point"
        assert config.mutation == "rebalance"
        assert config.local_search == "lmcts"
        assert config.local_search_iterations == 5
        assert config.replacement == "if_better"
        assert config.fitness_weight == 0.75

    def test_default_budget_is_90_seconds(self):
        assert CMAConfig.paper_defaults().termination.max_seconds == 90.0

    def test_describe_matches_table1_labels(self):
        description = CMAConfig.paper_defaults().describe()
        assert description["population height"] == 5
        assert description["recombine selection"] == "3-tournament"
        assert description["local search choice"] == "lmcts"
        assert description["add only if better"] is True
        assert description["lambda"] == 0.75


class TestValidation:
    def test_case_insensitive_choices(self):
        config = CMAConfig(neighborhood="C9", local_search="LMCTS")
        assert config.neighborhood == "c9"
        assert config.local_search == "lmcts"

    def test_unknown_neighborhood_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(neighborhood="l7")

    def test_unknown_local_search_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(local_search="tabu")

    def test_unknown_seeding_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(seeding_heuristic="magic")

    def test_zero_updates_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(nb_recombinations=0, nb_mutations=0)

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(fitness_weight=2.0)

    def test_termination_type_checked(self):
        with pytest.raises(TypeError):
            CMAConfig(termination="90 seconds")

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            CMAConfig(population_height=0)


class TestEvolve:
    def test_evolve_replaces_fields(self):
        config = CMAConfig.paper_defaults()
        variant = config.evolve(neighborhood="l5", tournament_size=7)
        assert variant.neighborhood == "l5"
        assert variant.tournament_size == 7
        # The original is untouched (frozen dataclass semantics).
        assert config.neighborhood == "c9"

    def test_evolve_validates(self):
        with pytest.raises(ValueError):
            CMAConfig.paper_defaults().evolve(neighborhood="bogus")

    def test_fast_defaults_share_operators(self):
        fast = CMAConfig.fast_defaults()
        paper = CMAConfig.paper_defaults()
        assert fast.local_search == paper.local_search
        assert fast.neighborhood == paper.neighborhood
        assert fast.population_size < paper.population_size

    def test_custom_termination_is_kept(self):
        criteria = TerminationCriteria.by_evaluations(500)
        assert CMAConfig.paper_defaults(criteria).termination is criteria


class TestActivationGap:
    """One wake-gap rule for the simulator and the live core."""

    @pytest.mark.parametrize(
        "backlog, changed, min_interval, max_interval, expected",
        [
            # Below the threshold, no membership change: the fallback gap.
            (3, False, None, None, 10.0),
            (3, False, 0.5, None, 10.0),
            (3, False, None, 4.0, 4.0),
            (3, False, 0.5, 4.0, 4.0),
            # Backlog at the threshold triggers: the guard gap.
            (4, False, None, None, 0.0),
            (4, False, 0.5, None, 0.5),
            (4, False, None, 4.0, 0.0),
            (9, False, 0.5, 4.0, 0.5),
            # A membership change under pending work triggers too.
            (1, True, None, None, 0.0),
            (1, True, 0.5, 4.0, 0.5),
            (4, True, 0.5, 4.0, 0.5),
        ],
    )
    def test_adaptive_table(self, backlog, changed, min_interval, max_interval, expected):
        policy = ActivationPolicy.adaptive(
            4, min_interval=min_interval, max_interval=max_interval
        )
        assert policy.gap(backlog, 10.0, membership_changed=changed) == expected

    def test_membership_change_ignored_when_not_a_trigger(self):
        policy = ActivationPolicy.adaptive(
            4, min_interval=0.5, max_interval=4.0, on_machine_change=False
        )
        assert policy.gap(1, 10.0, membership_changed=True) == 4.0
        assert policy.gap(4, 10.0, membership_changed=True) == 0.5

    @pytest.mark.parametrize("backlog, changed", [(0, False), (100, True)])
    def test_periodic_always_waits_the_interval(self, backlog, changed):
        policy = ActivationPolicy.periodic()
        assert policy.gap(backlog, 2.5, membership_changed=changed) == 2.5
