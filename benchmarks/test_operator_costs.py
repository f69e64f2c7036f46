"""Micro-benchmarks of the scheduler's hot paths.

These are conventional pytest-benchmark measurements (many rounds, statistical
timing) of the operations the cMA executes thousands of times per second:
schedule evaluation, incremental moves, the LMCTS scan and one full cMA
iteration on a benchmark-sized instance, plus one build of each batch-mode
heuristic (Min-Min is the live service's degraded path).  They are not part of the paper's
evaluation, but they are what makes the 90-second (here sub-second) budgets
meaningful, and they guard against performance regressions in the vectorized
evaluation code.
"""

import numpy as np
import pytest

from repro.core.cma import CellularMemeticAlgorithm
from repro.core.config import CMAConfig
from repro.core.local_search import LocalMCTSwapSearch
from repro.core.termination import TerminationCriteria
from repro.engine import BatchEvaluator
from repro.heuristics import build_schedule
from repro.model.benchmark import generate_braun_like_instance
from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule


@pytest.fixture(scope="module")
def instance():
    """A full benchmark-sized instance (512 jobs × 16 machines)."""
    return generate_braun_like_instance("u_c_hihi.0", rng=1)


@pytest.fixture(scope="module")
def schedule(instance):
    return Schedule.random(instance, rng=2)


def test_full_schedule_evaluation(benchmark, instance):
    assignment = np.random.default_rng(3).integers(0, instance.nb_machines, instance.nb_jobs)
    result = benchmark(lambda: Schedule(instance, assignment).makespan)
    assert result > 0


def test_incremental_move(benchmark, instance, schedule):
    rng = np.random.default_rng(4)
    jobs = rng.integers(0, instance.nb_jobs, size=1024)
    machines = rng.integers(0, instance.nb_machines, size=1024)
    counter = {"i": 0}

    def move():
        i = counter["i"] % 1024
        counter["i"] += 1
        schedule.move_job(int(jobs[i]), int(machines[i]))
        return schedule.makespan

    assert benchmark(move) > 0


def test_lmcts_scan(benchmark, instance):
    evaluator = FitnessEvaluator()
    search = LocalMCTSwapSearch(iterations=1)
    rng = np.random.default_rng(5)
    base = BatchEvaluator.random(instance, 1, rng=6)
    row = np.zeros(1, dtype=np.int64)

    def scan():
        probe = base.expanded(0)  # a fresh copy of the row
        search.step_batch(probe, row, evaluator, rng)
        return float(probe.makespans()[0])

    assert benchmark(scan) > 0


def test_single_cma_iteration(benchmark, instance):
    config = CMAConfig.paper_defaults(TerminationCriteria.by_iterations(1))

    def one_iteration():
        return CellularMemeticAlgorithm(instance, config, rng=7).run().makespan

    assert benchmark.pedantic(one_iteration, rounds=3, iterations=1) > 0


@pytest.mark.parametrize("name", ["min_min", "max_min", "sufferage"])
def test_batch_mode_heuristic(benchmark, instance, name):
    schedule = benchmark.pedantic(
        build_schedule, args=(name, instance), rounds=5, iterations=1
    )
    assert schedule.makespan > 0
