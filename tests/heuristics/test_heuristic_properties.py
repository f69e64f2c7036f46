"""Property-based tests for the constructive heuristics.

Beyond the per-heuristic unit tests, these properties must hold for every
registered heuristic on arbitrary instances: the produced assignment is
always valid, deterministic heuristics ignore the RNG, list-scheduling
heuristics never produce a makespan worse than running every job on one
machine, and the relative quality ordering that motivates the benchmark
(informed heuristics beat blind ones on consistent matrices) holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import build_schedule, list_heuristics
from repro.model.etc import make_consistent
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule

ALL_HEURISTICS = sorted(list_heuristics())
DETERMINISTIC = [name for name in ALL_HEURISTICS if name != "random"]


@st.composite
def instances(draw):
    nb_jobs = draw(st.integers(min_value=1, max_value=30))
    nb_machines = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    consistent = draw(st.booleans())
    with_ready = draw(st.booleans())
    rng = np.random.default_rng(seed)
    etc = rng.uniform(1.0, 500.0, size=(nb_jobs, nb_machines))
    if consistent:
        etc = make_consistent(etc)
    ready = rng.uniform(0.0, 50.0, size=nb_machines) if with_ready else None
    return SchedulingInstance(etc=etc, ready_times=ready, name=f"hyp-{seed}")


@given(instances(), st.sampled_from(ALL_HEURISTICS))
@settings(max_examples=60, deadline=None)
def test_heuristics_produce_valid_schedules(instance, name):
    schedule = build_schedule(name, instance, rng=0)
    assert isinstance(schedule, Schedule)
    assert schedule.assignment.shape == (instance.nb_jobs,)
    assert schedule.assignment.min() >= 0
    assert schedule.assignment.max() < instance.nb_machines
    schedule.validate()


@given(instances(), st.sampled_from(DETERMINISTIC), st.integers(0, 1000), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_deterministic_heuristics_ignore_rng(instance, name, seed_a, seed_b):
    a = build_schedule(name, instance, rng=seed_a)
    b = build_schedule(name, instance, rng=seed_b)
    assert np.array_equal(a.assignment, b.assignment)


@given(instances(), st.sampled_from(ALL_HEURISTICS))
@settings(max_examples=60, deadline=None)
def test_heuristics_within_instance_bounds(instance, name):
    schedule = build_schedule(name, instance, rng=1)
    assert schedule.makespan >= instance.makespan_lower_bound() - 1e-6
    assert schedule.makespan <= instance.makespan_upper_bound() + 1e-6


@given(instances(), st.sampled_from(["min_min", "max_min", "sufferage", "mct"]))
@settings(max_examples=60, deadline=None)
def test_completion_aware_heuristics_beat_single_machine(instance, name):
    """Any completion-time-aware list scheduler beats stacking machine 0.

    OLB is deliberately excluded: it balances *ready times* while ignoring
    the ETC matrix, so on instances where machine 0 is fast it can lose to
    the single-machine stack (e.g. one job whose fastest machine is busy).
    """
    schedule = build_schedule(name, instance, rng=1)
    everything_on_zero = Schedule(instance)
    assert schedule.makespan <= everything_on_zero.makespan + 1e-6


@given(instances())
@settings(max_examples=40, deadline=None)
def test_min_min_not_worse_than_olb(instance):
    """The completion-time-aware greedy never loses to blind load balancing."""
    min_min = build_schedule("min_min", instance)
    olb = build_schedule("olb", instance)
    assert min_min.makespan <= olb.makespan * 1.5 + 1e-6


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_met_degenerates_on_consistent_matrices(seed):
    """MET sends every job to the globally fastest machine when consistent."""
    rng = np.random.default_rng(seed)
    etc = make_consistent(rng.uniform(1.0, 100.0, size=(20, 5)))
    instance = SchedulingInstance(etc=etc)
    met = build_schedule("met", instance)
    assert set(met.assignment.tolist()) == {0}
    # ... which is exactly why MCT (load aware) beats it there.
    mct = build_schedule("mct", instance)
    assert mct.makespan <= met.makespan + 1e-9


@pytest.mark.parametrize("name", ALL_HEURISTICS)
def test_heuristics_scale_to_benchmark_dimensions(name):
    """Every heuristic handles a 512 x 16 instance in reasonable time."""
    rng = np.random.default_rng(0)
    etc = rng.uniform(1.0, 1000.0, size=(512, 16))
    instance = SchedulingInstance(etc=etc, name="full-size")
    schedule = build_schedule(name, instance, rng=1)
    assert schedule.assignment.shape == (512,)


@st.composite
def tie_heavy_instances(draw):
    """Small integer ETCs and ready times, so equal completions are common."""
    nb_jobs = draw(st.integers(min_value=1, max_value=30))
    nb_machines = draw(st.integers(min_value=1, max_value=6))
    cells = st.integers(min_value=1, max_value=3)
    etc = draw(
        st.lists(
            st.lists(cells, min_size=nb_machines, max_size=nb_machines),
            min_size=nb_jobs,
            max_size=nb_jobs,
        )
    )
    ready = draw(
        st.lists(st.integers(0, 2), min_size=nb_machines, max_size=nb_machines)
    )
    return SchedulingInstance(
        etc=np.array(etc, dtype=float), ready_times=np.array(ready, dtype=float)
    )


#: Pick rule per batch-mode heuristic: the key of a job from its sorted
#: completion times, and whether the largest (else the smallest) key wins.
BATCH_MODE_RULES = {
    "min_min": (lambda times: times[0], False),
    "max_min": (lambda times: times[0], True),
    "sufferage": (lambda times: times[1] - times[0] if len(times) > 1 else 0.0, True),
}


def batch_mode_specification(instance, name):
    """Plain-Python statement of a batch-mode heuristic and its tie order.

    Every step scores each unassigned job, in increasing job index, by its
    rule key; the first job with the winning key is picked (the lowest job
    index among equal keys) and goes to the first machine with its smallest
    completion time (the lowest machine index among equal completions).
    """
    key_of, largest_wins = BATCH_MODE_RULES[name]
    etc = instance.etc.tolist()
    completion = instance.ready_times.tolist()
    machines = range(instance.nb_machines)
    unassigned = list(range(instance.nb_jobs))
    assignment = [-1] * instance.nb_jobs
    while unassigned:
        pick = None
        for job in unassigned:
            times = [completion[m] + etc[job][m] for m in machines]
            key = key_of(sorted(times))
            if (
                pick is None
                or (largest_wins and key > pick[0])
                or (not largest_wins and key < pick[0])
            ):
                pick = (key, job, times.index(min(times)))
        _, job, machine = pick
        assignment[job] = machine
        completion[machine] += etc[job][machine]
        unassigned.remove(job)
    return assignment


@given(tie_heavy_instances(), st.sampled_from(sorted(BATCH_MODE_RULES)))
@settings(max_examples=100, deadline=None)
def test_batch_mode_heuristics_follow_their_tie_order(instance, name):
    schedule = build_schedule(name, instance)
    assert schedule.assignment.tolist() == batch_mode_specification(instance, name)
