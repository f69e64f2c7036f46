"""Local-search methods — the "memetic" part of the cellular memetic algorithm.

Every offspring produced by recombination or mutation is improved by a short
local search before it competes for its cell (Algorithm 1).  The paper
implements and compares three methods (Figure 2):

* **LM** — *Local Move*: a random job is moved to a random machine; the move
  is kept only if it improves the fitness (first-improvement hill climbing
  with a random neighborhood sample).
* **SLM** — *Steepest Local Move*: a random job is moved to the machine that
  yields the largest reduction of the completion times (steepest descent on
  the makespan component).
* **LMCTS** — *Local Minimum Completion Time Swap*: among the swaps that
  exchange a job of the makespan-defining machine with a job of another
  machine, the pair yielding the largest completion-time reduction is
  applied.  This is the method selected by the paper's tuning.

Three extensions beyond the paper are provided for the ablation benchmarks:
**LMCTM** (best single-job move off the makespan machine), **GSM** (the best
single-job move over the whole ``jobs × machines`` neighborhood, scored by
one vectorized engine scan) and **VNS**, a small variable-neighborhood
scheme that cycles LM → SLM → LMCTS.

Moves are ranked with the vectorized completion-time scans of
:mod:`repro.engine.scan` (no schedule copies, no per-candidate allocations),
then the selected move is applied and *accepted only if the scalarized
fitness improves*, so a local-search step never degrades the offspring.  The
number of steps per offspring is the ``nb local search iterations``
parameter of Table 1 (5 in the tuned configuration).

Each built-in method is one implementation, :meth:`LocalSearch.step_batch`,
which improves a whole row subset of a resident
:class:`~repro.engine.batch.BatchEvaluator` population at once: one
vectorized scan chooses a candidate per row, the moves are applied with
incremental two-machine cache updates, and rows that did not strictly
improve are reverted from the undo record.  Both cell-update disciplines of
the cMA run it, the sequential one on one-row batches.
:meth:`LocalSearch.improve` adapts it to a single detached schedule.
Registered custom searches may define only :meth:`LocalSearch.step` on one
schedule — the default ``step_batch`` walks rows through it over zero-copy
engine views.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.engine import scan
from repro.engine.batch import BatchEvaluator
from repro.model.fitness import FitnessEvaluator
from repro.model.schedule import Schedule
from repro.utils.rng import RNGLike, as_generator

__all__ = [
    "LocalSearch",
    "LocalMoveSearch",
    "SteepestLocalMoveSearch",
    "LocalMCTSwapSearch",
    "LocalMCTMoveSearch",
    "GlobalSteepestMoveSearch",
    "VariableNeighborhoodSearch",
    "NullLocalSearch",
    "get_local_search",
    "list_local_searches",
    "register_local_search",
]


def _batch_fitness(
    batch: BatchEvaluator, rows: np.ndarray, evaluator: FitnessEvaluator
) -> np.ndarray:
    """Scalarized fitness of a row subset without touching the evaluation counter."""
    return evaluator.scalarize_batch(batch.makespans(rows), batch.mean_flowtimes(rows))


def _accept_moves(
    batch: BatchEvaluator,
    rows: np.ndarray,
    jobs: np.ndarray,
    machines: np.ndarray,
    evaluator: FitnessEvaluator,
) -> np.ndarray:
    """Apply one candidate move per row, keep improvements, revert the rest.

    The shared accept/revert cycle of the batched move-based steps: the
    moves are applied with incremental two-machine cache updates, fitness is
    read back from the caches, and rows whose scalarized fitness did not
    strictly improve are restored bit-exactly from the ``O(rows)`` undo
    record.  Returns the per-row improvement mask.
    """
    before = _batch_fitness(batch, rows, evaluator)
    undo = batch.apply_moves(rows, jobs, machines)
    improved = _batch_fitness(batch, rows, evaluator) < before
    if not improved.all():
        batch.undo_moves(rows, jobs, undo, ~improved)
    return improved


def _accept_swaps(
    batch: BatchEvaluator,
    rows: np.ndarray,
    jobs_a: np.ndarray,
    jobs_b: np.ndarray,
    evaluator: FitnessEvaluator,
) -> np.ndarray:
    """Swap-based twin of :func:`_accept_moves`."""
    before = _batch_fitness(batch, rows, evaluator)
    undo = batch.apply_swaps(rows, jobs_a, jobs_b)
    improved = _batch_fitness(batch, rows, evaluator) < before
    if not improved.all():
        batch.undo_swaps(rows, jobs_a, jobs_b, undo, ~improved)
    return improved


class LocalSearch:
    """Iterated improvement of resident batch rows (or of one schedule).

    A subclass implements one improvement attempt at either granularity and
    inherits the other: the built-in methods override :meth:`step_batch`
    with a vectorized whole-batch step, while a custom search may define
    only :meth:`step` on one schedule, which the default :meth:`step_batch`
    applies row by row.  Defining a subclass that overrides neither raises
    :class:`TypeError`.

    Parameters
    ----------
    iterations:
        Number of improvement attempts per :meth:`improve` call (the paper's
        ``nb local search iterations``).
    """

    #: Registry key; subclasses must override it.
    name: str = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.step is LocalSearch.step and cls.step_batch is LocalSearch.step_batch:
            raise TypeError(f"{cls.__name__} must override step or step_batch")

    def __init__(self, iterations: int = 5) -> None:
        if iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {iterations}")
        self.iterations = int(iterations)

    def step(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: np.random.Generator
    ) -> bool:
        """Attempt one improving move on *schedule*; return whether it improved.

        The extension hook for custom searches; the built-in methods
        implement :meth:`step_batch` only.
        """
        raise NotImplementedError(f"{type(self).__name__} implements step_batch only")

    def improve(
        self, schedule: Schedule, evaluator: FitnessEvaluator, rng: RNGLike = None
    ) -> bool:
        """Run :attr:`iterations` steps on one schedule; return whether any succeeded.

        Runs :meth:`improve_batch` on a one-row copy of *schedule* and writes
        the row back when it improved.
        """
        batch = BatchEvaluator(schedule.instance, schedule.assignment, evaluator.weight)
        improved = bool(self.improve_batch(batch, [0], evaluator, rng)[0])
        if improved:
            schedule.set_assignment(batch.assignments[0])
        return improved

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One improvement attempt for every row; returns the improved mask.

        The default walks the rows with :meth:`step` through zero-copy
        engine views, so any registered local search works on resident
        populations out of the box; the built-in methods override this with
        fully vectorized whole-batch scans.
        """
        improved = np.zeros(rows.shape[0], dtype=bool)
        for i, row in enumerate(rows):
            improved[i] = self.step(batch.view(int(row)), evaluator, rng)
        return improved

    def improve_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray | Iterable[int],
        evaluator: FitnessEvaluator,
        rng: RNGLike = None,
    ) -> np.ndarray:
        """Run :attr:`iterations` batched steps over a row subset.

        The whole-population counterpart of :meth:`improve`: every step
        scores and applies candidate moves for **all** rows in a handful of
        vectorized expressions.  Rows must be distinct.  Returns a boolean
        array marking the rows that improved at least once.
        """
        gen = as_generator(rng)
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        improved = np.zeros(rows.shape[0], dtype=bool)
        for _ in range(self.iterations):
            improved |= self.step_batch(batch, rows, evaluator, gen)
        return improved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(iterations={self.iterations})"


class NullLocalSearch(LocalSearch):
    """No-op local search: turns the cMA into a plain cellular GA (ablation)."""

    name = "none"

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return np.zeros(rows.shape[0], dtype=bool)


class LocalMoveSearch(LocalSearch):
    """LM: move a random job to a random machine, keep only improvements."""

    name = "lm"

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        nb_jobs, nb_machines = batch.nb_jobs, batch.nb_machines
        count = rows.shape[0]
        improved = np.zeros(count, dtype=bool)
        if nb_machines < 2:
            return improved
        jobs = rng.integers(0, nb_jobs, size=count)
        machines = rng.integers(0, nb_machines, size=count)
        active = machines != batch.assignments[rows, jobs]
        if not active.any():
            return improved
        improved[active] = _accept_moves(
            batch, rows[active], jobs[active], machines[active], evaluator
        )
        return improved


class SteepestLocalMoveSearch(LocalSearch):
    """SLM: move a random job to the machine giving the best completion-time drop."""

    name = "slm"

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if batch.nb_machines < 2:
            return np.zeros(rows.shape[0], dtype=bool)
        jobs = rng.integers(0, batch.nb_jobs, size=rows.shape[0])
        scores = scan.score_moves_for_jobs_batch(
            batch.instance.etc,
            batch.assignments[rows],
            batch.completion_times[rows],
            jobs,
        )
        targets = scores.argmin(axis=1)
        return _accept_moves(batch, rows, jobs, targets, evaluator)


class LocalMCTSwapSearch(LocalSearch):
    """LMCTS: best swap between a job on the makespan machine and any other job.

    The scan considers every pair ``(a, b)`` where ``a`` runs on the machine
    that defines the makespan and ``b`` runs elsewhere, ranks the pairs by
    the larger of the two affected completion times after the swap (the
    quantity the paper calls "the reduction in the completion time"), applies
    the best pair and keeps it only if the fitness improves.
    """

    name = "lmcts"

    @staticmethod
    def _source_jobs_padded(
        assignments: np.ndarray, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row makespan-machine jobs as a padded matrix plus validity mask.

        Rows hold different numbers of jobs on their makespan machine, so the
        job sets are packed into one ``(rows, A)`` matrix (ascending job
        order, like the scalar scan) with ``valid`` marking real entries.
        """
        on_source = assignments == sources[:, None]
        counts = on_source.sum(axis=1)
        width = max(int(counts.max()), 1)
        order = np.argsort(~on_source, axis=1, kind="stable")
        source_jobs = order[:, :width]
        valid = np.arange(width)[None, :] < counts[:, None]
        return source_jobs, valid, counts

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Hybrid batched LMCTS step: per-row pair scans, batched acceptance.

        The swap neighborhood is a ragged ``source-jobs × other-jobs`` pair
        set per row; packing it into one rectangular tensor multiplies the
        scored candidates several-fold, which loses to the compact per-row
        kernel.  So the scans stay per row (each one already a single
        vectorized expression) while the expensive part — applying every
        row's chosen swap, evaluating the whole batch and reverting
        non-improvements — runs vectorized.
        """
        improved = np.zeros(rows.shape[0], dtype=bool)
        etc = batch.instance.etc
        assignments = batch.assignments
        completions = batch.completion_times
        jobs_a = np.zeros(rows.shape[0], dtype=np.int64)
        jobs_b = np.zeros(rows.shape[0], dtype=np.int64)
        active = np.zeros(rows.shape[0], dtype=bool)
        for i, row in enumerate(rows):
            assignment = assignments[int(row)]
            completion = completions[int(row)]
            source = int(completion.argmax())
            source_jobs = np.nonzero(assignment == source)[0]
            other_jobs = np.nonzero(assignment != source)[0]
            if source_jobs.size == 0 or other_jobs.size == 0:
                continue
            metric = scan.score_critical_swaps(
                etc, assignment, completion, source_jobs, other_jobs, source
            )
            a_index, b_index = np.unravel_index(int(metric.argmin()), metric.shape)
            jobs_a[i] = source_jobs[a_index]
            jobs_b[i] = other_jobs[b_index]
            active[i] = True
        if not active.any():
            return improved
        improved[active] = _accept_swaps(
            batch, rows[active], jobs_a[active], jobs_b[active], evaluator
        )
        return improved


class LocalMCTMoveSearch(LocalSearch):
    """LMCTM (extension): best single-job move off the makespan machine."""

    name = "lmctm"

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        improved = np.zeros(rows.shape[0], dtype=bool)
        if batch.nb_machines < 2:
            return improved
        assignments = batch.assignments[rows]
        completions = batch.completion_times[rows]
        sources = completions.argmax(axis=1)
        source_jobs, valid, counts = LocalMCTSwapSearch._source_jobs_padded(
            assignments, sources
        )
        active = counts > 0
        if not active.any():
            return improved
        sub = np.nonzero(active)[0]
        metric = scan.score_critical_moves_batch(
            batch.instance.etc,
            completions[sub],
            source_jobs[sub],
            valid[sub],
            sources[sub],
        )
        flat = metric.reshape(sub.shape[0], -1).argmin(axis=1)
        a_index, targets = np.unravel_index(flat, metric.shape[1:])
        jobs = source_jobs[sub, a_index]
        improved[sub] = _accept_moves(batch, rows[sub], jobs, targets, evaluator)
        return improved


class GlobalSteepestMoveSearch(LocalSearch):
    """GSM (extension): best single-job move over the whole neighborhood.

    Scores all ``jobs × machines`` single-job moves with one vectorized
    engine scan (:func:`repro.engine.scan.score_all_moves`) and applies the
    move with the smallest resulting makespan — the deepest descent step a
    single-job neighborhood allows.
    """

    name = "gsm"

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if batch.nb_machines < 2:
            return np.zeros(rows.shape[0], dtype=bool)
        scores = batch.score_moves_batch(rows)  # (R, J, M)
        flat = scores.reshape(rows.shape[0], -1).argmin(axis=1)
        jobs, targets = np.unravel_index(flat, scores.shape[1:])
        return _accept_moves(batch, rows, jobs, targets, evaluator)


class VariableNeighborhoodSearch(LocalSearch):
    """VNS (extension): cycle LM → SLM → LMCTS, restarting on improvement."""

    name = "vns"

    def __init__(self, iterations: int = 5) -> None:
        super().__init__(iterations)
        self._stages: tuple[LocalSearch, ...] = (
            LocalMoveSearch(1),
            SteepestLocalMoveSearch(1),
            LocalMCTSwapSearch(1),
        )

    def step_batch(
        self,
        batch: BatchEvaluator,
        rows: np.ndarray,
        evaluator: FitnessEvaluator,
        rng: np.random.Generator,
    ) -> np.ndarray:
        improved = np.zeros(rows.shape[0], dtype=bool)
        for stage in self._stages:
            remaining = ~improved
            if not remaining.any():
                break
            improved[remaining] = stage.step_batch(
                batch, rows[remaining], evaluator, rng
            )
        return improved


_REGISTRY: dict[str, Callable[..., LocalSearch]] = {
    NullLocalSearch.name: NullLocalSearch,
    LocalMoveSearch.name: LocalMoveSearch,
    SteepestLocalMoveSearch.name: SteepestLocalMoveSearch,
    LocalMCTSwapSearch.name: LocalMCTSwapSearch,
    LocalMCTMoveSearch.name: LocalMCTMoveSearch,
    GlobalSteepestMoveSearch.name: GlobalSteepestMoveSearch,
    VariableNeighborhoodSearch.name: VariableNeighborhoodSearch,
}


def register_local_search(factory: type[LocalSearch]) -> type[LocalSearch]:
    """Register a user-defined local search under ``factory.name``.

    Registered methods become addressable from :class:`repro.core.config.CMAConfig`
    (``local_search="<name>"``) exactly like the built-in ones.  Usable as a
    class decorator.
    """
    if not factory.name:
        raise ValueError(f"{factory.__name__} must define a non-empty 'name'")
    if factory.name in _REGISTRY:
        raise ValueError(f"local search {factory.name!r} is already registered")
    _REGISTRY[factory.name] = factory
    return factory


def get_local_search(name: str, *, iterations: int = 5) -> LocalSearch:
    """Instantiate the local search registered under *name*."""
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown local search {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(iterations=iterations)


def list_local_searches() -> Iterator[str]:
    """Names of all registered local-search methods, sorted."""
    return iter(sorted(_REGISTRY))
