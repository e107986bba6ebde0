"""A compact NSGA-II implementation for the two-objective I/O scheduling search.

The paper formulates the search as a two-objective maximisation of
``(Psi, Upsilon)`` over the job start times.  This module provides the generic
evolutionary machinery: fast non-dominated sorting, crowding distance,
binary-tournament selection on (rank, crowding), elitist environmental
selection, and an external archive of all feasible non-dominated individuals
encountered during the run (the paper returns "all the non-dominated solutions
being found during the search").

The inner loops are vectorized over a ``(pop, n_genes)`` population matrix:

* :func:`domination_matrix` builds the full pairwise Pareto-domination matrix
  by broadcasting one objective at a time, and :func:`fast_non_dominated_sort`
  peels fronts off its column sums — producing fronts in exactly the order the
  scalar algorithm (kept as :func:`_reference_fast_non_dominated_sort`) emits
  them;
* the population is ranked once per generation: environmental selection
  sorts parents plus offspring and hands the survivors' (rank, crowding) to
  the next generation's tournaments, so the survivors are never sorted
  again;
* :func:`crowding_distance` replaces the per-front Python sort with stable
  argsorts and a sliced gap sum, bit-identical to
  :func:`_reference_crowding_distance`;
* fitness is evaluated per *matrix* through a batch evaluator, fronted by a
  row-level cache keyed on the gene bytes, so offspring whose genes did not
  change (crossover coin came up tails and no gene mutated — the common case
  under the ``1/n`` mutation rate) are never re-scored;
* :class:`ParetoArchive` remembers every objective vector it has rejected.
  Dominance is transitive and entries are only ever displaced by dominators,
  so a rejected vector stays rejected forever — re-encounters short-circuit
  without re-comparing against the archive.

Determinism contract: each generation consumes a documented, fixed-shape
sequence of draws from the single ``numpy.random.Generator`` (see
:meth:`NSGA2._make_offspring`), so the whole run is a pure function of the
seed, the problem, and the search parameters — independent of worker count or
host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.operators import (
    batch_mutate,
    batch_uniform_crossover,
    initial_population_matrix,
    tournament_winners,
)

Objectives = Tuple[float, ...]

#: Row-cache size cap; the cache resets (rather than evicts) beyond this, which
#: keeps paper-scale runs (300 x 500 = 150k offspring) bounded in memory.
_EVAL_CACHE_LIMIT = 200_000


def dominates(a: Objectives, b: Objectives) -> bool:
    """Pareto dominance for maximisation: ``a`` is no worse everywhere and better somewhere."""
    at_least_as_good = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def _domination(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``D[p, q]`` iff row ``p`` of ``a`` dominates row ``q`` of ``b`` (maximisation)."""
    no_worse = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    better = np.zeros_like(no_worse)
    for column_a, column_b in zip(a.T, b.T):
        no_worse &= column_a[:, None] >= column_b
        better |= column_a[:, None] > column_b
    return no_worse & better


def domination_matrix(objectives: np.ndarray) -> np.ndarray:
    """Pairwise domination matrix by broadcasting: ``D[p, q]`` iff ``p`` dominates ``q``.

    Maximisation semantics, identical to :func:`dominates` applied pairwise.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    return _domination(obj, obj)


def fast_non_dominated_sort(objectives: Sequence[Objectives]) -> List[List[int]]:
    """Deb's fast non-dominated sort; returns fronts as lists of indices (front 0 first).

    Vectorized: domination counts come from the broadcast domination matrix
    and each front is peeled off in one step.  The indices within each front
    are ordered exactly as the scalar reference emits them — front 0
    ascending, later fronts by (position of the last dominator in the previous
    front, index) — so downstream tie-breaks are unchanged.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    n = obj.shape[0]
    if n == 0:
        return []
    dom = _domination(obj, obj)
    count = dom.sum(axis=0)

    fronts: List[List[int]] = []
    current = np.flatnonzero(count == 0)
    remaining = n
    while True:
        fronts.append(current.tolist())
        remaining -= current.size
        if not remaining:
            return fronts
        freed_by_front = dom[current]
        count -= freed_by_front.sum(axis=0)
        # A front never dominates an earlier one, so marking the front as
        # done leaves exactly the next front at count zero.
        count[current] = -1
        newly_free = np.flatnonzero(count == 0)
        # The scalar loop appends q the moment its *last* dominator in the
        # current front is processed; reproduce that order.
        last_dominator = (current.size - 1) - freed_by_front[::-1, newly_free].argmax(axis=0)
        current = newly_free[last_dominator.argsort(kind="stable")]


def crowding_distance(
    objectives: Sequence[Objectives], front: Sequence[int]
) -> Dict[int, float]:
    """Crowding distance of the individuals in one front.

    Vectorized with stable argsorts; bit-identical to the scalar reference
    (same float operations in the same order, per objective).
    """
    front = list(front)
    if not front:
        return {}
    obj = np.asarray(objectives, dtype=np.float64)[front]
    size, n_objectives = obj.shape
    distance = np.zeros(size, dtype=np.float64)
    for m in range(n_objectives):
        values = obj[:, m]
        order = np.argsort(values, kind="stable")
        lo = values[order[0]]
        hi = values[order[-1]]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if hi == lo:
            continue
        if size > 2:
            ordered_values = values[order]
            distance[order[1:-1]] += (ordered_values[2:] - ordered_values[:-2]) / (hi - lo)
    return {int(index): float(distance[i]) for i, index in enumerate(front)}


# -- scalar reference implementations ----------------------------------------
#
# The original per-element versions, retained verbatim as oracles: the
# property tests assert the vectorized kernels above return *exactly* equal
# results on arbitrary objective sets (duplicates and degenerate fronts
# included).


def _reference_fast_non_dominated_sort(
    objectives: Sequence[Objectives],
) -> List[List[int]]:
    """Scalar fast non-dominated sort (reference oracle)."""
    n = len(objectives)
    domination_count = [0] * n
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    fronts: List[List[int]] = [[]]

    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif dominates(objectives[q], objectives[p]):
                domination_count[p] += 1
        if domination_count[p] == 0:
            fronts[0].append(p)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def _reference_crowding_distance(
    objectives: Sequence[Objectives], front: Sequence[int]
) -> Dict[int, float]:
    """Scalar crowding distance (reference oracle)."""
    distances: Dict[int, float] = {index: 0.0 for index in front}
    if not front:
        return distances
    n_objectives = len(objectives[front[0]])
    for m in range(n_objectives):
        ordered = sorted(front, key=lambda index: objectives[index][m])
        lo = objectives[ordered[0]][m]
        hi = objectives[ordered[-1]][m]
        distances[ordered[0]] = float("inf")
        distances[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for position in range(1, len(ordered) - 1):
            previous = objectives[ordered[position - 1]][m]
            following = objectives[ordered[position + 1]][m]
            distances[ordered[position]] += (following - previous) / (hi - lo)
    return distances


@dataclass
class ArchiveEntry:
    """A feasible non-dominated individual retained in the external archive."""

    genes: np.ndarray
    objectives: Objectives
    payload: object = None


class ParetoArchive:
    """External archive of feasible non-dominated solutions found so far.

    Candidate objective vectors are screened against the archive's objective
    matrix in one vectorized comparison.  Every rejected vector is remembered:
    rejection means some entry dominates-or-equals it, entries are only ever
    displaced by their own dominators, and dominance is transitive — so a
    rejected vector can never enter later, and re-encounters (frequent once
    the search converges) skip the comparison entirely.
    """

    def __init__(self) -> None:
        self._entries: List[ArchiveEntry] = []
        self._matrix: Optional[np.ndarray] = None
        self._rejected: Set[Objectives] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> List[ArchiveEntry]:
        return list(self._entries)

    def add(self, genes: np.ndarray, objectives: Objectives, payload: object = None) -> bool:
        """Insert a candidate; returns True if it enters the archive."""
        objectives = tuple(objectives)
        if objectives in self._rejected:
            return False
        candidate = np.asarray(objectives, dtype=np.float64)
        if self._matrix is not None and self._matrix.size:
            # Some entry >= candidate everywhere <=> it dominates or equals it.
            if (self._matrix >= candidate).all(axis=1).any():
                self._rejected.add(objectives)
                return False
            displaced = (candidate >= self._matrix).all(axis=1) & (
                candidate > self._matrix
            ).any(axis=1)
            if displaced.any():
                kept = ~displaced
                self._entries = [
                    entry for entry, keep in zip(self._entries, kept) if keep
                ]
                self._matrix = self._matrix[kept]
            self._matrix = np.vstack([self._matrix, candidate[None, :]])
        else:
            self._matrix = candidate[None, :].copy()
        self._entries.append(
            ArchiveEntry(genes=genes.copy(), objectives=objectives, payload=payload)
        )
        return True

    def best_by(self, objective_index: int) -> Optional[ArchiveEntry]:
        """Archive entry with the best value of one objective (ties: best other objectives)."""
        if not self._entries:
            return None
        return max(
            self._entries,
            key=lambda entry: (
                entry.objectives[objective_index],
                sum(entry.objectives),
            ),
        )


@dataclass
class NSGA2Result:
    """Outcome of one NSGA-II run."""

    archive: ParetoArchive
    generations_run: int
    evaluations: int


#: Batch evaluator signature: ``(pop, n_genes) matrix -> ((pop, m) objective
#: matrix, payload list)``.  Payload ``None`` marks an infeasible row.
BatchEvaluator = Callable[[np.ndarray], Tuple[np.ndarray, List[object]]]


class NSGA2:
    """Elitist non-dominated-sorting GA over a :class:`GAProblem`.

    The population lives as a ``(pop, n_genes)`` int64 matrix; one generation
    consumes exactly six fixed-shape draws from the run's single
    ``numpy.random.Generator`` (see :meth:`_make_offspring`), which pins the
    RNG stream to the seed regardless of how fitness is computed or cached.

    ``evaluate`` is the per-individual callable
    (``genes -> (objectives, payload)``); pass ``evaluate_batch`` instead to
    score whole matrices at once (the GA wraps a scalar ``evaluate`` into a
    row loop when only that is given).
    """

    def __init__(
        self,
        problem: GAProblem,
        evaluate: Optional[Callable[[np.ndarray], Tuple[Objectives, object]]] = None,
        *,
        evaluate_batch: Optional[BatchEvaluator] = None,
        population_size: int = 100,
        generations: int = 100,
        crossover_probability: float = 0.9,
        gene_mutation_probability: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        seeds: Optional[Sequence[np.ndarray]] = None,
    ):
        if population_size < 4:
            raise ValueError("population size must be at least 4")
        if evaluate is None and evaluate_batch is None:
            raise ValueError("provide evaluate or evaluate_batch")
        self.problem = problem
        self.evaluate = evaluate
        self.evaluate_batch = (
            evaluate_batch if evaluate_batch is not None else self._rowwise(evaluate)
        )
        self.population_size = population_size
        self.generations = generations
        self.crossover_probability = crossover_probability
        if gene_mutation_probability is None:
            gene_mutation_probability = 1.0 / max(1, problem.n_genes)
        self.gene_mutation_probability = gene_mutation_probability
        self.rng = rng if rng is not None else np.random.default_rng()
        self.seeds = list(seeds or [])
        self._cache: Dict[bytes, Tuple[np.ndarray, object]] = {}

    @staticmethod
    def _rowwise(
        evaluate: Callable[[np.ndarray], Tuple[Objectives, object]],
    ) -> BatchEvaluator:
        def batch(matrix: np.ndarray) -> Tuple[np.ndarray, List[object]]:
            objectives: List[Objectives] = []
            payloads: List[object] = []
            for row in matrix:
                objs, payload = evaluate(row)
                objectives.append(tuple(objs))
                payloads.append(payload)
            return np.asarray(objectives, dtype=np.float64), payloads

        return batch

    # -- main loop ---------------------------------------------------------

    def run(self) -> NSGA2Result:
        archive = ParetoArchive()
        evaluations = 0

        population = initial_population_matrix(
            self.problem, self.population_size, self.rng, seeds=self.seeds
        )
        objectives, _ = self._evaluate_matrix(population, archive)
        evaluations += population.shape[0]
        rank, crowding = self._rank_and_crowding(objectives)

        generations_run = 0
        for _ in range(self.generations):
            generations_run += 1
            offspring = self._make_offspring(population, rank, crowding)
            offspring_objectives, _ = self._evaluate_matrix(offspring, archive)
            evaluations += offspring.shape[0]

            population, objectives, rank, crowding = self._environmental_selection(
                np.vstack([population, offspring]),
                np.vstack([objectives, offspring_objectives]),
            )

        return NSGA2Result(
            archive=archive, generations_run=generations_run, evaluations=evaluations
        )

    # -- internals -----------------------------------------------------------

    def _evaluate_matrix(
        self, population: np.ndarray, archive: ParetoArchive
    ) -> Tuple[np.ndarray, List[object]]:
        """Score a population matrix through the cache; archive fresh feasible rows.

        Rows already scored this run (unchanged offspring, re-discovered
        individuals) come from the cache; only genuinely new rows reach the
        batch evaluator and the archive — a duplicate's objectives are exactly
        equal to its first occurrence's, so the archive would reject it
        anyway.
        """
        if len(self._cache) > _EVAL_CACHE_LIMIT:
            self._cache.clear()
        n_rows = population.shape[0]
        keys = [population[i].tobytes() for i in range(n_rows)]
        fresh: Dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in self._cache and key not in fresh:
                fresh[key] = i
        if fresh:
            rows = np.fromiter(fresh.values(), dtype=np.int64, count=len(fresh))
            fresh_objectives, fresh_payloads = self.evaluate_batch(population[rows])
            fresh_objectives = np.asarray(fresh_objectives, dtype=np.float64)
            for j, i in enumerate(rows):
                objective_row = fresh_objectives[j]
                payload = fresh_payloads[j]
                self._cache[keys[i]] = (objective_row, payload)
                if payload is not None and (objective_row >= 0.0).all():
                    archive.add(
                        population[i],
                        tuple(float(v) for v in objective_row),
                        payload,
                    )
        objectives = np.stack([self._cache[key][0] for key in keys])
        payloads = [self._cache[key][1] for key in keys]
        return objectives, payloads

    def _rank_and_crowding(
        self, objectives: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Front index and crowding distance of every row (ranks the initial population)."""
        fronts = fast_non_dominated_sort(objectives)
        rank = np.empty(objectives.shape[0], dtype=np.int64)
        crowding = np.empty(objectives.shape[0], dtype=np.float64)
        for front_index, front in enumerate(fronts):
            distances = crowding_distance(objectives, front)
            for index in front:
                rank[index] = front_index
                crowding[index] = distances[index]
        return rank, crowding

    def _make_offspring(
        self, population: np.ndarray, rank: np.ndarray, crowding: np.ndarray
    ) -> np.ndarray:
        """One generation of variation from the population's (rank, crowding).

        Fixed per-generation RNG draw order:

        1. tournament candidate indices — ``integers(0, pop, size=(2k, 2))``
           with ``k = (population_size + 1) // 2``;
        2. crossover coins — ``random(k)``;
        3. crossover swap masks — ``random((k, n_genes))``;
        4. mutation coins — ``random((2k, n_genes))``;
        5. snap-to-ideal coins — ``random((2k, n_genes))``;
        6. mutation resamples — ``integers(lo, hi + 1, size=(2k, n_genes))``.

        Every shape depends only on the search parameters, never on the coin
        outcomes, so the stream is reproducible by construction.  The last
        child is dropped when ``population_size`` is odd.
        """
        n_children = 2 * ((self.population_size + 1) // 2)
        winners = tournament_winners(self.rng, rank, crowding, n_children)
        children = batch_uniform_crossover(
            self.rng, population[winners], self.crossover_probability
        )
        mutated, _changed = batch_mutate(
            self.problem,
            children,
            self.rng,
            gene_mutation_probability=self.gene_mutation_probability,
        )
        return mutated[: self.population_size]

    def _environmental_selection(
        self,
        combined: np.ndarray,
        combined_objectives: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Elitist truncation to ``population_size`` rows by (front, crowding).

        Returns the survivors' genes and objectives together with their
        ``(rank, crowding)`` — exactly what :meth:`_rank_and_crowding` would
        compute on the survivors, without sorting them again.  Every front kept
        whole is a front of the survivors in the same order, so its crowding
        carries over.  The survivors list the partial last front by (position
        of its last dominator in the previous front, position among the
        survivors), so its crowding is recomputed over the kept rows in that
        order.
        """
        fronts = fast_non_dominated_sort(combined_objectives)
        size = self.population_size
        selected: List[int] = []
        rank = np.empty(size, dtype=np.int64)
        crowding = np.empty(size, dtype=np.float64)
        previous: List[int] = []
        for front_index, front in enumerate(fronts):
            first = len(selected)
            distances = crowding_distance(combined_objectives, front)
            listed = front
            if first + len(front) > size:
                by_crowding = sorted(front, key=lambda index: -distances[index])
                front = by_crowding[: size - first]
                listed = front
                if previous:
                    dominated = _domination(
                        combined_objectives[previous], combined_objectives[front]
                    )
                    last_dominator = (len(previous) - 1) - dominated[::-1].argmax(axis=0)
                    listed = [front[i] for i in last_dominator.argsort(kind="stable")]
                distances = crowding_distance(combined_objectives, listed)
            selected.extend(front)
            rank[first:len(selected)] = front_index
            crowding[first:len(selected)] = [distances[index] for index in front]
            if len(selected) == size:
                break
            previous = listed
        chosen = np.asarray(selected, dtype=np.int64)
        return combined[chosen], combined_objectives[chosen], rank, crowding
