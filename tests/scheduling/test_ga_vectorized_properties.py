"""Property tests: the vectorized GA kernels exactly equal their scalar oracles.

Every vectorized kernel introduced by the NSGA-II array rewrite is checked
against the retained reference implementation for *exact* equality — same
fronts in the same order, bit-identical crowding distances and objectives —
on adversarial inputs: duplicated objective vectors, degenerate fronts where
every point ties on one objective, infeasible (-1, -1) rows, and partitions
whose repair has to serialise conflicting jobs.  The (rank, crowding) that
environmental selection carries into the next generation is checked against
a fresh ranking of the survivors.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MS, IOTask
from repro.scheduling.ga.constraints import (
    count_conflicts,
    count_conflicts_batch,
    satisfies_constraint1,
    constraint1_matrix,
    violations,
    violations_batch,
)
from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.nsga2 import (
    NSGA2,
    _reference_crowding_distance,
    _reference_fast_non_dominated_sort,
    crowding_distance,
    dominates,
    domination_matrix,
    fast_non_dominated_sort,
)
from repro.scheduling.ga.reconfiguration import evaluate, evaluate_batch, reconfigure_batch

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Small value pool so duplicates and degenerate (all-equal) fronts are common.
objective_values = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0])
objective_sets = st.integers(1, 3).flatmap(
    lambda m: st.lists(
        st.tuples(*[objective_values] * m), min_size=1, max_size=24
    )
)


class TestDominationKernels:
    @given(objectives=objective_sets)
    @PROPERTY_SETTINGS
    def test_domination_matrix_matches_scalar_dominates(self, objectives):
        matrix = domination_matrix(np.asarray(objectives))
        for p, a in enumerate(objectives):
            for q, b in enumerate(objectives):
                assert bool(matrix[p, q]) == (p != q and dominates(a, b))

    @given(objectives=objective_sets)
    @PROPERTY_SETTINGS
    def test_fast_non_dominated_sort_equals_reference_exactly(self, objectives):
        # Not just the same partition into fronts: the same index order within
        # each front, so every downstream tie-break behaves identically.
        assert fast_non_dominated_sort(objectives) == _reference_fast_non_dominated_sort(
            objectives
        )

    @given(objectives=objective_sets)
    @PROPERTY_SETTINGS
    def test_crowding_distance_equals_reference_bitwise(self, objectives):
        for front in _reference_fast_non_dominated_sort(objectives):
            vectorized = crowding_distance(objectives, front)
            reference = _reference_crowding_distance(objectives, front)
            assert vectorized.keys() == reference.keys()
            for index in reference:
                # == on floats: inf == inf holds and any ULP drift fails.
                assert vectorized[index] == reference[index]


def build_problem(task_params):
    tasks = []
    for t, (period_ms, wcet_ms, delta_ms, theta_ms, priority) in enumerate(task_params):
        tasks.append(
            IOTask(
                name=f"t{t}",
                wcet=wcet_ms * MS,
                period=period_ms * MS,
                priority=priority,
                ideal_offset=delta_ms * MS,
                theta=theta_ms * MS,
            )
        )
    horizon = 80 * MS
    jobs = [task.job(i) for task in tasks for i in range(horizon // task.period)]
    return GAProblem(jobs=jobs, horizon=horizon)


task_param_lists = st.lists(
    st.tuples(
        st.sampled_from([20, 40, 80]),  # period (ms)
        st.integers(1, 6),  # wcet (ms)
        st.integers(0, 15),  # ideal offset (ms)
        st.integers(0, 12),  # theta (ms)
        st.integers(1, 3),  # priority
    ),
    min_size=1,
    max_size=5,
)


class TestBatchedFitnessKernels:
    @given(task_params=task_param_lists, seed=st.integers(0, 10_000))
    @PROPERTY_SETTINGS
    def test_evaluate_batch_matches_scalar_evaluate(self, task_params, seed):
        problem = build_problem(task_params)
        rng = np.random.default_rng(seed)
        population = problem.random_population(8, rng)
        objectives, starts, feasible = evaluate_batch(problem, population)
        for row in range(population.shape[0]):
            psi_value, upsilon_value, schedule = evaluate(problem.jobs, population[row])
            assert objectives[row, 0] == psi_value
            assert objectives[row, 1] == upsilon_value
            assert feasible[row] == (schedule is not None)
            if schedule is not None:
                scalar_starts = [schedule.start_of(job) for job in problem.jobs]
                assert scalar_starts == list(starts[row])

    @given(task_params=task_param_lists, seed=st.integers(0, 10_000))
    @PROPERTY_SETTINGS
    def test_reconfigure_batch_feasibility_matches_scalar(self, task_params, seed):
        problem = build_problem(task_params)
        rng = np.random.default_rng(seed)
        population = problem.random_population(6, rng)
        _, feasible = reconfigure_batch(problem, population)
        for row in range(population.shape[0]):
            _, _, schedule = evaluate(problem.jobs, population[row])
            assert feasible[row] == (schedule is not None)

    @given(task_params=task_param_lists, seed=st.integers(0, 10_000))
    @PROPERTY_SETTINGS
    def test_constraint_kernels_match_scalar_counts(self, task_params, seed):
        problem = build_problem(task_params)
        compiled = problem.compiled()
        rng = np.random.default_rng(seed)
        # Raw (unrepaired) genes: plenty of window and overlap violations.
        population = problem.random_population(6, rng)
        c1_matrix = constraint1_matrix(compiled, population)
        batch = violations_batch(compiled, population)
        for row in range(population.shape[0]):
            starts = [int(v) for v in population[row]]
            scalar = violations(problem.jobs, starts)
            assert batch["constraint1"][row] == scalar["constraint1"]
            assert batch["constraint2"][row] == scalar["constraint2"]
            assert batch["constraint2"][row] == count_conflicts(problem.jobs, starts)
            for index, job in enumerate(problem.jobs):
                assert bool(c1_matrix[row, index]) == satisfies_constraint1(
                    job, starts[index]
                )

    def test_count_conflicts_batch_handles_single_job(self):
        problem = build_problem([(40, 2, 10, 5, 1)])
        compiled = problem.compiled()
        starts = np.array([[compiled.ideal[0]]], dtype=np.int64)
        assert count_conflicts_batch(compiled, starts).tolist() == [0]


# -- rank and crowding carried over by environmental selection ----------------


@st.composite
def selection_cases(draw):
    """``(population_size, 2 * population_size objective rows)``, tie-heavy.

    Psi takes values k/n as in the scheduling problem; the other objectives
    come from a three-value pool, so duplicate rows and ties on single
    objectives are common.  Three-objective rows make ties inside a front
    possible without duplicates, where the order of a front changes its
    crowding distances.
    """
    size = draw(st.integers(4, 10))
    n_jobs = draw(st.sampled_from([3, 5, 7]))
    n_other = draw(st.integers(1, 2))
    psi = st.integers(0, n_jobs).map(lambda k: k / n_jobs)
    feasible = st.tuples(psi, *[st.sampled_from([0.25, 0.5, 1.0])] * n_other)
    row = st.one_of(feasible, st.just((-1.0,) * (1 + n_other)))
    return size, draw(st.lists(row, min_size=2 * size, max_size=2 * size))


def selection_oracle(objectives, size):
    """Survivor indices: whole fronts, then the most crowded of the next front."""
    selected = []
    for front in _reference_fast_non_dominated_sort(objectives):
        if len(selected) + len(front) <= size:
            selected.extend(front)
            continue
        distances = _reference_crowding_distance(objectives, front)
        selected.extend(sorted(front, key=lambda index: -distances[index])[: size - len(selected)])
        break
    return selected


def select(objectives, size):
    job = IOTask(name="t", wcet=1, period=8).job(0)
    ga = NSGA2(
        GAProblem(jobs=[job], horizon=8),
        evaluate_batch=lambda matrix: (np.zeros((matrix.shape[0], 2)), []),
        population_size=size,
    )
    combined = np.arange(len(objectives), dtype=np.int64)[:, None]
    return ga, ga._environmental_selection(combined, np.asarray(objectives, dtype=np.float64))


class TestSelectionCarryOver:
    @given(case=selection_cases())
    @PROPERTY_SETTINGS
    def test_carried_rank_and_crowding_equal_a_fresh_ranking(self, case):
        size, rows = case
        ga, (population, survivors, rank, crowding) = select(rows, size)
        assert population[:, 0].tolist() == selection_oracle(rows, size)
        fresh_rank, fresh_crowding = ga._rank_and_crowding(survivors)
        assert np.array_equal(rank, fresh_rank)
        # == on floats: inf == inf holds and any ULP drift fails.
        assert np.array_equal(crowding, fresh_crowding)

    def test_partial_front_listed_out_of_crowding_order(self):
        # Survivors 6-10 are five of the six rows of front 2, kept in crowding
        # order; the survivors' own sort lists them as 6, 7, 10, 8, 9 (by last
        # dominator), and ties on the third objective make their crowding
        # depend on that order.
        third = 1.0 / 3.0
        rows = [
            (-1.0, -1.0, 0.5), (third, 0.5, 0.0), (third, 0.5, 0.0), (2 * third, 1.0, 0.0),
            (0.0, 1.0, 0.5), (1.0, 1.0, 0.5), (third, 0.5, 1.0), (0.0, 0.75, 0.0),
            (-1.0, -1.0, 0.0), (1.0, 1.0, 0.5), (-1.0, -1.0, 1.0), (third, 1.0, 0.5),
            (-1.0, -1.0, 0.5), (0.0, 0.75, 0.0), (-1.0, -1.0, 1.0), (2 * third, 0.75, 0.0),
            (0.0, 1.0, 0.0), (0.0, 0.5, 1.0), (1.0, 0.75, 0.0), (1.0, 1.0, 0.0),
            (-1.0, -1.0, 0.5), (0.0, 1.0, 0.5),
        ]
        ga, (_, survivors, rank, crowding) = select(rows, 11)
        fronts = fast_non_dominated_sort(survivors)
        assert fronts[-1] != sorted(fronts[-1])
        fresh_rank, fresh_crowding = ga._rank_and_crowding(survivors)
        assert np.array_equal(rank, fresh_rank)
        assert np.array_equal(crowding, fresh_crowding)
