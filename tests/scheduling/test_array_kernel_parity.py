"""Parity tests: the array scheduling kernels equal their scalar references.

* LCC-D: :meth:`LCCDAllocator.allocate` (int64 busy-interval arrays) against
  :meth:`LCCDAllocator._reference_allocate` — same start times, same entry
  insertion order, same :class:`AllocationReport`, in both placement modes,
  including partitions that need the shift path or cannot be allocated.
* GA repair: the closed-form snap pass of ``_repair_batch`` against the
  scalar :func:`reconfigure`, on populations where neighbouring jobs snap
  back to their ideal starts in a row — the cases where a job may snap only
  because its predecessor did, or may not snap because its predecessor did.
* Graph decomposition: :func:`decompose_graphs` against the plain
  highest-degree-first loop it implements.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IOTask
from repro.scheduling.dependency_graph import build_dependency_graphs, decompose_graphs
from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.reconfiguration import reconfigure, reconfigure_batch
from repro.scheduling.lccd import LCCDAllocator
from repro.taskgen import SystemGenerator

PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Hyper-period of every generated task set (the LCM of the period choices).
HORIZON = 48

# (period, wcet, deadline slack, ideal offset, priority); small slack makes
# tight release windows, which push LCC-D onto the shift path and past it.
task_params = st.tuples(
    st.sampled_from([8, 12, 16, 24, 48]),
    st.integers(1, 6),
    st.integers(0, 48),
    st.integers(0, 48),
    st.integers(1, 4),
)


def build_jobs(params):
    jobs = []
    for t, (period, wcet, slack, offset, priority) in enumerate(params):
        wcet = min(wcet, period)
        deadline = min(period, wcet + slack)
        task = IOTask(
            name=f"t{t}",
            wcet=wcet,
            period=period,
            deadline=deadline,
            priority=priority,
            ideal_offset=min(offset, deadline - wcet),
            theta=wcet,
        )
        jobs.extend(task.jobs(HORIZON))
    return jobs


def allocation_view(result):
    schedule, report = result
    entries = None if schedule is None else [(e.job.key, e.start) for e in schedule.entries]
    return entries, report


def assert_allocations_match(jobs, prefer_ideal, horizon=HORIZON):
    kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
    allocator = LCCDAllocator(prefer_ideal_placement=prefer_ideal)
    array_result = allocation_view(allocator.allocate(kept, sacrificed, horizon))
    reference = allocation_view(allocator._reference_allocate(kept, sacrificed, horizon))
    assert array_result == reference
    return reference[1]


class TestLCCDParity:
    @given(params=st.lists(task_params, min_size=1, max_size=12), prefer_ideal=st.booleans())
    @PROPERTY_SETTINGS
    def test_allocate_equals_reference(self, params, prefer_ideal):
        assert_allocations_match(build_jobs(params), prefer_ideal)

    @pytest.mark.parametrize("prefer_ideal", [False, True])
    def test_parity_on_generated_systems(self, prefer_ideal):
        # Paper-style systems: many slots per job, so the contention,
        # capacity and shift-run rankings all decide placements; the sweep
        # reaches the direct, shift and failure outcomes.
        direct = shifted = failed = 0
        for seed in range(6):
            for utilisation in (0.3, 0.6, 0.9):
                system = SystemGenerator(rng=seed).generate(utilisation)
                horizon = system.hyperperiod()
                by_device = {}
                for job in system.jobs(horizon):
                    by_device.setdefault(job.device, []).append(job)
                for jobs in by_device.values():
                    report = assert_allocations_match(jobs, prefer_ideal, horizon)
                    direct += report.allocated_direct
                    shifted += report.allocated_by_shift
                    failed += not report.feasible
        assert direct and shifted and failed


def single_job_tasks(layout):
    """One job per task on one device; ``layout`` is ``[(ideal, wcet), ...]``."""
    return [
        IOTask(name=f"j{i}", wcet=wcet, period=64, ideal_offset=ideal, theta=wcet).job(0)
        for i, (ideal, wcet) in enumerate(layout)
    ]


def scalar_starts(jobs, genes):
    schedule = reconfigure(jobs, genes)
    return None if schedule is None else [schedule.start_of(job) for job in jobs]


def batch_starts(jobs, genes):
    problem = GAProblem(jobs=jobs, horizon=64)
    starts, feasible = reconfigure_batch(problem, np.asarray([genes], dtype=np.int64))
    return starts[0].tolist() if feasible[0] else None


class TestSnapRecurrence:
    def test_snap_enabled_by_previous_snap(self):
        # Every job starts one unit late and sits inside its predecessor's
        # repaired execution, so each may snap back only once the previous
        # job has snapped back.
        jobs = single_job_tasks([(0, 2), (2, 2), (4, 2), (6, 2)])
        genes = [1, 3, 5, 7]
        assert scalar_starts(jobs, genes) == [0, 2, 4, 6]
        assert batch_starts(jobs, genes) == [0, 2, 4, 6]

    def test_snap_blocked_by_previous_snap(self):
        # j0 snaps right to its ideal [4, 6); j1's ideal start 5 clears j0's
        # repaired finish 2 but not its snapped finish, so j1 stays put — and
        # so does j2, whose ideal start 7 clears j1's ideal finish only.
        jobs = single_job_tasks([(4, 2), (5, 2), (7, 2)])
        genes = [0, 6, 8]
        assert scalar_starts(jobs, genes) == [4, 6, 8]
        assert batch_starts(jobs, genes) == scalar_starts(jobs, genes)

    def test_snap_flips_twice_in_a_row(self):
        # j0 cannot snap (its ideal execution would hit j1), so j1 snaps back
        # to 6 — and because j1 did, j2 (ideal 7) must not: two consecutive
        # positions whose decision is the opposite of the previous one.
        jobs = single_job_tasks([(5, 2), (6, 2), (7, 2)])
        genes = [0, 3, 8]
        assert scalar_starts(jobs, genes) == [0, 6, 8]
        assert batch_starts(jobs, genes) == [0, 6, 8]

    @given(
        layout=st.lists(
            st.tuples(st.integers(-1, 3), st.integers(1, 3)), min_size=2, max_size=10
        ),
        shifts=st.lists(
            st.lists(st.integers(-3, 3), min_size=10, max_size=10), min_size=1, max_size=6
        ),
    )
    @PROPERTY_SETTINGS
    def test_repair_equals_scalar_on_snap_chains(self, layout, shifts):
        # Ideal starts packed tightly (gap -1..3 after the previous ideal
        # finish) and genes a few units off them: long runs of jobs that snap
        # or do not snap depending on their predecessor.
        ideals = []
        cursor = 4
        for gap, wcet in layout:
            cursor = max(0, cursor + gap)
            ideals.append((cursor, wcet))
            cursor += wcet
        jobs = single_job_tasks(ideals)
        problem = GAProblem(jobs=jobs, horizon=64)
        genes = np.asarray(
            [[max(0, ideal + s) for (ideal, _), s in zip(ideals, shift)] for shift in shifts],
            dtype=np.int64,
        )
        starts, feasible = reconfigure_batch(problem, genes)
        for row in range(genes.shape[0]):
            expected = scalar_starts(jobs, genes[row].tolist())
            assert feasible[row] == (expected is not None)
            if expected is not None:
                assert starts[row].tolist() == expected


def reference_decomposition(graphs):
    """Highest degree first; ties to lowest priority, latest ideal start, key."""
    adjacency = {key: set(graphs.graph[key]) for key in graphs.graph.nodes}
    job_of = {key: graphs.graph.nodes[key]["job"] for key in graphs.graph.nodes}
    sacrificed = []
    while any(adjacency.values()):
        victim = max(
            (key for key, neighbours in adjacency.items() if neighbours),
            key=lambda key: (
                len(adjacency[key]), -job_of[key].priority, job_of[key].ideal_start, key
            ),
        )
        for other in adjacency.pop(victim):
            adjacency[other].discard(victim)
        sacrificed.append(job_of[victim])
    kept = sorted((job_of[key] for key in adjacency), key=lambda j: (j.ideal_start, j.key))
    sacrificed.sort(key=lambda j: (-j.priority, j.ideal_start, j.key))
    return kept, sacrificed


class TestDecompositionParity:
    @given(params=st.lists(task_params, min_size=1, max_size=9))
    @PROPERTY_SETTINGS
    def test_decompose_equals_highest_degree_loop(self, params):
        graphs = build_dependency_graphs(build_jobs(params))
        assert decompose_graphs(graphs) == reference_decomposition(graphs)
