"""Reconfiguration (repair) function of the GA (Section III-B).

Applied to every individual before the objective functions, the
reconfiguration resolves execution conflicts while preserving the execution
order implied by the genes, and opportunistically snaps jobs back to their
ideal start times when doing so causes no conflict:

1. order jobs by their encoded start times (ties: higher priority first, as
   footnote 2 of the paper specifies);
2. assign realised start times sequentially, delaying a job just enough to
   clear the previous job's execution (and never before its release);
3. for each job, if the device is idle around its ideal start time and the
   ideal start lies inside its release window, move it there;
4. if any job now misses its deadline the individual is infeasible and both
   objectives evaluate to -1.

Two implementations coexist:

* the scalar :func:`reconfigure` / :func:`evaluate` pair, operating on one
  individual and producing :class:`~repro.core.schedule.Schedule` objects —
  the readable reference, still used by unit tests and one-off callers;
* the batched :func:`reconfigure_batch` / :func:`evaluate_batch` pair,
  repairing and scoring a whole ``(pop, n_genes)`` population matrix at once
  through :class:`~repro.scheduling.ga.encoding.CompiledPartition` arrays.
  The forward conflict-resolution scan is expressed as a running maximum
  (``start_k = W_{k-1} + max_{j<=k}(base_j - W_{j-1})`` with ``W`` the
  cumulative WCET).  The snap-to-ideal pass depends on whether the previous
  job snapped, which makes each position a constant, a copy or a negation of
  its predecessor's decision; it is solved in closed form with one XOR scan
  (the parity of the negations) and one running maximum (the value at the
  last constant position), so no step loops over job positions.
  Both pairs produce bit-identical objectives for every individual (property
  tested), down to floating-point summation order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import Schedule
from repro.core.task import IOJob
from repro.scheduling.ga.encoding import CompiledPartition, GAProblem

def reconfigure(
    jobs: Sequence[IOJob],
    genes: Sequence[int],
) -> Optional[Schedule]:
    """Repair a gene vector into a conflict-free schedule, or ``None`` if infeasible."""
    if len(jobs) != len(genes):
        raise ValueError("genes and jobs must have the same length")
    if not jobs:
        return Schedule()

    # Execution order implied by the genes; same start time -> higher priority first.
    order = sorted(
        range(len(jobs)),
        key=lambda i: (int(genes[i]), -jobs[i].priority, jobs[i].key),
    )

    starts: List[Tuple[IOJob, int]] = []
    device_free_at = 0
    for index in order:
        job = jobs[index]
        desired = int(genes[index])
        start = max(desired, device_free_at, job.release)
        starts.append((job, start))
        device_free_at = start + job.wcet

    # Opportunistic snap-to-ideal: a job may move to its ideal start time if the
    # move keeps it inside its release window and clear of its neighbours.
    for position, (job, start) in enumerate(starts):
        ideal = job.ideal_start
        if start == ideal:
            continue
        if not (job.release <= ideal <= job.deadline - job.wcet):
            continue
        previous_finish = 0
        if position > 0:
            prev_job, prev_start = starts[position - 1]
            previous_finish = prev_start + prev_job.wcet
        next_start = None
        if position + 1 < len(starts):
            next_start = starts[position + 1][1]
        if ideal < previous_finish:
            continue
        if next_start is not None and ideal + job.wcet > next_start:
            continue
        starts[position] = (job, ideal)

    schedule = Schedule()
    for job, start in starts:
        if start + job.wcet > job.deadline:
            return None
        schedule.set_start(job, start)
    return schedule


def evaluate(
    jobs: Sequence[IOJob],
    genes: Sequence[int],
) -> Tuple[float, float, Optional[Schedule]]:
    """Objectives ``(Psi, Upsilon)`` of an individual after reconfiguration.

    Infeasible individuals (a deadline miss survives the repair) score -1 on
    both objectives, exactly as the paper prescribes.
    """
    from repro.core.metrics import psi as _psi
    from repro.core.metrics import upsilon as _upsilon

    schedule = reconfigure(jobs, genes)
    if schedule is None:
        return -1.0, -1.0, None
    return _psi(schedule), _upsilon(schedule), schedule


# -- batched implementation ---------------------------------------------------


def _repair_batch(
    compiled: CompiledPartition, genes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared batched repair: ``(order, starts_sorted, wcet_sorted, feasible)``.

    ``order`` is the execution-order permutation per row; ``starts_sorted``
    the realised start times in that order (strictly increasing, since
    executions never overlap).
    """
    n = genes.shape[1]

    # Execution order implied by the genes; same start -> higher priority first
    # (the composite key folds the (-priority, key) tie-break into the value,
    # so every key in a row is distinct and any sort gives the same order).
    composite = genes * np.int64(n) + compiled.order_tiebreak
    order = np.argsort(composite, axis=1)

    desired = np.take_along_axis(genes, order, axis=1)
    release = compiled.release[order]
    wcet = compiled.wcet[order]
    latest = compiled.latest[order]
    ideal = compiled.ideal[order]

    # Forward scan: start_k = max(desired_k, release_k, finish_{k-1}) becomes a
    # prefix maximum over base_j - W_{j-1} (W = cumulative WCET).
    base = np.maximum(desired, release)
    cum_before = np.cumsum(wcet, axis=1) - wcet
    starts = cum_before + np.maximum.accumulate(base - cum_before, axis=1)

    # Opportunistic snap-to-ideal.  Eligibility against the *pre-snap* next
    # start is vectorized.  The only order dependency is the previous job's
    # finish — its ideal finish if it snapped, its repaired finish otherwise:
    #     snap_k = eligible_k & (snap_{k-1} ? if_snapped_k : if_kept_k).
    # So position k fixes snap_k (a constant: k == 0, not eligible, or both
    # cases agree), copies snap_{k-1}, or negates it (only if_kept_k holds).
    # With parity_k the XOR of the negations up to k, snap_k ^ parity_k is
    # constant between constant positions: a running maximum of
    # ``2 * k + bit`` over the constant positions carries it forward.
    ideal_finish = ideal + wcet
    eligible = (starts != ideal) & (release <= ideal) & (ideal <= latest)
    eligible[:, :-1] &= ideal_finish[:, :-1] <= starts[:, 1:]
    if_snapped = ideal[:, 1:] >= ideal_finish[:, :-1]
    if_kept = ideal[:, 1:] >= starts[:, :-1] + wcet[:, :-1]
    value = eligible.copy()
    value[:, 0] &= ideal[:, 0] >= 0
    value[:, 1:] &= if_kept
    constant = ~eligible
    constant[:, 0] = True
    constant[:, 1:] |= if_snapped == if_kept
    negation = np.zeros_like(eligible)
    negation[:, 1:] = eligible[:, 1:] & if_kept & ~if_snapped
    parity = np.bitwise_xor.accumulate(negation, axis=1)
    marks = np.where(constant, np.arange(0, 2 * n, 2) + (value ^ parity), 0)
    snap = (np.maximum.accumulate(marks, axis=1) & 1).astype(bool) ^ parity
    starts = np.where(snap, ideal, starts)

    feasible = ~(starts > latest).any(axis=1)
    return order, starts, wcet, feasible


def _validate_matrix(compiled: CompiledPartition, genes_matrix: np.ndarray) -> np.ndarray:
    genes = np.ascontiguousarray(np.asarray(genes_matrix, dtype=np.int64))
    if genes.ndim != 2 or genes.shape[1] != compiled.n_jobs:
        raise ValueError(
            f"expected a (pop, {compiled.n_jobs}) gene matrix, got {genes.shape}"
        )
    return genes


def reconfigure_batch(
    problem: GAProblem, genes_matrix: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Repair a whole population matrix at once.

    Returns ``(starts, feasible)`` where ``starts`` is a ``(pop, n_genes)``
    int64 matrix of realised start times in problem job order and ``feasible``
    a ``(pop,)`` bool vector.  Rows flagged infeasible still carry the
    repaired start times (useful for diagnostics) but violate a deadline.
    """
    compiled = problem.compiled()
    genes = _validate_matrix(compiled, genes_matrix)
    if genes.shape[1] == 0:
        return genes.copy(), np.ones(genes.shape[0], dtype=bool)
    order, starts, _, feasible = _repair_batch(compiled, genes)
    job_starts = np.empty_like(starts)
    np.put_along_axis(job_starts, order, starts, axis=1)
    return job_starts, feasible


def evaluate_batch(
    problem: GAProblem, genes_matrix: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objectives ``(Psi, Upsilon)`` of a whole population matrix.

    Returns ``(objectives, starts, feasible)``: a ``(pop, 2)`` float64
    objective matrix (``-1`` rows for infeasible individuals, exactly as the
    scalar :func:`evaluate`), the repaired ``(pop, n_genes)`` start times in
    problem job order, and the feasibility vector.

    Quality sums accumulate sequentially (``np.cumsum``) in execution order —
    the same associativity as the scalar metrics path — so the objectives are
    bit-identical to per-individual evaluation.
    """
    compiled = problem.compiled()
    genes = _validate_matrix(compiled, genes_matrix)
    n_rows, n = genes.shape
    objectives = np.full((n_rows, 2), -1.0, dtype=np.float64)
    if n == 0:
        objectives[:] = 1.0
        return objectives, genes.copy(), np.ones(n_rows, dtype=bool)

    order, starts_sorted, _, feasible = _repair_batch(compiled, genes)
    job_starts = np.empty_like(starts_sorted)
    np.put_along_axis(job_starts, order, starts_sorted, axis=1)

    ideal_sorted = compiled.ideal[order]
    theta_sorted = compiled.theta[order]
    v_max_sorted = compiled.v_max[order]
    v_min_sorted = compiled.v_min[order]

    # Psi: the fraction of exactly timing-accurate jobs.
    exact = starts_sorted == ideal_sorted
    psi = exact.sum(axis=1) / n

    # Upsilon: linear quality curve, evaluated element-wise exactly as
    # LinearQualityCurve.value does (same operations, same order).
    distance = np.abs(starts_sorted - ideal_sorted)
    safe_theta = np.where(theta_sorted > 0, theta_sorted, 1)
    fraction = 1.0 - distance / safe_theta
    decayed = v_min_sorted + (v_max_sorted - v_min_sorted) * fraction
    quality = np.where(
        exact, v_max_sorted,
        np.where((theta_sorted <= 0) | (distance >= theta_sorted), v_min_sorted, decayed),
    )
    obtained = np.cumsum(quality, axis=1)[:, -1]
    ideal_total = np.cumsum(v_max_sorted, axis=1)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        upsilon = np.where(ideal_total == 0, 1.0, obtained / ideal_total)

    objectives[feasible, 0] = psi[feasible]
    objectives[feasible, 1] = upsilon[feasible]
    return objectives, job_starts, feasible
