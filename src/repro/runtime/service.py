"""The simulation service: batch run-time execution over a reusable pool.

:func:`execute_simulation` is the single, *pure* execution path: obtain the
offline schedule (through a :class:`~repro.service.SchedulingService` when one
is supplied — reusing its content-addressed schedule cache — or the pure
:func:`~repro.service.service.execute_request` otherwise), build a fresh
platform from the scenario, resolve the execution model through the registry,
run it, and fold the outcome into a
:class:`~repro.runtime.messages.SimulationResponse`.  Purity is load-bearing:
the execution seed defaults to a hash of the request's content and the
scheduling path derives its own seeds the same way, so the same request
yields bit-identical results in-process, on any worker of the pool, and
across runs — which is what makes the content-addressed simulation cache
sound.

:class:`SimulationService` is a thin adapter over the same
:class:`~repro.service.batch.BatchCore` as the scheduling service (worker
pool, in-batch dedup, content-addressed response cache, hit/miss provenance)
and runs on its scheduling service's pool, so a service pair has one pool.
What is specific to simulation is the per-chunk schedule context: schedules
the dispatcher already holds ride with their jobs, and the persistent
schedule cache is re-opened at most once per chunk, only for jobs without
one.

The controller-simulation experiment, the campaign runner and the
``python -m repro.runtime`` JSONL CLI all simulate through this facade.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from contextlib import contextmanager
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.serialization import content_hash
from repro.hardware.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PHASE_SCHEDULE, PHASE_SIMULATE, span
from repro.runtime.messages import SimulationRequest, SimulationResponse
from repro.runtime.models import ExecutionOutcome
from repro.scenario import build_platform, materialize
from repro.service.batch import CACHE_DEFAULT, BatchCore, run_observed, run_one
from repro.service.cache import ScheduleCache
from repro.service.messages import ScheduleResponse
from repro.service.service import SchedulingService, execute_request
from repro.store.backends import SCHEDULE_CACHE_SUBDIR as _SCHEDULE_CACHE_SUBDIR
from repro.store.backends import SIM_CACHE_SUBDIR as _SIM_CACHE_SUBDIR

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import CacheBackend

SIM_CACHE_ENTRY_KIND = "repro/sim-cache-entry"
SIM_CACHE_ENTRY_VERSION = 1

# The shared two-namespace cache layout now lives with the storage backends
# (:mod:`repro.store`); re-exported here because the batch CLIs and daemon
# historically imported it from this module.
SIM_CACHE_SUBDIR = _SIM_CACHE_SUBDIR
SCHEDULE_CACHE_SUBDIR = _SCHEDULE_CACHE_SUBDIR


class SimulationCache(ScheduleCache):
    """Content-addressed store of simulation results.

    The same machinery as the schedule cache, under its own payload kind, so
    a simulation entry can never be misread as a schedule entry (or vice
    versa) even when the two caches share a directory — or one SQLite file.
    """

    METRICS_LABEL = "simulation"

    def __init__(self, directory=None, *, backend=None, metrics=None):
        super().__init__(
            directory,
            backend=backend,
            kind=SIM_CACHE_ENTRY_KIND,
            version=SIM_CACHE_ENTRY_VERSION,
            metrics=metrics,
        )


def derive_execution_seed(request: SimulationRequest) -> int:
    """Deterministic execution-RNG seed for a request that does not pin one.

    Salted so the stream decorrelates from the scenario-materialisation and
    schedule-seed streams derived from the same content hashes.
    """
    return int(
        content_hash(
            {"purpose": "runtime-execution-seed", "request": request.content_key()}
        ),
        16,
    )


def _unschedulable_response(
    request: SimulationRequest, schedule_response: ScheduleResponse, elapsed_s: float
) -> SimulationResponse:
    return SimulationResponse(
        request_id=request.request_id,
        scenario=request.scenario.name,
        method=schedule_response.spec,
        execution_model=str(request.execution_model),
        system_index=request.system_index,
        horizon=schedule_response.horizon,
        schedulable=False,
        accuracy=0.0,
        psi=0.0,
        upsilon=0.0,
        offline_psi=schedule_response.psi,
        offline_upsilon=schedule_response.upsilon,
        matches_offline=False,
        executed_jobs=0,
        skipped_jobs=0,
        faults_detected=0,
        mean_noc_latency=0.0,
        max_noc_latency=0,
        events_processed=0,
        exhausted=False,
        trace={},
        elapsed_s=elapsed_s,
    )


def _trace_summary(outcome: ExecutionOutcome) -> Dict[str, object]:
    deviations = outcome.start_time_deviations()
    return {
        "event_counts": dict(outcome.trace_counts),
        "max_deviation": max(deviations) if deviations else 0,
        "mean_deviation": (sum(deviations) / len(deviations)) if deviations else 0.0,
    }


def execute_simulation(
    request: SimulationRequest,
    *,
    scheduling: Optional[SchedulingService] = None,
    schedule_response: Optional[ScheduleResponse] = None,
) -> SimulationResponse:
    """Execute one simulation request end to end; pure in the request's content.

    ``scheduling`` is an optional scheduling service to obtain the offline
    schedule through (sharing its content-addressed schedule cache with every
    other consumer); without one the schedule is computed directly via the
    pure :func:`~repro.service.service.execute_request` — the *result* is
    identical either way, only the caching differs.  ``schedule_response``
    short-circuits scheduling entirely: it must be the (deterministic) answer
    to ``request.schedule_request()`` — this is how the service ships
    already-cached schedules to pool workers.

    The returned response carries no cache provenance (``cache="disabled"``);
    :class:`SimulationService` stamps hit/miss status and the content key on
    top.
    """
    start = time.perf_counter()
    if schedule_response is None:
        schedule_request = request.schedule_request()
        if scheduling is not None:
            # The scheduling service traces its own batch internally; the
            # span records the whole schedule-obtaining phase on *this*
            # request's trace.  The bare execute_request path records its own
            # schedule span, so either way the trace carries exactly one.
            with span(PHASE_SCHEDULE):
                schedule_response = scheduling.submit(schedule_request)
        else:
            schedule_response = execute_request(schedule_request)

    if not schedule_response.schedulable:
        return _unschedulable_response(
            request, schedule_response, time.perf_counter() - start
        )

    with span(PHASE_SIMULATE):
        # A fresh platform per execution: simulation objects are stateful.
        # With an explicit workload only the platform and faults come from
        # the scenario; otherwise the whole triple is materialised
        # deterministically.
        if request.task_set is not None:
            task_set = request.task_set
            platform = build_platform(
                request.scenario.platform,
                fault_injector=FaultInjector(list(request.scenario.faults.faults)),
            )
        else:
            materialized = materialize(request.scenario, request.system_index)
            task_set = materialized.task_set
            platform = materialized.platform

        schedules = schedule_response.device_schedules(task_set)
        seed = (
            request.seed if request.seed is not None else derive_execution_seed(request)
        )
        model = request.execution_model.resolve()
        outcome = model.execute(
            task_set, schedules, platform, seed=seed, max_events=request.max_events
        )

    return SimulationResponse(
        request_id=request.request_id,
        scenario=request.scenario.name,
        method=schedule_response.spec,
        execution_model=str(request.execution_model),
        system_index=request.system_index,
        horizon=schedule_response.horizon,
        schedulable=True,
        accuracy=outcome.accuracy,
        psi=outcome.psi,
        upsilon=outcome.upsilon,
        offline_psi=schedule_response.psi,
        offline_upsilon=schedule_response.upsilon,
        matches_offline=outcome.matches_offline,
        executed_jobs=outcome.executed_jobs,
        skipped_jobs=outcome.skipped_jobs,
        faults_detected=outcome.faults_detected,
        mean_noc_latency=outcome.mean_noc_latency,
        max_noc_latency=outcome.max_noc_latency,
        events_processed=outcome.events_processed,
        exhausted=outcome.exhausted,
        trace=_trace_summary(outcome),
        elapsed_s=time.perf_counter() - start,
    )


def _simulate(
    scheduling: Optional[SchedulingService],
    request: SimulationRequest,
    cached_schedule: Optional[Dict[str, object]] = None,
) -> SimulationResponse:
    if cached_schedule is not None:
        return execute_simulation(
            request, schedule_response=ScheduleResponse.from_result_dict(cached_schedule)
        )
    return execute_simulation(request, scheduling=scheduling)


def _schedule_context(
    scheduling: SchedulingService, requests: Sequence[SimulationRequest]
) -> Tuple[Optional[str], List[Optional[Dict[str, object]]]]:
    """The schedule context of pooled jobs (see :func:`_simulation_runner`).

    Schedules ``scheduling`` already holds (e.g. the ones a campaign's
    schedule cells just computed) ride with their jobs, so workers never
    recompute them — even when the schedule cache is memory-only.  One
    batched peek covers all jobs.
    """
    schedule_cache = scheduling.cache
    if schedule_cache is None:
        return None, [None] * len(requests)
    keys = [request.schedule_request().content_key() for request in requests]
    peeked = schedule_cache.peek_many(keys)
    return schedule_cache.backend_spec(), [peeked.get(key) for key in keys]


@contextmanager
def _simulation_runner(
    schedule_backend_spec: Optional[str],
) -> Iterator[Callable[..., SimulationResponse]]:
    """Pool side of :class:`SimulationService`: at most one schedule cache per chunk.

    A job's ``extra`` is the schedule the dispatching service already held,
    as its deterministic ``result_dict`` (no recomputation at all).  Jobs
    without one share the dispatcher's persistent schedule cache, re-opened
    from its backend spec string (see :meth:`ScheduleCache.backend_spec
    <repro.service.cache.ScheduleCache.backend_spec>`) by the chunk's first
    such job, so pool workers reuse schedules computed by anyone — every
    backend writes atomically and is safe for concurrent writers — and a
    chunk whose schedules all ride along opens nothing.  Without a spec,
    schedules are computed in-process.
    """
    if schedule_backend_spec is None:
        yield partial(_simulate, None)
        return
    opened: List[SchedulingService] = []

    def simulate(
        request: SimulationRequest, cached_schedule: Optional[Dict[str, object]]
    ) -> SimulationResponse:
        if cached_schedule is None and not opened:
            from repro.store import create_backend

            schedule_cache = ScheduleCache(backend=create_backend(schedule_backend_spec))
            opened.append(SchedulingService(cache=schedule_cache))
        return _simulate(opened[0] if opened else None, request, cached_schedule)

    try:
        yield simulate
    finally:
        for scheduling in opened:
            scheduling.close()
            scheduling.cache.close()


class SimulationService:
    """Request/response facade over run-time execution, with batching and caching.

    Parameters
    ----------
    n_workers:
        Worker processes for batch execution; ``1`` (the default) runs
        serially in-process.  Responses are bit-identical at any worker
        count.  Pooled work runs on the pool of the scheduling service (an
        owned one gets this ``n_workers``); only a scheduling service without
        a local pool, such as :class:`~repro.server.RemoteSchedulingService`,
        makes this service start a pool of its own.
    cache_dir:
        Directory for the persistent simulation-response cache; ``None``
        keeps the cache in memory only.
    cache_backend:
        Storage-backend spec string (see :mod:`repro.store`) or live
        :class:`~repro.store.CacheBackend` for the simulation-response
        cache; directory specs persist under ``root/sim-responses``.  When
        no ``scheduling`` service is given, the owned one opens the same
        spec too (its directory form lands under ``root/schedules``; a
        single-file backend like SQLite holds both caches in one store,
        separated by payload kind).  Backends opened from a string are
        owned (closed with the service).
    cache:
        An explicit :class:`SimulationCache` to share between services, or
        ``None`` to disable response caching (in-batch dedup still applies).
    scheduling:
        An existing :class:`~repro.service.SchedulingService` (or a
        duck-typed one) to obtain offline schedules through; the caller
        keeps ownership of it and of its pool.  ``None`` creates an owned one
        over ``schedule_cache_dir`` (or ``cache_backend``).
    schedule_cache_dir:
        Persistent schedule-cache directory for the owned scheduling service
        *and* for pool workers (each worker opens the shared directory).
        When ``scheduling`` is given with a persistent cache, its backend
        spec is shipped to the workers automatically.
    chunksize:
        Jobs per pool chunk for batch dispatch; ``None`` (the default) sends
        two, so a full window is four chunks per worker; a chunk never
        spans more than one window refill (see
        :class:`~repro.service.batch.BatchCore`).  Each chunk ships its
        distinct scenario envelopes once and re-opens the persistent schedule
        cache at most once.  Responses are bit-identical at any chunk size.
    """

    #: Value of the ``kind`` label on this service's registry metrics.
    METRICS_KIND = "simulation"

    def __init__(
        self,
        *,
        n_workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_backend: Optional[Union[str, "CacheBackend"]] = None,
        cache: Union[SimulationCache, None, object] = CACHE_DEFAULT,
        scheduling: Optional[SchedulingService] = None,
        schedule_cache_dir: Optional[str] = None,
        chunksize: Optional[int] = None,
    ):
        if scheduling is not None and schedule_cache_dir is not None:
            raise ValueError(
                "pass either an existing scheduling service or schedule_cache_dir, not both"
            )
        if cache_backend is not None and schedule_cache_dir is not None:
            raise ValueError(
                "pass either cache_backend or schedule_cache_dir, not both"
            )
        self._owns_scheduling = scheduling is None
        if scheduling is None:
            scheduling = SchedulingService(
                n_workers=n_workers,
                cache_dir=schedule_cache_dir,
                cache_backend=cache_backend if isinstance(cache_backend, str) else None,
            )
        self.scheduling = scheduling
        try:
            #: The batch core: pool, cache, dedup, provenance and metrics.  Its
            #: hooks hold the scheduling service, not ``self``, so a closed
            #: service is freed without waiting for the cyclic collector.
            self.core = BatchCore(
                kind=self.METRICS_KIND,
                response_class=SimulationResponse,
                cache_class=SimulationCache,
                cache_subdir=SIM_CACHE_SUBDIR,
                execute=partial(_simulate, scheduling),
                runner=_simulation_runner,
                job_context=partial(_schedule_context, scheduling),
                n_workers=n_workers,
                chunksize=chunksize,
                cache_dir=cache_dir,
                cache_backend=cache_backend,
                cache=cache,
            )
        except ValueError:
            if self._owns_scheduling:
                scheduling.close()
            raise
        if isinstance(scheduling, SchedulingService):
            self.core.share_pool(scheduling.core)
        self.n_workers = n_workers
        self.chunksize = chunksize
        self.registry = self.core.registry
        self.cache: Optional[SimulationCache] = self.core.cache

    #: Requests actually simulated (cache misses) over this service's lifetime.
    computed = property(lambda self: self.core.computed)
    #: Phase breakdowns of the most recent :meth:`submit_batch`.
    last_traces = property(lambda self: self.core.last_traces)

    def close(self) -> None:
        self.core.close()
        if self._owns_scheduling:
            self.scheduling.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, request: SimulationRequest) -> SimulationResponse:
        """Execute one request (through the cache)."""
        return self.submit_batch([request])[0]

    def submit_batch(
        self,
        requests: Iterable[SimulationRequest],
        on_response: Optional[Callable[[int, SimulationResponse], None]] = None,
    ) -> List[SimulationResponse]:
        """Execute a batch through the cache; see :meth:`BatchCore.submit_batch`."""
        return self.core.submit_batch(requests, on_response)

    def execute_in_pool(self, request: SimulationRequest) -> "Future[SimulationResponse]":
        """Submit one request to the worker pool; returns its future.

        The *awaitable unit* of simulation execution (no response-cache
        lookup, no provenance): a schedule the scheduling service already
        holds ships with the job, otherwise the worker resolves it through
        the shared on-disk schedule cache (or computes it in-process).  The
        async serving daemon (:mod:`repro.server`) wraps these futures into
        its event loop; synchronous callers should prefer :meth:`submit`.
        """
        return self.core.submit_job(request, run_one)

    def execute_in_pool_observed(
        self, request: SimulationRequest
    ) -> "Future[Tuple[SimulationResponse, Dict[str, object], Dict[str, object]]]":
        """Like :meth:`execute_in_pool`; resolves to ``(response, trace_dict,
        registry_snapshot)``."""
        return self.core.submit_job(request, run_observed)

    def stats(self) -> Dict[str, object]:
        """Lifetime counters; see :meth:`BatchCore.stats`."""
        return self.core.stats()

    def metrics_registries(self) -> List[MetricsRegistry]:
        """Every distinct registry this service's metrics live on (including
        the scheduling service it obtains offline schedules through)."""
        return self.core.metrics_registries(self.scheduling)

    def metrics(self) -> Dict[str, object]:
        """Merged snapshot of this service's metrics (counters + histograms)."""
        return self.core.metrics(self.scheduling)
