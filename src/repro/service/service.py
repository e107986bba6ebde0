"""The scheduling service: batch request execution over a reusable worker pool.

:func:`execute_request` is the single, *pure* execution path: resolve the
request's spec through the scheduler registry, schedule the task set, and
fold the outcome into a :class:`~repro.service.messages.ScheduleResponse`.
Purity is load-bearing — for stochastic methods that were not given an
explicit ``seed`` option (the GA), the service derives one from the request's
content hash, so the same request yields bit-identical results in-process, on
any worker of the pool, and across runs.  That is what makes the
content-addressed :class:`~repro.service.cache.ScheduleCache` sound.

:class:`SchedulingService` is a thin adapter over the shared
:class:`~repro.service.batch.BatchCore`, which adds the worker pool, the
schedule cache with in-batch dedup, and hit/miss provenance on every
response; this module supplies only the execute function and its pool-side
runner.

The campaign runner, the experiment engine's sweeps, the controller
simulation, the serving daemon and the ``python -m repro.service`` JSONL CLI
all schedule through this facade.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.metrics import aggregate_psi, aggregate_upsilon
from repro.core.serialization import content_hash, schedule_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PHASE_SCHEDULE, span
from repro.scheduling.base import SystemScheduleResult
from repro.service.batch import CACHE_DEFAULT, BatchCore, run_observed, run_one
from repro.service.cache import ScheduleCache
from repro.service.messages import ScheduleRequest, ScheduleResponse
from repro.service.spec import SchedulerSpec
from repro.store.backends import SCHEDULE_CACHE_SUBDIR

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import CacheBackend

#: Spec names for which the service derives a deterministic seed when the
#: request does not pin one.  Methods registered here must accept a ``seed``
#: keyword override.
DERIVED_SEED_METHODS = frozenset({"ga"})

#: Scalar types of per-device ``info`` diagnostics that responses carry over.
_SCALAR_INFO_TYPES = (bool, int, float, str, type(None))


def derive_seed(request: ScheduleRequest) -> int:
    """Deterministic RNG seed derived from the request's content.

    Salted so the stream decorrelates from any other use of the same hash.
    """
    return int(content_hash({"purpose": "service-derived-seed", "request": request.content_key()}), 16)


def effective_spec(request: ScheduleRequest) -> SchedulerSpec:
    """The spec actually executed: the request's, plus a derived seed if needed."""
    spec = request.spec
    if spec.name in DERIVED_SEED_METHODS and spec.options_dict().get("seed") is None:
        return spec.with_options(seed=derive_seed(request))
    return spec


def ga_best_objectives(result: SystemScheduleResult) -> Tuple[float, float]:
    """Aggregate the best-Psi and best-Upsilon Pareto points across devices.

    Each per-device GA search yields its own Pareto front; the system-level
    figures use the best-Psi (respectively best-Upsilon) schedule of every
    partition, aggregated job-weighted, mirroring how the paper reports "the
    best result obtained for each objective".  For single-schedule methods the
    per-device fronts degenerate to the produced schedule, so the aggregates
    equal the plain system Psi/Upsilon.
    """
    best_psi_schedules = []
    best_upsilon_schedules = []
    for device_result in result.per_device.values():
        info = device_result.info
        psi_schedule = info.get("best_psi_schedule") or device_result.schedule
        upsilon_schedule = info.get("best_upsilon_schedule") or device_result.schedule
        if psi_schedule is not None:
            best_psi_schedules.append(psi_schedule)
        if upsilon_schedule is not None:
            best_upsilon_schedules.append(upsilon_schedule)
    best_psi = aggregate_psi(best_psi_schedules) if best_psi_schedules else 0.0
    best_upsilon = aggregate_upsilon(best_upsilon_schedules) if best_upsilon_schedules else 0.0
    return best_psi, best_upsilon


def _effective_horizon(request: ScheduleRequest) -> int:
    if request.horizon is not None:
        return request.horizon
    task_set = request.effective_task_set()
    return task_set.hyperperiod() if len(task_set) else 0


def build_response(
    request: ScheduleRequest,
    spec: SchedulerSpec,
    result: SystemScheduleResult,
    *,
    produces_schedule: bool = True,
    elapsed_s: float = 0.0,
) -> ScheduleResponse:
    """Fold a scheduler outcome into the response envelope (deterministic)."""
    if not produces_schedule:
        return ScheduleResponse(
            request_id=request.request_id,
            spec=str(spec),
            horizon=_effective_horizon(request),
            schedulable=bool(result.schedulable),
            psi=0.0,
            upsilon=0.0,
            best_psi=0.0,
            best_upsilon=0.0,
            per_device={},
            elapsed_s=elapsed_s,
        )

    task_set = request.effective_task_set()
    per_device: Dict[str, Dict[str, Any]] = {}
    # A summary request answers with the system-level figures only.
    devices = {} if request.summary else result.per_device
    for device, device_result in devices.items():
        schedule = device_result.schedule
        info = {
            key: value
            for key, value in device_result.info.items()
            if isinstance(value, _SCALAR_INFO_TYPES)
        }
        per_device[device] = {
            "schedulable": bool(device_result.schedulable),
            "psi": device_result.psi,
            "upsilon": device_result.upsilon,
            "n_jobs": device_result.metrics.n_jobs,
            "schedule": (
                schedule_to_dict(schedule, task_set) if schedule is not None else None
            ),
            "info": info,
        }

    best_psi, best_upsilon = ga_best_objectives(result)
    return ScheduleResponse(
        request_id=request.request_id,
        spec=str(spec),
        horizon=_effective_horizon(request),
        schedulable=bool(result.schedulable),
        psi=result.psi,
        upsilon=result.upsilon,
        best_psi=best_psi,
        best_upsilon=best_upsilon,
        per_device=per_device,
        elapsed_s=elapsed_s,
    )


def execute_request(request: ScheduleRequest) -> ScheduleResponse:
    """Execute one request end to end; pure in the request's content.

    The returned response carries no cache provenance (``cache="disabled"``);
    the service stamps hit/miss status and the content key on top.
    """
    start = time.perf_counter()
    spec = effective_spec(request)
    scheduler = spec.resolve()
    task_set = request.effective_task_set()
    with span(PHASE_SCHEDULE):
        if request.horizon is None:
            result = scheduler.schedule_taskset(task_set)
        else:
            result = scheduler.schedule_taskset(task_set, request.horizon)
    produces_schedule = bool(getattr(scheduler, "produces_schedule", True))
    elapsed = time.perf_counter() - start
    return build_response(
        request, spec, result, produces_schedule=produces_schedule, elapsed_s=elapsed
    )




def execute_request_observed(
    args: Tuple[ScheduleRequest, Optional[str], Optional[float]],
) -> Tuple[ScheduleResponse, Dict[str, Any], Dict[str, Any]]:
    """:func:`execute_request` under a fresh trace + registry.

    ``args`` is ``(request, trace_id, submitted_monotonic)``.  The request runs
    under a trace opened with ``trace_id``, which records the queue-wait since
    ``submitted_monotonic`` (``time.monotonic`` is comparable across processes
    on one machine); the result is ``(response, trace_dict,
    registry_snapshot)`` — the response itself is untouched, so answers stay
    byte-identical with or without observation.
    """
    request, trace_id, submitted = args
    entries = [(request, trace_id, None)]
    return run_observed((_schedule_runner, None, "schedule", {}, entries, submitted))


@contextmanager
def _schedule_runner(_context: None) -> Iterator[Callable[..., ScheduleResponse]]:
    """Pool side of :class:`SchedulingService`: no per-chunk set-up."""
    yield lambda request, _extra: execute_request(request)


class SchedulingService:
    """Request/response facade over the schedulers, with batching and caching.

    Parameters
    ----------
    n_workers:
        Worker processes for batch execution; ``1`` (the default) runs
        serially in-process.  Responses are bit-identical at any worker
        count.  A :class:`~repro.runtime.SimulationService` scheduling through
        this service runs its pooled work on this service's pool too.
    cache_dir:
        Directory for the persistent schedule cache; ``None`` keeps the
        cache in memory only.
    cache_backend:
        Storage-backend spec string (see :mod:`repro.store`) — e.g.
        ``sqlite:path=cache.db`` or ``directory:root=DIR`` — or a live
        :class:`~repro.store.CacheBackend`.  Directory specs persist under
        ``root/schedules`` (the shared two-namespace cache layout);
        ``cache_dir`` remains the shorthand for using a directory as the
        schedule cache *root* directly.  The service owns a backend it
        opened from a string (closed with the service).
    cache:
        An explicit :class:`ScheduleCache` to share between services, or
        ``None`` to disable the cache: nothing is stored across batches and
        responses carry ``cache="disabled"``.  Content-identical requests
        *within* one batch are still computed only once (the execution path
        is pure, so recomputing them could never change the answer).
    chunksize:
        Jobs per pool chunk for batch dispatch; ``None`` (the default) sends
        two, so a full window is four chunks per worker; a chunk never
        spans more than one window refill (see
        :class:`~repro.service.batch.BatchCore`).  Each chunk ships its
        distinct scenario envelopes once, however many jobs reference them.
        Responses are bit-identical at any chunk size.

    Use the service as a context manager (or call :meth:`close`) to release
    the worker pool.
    """

    #: Value of the ``kind`` label on this service's registry metrics.
    METRICS_KIND = "schedule"

    def __init__(
        self,
        *,
        n_workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_backend: Optional[Union[str, "CacheBackend"]] = None,
        cache: Union[ScheduleCache, None, object] = CACHE_DEFAULT,
        chunksize: Optional[int] = None,
    ):
        #: The batch core: pool, cache, dedup, provenance and metrics.
        self.core = BatchCore(
            kind=self.METRICS_KIND,
            response_class=ScheduleResponse,
            cache_class=ScheduleCache,
            cache_subdir=SCHEDULE_CACHE_SUBDIR,
            execute=lambda request: execute_request(request),
            runner=_schedule_runner,
            n_workers=n_workers,
            chunksize=chunksize,
            cache_dir=cache_dir,
            cache_backend=cache_backend,
            cache=cache,
        )
        self.n_workers = n_workers
        self.chunksize = chunksize
        self.registry = self.core.registry
        self.cache: Optional[ScheduleCache] = self.core.cache

    #: Requests actually computed (cache misses) over this service's lifetime.
    computed = property(lambda self: self.core.computed)
    #: Phase breakdowns of the most recent :meth:`submit_batch`.
    last_traces = property(lambda self: self.core.last_traces)

    def close(self) -> None:
        self.core.close()

    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, request: ScheduleRequest) -> ScheduleResponse:
        """Execute one request (through the cache)."""
        return self.submit_batch([request])[0]

    def submit_batch(
        self,
        requests: Iterable[ScheduleRequest],
        on_response: Optional[Callable[[int, ScheduleResponse], None]] = None,
    ) -> List[ScheduleResponse]:
        """Execute a batch through the cache; see :meth:`BatchCore.submit_batch`."""
        return self.core.submit_batch(requests, on_response)

    def execute_in_pool(self, request: ScheduleRequest) -> "Future[ScheduleResponse]":
        """Submit one request to the worker pool; returns its future.

        This is the *awaitable unit* of request execution: no cache lookup,
        no provenance stamping — just the pure :func:`execute_request` running
        on the pool.  The async serving daemon (:mod:`repro.server`) wraps
        these futures into its event loop and layers cache + in-flight dedup
        on top; synchronous callers should prefer :meth:`submit`.
        """
        return self.core.submit_job(request, run_one)

    def execute_in_pool_observed(
        self, request: ScheduleRequest
    ) -> "Future[Tuple[ScheduleResponse, Dict[str, Any], Dict[str, Any]]]":
        """Like :meth:`execute_in_pool`; resolves to ``(response, trace_dict,
        registry_snapshot)`` (see :func:`execute_request_observed`)."""
        return self.core.submit_job(request, run_observed)

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters; see :meth:`BatchCore.stats`."""
        return self.core.stats()

    def metrics_registries(self) -> List[MetricsRegistry]:
        """Every distinct registry this service's metrics live on."""
        return self.core.metrics_registries()

    def metrics(self) -> Dict[str, Any]:
        """Merged snapshot of this service's metrics (counters + histograms)."""
        return self.core.metrics()
