"""The batch-execution core behind the scheduling and simulation services.

:class:`~repro.service.SchedulingService` and
:class:`~repro.runtime.SimulationService` answer different questions but
batch them the same way; :class:`BatchCore` is that way, written once:

* a **worker pool** (``ProcessPoolExecutor``; ``n_workers=1`` runs serially
  in-process), created lazily, reused across batches and shareable — a
  simulation service runs its pooled chunks on the pool of the scheduling
  service it schedules through, so a service pair has one pool;
* the **response cache** — one batched lookup per batch, every distinct
  content key computed at most once, one batched write of the fresh results;
* **provenance** — every response records whether it was a cache ``hit`` or
  ``miss`` (or ``disabled``) and under which content key;
* **observation** — per-request phase traces and latency histograms; pool
  workers observe their own phases and ship a registry snapshot back, so
  pooled totals equal serial ones.

A service supplies only what is specific to its kind: the serial execute
function, a pool-side *runner* and, optionally, a per-chunk job context.  A
runner is a module-level context manager: ``runner(context)`` sets one chunk
up and yields ``execute(request, extra)`` for each of its jobs, ``extra``
being the job's share of the context.  Responses are bit-identical at any
worker count and chunk size, because every execute function is pure in the
request's content.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.memo import drain_memo_metrics
from repro.obs.metrics import (
    REQUESTS_TOTAL,
    MetricsRegistry,
    merge_snapshots,
    observe_phases,
)
from repro.obs.trace import (
    PHASE_CACHE_LOOKUP,
    PHASE_QUEUE_WAIT,
    PHASE_STORE,
    Trace,
    activate,
    new_trace_id,
)
from repro.service.messages import CACHE_DISABLED, CACHE_HIT, CACHE_MISS

#: Default of a service's ``cache`` argument (``None`` disables the cache).
CACHE_DEFAULT: Any = object()


def slim_request(request: Any, scenarios: Dict[str, Any]) -> Any:
    """The chunk-payload form of ``request``; fills ``scenarios``.

    A scenario-backed request (no explicit ``task_set``) ships its fields
    with ``scenario`` replaced by the scenario's content key; the envelope
    itself goes into the chunk's shared ``scenarios`` table exactly once,
    however many jobs of the chunk reference it.  The memoised content key
    rides along, so nobody re-hashes it; a memoised task set does not (the
    worker re-materialises it deterministically).  Requests with an explicit
    task set ship whole.
    """
    if request.task_set is not None:
        return request
    scenario_key = request.scenario.content_key()
    scenarios.setdefault(scenario_key, request.scenario)
    state = dict(vars(request))
    state.pop("_materialized_task_set", None)
    state["scenario"] = scenario_key
    return type(request), state


def inflate_request(entry: Any, scenarios: Dict[str, Any]) -> Any:
    """Rebuild the request :func:`slim_request` shipped, content-identical."""
    if not isinstance(entry, tuple):
        return entry
    request_class, state = entry
    request = object.__new__(request_class)
    request.__dict__.update(state)
    request.__dict__["scenario"] = scenarios[state["scenario"]]
    return request


def run_chunk(payload: Tuple[Any, ...]) -> Tuple[List[Tuple[Any, Dict[str, Any]]], Dict[str, Any]]:
    """Pool-worker entry: execute one chunk of jobs.

    ``payload`` is ``(runner, context, kind, scenarios, entries,
    submitted_monotonic)`` with one ``(slim request, trace_id, extra)`` entry
    per job.  Each job runs under its own trace, whose queue-wait is measured
    when the job's turn comes (``time.monotonic`` is comparable across
    processes on one machine); the chunk ships one registry snapshot covering
    every job plus this worker's memo-cache deltas.
    """
    runner, context, kind, scenarios, entries, submitted = payload
    registry = MetricsRegistry()
    outcomes: List[Tuple[Any, Dict[str, Any]]] = []
    with runner(context) as execute:
        for entry, trace_id, extra in entries:
            request = inflate_request(entry, scenarios)
            trace = Trace(trace_id)
            if submitted is not None:
                trace.add_phase(PHASE_QUEUE_WAIT, time.monotonic() - submitted)
            with activate(trace):
                response = execute(request, extra)
            observe_phases(registry, kind, trace.phases)
            outcomes.append((response, trace.to_dict()))
    drain_memo_metrics(registry)
    return outcomes, registry.snapshot()


def run_observed(payload: Tuple[Any, ...]) -> Tuple[Any, Dict[str, Any], Dict[str, Any]]:
    """Pool-worker entry for a one-job chunk: ``(response, trace, snapshot)``."""
    ((response, trace),), snapshot = run_chunk(payload)
    return response, trace, snapshot


def run_one(payload: Tuple[Any, ...]) -> Any:
    """Pool-worker entry for a one-job chunk: just the response."""
    return run_observed(payload)[0]


class BatchCore:
    """Pool, cache, dedup, provenance and observation for one kind of request.

    Parameters
    ----------
    kind:
        The ``kind`` label of this core's registry metrics.
    response_class:
        The response envelope; cache hits are rebuilt with its
        ``from_result_dict``.
    cache_class, cache_subdir:
        The cache to open and the namespace a ``cache_backend`` spec opens it
        under.
    execute:
        ``request -> response`` for the serial path.
    runner:
        The pool-side runner (see the module docstring); must be picklable
        by reference, i.e. a module-level function.
    job_context:
        ``requests -> (context, extras)`` for pooled dispatch: ``context`` is
        handed to the runner once per chunk, ``extras[i]`` travels with
        ``requests[i]``.  ``None`` ships no context.
    n_workers, chunksize, cache_dir, cache_backend, cache:
        As documented on the services.
    """

    def __init__(
        self,
        *,
        kind: str,
        response_class: Any,
        cache_class: Any,
        cache_subdir: str,
        execute: Callable[[Any], Any],
        runner: Callable[[Any], Any],
        job_context: Optional[Callable[[Sequence[Any]], Tuple[Any, List[Any]]]] = None,
        n_workers: int = 1,
        chunksize: Optional[int] = None,
        cache_dir: Optional[str] = None,
        cache_backend: Any = None,
        cache: Any = CACHE_DEFAULT,
    ):
        if not isinstance(n_workers, int) or n_workers < 1:
            raise ValueError(f"n_workers must be a positive integer, got {n_workers!r}")
        if chunksize is not None and (not isinstance(chunksize, int) or chunksize < 1):
            raise ValueError(f"chunksize must be a positive integer, got {chunksize!r}")
        given = [
            name
            for name, present in (
                ("cache_dir", cache_dir is not None),
                ("cache_backend", cache_backend is not None),
                ("cache", cache is not CACHE_DEFAULT),
            )
            if present
        ]
        if len(given) > 1:
            raise ValueError(
                f"pass at most one of cache_dir, cache_backend and cache, "
                f"not both {' and '.join(given)}"
            )
        self.kind = kind
        self.response_class = response_class
        self.n_workers = n_workers
        self.chunksize = chunksize
        self._execute = execute
        self._runner = runner
        self._job_context = job_context
        #: Request counters, per-phase latency histograms and — for caches
        #: the core opens itself — the cache operation counters.
        self.registry = MetricsRegistry()
        self._owns_cache = False
        if cache_backend is not None:
            from repro.store import create_backend

            self.cache = cache_class(
                backend=create_backend(cache_backend, subdir=cache_subdir),
                metrics=self.registry,
            )
            self._owns_cache = isinstance(cache_backend, str)
        elif cache is CACHE_DEFAULT:
            self.cache = cache_class(cache_dir, metrics=self.registry)
        else:
            self.cache = cache
        #: The core whose pool pooled work runs on; ``None`` means this one
        #: (not ``self``: a reference cycle would keep a closed core's cache
        #: entries alive until the cyclic garbage collector runs).
        self._pool_owner: Optional[BatchCore] = None
        self._executor: Optional[Executor] = None
        #: Requests actually computed (cache misses) over the core's lifetime.
        self.computed = 0
        #: Phase breakdowns of the most recent :meth:`submit_batch`, one
        #: ``{"trace_id", "phases"}`` dict per request in request order.
        self.last_traces: List[Dict[str, Any]] = []

    # -- the pool ----------------------------------------------------------------

    def share_pool(self, other: "BatchCore") -> None:
        """Run pooled work on ``other``'s pool; ``other`` keeps ownership."""
        self._pool_owner = other._pool_owner or other

    def executor(self) -> Executor:
        """The pool this core runs on, created on first use."""
        owner = self._pool_owner or self
        if owner._executor is None:
            owner._executor = ProcessPoolExecutor(max_workers=owner.n_workers)
        return owner._executor

    def close(self) -> None:
        """Shut down the pool this core owns (not a shared one) and its cache."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._owns_cache and self.cache is not None:
            self.cache.close()

    def submit_job(self, request: Any, entry_point: Callable) -> Future:
        """Submit one request to the pool as a one-job chunk of ``entry_point``
        (:func:`run_one` or :func:`run_observed`)."""
        payload = self._chunk_payload([request], [new_trace_id()], time.monotonic())
        return self.executor().submit(entry_point, payload)

    def _chunk_payload(
        self, requests: Sequence[Any], trace_ids: Sequence[str], submitted: float
    ) -> Tuple[Any, ...]:
        if self._job_context is None:
            context, extras = None, [None] * len(requests)
        else:
            context, extras = self._job_context(requests)
        scenarios: Dict[str, Any] = {}
        entries = [
            (slim_request(request, scenarios), trace_id, extra)
            for request, trace_id, extra in zip(requests, trace_ids, extras)
        ]
        return self._runner, context, self.kind, scenarios, entries, submitted

    # -- batches -----------------------------------------------------------------

    def submit_batch(self, requests: Iterable[Any]) -> List[Any]:
        """Execute a batch; responses are returned in request order.

        Cached and duplicate requests are not recomputed: every distinct
        content key in the batch is executed at most once, and each
        response's ``cache`` field records what happened
        (``hit``/``miss``/``disabled``).  Per-request phase breakdowns land in
        :attr:`last_traces` and the phase latency histograms of
        :attr:`registry`; responses carry none of it.
        """
        requests = list(requests)
        responses: List[Any] = [None] * len(requests)
        keys = [request.content_key() for request in requests]
        traces = [Trace() for _ in requests]
        kind = self.kind

        # One batched lookup covers the whole batch: each distinct key goes to
        # the cache (and its backend) exactly once, however often it repeats.
        # Hit/miss statistics still count per position, and each position's
        # trace carries an equal share of the lookup so phase totals match.
        lookup_started = time.monotonic()
        found = self.cache.get_many(keys) if self.cache is not None else {}
        lookup_share = (
            (time.monotonic() - lookup_started) / len(requests) if requests else 0.0
        )

        # Key -> positions still to answer, in first-seen order.
        pending: Dict[str, List[int]] = {}
        for position, (request, key) in enumerate(zip(requests, keys)):
            trace = traces[position]
            trace.add_phase(PHASE_CACHE_LOOKUP, lookup_share)
            observe_phases(self.registry, kind, trace.phases[-1:])
            cached = found.get(key)
            if cached is not None:
                responses[position] = self.response_class.from_result_dict(
                    cached, request_id=request.request_id, cache=CACHE_HIT, cache_key=key
                )
            else:
                pending.setdefault(key, []).append(position)

        computed = self._execute_unique(
            [
                (key, requests[positions[0]], traces[positions[0]])
                for key, positions in pending.items()
            ]
        )

        # Mirror image of the lookup: all freshly computed results persist in
        # one batched write (one SQLite transaction), each leader trace taking
        # an equal share of the store phase.
        store_share = 0.0
        if self.cache is not None and pending:
            store_started = time.monotonic()
            self.cache.put_many(
                [(key, computed[key].result_dict()) for key in pending]
            )
            store_share = (time.monotonic() - store_started) / len(pending)
        for key, positions in pending.items():
            base = computed[key]
            if self.cache is not None:
                leader_trace = traces[positions[0]]
                leader_trace.add_phase(PHASE_STORE, store_share)
                observe_phases(self.registry, kind, leader_trace.phases[-1:])
            for occurrence, position in enumerate(positions):
                if self.cache is None:
                    status = CACHE_DISABLED
                else:
                    status = CACHE_MISS if occurrence == 0 else CACHE_HIT
                responses[position] = replace(
                    base,
                    request_id=requests[position].request_id,
                    cache=status,
                    cache_key=key,
                )
        for response in responses:
            self.registry.counter_inc(
                REQUESTS_TOTAL,
                help="Requests answered, by kind and cache status.",
                kind=kind,
                cache=response.cache,
            )
        # Serial-path executions ran memo caches in this process; fold their
        # hit/miss deltas into the registry (pooled chunks already shipped
        # theirs inside the merged snapshots).
        drain_memo_metrics(self.registry)
        self.last_traces = [trace.to_dict() for trace in traces]
        return responses

    def _execute_unique(self, work) -> Dict[str, Any]:
        """Execute one request per distinct content key; phases land on the
        leader's trace (``work`` is ``(key, request, trace)`` triples)."""
        if not work:
            return {}
        if self.n_workers == 1 or len(work) == 1:
            results = []
            for _, request, trace in work:
                before = len(trace.phases)
                with activate(trace):
                    results.append(self._execute(request))
                observe_phases(self.registry, self.kind, trace.phases[before:])
        else:
            submitted = time.monotonic()
            chunksize = self.chunksize or max(1, len(work) // (self.n_workers * 4))
            executor = self.executor()
            futures = []
            for start in range(0, len(work), chunksize):
                chunk = work[start : start + chunksize]
                payload = self._chunk_payload(
                    [request for _, request, _ in chunk],
                    [trace.trace_id for _, _, trace in chunk],
                    submitted,
                )
                futures.append(executor.submit(run_chunk, payload))
            results = []
            for future in futures:
                outcomes, snapshot = future.result()
                # The worker already observed its phases (queue-wait and
                # compute) into the shipped snapshot; merging it here is what
                # makes pooled totals equal serial totals.
                self.registry.merge(snapshot)
                for response, trace_dict in outcomes:
                    work[len(results)][2].phases.extend(trace_dict["phases"])
                    results.append(response)
        self.computed += len(results)
        return {key: result for (key, _, _), result in zip(work, results)}

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters: requests computed plus cache hit/miss/store totals.

        ``cache_backend`` describes where cache entries persist (backend name,
        location, entry count, size) — ``{"name": "memory"}`` when the cache
        only lives in this process.
        """
        stats: Dict[str, Any] = {"computed": self.computed}
        if self.cache is not None:
            cache_stats = self.cache.stats()
            stats.update(
                cache_entries=cache_stats["entries"],
                cache_hits=cache_stats["hits"],
                cache_misses=cache_stats["misses"],
                cache_stores=cache_stats["stores"],
                cache_backend=cache_stats["backend"],
            )
        return stats

    def metrics_registries(self, *linked: Any) -> List[MetricsRegistry]:
        """Every distinct registry of this core and of the ``linked`` services."""
        registries = [self.registry]
        if self.cache is not None:
            registries.append(self.cache.registry)
        for service in linked:
            registries.extend(service.metrics_registries())
        distinct: List[MetricsRegistry] = []
        for registry in registries:
            if all(registry is not seen for seen in distinct):
                distinct.append(registry)
        return distinct

    def metrics(self, *linked: Any) -> Dict[str, Any]:
        """Merged snapshot of :meth:`metrics_registries` (counters + histograms)."""
        return merge_snapshots(
            registry.snapshot() for registry in self.metrics_registries(*linked)
        )
