"""The batch-execution core behind the scheduling and simulation services.

:class:`~repro.service.SchedulingService` and
:class:`~repro.runtime.SimulationService` answer different questions but
batch them the same way; :class:`BatchCore` is that way, written once:

* a **worker pool** (``ProcessPoolExecutor``; ``n_workers=1`` runs serially
  in-process), created lazily, reused across batches and shareable — a
  simulation service runs its pooled chunks on the pool of the scheduling
  service it schedules through, so a service pair has one pool;
* a **sliding window** — a batch streams through at most
  :data:`WINDOW_PER_WORKER` ``* n_workers`` requests at a time: looked up
  together, computed as soon as a worker is free, and handed back in request
  order (to an optional callback) the moment they and every earlier request
  are done, so a caller can checkpoint a long batch without a barrier;
* the **response cache** — one batched lookup per window, every distinct
  content key computed at most once per batch, one batched write of the
  fresh results before they are handed back;
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
worker count, chunk size and window, because every execute function is pure
in the request's content.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
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

#: Requests a batch may have looked up but not yet handed back, per worker.
WINDOW_PER_WORKER = 8


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
        #: The most requests a batch has looked up (and submitted) but not yet
        #: handed back — and so the most work an interrupt can lose.
        self.window = WINDOW_PER_WORKER * n_workers
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

    def submit_batch(
        self,
        requests: Iterable[Any],
        on_response: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Execute a batch; responses are returned in request order.

        Cached and duplicate requests are not recomputed: every distinct
        content key in the batch is executed at most once, and each
        response's ``cache`` field records what happened
        (``hit``/``miss``/``disabled``).  Per-request phase breakdowns land in
        :attr:`last_traces` and the phase latency histograms of
        :attr:`registry`; responses carry none of it.

        The batch streams through a window of :attr:`window` requests:
        requests are taken from ``requests`` (any iterable) as the window
        reaches them and let go once handed back, keys are looked up a window
        at a time, and a pool worker that finishes a
        job finds the next one already queued, so no worker waits for a batch
        boundary.  ``on_response(position, response)`` is called once per
        response, in request order, as soon as that response and every
        earlier one are done — and only after a freshly computed result is
        persisted, so the cache holds everything a caller has recorded.  At
        most :attr:`window` requests are ever looked up but undelivered: that
        is the most an interrupt, or an exception from ``on_response``, can
        lose.  Either cancels the undelivered pool jobs and propagates.

        Run inline (one worker, or a lone request), the batch computes one
        job where the pool would wait for one: each result is persisted and
        handed back before the next job starts, so an interrupt loses no
        computed result, while lookups stay batched a window at a time.
        """
        batch = _Batch(requests)
        try:
            batch.pull(2)
            # A lone request runs in-process: a pool task would only add a
            # round trip (and possibly the pool's start-up) to the same
            # computation.
            inline = self.n_workers == 1 or batch.pulled == 1
            while True:
                # One request past the window tells whether the rest fits.
                batch.pull(batch.delivered + self.window + 1)
                if batch.delivered == batch.pulled:
                    break
                # Refill once half the window is free (or the rest fits): each
                # lookup stays batched, and the pool never runs dry.
                end = min(batch.pulled, batch.delivered + self.window)
                if batch.looked_up < batch.pulled and end - batch.looked_up >= min(
                    self.window // 2, batch.pulled - batch.looked_up
                ):
                    work = self._look_up(batch, end)
                    if inline:
                        batch.pending.extend(work)
                    else:
                        self._submit_chunks(batch, work)
                    continue
                ready = batch.delivered
                while ready < batch.looked_up and batch.is_done(ready):
                    ready += 1
                if ready > batch.delivered:
                    self._deliver(batch, ready, on_response)
                elif inline:
                    self._execute_inline(batch, batch.pending.pop(0))
                else:
                    self._collect(batch)
        except BaseException:
            for future in batch.in_flight:
                future.cancel()
            raise
        # Serial-path executions ran memo caches in this process; fold their
        # hit/miss deltas into the registry (pooled chunks already shipped
        # theirs inside the merged snapshots).
        drain_memo_metrics(self.registry)
        self.last_traces = [trace.to_dict() for trace in batch.traces]
        return batch.responses

    def _look_up(self, batch: "_Batch", end: int) -> List[int]:
        """Answer positions up to ``end`` from the cache and the batch so far;
        returns the positions to compute (one per new distinct key).

        One batched lookup covers the window, and only for keys the batch has
        not seen yet: each goes to the cache (and its backend) once, however
        often it repeats.  Hit/miss statistics count per looked-up position,
        and every position's trace carries an equal share of the lookup so
        phase totals match.
        """
        positions = range(batch.looked_up, end)
        batch.looked_up = end
        keys = batch.keys
        unseen = [
            keys[position]
            for position in positions
            if keys[position] not in batch.found and keys[position] not in batch.leaders
        ]
        lookup_started = time.monotonic()
        if self.cache is not None and unseen:
            batch.found.update(self.cache.get_many(unseen))
        lookup_share = (time.monotonic() - lookup_started) / len(positions)
        work: List[int] = []
        for position in positions:
            trace = batch.traces[position]
            trace.add_phase(PHASE_CACHE_LOOKUP, lookup_share)
            observe_phases(self.registry, self.kind, trace.phases[-1:])
            key = keys[position]
            if key in batch.found:
                batch.responses[position] = self.response_class.from_result_dict(
                    batch.found[key],
                    request_id=batch.requests[position].request_id,
                    cache=CACHE_HIT,
                    cache_key=key,
                )
            elif key not in batch.leaders:
                batch.leaders[key] = position
                work.append(position)
        return work

    def _execute_inline(self, batch: "_Batch", position: int) -> None:
        """Execute one request in this process; its phases land on its trace."""
        trace = batch.traces[position]
        before = len(trace.phases)
        with activate(trace):
            batch.computed[batch.keys[position]] = self._execute(batch.requests[position])
        observe_phases(self.registry, self.kind, trace.phases[before:])
        self.computed += 1

    def _submit_chunks(self, batch: "_Batch", work: List[int]) -> None:
        """Queue ``work`` (positions) on the pool, ``chunksize`` jobs per task."""
        executor = self.executor()
        # By default a full window makes four chunks per worker: few enough
        # to keep the per-chunk overhead down, enough to keep every worker fed.
        chunksize = self.chunksize or WINDOW_PER_WORKER // 4
        for start in range(0, len(work), chunksize):
            positions = work[start : start + chunksize]
            payload = self._chunk_payload(
                [batch.requests[position] for position in positions],
                [batch.traces[position].trace_id for position in positions],
                time.monotonic(),
            )
            batch.in_flight[executor.submit(run_chunk, payload)] = positions

    def _collect(self, batch: "_Batch") -> None:
        """Wait for at least one pool task and take in its responses."""
        done, _ = wait(batch.in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            positions = batch.in_flight.pop(future)
            outcomes, snapshot = future.result()
            # The worker already observed its phases (queue-wait and compute)
            # into the shipped snapshot; merging it here is what makes pooled
            # totals equal serial totals.
            self.registry.merge(snapshot)
            for position, (response, trace) in zip(positions, outcomes):
                batch.traces[position].phases.extend(trace["phases"])
                batch.computed[batch.keys[position]] = response
            self.computed += len(positions)

    def _deliver(
        self, batch: "_Batch", end: int, on_response: Optional[Callable[[int, Any], None]]
    ) -> None:
        """Stamp and hand back the done positions up to ``end``, in order.

        Their fresh results persist first, in one batched write (one SQLite
        transaction), each leader trace taking an equal share of the store
        phase.
        """
        positions = range(batch.delivered, end)
        keys = batch.keys
        fresh = [
            position
            for position in positions
            if batch.responses[position] is None and batch.leaders[keys[position]] == position
        ]
        if self.cache is not None and fresh:
            store_started = time.monotonic()
            self.cache.put_many(
                [
                    (keys[position], batch.computed[keys[position]].result_dict())
                    for position in fresh
                ]
            )
            store_share = (time.monotonic() - store_started) / len(fresh)
            for position in fresh:
                trace = batch.traces[position]
                trace.add_phase(PHASE_STORE, store_share)
                observe_phases(self.registry, self.kind, trace.phases[-1:])
        for position in positions:
            response = batch.responses[position]
            if response is None:
                key = keys[position]
                if self.cache is None:
                    status = CACHE_DISABLED
                else:
                    status = CACHE_MISS if batch.leaders[key] == position else CACHE_HIT
                response = batch.responses[position] = replace(
                    batch.computed[key],
                    request_id=batch.requests[position].request_id,
                    cache=status,
                    cache_key=key,
                )
            self.registry.counter_inc(
                REQUESTS_TOTAL,
                help="Requests answered, by kind and cache status.",
                kind=self.kind,
                cache=response.cache,
            )
            batch.delivered = position + 1
            # Let go of the request (and the task set it holds): a batch fed
            # from a generator keeps only its window's requests alive.
            batch.requests[position] = None
            if on_response is not None:
                on_response(position, response)

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


class _Batch:
    """The bookkeeping of one :meth:`BatchCore.submit_batch` call.

    Positions ``[0, delivered)`` are handed back (their requests let go),
    ``[delivered, looked_up)`` are looked up and answered or in flight,
    ``[looked_up, pulled)`` are taken from the source but untouched.
    """

    def __init__(self, requests: Iterable[Any]):
        self._source = iter(requests)
        self.requests: List[Any] = []
        self.keys: List[str] = []
        self.traces: List[Trace] = []
        self.responses: List[Any] = []
        #: The cached result of every key a lookup found.
        self.found: Dict[str, Dict[str, Any]] = {}
        #: The first position of every key the batch computes...
        self.leaders: Dict[str, int] = {}
        #: ...and that key's response once it is back.
        self.computed: Dict[str, Any] = {}
        #: Pool tasks not yet collected, with the positions they compute...
        self.in_flight: Dict[Future, List[int]] = {}
        #: ...or, run inline, the positions still to compute, in order.
        self.pending: List[int] = []
        self.looked_up = 0
        self.delivered = 0

    @property
    def pulled(self) -> int:
        return len(self.requests)

    def pull(self, end: int) -> None:
        """Take requests from the source until ``end`` are taken or it runs dry."""
        for request in itertools.islice(self._source, max(0, end - self.pulled)):
            self.requests.append(request)
            self.keys.append(request.content_key())
            self.traces.append(Trace())
            self.responses.append(None)

    def is_done(self, position: int) -> bool:
        return self.responses[position] is not None or self.keys[position] in self.computed
