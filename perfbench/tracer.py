"""Span tracing installed from outside the package, around each layer's calls.

:func:`install` swaps the public entry points of every layer (and the GA's
repair kernel ``_repair_batch``, which both ``evaluate_batch`` and
``reconfigure_batch`` run, so no public name covers it) for thin wrappers
that record a span — name, start, end, parent, request id — into an
in-memory :class:`Tracer`.  Nothing inside ``src/`` changes: module-level
functions are replaced wherever a module bound them by name, methods on
their class.  :func:`uninstall` restores the originals.

A span's *self time* is its duration minus the time its direct child spans
cover; spans nest strictly because every traced call runs on the thread
that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path).  The part of a span name before the
#: first dot is its layer, which is named after the module that owns it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("scenario", "repro.scenario.materialize", "materialize"),
    ("taskgen", "repro.taskgen.generator", "SystemGenerator.generate"),
    ("heuristic", "repro.scheduling.heuristic", "HeuristicScheduler.schedule_jobs"),
    ("lccd", "repro.scheduling.lccd", "LCCDAllocator.allocate"),
    ("dependency_graph", "repro.scheduling.dependency_graph", "decompose_graphs"),
    ("ga", "repro.scheduling.ga.scheduler", "GAScheduler.schedule_jobs"),
    ("ga.search", "repro.scheduling.ga.nsga2", "NSGA2.run"),
    ("ga.evaluate", "repro.scheduling.ga.reconfiguration", "evaluate_batch"),
    ("ga.repair", "repro.scheduling.ga.reconfiguration", "_repair_batch"),
    ("ga.sort", "repro.scheduling.ga.nsga2", "fast_non_dominated_sort"),
    ("ga.sort", "repro.scheduling.ga.nsga2", "crowding_distance"),
    ("core", "repro.core.metrics", "schedule_metrics"),
    ("core", "repro.core.schedule", "Schedule.idle_intervals"),
    ("analysis", "repro.analysis.response_time", "max_response_time"),
    ("runtime", "repro.runtime.service", "execute_simulation"),
    ("service.batch", "repro.service.service", "SchedulingService.submit_batch"),
    ("service.batch", "repro.runtime.service", "SimulationService.submit_batch"),
    ("service.execute", "repro.service.service", "execute_request"),
    # The serving daemon's path: one request per pool submission, and
    # single-key cache and store calls (``SimulationCache`` inherits them).
    ("service.pool", "repro.service.service", "SchedulingService.execute_in_pool_observed"),
    ("service.pool", "repro.runtime.service", "SimulationService.execute_in_pool_observed"),
    ("cache.get", "repro.service.cache", "ScheduleCache.get"),
    ("cache.put", "repro.service.cache", "ScheduleCache.put"),
    ("store.get", "repro.store.backends", "SqliteBackend.get"),
    ("store.put", "repro.store.backends", "SqliteBackend.put"),
    ("cache.get", "repro.service.cache", "ScheduleCache.get_many"),
    ("cache.put", "repro.service.cache", "ScheduleCache.put_many"),
    ("store.get", "repro.store.backends", "CacheBackend.get_many"),
    ("store.put", "repro.store.backends", "CacheBackend.put_many"),
    ("store.get", "repro.store.backends", "SqliteBackend.get_many"),
    ("store.put", "repro.store.backends", "SqliteBackend.put_many"),
    ("campaign", "repro.campaign.runner", "CampaignRunner.run"),
    ("campaign.report", "repro.campaign.runner", "CampaignResult.report"),
    ("experiments", "repro.experiments.engine", "ExperimentEngine.schedulability_sweep"),
    ("experiments", "repro.experiments.engine", "ExperimentEngine.accuracy_sweep"),
    ("experiments.cell", "repro.experiments.engine", "evaluate_cell"),
)

#: Layers reported by ``<layer>.calls`` / ``<layer>.self_ms``.
CALL_LAYERS = (
    "scenario",
    "taskgen",
    "heuristic",
    "lccd",
    "dependency_graph",
    "ga",
    "core",
    "analysis",
    "runtime",
)

#: Spans whose self time is reported apart from their layer's ``self_ms``:
#: the campaign report has its own metric, and a sweep's self time excludes
#: the cells it dispatches.
_OWN_METRIC = {"campaign.report", "experiments.cell"}


class Tracer:
    """In-memory span recorder plus the counters the wrappers observe."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id] per span.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._requests = 0
        self._owner = threading.get_ident()
        #: (owner, attribute, original) of every wrapper :func:`install` set.
        self.patched: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def call(self, name: str, fn: Callable, args, kwargs, observe: Optional[Callable]):
        if threading.get_ident() != self._owner:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._requests += 1
            request = self._requests
        else:
            request = self.spans[parent][4]
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, request]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(self.counters, args, kwargs, result)
        return result

    # -- analysis --------------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def summary(self) -> Dict[str, float]:
        """Per-layer numbers of everything recorded since the last reset."""
        own = self.self_times()
        count: Dict[str, int] = defaultdict(int)
        total_ms: Dict[str, float] = defaultdict(float)
        layer_self: Dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, own):
            name = span[0]
            count[name] += 1
            total_ms[name] += (span[2] - span[1]) * 1e3
            if name not in _OWN_METRIC:
                layer_self[name.split(".")[0]] += self_s * 1e3
        counters = self.counters
        out: Dict[str, float] = {}
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = count[layer]
            out[f"{layer}.self_ms"] = layer_self[layer]
        out["ga.evaluate_ms"] = total_ms["ga.evaluate"]
        out["ga.repair_ms"] = total_ms["ga.repair"]
        out["ga.sort_ms"] = total_ms["ga.sort"]
        events = counters["runtime.events"]
        out["runtime.events"] = events
        out["runtime.us_per_event"] = total_ms["runtime"] * 1e3 / events if events else 0.0
        batches = count["service.batch"] + count["service.pool"]
        out["service.batches"] = batches
        out["service.batch_size"] = counters["service.requests"] / batches if batches else 0.0
        out["service.self_ms"] = layer_self["service"]
        for layer in ("cache", "store"):
            calls = count[f"{layer}.get"] + count[f"{layer}.put"]
            keys = counters[f"{layer}.get_keys"] + counters[f"{layer}.put_keys"]
            gets = counters[f"{layer}.get_keys"]
            out[f"{layer}.calls"] = calls
            out[f"{layer}.keys_per_call"] = keys / calls if calls else 0.0
            out[f"{layer}.hit_ratio"] = counters[f"{layer}.hits"] / gets if gets else 0.0
            out[f"{layer}.get_ms"] = total_ms[f"{layer}.get"]
            out[f"{layer}.put_ms"] = total_ms[f"{layer}.put"]
        out["campaign.self_ms"] = layer_self["campaign"]
        out["campaign.report_ms"] = total_ms["campaign.report"]
        out["experiments.cells"] = count["experiments.cell"]
        out["experiments.self_ms"] = layer_self["experiments"]
        out["trace.spans"] = len(self.spans)
        out["trace.attributed_ms"] = sum(own) * 1e3
        return out

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the recorded spans (one compact JSON document)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


# -- counters observed at layer boundaries -------------------------------------------


def _observe_batch(counters, args, kwargs, result) -> None:
    counters["service.requests"] += len(result)


def _observe_submission(counters, args, kwargs, result) -> None:
    counters["service.requests"] += 1


def _observe_get(layer: str) -> Callable:
    def observe(counters, args, kwargs, result) -> None:
        keys = args[1] if len(args) > 1 else kwargs.get("keys", kwargs.get("key"))
        if isinstance(keys, str):
            counters[f"{layer}.get_keys"] += 1
            counters[f"{layer}.hits"] += result is not None
        else:
            counters[f"{layer}.get_keys"] += len(keys)
            counters[f"{layer}.hits"] += len(result)

    return observe


def _observe_put(layer: str) -> Callable:
    def observe(counters, args, kwargs, result) -> None:
        items = args[1] if len(args) > 1 else kwargs.get("items", kwargs.get("key"))
        counters[f"{layer}.put_keys"] += 1 if isinstance(items, str) else len(items)

    return observe


def _observe_simulation(counters, args, kwargs, result) -> None:
    counters["runtime.events"] += result.events_processed


_OBSERVERS = {
    "service.batch": _observe_batch,
    "service.pool": _observe_submission,
    "cache.get": _observe_get("cache"),
    "cache.put": _observe_put("cache"),
    "store.get": _observe_get("store"),
    "store.put": _observe_put("store"),
    "runtime": _observe_simulation,
}

#: Batch arguments that may arrive as one-shot iterables; wrappers materialise
#: them into lists (callers only iterate them) so the observers can count
#: them.  A single key (a string) is left as it is.
_LISTED_ARGS = {"service.batch", "cache.get", "cache.put", "store.get", "store.put"}


def _make_wrapper(tracer: Tracer, name: str, original: Callable) -> Callable:
    observe = _OBSERVERS.get(name)
    listed = name in _LISTED_ARGS

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if listed and len(args) > 1 and not isinstance(args[1], str):
            args = (args[0], list(args[1])) + tuple(args[2:])
        return tracer.call(name, original, args, kwargs, observe)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target so its calls record spans into ``tracer``."""
    if tracer.patched:
        raise RuntimeError("this tracer is already installed")
    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            tracer.patched.append((owner, attr, original))
            setattr(owner, attr, _make_wrapper(tracer, name, original))
            continue
        original = getattr(module, attr)
        wrapper = _make_wrapper(tracer, name, original)
        # Rebind the function in every repro module that imported it by name.
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    tracer.patched.append((other, key, original))
                    setattr(other, key, wrapper)


def uninstall(tracer: Tracer) -> None:
    """Put every original back."""
    while tracer.patched:
        owner, attr, original = tracer.patched.pop()
        setattr(owner, attr, original)


def parse_exposition(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Prometheus text exposition -> {(metric, sorted labels): value}."""
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, label_text = head.partition("{")
        labels = []
        for part in label_text.rstrip("}").split(","):
            if "=" in part:
                key, _, raw = part.partition("=")
                labels.append((key, raw.strip('"')))
        samples[(name, tuple(sorted(labels)))] = float(value)
    return samples


def exposition_value(samples, name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (metric, label_items), value in samples.items()
        if metric == name and wanted <= set(label_items)
    )


def phase_mean_ms(samples, phase: str, kind: Optional[str] = None) -> float:
    """Mean of one phase of ``repro_request_latency_ms`` (0 when unobserved)."""
    labels = {"phase": phase}
    if kind is not None:
        labels["kind"] = kind
    total = exposition_value(samples, "repro_request_latency_ms_sum", **labels)
    count = exposition_value(samples, "repro_request_latency_ms_count", **labels)
    return total / count if count else 0.0


MEMOS = ("materialize", "heuristic", "ga-problem", "cell-scenario", "generate-system")


def memo_metrics_from_stats(stats: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """``memo.<name>.hit_ratio`` / ``.evictions`` from :func:`memo_stats`."""
    out: Dict[str, float] = {}
    for name in MEMOS:
        entry = stats.get(name) or {}
        hits, misses = entry.get("hits", 0), entry.get("misses", 0)
        out[f"memo.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"memo.{name}.evictions"] = float(entry.get("evictions", 0))
    return out


def memo_metrics_from_exposition(samples) -> Dict[str, float]:
    """The same numbers from a ``repro_memo_ops_total`` exposition."""
    stats = {
        name: {
            "hits": exposition_value(samples, "repro_memo_ops_total", memo=name, op="hit"),
            "misses": exposition_value(samples, "repro_memo_ops_total", memo=name, op="miss"),
            "evictions": exposition_value(samples, "repro_memo_ops_total", memo=name, op="evict"),
        }
        for name in MEMOS
    }
    return memo_metrics_from_stats(stats)
