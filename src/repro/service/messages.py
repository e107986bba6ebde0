"""Typed request/response envelopes of the scheduling service.

Both messages are frozen, pure-data values that round-trip through the
versioned JSON envelope of :mod:`repro.core.serialization` — the same
``{kind, version, data}`` convention (and the same ``content_hash``) as the
experiment artifact layer — so a request can equally be built in-process, read
from a JSONL batch file, or received over a future network frontend.

A request's :meth:`~ScheduleRequest.content_key` hashes exactly the fields
that determine the scheduling outcome (task set, spec, horizon) and nothing
else; ``request_id`` is caller provenance and deliberately excluded, so two
callers asking the same question share one cache entry.

A response separates the deterministic *result* (schedulability, metrics,
per-device schedules — returned bit-identically by :func:`execute_request
<repro.service.service.execute_request>` regardless of worker count or cache
state) from per-execution *provenance* (cache hit/miss, the content key,
elapsed wall-clock time).  :meth:`ScheduleResponse.result_dict` exposes the
deterministic part on its own; it is what the schedule cache stores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.schedule import Schedule
from repro.core.serialization import (
    content_hash,
    parse_versioned_payload,
    schedule_from_dict,
    taskset_from_dict,
    taskset_to_dict,
    versioned_payload,
)
from repro.core.task import TaskSet
from repro.scenario import Scenario, create_scenario, materialize
from repro.service.spec import SchedulerSpec

REQUEST_KIND = "repro/schedule-request"
#: Version 2 added scenario-backed requests, version 3 summary requests; a
#: request is written with the oldest version that can carry it, so older
#: readers keep working.
REQUEST_VERSION = 3
RESPONSE_KIND = "repro/schedule-response"
RESPONSE_VERSION = 1

#: Cache provenance values a response can carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_DISABLED = "disabled"


@dataclass(frozen=True)
class ScheduleRequest:
    """One question to the scheduling service: *schedule this, with that*.

    The workload is given either explicitly (``task_set``) or declaratively
    (``scenario`` — a :class:`~repro.scenario.Scenario`, a registered preset
    name, a payload dict, or inline JSON — plus a ``system_index`` selecting
    which of the scenario's deterministic systems to draw); exactly one of the
    two must be provided.  Scenario-backed requests materialise their task set
    lazily via :meth:`effective_task_set`.

    ``horizon`` (microseconds) defaults to the task set's hyper-period, as in
    :meth:`Scheduler.schedule_taskset <repro.scheduling.base.Scheduler>`.
    ``request_id`` is free-form caller provenance echoed on the response; it
    does not influence scheduling or caching.  A ``summary`` request asks for
    the system-level figures only: its response has no ``per_device``
    entries, and so no schedules, which keeps it (and its cache entry) a few
    hundred bytes whatever the system's size.

    The spec is stored under its method's registered name — ``fps`` becomes
    ``fps-offline`` — so requests that name one method by different aliases
    are the same question and share one cache entry.
    """

    task_set: Optional[TaskSet] = None
    spec: Optional[SchedulerSpec] = None
    horizon: Optional[int] = None
    request_id: Optional[str] = None
    scenario: Optional[Scenario] = None
    system_index: int = 0
    summary: bool = False

    def __post_init__(self) -> None:
        if self.spec is None:
            raise ValueError("a scheduler spec is required")
        object.__setattr__(self, "spec", SchedulerSpec.coerce(self.spec).canonical())
        if not isinstance(self.summary, bool):
            raise ValueError(f"summary must be a boolean, got {self.summary!r}")
        if self.scenario is not None:
            object.__setattr__(self, "scenario", create_scenario(self.scenario))
        if (self.task_set is None) == (self.scenario is None):
            raise ValueError("provide exactly one of task_set and scenario")
        if not isinstance(self.system_index, int) or self.system_index < 0:
            raise ValueError(
                f"system_index must be a non-negative integer, got {self.system_index!r}"
            )
        if self.scenario is None and self.system_index != 0:
            raise ValueError("system_index requires a scenario")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")

    def effective_task_set(self) -> TaskSet:
        """The concrete task set: the explicit one, or the scenario's system.

        Materialisation is deterministic (pure in the scenario content and the
        system index), so the result is memoised on the request.
        """
        if self.task_set is not None:
            return self.task_set
        cached = getattr(self, "_materialized_task_set", None)
        if cached is None:
            cached = materialize(self.scenario, self.system_index).task_set
            object.__setattr__(self, "_materialized_task_set", cached)
        return cached

    def content_key(self) -> str:
        """Content-address of the scheduling question (excludes ``request_id``).

        Scenario-backed requests hash the scenario's own content key (which
        covers every scenario field) plus the system index, so changing *any*
        scenario field — workload, platform, faults, even the name — yields a
        different key and therefore a cache miss.  A summary request hashes
        its ``summary`` flag too (full requests hash exactly what they did
        before the flag existed).

        The request is frozen, so the key is hashed once and memoised — repeat
        calls (cache lookup, seed derivation, batch dedup) return the cached
        string.
        """
        cached = self.__dict__.get("_content_key")
        if cached is not None:
            return cached
        if self.scenario is not None:
            question: Dict[str, Any] = {
                "scenario": self.scenario.content_key(),
                "system_index": self.system_index,
                "spec": self.spec.to_dict(),
                "horizon": self.horizon,
            }
        else:
            question = {
                "taskset": taskset_to_dict(self.task_set),
                "spec": self.spec.to_dict(),
                "horizon": self.horizon,
            }
        if self.summary:
            question["summary"] = True
        key = content_hash(question)
        object.__setattr__(self, "_content_key", key)
        return key

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Slim pickles: drop the memoised task set, keep the content key.

        The materialised task set can dwarf the request itself; any receiver
        re-materialises it deterministically on demand.  The content key is a
        small string and saves the receiver a full canonical-JSON hash, so it
        rides along.
        """
        state = dict(self.__dict__)
        state.pop("_materialized_task_set", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.request_id,
            "spec": self.spec.to_dict(),
            "horizon": self.horizon,
        }
        # Payloads only claim a newer version when they need it: a full
        # request without a scenario serialises exactly as version 1 did.
        version = 1
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
            data["system_index"] = self.system_index
            version = 2
        else:
            data["taskset"] = taskset_to_dict(self.task_set)
        if self.summary:
            data["summary"] = True
            version = 3
        return versioned_payload(REQUEST_KIND, version, data)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScheduleRequest":
        _, data = parse_versioned_payload(
            dict(payload), REQUEST_KIND, max_version=REQUEST_VERSION
        )
        scenario = data.get("scenario")
        return cls(
            task_set=(
                taskset_from_dict(data["taskset"]) if data.get("taskset") is not None else None
            ),
            spec=SchedulerSpec.from_dict(data["spec"]),
            horizon=data.get("horizon"),
            request_id=data.get("id"),
            scenario=Scenario.from_dict(scenario) if scenario is not None else None,
            system_index=int(data.get("system_index", 0)),
            summary=bool(data.get("summary", False)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ScheduleResponse:
    """The service's answer: deterministic result + execution provenance.

    ``per_device`` maps device name to a plain dict
    ``{schedulable, psi, upsilon, n_jobs, schedule}`` where ``schedule`` is
    the serialised form of :func:`repro.core.serialization.schedule_to_dict`
    (or ``None`` when the method found no feasible schedule / produces none).
    ``spec`` is the canonical string of the spec actually executed — including
    any seed the service derived — so the response alone reproduces the run.
    """

    request_id: Optional[str]
    spec: str
    horizon: int
    schedulable: bool
    psi: float
    upsilon: float
    best_psi: float
    best_upsilon: float
    per_device: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # -- provenance (excluded from result_dict and from caching) -----------------
    cache: str = CACHE_DISABLED
    cache_key: Optional[str] = None
    elapsed_s: float = 0.0

    def result_dict(self) -> Dict[str, Any]:
        """The deterministic portion of the response (what the cache stores)."""
        return {
            "spec": self.spec,
            "horizon": self.horizon,
            "schedulable": self.schedulable,
            "psi": self.psi,
            "upsilon": self.upsilon,
            "best_psi": self.best_psi,
            "best_upsilon": self.best_upsilon,
            "per_device": self.per_device,
        }

    @classmethod
    def from_result_dict(
        cls,
        data: Mapping[str, Any],
        *,
        request_id: Optional[str] = None,
        cache: str = CACHE_DISABLED,
        cache_key: Optional[str] = None,
        elapsed_s: float = 0.0,
    ) -> "ScheduleResponse":
        """Rebuild a response around a stored deterministic result."""
        return cls(
            request_id=request_id,
            spec=str(data["spec"]),
            horizon=int(data["horizon"]),
            schedulable=bool(data["schedulable"]),
            psi=float(data["psi"]),
            upsilon=float(data["upsilon"]),
            best_psi=float(data["best_psi"]),
            best_upsilon=float(data["best_upsilon"]),
            per_device=dict(data.get("per_device") or {}),
            cache=cache,
            cache_key=cache_key,
            elapsed_s=elapsed_s,
        )

    def device_schedules(self, task_set: TaskSet) -> Dict[str, Schedule]:
        """Rebuild the concrete per-device :class:`Schedule` objects.

        ``task_set`` must be the request's task set (jobs are looked up by
        task name); devices whose method produced no schedule are omitted.
        """
        schedules: Dict[str, Schedule] = {}
        for device, entry in self.per_device.items():
            if entry.get("schedule") is not None:
                schedules[device] = schedule_from_dict(entry["schedule"], task_set)
        return schedules

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return versioned_payload(
            RESPONSE_KIND,
            RESPONSE_VERSION,
            {
                "id": self.request_id,
                "result": self.result_dict(),
                "cache": {"status": self.cache, "key": self.cache_key},
                "timing": {"elapsed_s": self.elapsed_s},
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScheduleResponse":
        _, data = parse_versioned_payload(
            dict(payload), RESPONSE_KIND, max_version=RESPONSE_VERSION
        )
        cache = data.get("cache") or {}
        timing = data.get("timing") or {}
        return cls.from_result_dict(
            data["result"],
            request_id=data.get("id"),
            cache=str(cache.get("status", CACHE_DISABLED)),
            cache_key=cache.get("key"),
            elapsed_s=float(timing.get("elapsed_s", 0.0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleResponse":
        return cls.from_dict(json.loads(text))
