"""Typed request/response envelopes of the run-time simulation subsystem.

Both messages follow the exact discipline of the scheduling-service envelopes
(:mod:`repro.service.messages`): frozen, pure-data values with a lossless
round-trip through the versioned ``{kind, version, data}`` JSON envelope
(``kind=repro/sim-request|response``, version 1) and a content key hashing
precisely the fields that determine the outcome.

A :class:`SimulationRequest` asks one complete run-time question: *execute
scenario S's system i, scheduled by method M, on execution model X, over
horizon H*.  Its :meth:`~SimulationRequest.content_key` covers the scenario's
own content key (which folds in the workload, platform **and fault plan**),
the schedule-method spec, the execution model, the horizon, the event budget
and the execution seed — so any change to any of them is a cache miss, never
a silently reused stale simulation.

A :class:`SimulationResponse` separates the deterministic *result* (accuracy,
run-time Psi/Upsilon, fault counters, NoC latency, trace summary — returned
bit-identically by :func:`repro.runtime.service.execute_simulation` at any
worker count) from per-execution *provenance* (cache status, content key,
elapsed wall-clock time), exactly like
:class:`~repro.service.messages.ScheduleResponse`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.serialization import (
    content_hash,
    parse_versioned_payload,
    taskset_from_dict,
    taskset_to_dict,
    versioned_payload,
)
from repro.core.task import TaskSet
from repro.scenario import Scenario, create_scenario, materialize
from repro.service.messages import CACHE_DISABLED, ScheduleRequest
from repro.service.spec import SchedulerSpec
from repro.runtime.models import ExecutionModelSpec

SIM_REQUEST_KIND = "repro/sim-request"
SIM_REQUEST_VERSION = 1
SIM_RESPONSE_KIND = "repro/sim-response"
SIM_RESPONSE_VERSION = 1


@dataclass(frozen=True)
class SimulationRequest:
    """One question to the simulation service: *run this scenario, that way*.

    The scenario supplies the platform (controller + NoC) and the fault plan,
    and — by default — the workload: ``system_index`` selects which of the
    scenario's deterministic systems to draw.  An explicit ``task_set``
    overrides the drawn workload (the path :func:`run_controller_sim
    <repro.experiments.controller_sim.run_controller_sim>` uses to simulate a
    system it generated itself); the platform and faults still come from the
    scenario.

    ``method`` is the offline scheduling method
    (:class:`~repro.service.SchedulerSpec` value or spec string) whose
    schedule is executed; ``execution_model`` the registered run-time
    architecture executing it.  ``seed`` feeds the execution model's RNG
    (CPU-tile placement, background-traffic jitter); ``None`` derives one
    from the request's content, so unseeded requests are still pure.
    ``max_events`` bounds the discrete-event simulation; a budget that runs
    out mid-horizon is reported via ``SimulationResponse.exhausted``.
    """

    scenario: Optional[Scenario] = None
    method: Optional[SchedulerSpec] = "static"
    execution_model: Optional[ExecutionModelSpec] = "dedicated-controller"
    system_index: int = 0
    task_set: Optional[TaskSet] = None
    horizon: Optional[int] = None
    max_events: Optional[int] = None
    seed: Optional[int] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scenario is None:
            raise ValueError("a scenario is required (it supplies platform and faults)")
        object.__setattr__(self, "scenario", create_scenario(self.scenario))
        if self.method is None:
            raise ValueError("a schedule-method spec is required")
        object.__setattr__(self, "method", SchedulerSpec.coerce(self.method))
        if self.execution_model is None:
            raise ValueError("an execution model is required")
        object.__setattr__(
            self, "execution_model", ExecutionModelSpec.coerce(self.execution_model)
        )
        if not isinstance(self.system_index, int) or self.system_index < 0:
            raise ValueError(
                f"system_index must be a non-negative integer, got {self.system_index!r}"
            )
        if self.task_set is not None and self.system_index != 0:
            raise ValueError("an explicit task_set fixes the workload; system_index must be 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events!r}")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    # -- derived views -----------------------------------------------------------

    def effective_task_set(self) -> TaskSet:
        """The concrete workload: the explicit one, or the scenario's system."""
        if self.task_set is not None:
            return self.task_set
        cached = getattr(self, "_materialized_task_set", None)
        if cached is None:
            cached = materialize(self.scenario, self.system_index).task_set
            object.__setattr__(self, "_materialized_task_set", cached)
        return cached

    def schedule_request(self) -> ScheduleRequest:
        """The scheduling-service request obtaining this simulation's schedule.

        Built to be content-identical to what a direct service call or a
        campaign cell would submit for the same workload/method, so simulations share schedule-cache entries with
        every other consumer instead of recomputing schedules.
        """
        if self.task_set is not None:
            return ScheduleRequest(
                task_set=self.task_set,
                spec=self.method,
                horizon=self.horizon,
                request_id=self.request_id,
            )
        return ScheduleRequest(
            scenario=self.scenario,
            system_index=self.system_index,
            spec=self.method,
            horizon=self.horizon,
            request_id=self.request_id,
        )

    def content_key(self) -> str:
        """Content-address of the simulation question (excludes ``request_id``).

        Hashes the scenario's content key (covering workload, platform and
        fault plan), the workload override (when explicit), the system index,
        the schedule-method spec, the execution model, the horizon, the event
        budget and the seed.

        The request is frozen, so the key is hashed once and memoised — repeat
        calls (cache lookup, seed derivation, batch dedup) return the cached
        string.
        """
        cached = self.__dict__.get("_content_key")
        if cached is not None:
            return cached
        key = content_hash(
            {
                "scenario": self.scenario.content_key(),
                "workload": (
                    taskset_to_dict(self.task_set) if self.task_set is not None else None
                ),
                "system_index": self.system_index,
                "method": self.method.to_dict(),
                "execution_model": self.execution_model.to_dict(),
                "horizon": self.horizon,
                "max_events": self.max_events,
                "seed": self.seed,
            }
        )
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
            "scenario": self.scenario.to_dict(),
            "system_index": self.system_index,
            "method": self.method.to_dict(),
            "execution_model": self.execution_model.to_dict(),
            "horizon": self.horizon,
            "max_events": self.max_events,
            "seed": self.seed,
        }
        if self.task_set is not None:
            data["taskset"] = taskset_to_dict(self.task_set)
        return versioned_payload(SIM_REQUEST_KIND, SIM_REQUEST_VERSION, data)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationRequest":
        _, data = parse_versioned_payload(
            dict(payload), SIM_REQUEST_KIND, max_version=SIM_REQUEST_VERSION
        )
        task_set = data.get("taskset")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            method=SchedulerSpec.from_dict(data["method"]),
            execution_model=ExecutionModelSpec.from_dict(data["execution_model"]),
            system_index=int(data.get("system_index", 0)),
            task_set=taskset_from_dict(task_set) if task_set is not None else None,
            horizon=data.get("horizon"),
            max_events=data.get("max_events"),
            seed=data.get("seed"),
            request_id=data.get("id"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimulationRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SimulationResponse:
    """The simulation service's answer: deterministic result + provenance.

    ``method`` is the canonical string of the schedule-method spec actually
    executed (including any seed the scheduling service derived), and
    ``execution_model`` the canonical model spec, so the response alone
    reproduces the run.  ``trace`` is a structured summary of the simulation
    trace — stored-event counts per kind plus start-time-deviation statistics
    — never the full event list.
    """

    request_id: Optional[str]
    scenario: str
    method: str
    execution_model: str
    system_index: int
    horizon: int
    schedulable: bool
    accuracy: float
    psi: float
    upsilon: float
    offline_psi: float
    offline_upsilon: float
    matches_offline: bool
    executed_jobs: int
    skipped_jobs: int
    faults_detected: int
    mean_noc_latency: float
    max_noc_latency: int
    events_processed: int
    exhausted: bool
    trace: Dict[str, Any] = field(default_factory=dict)
    # -- provenance (excluded from result_dict and from caching) -----------------
    cache: str = CACHE_DISABLED
    cache_key: Optional[str] = None
    elapsed_s: float = 0.0

    def result_dict(self) -> Dict[str, Any]:
        """The deterministic portion of the response (what the cache stores)."""
        return {
            "scenario": self.scenario,
            "method": self.method,
            "execution_model": self.execution_model,
            "system_index": self.system_index,
            "horizon": self.horizon,
            "schedulable": self.schedulable,
            "accuracy": self.accuracy,
            "psi": self.psi,
            "upsilon": self.upsilon,
            "offline_psi": self.offline_psi,
            "offline_upsilon": self.offline_upsilon,
            "matches_offline": self.matches_offline,
            "executed_jobs": self.executed_jobs,
            "skipped_jobs": self.skipped_jobs,
            "faults_detected": self.faults_detected,
            "mean_noc_latency": self.mean_noc_latency,
            "max_noc_latency": self.max_noc_latency,
            "events_processed": self.events_processed,
            "exhausted": self.exhausted,
            "trace": self.trace,
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
    ) -> "SimulationResponse":
        """Rebuild a response around a stored deterministic result."""
        return cls(
            request_id=request_id,
            scenario=str(data["scenario"]),
            method=str(data["method"]),
            execution_model=str(data["execution_model"]),
            system_index=int(data["system_index"]),
            horizon=int(data["horizon"]),
            schedulable=bool(data["schedulable"]),
            accuracy=float(data["accuracy"]),
            psi=float(data["psi"]),
            upsilon=float(data["upsilon"]),
            offline_psi=float(data["offline_psi"]),
            offline_upsilon=float(data["offline_upsilon"]),
            matches_offline=bool(data["matches_offline"]),
            executed_jobs=int(data["executed_jobs"]),
            skipped_jobs=int(data["skipped_jobs"]),
            faults_detected=int(data["faults_detected"]),
            mean_noc_latency=float(data["mean_noc_latency"]),
            max_noc_latency=int(data["max_noc_latency"]),
            events_processed=int(data["events_processed"]),
            exhausted=bool(data["exhausted"]),
            trace=dict(data.get("trace") or {}),
            cache=cache,
            cache_key=cache_key,
            elapsed_s=elapsed_s,
        )

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return versioned_payload(
            SIM_RESPONSE_KIND,
            SIM_RESPONSE_VERSION,
            {
                "id": self.request_id,
                "result": self.result_dict(),
                "cache": {"status": self.cache, "key": self.cache_key},
                "timing": {"elapsed_s": self.elapsed_s},
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResponse":
        _, data = parse_versioned_payload(
            dict(payload), SIM_RESPONSE_KIND, max_version=SIM_RESPONSE_VERSION
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
    def from_json(cls, text: str) -> "SimulationResponse":
        return cls.from_dict(json.loads(text))
