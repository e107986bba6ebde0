"""repro.runtime — run-time execution as a first-class, cacheable subsystem.

The paper's run-time half (Sections I and IV) made declarative: one
:class:`SimulationRequest` names a scenario (workload + platform + fault
plan), a schedule method and a registered **execution model**, and the pure
:func:`execute_simulation` answers with run-time accuracy, Psi/Upsilon, fault
counters, NoC latency and a structured trace summary — bit-identically at any
worker count.

Three layers, mirroring the scheduling stack one level down:

* **models** — the execution-model registry
  (:func:`register_execution_model` / :func:`create_execution_model`) with
  the built-in ``dedicated-controller``, ``cpu-instigated`` and
  ``cpu-instigated-prioritized`` architectures; new run-time architectures
  are data, not forks.
* **messages** — frozen, versioned ``repro/sim-request``/``repro/sim-response``
  envelopes with content keys over scenario × method × execution model ×
  horizon (the fault plan rides inside the scenario's key).
* **service** — :class:`SimulationService`: worker pool, in-batch dedup and a
  content-addressed response cache; schedules are obtained through the
  existing :class:`~repro.service.SchedulingService`, so simulations share
  schedule-cache entries with batches and campaigns.

CLI: ``python -m repro.runtime`` (JSONL batches, declarative ``--scenario``
mode, ``--list-execution-models``).
"""

from repro.runtime.messages import (
    SIM_REQUEST_KIND,
    SIM_REQUEST_VERSION,
    SIM_RESPONSE_KIND,
    SIM_RESPONSE_VERSION,
    SimulationRequest,
    SimulationResponse,
)
from repro.runtime.models import (
    BUILTIN_EXECUTION_MODELS,
    ExecutionModel,
    ExecutionModelSpec,
    ExecutionOutcome,
    available_execution_models,
    create_execution_model,
    execution_model_registered,
    format_execution_model_listing,
    list_execution_models,
    register_execution_model,
    unregister_execution_model,
)
from repro.runtime.service import (
    SIM_CACHE_ENTRY_KIND,
    SIM_CACHE_ENTRY_VERSION,
    SimulationCache,
    SimulationService,
    derive_execution_seed,
    execute_simulation,
)

__all__ = [
    "SimulationRequest",
    "SimulationResponse",
    "SimulationService",
    "SimulationCache",
    "ExecutionModel",
    "ExecutionModelSpec",
    "ExecutionOutcome",
    "BUILTIN_EXECUTION_MODELS",
    "SIM_REQUEST_KIND",
    "SIM_REQUEST_VERSION",
    "SIM_RESPONSE_KIND",
    "SIM_RESPONSE_VERSION",
    "SIM_CACHE_ENTRY_KIND",
    "SIM_CACHE_ENTRY_VERSION",
    "register_execution_model",
    "unregister_execution_model",
    "create_execution_model",
    "execution_model_registered",
    "available_execution_models",
    "list_execution_models",
    "format_execution_model_listing",
    "execute_simulation",
    "derive_execution_seed",
]
