"""Parallel, cache-backed evaluation engine behind the figure sweeps.

The engine decomposes every sweep into independent **evaluation cells** — one
:class:`EvalJob` per ``(utilisation, system index, method)`` — and executes
each batch of them as schedule requests through one
:class:`~repro.service.SchedulingService` (in-process at ``n_workers=1``, on
its worker pool otherwise).  Each cell regenerates its system from the
per-``(utilisation, system)`` deterministic seed, so a cell's value depends
only on the configuration and the cell coordinates: results are
bit-identical at any worker count.  With an artifact directory the service's
content-addressed schedule cache persists every cell as it is computed, in
one SQLite file shared by every configuration (see
:mod:`repro.experiments.artifacts`), so an interrupted sweep resumes without
recomputing a finished cell.  Cells are summary requests (their responses
and cache entries carry the figures, not the schedules), and each batch
reaches the service as a generator, so a sweep holds only the requests of
the service's window in memory.

Scheduling methods are resolved through the scheduler registry
(:mod:`repro.scheduling.registry`); registering a new method makes it
available to every sweep without touching this module.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.memo import get_memo
from repro.core.serialization import PayloadVersionError, content_hash
from repro.core.task import TaskSet
from repro.experiments.artifacts import (
    ArtifactStore,
    accuracy_sweep_from_dict,
    accuracy_sweep_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import AccuracySweepResult, SweepResult
from repro.experiments.stats import mean
from repro.obs.metrics import REQUEST_LATENCY_MS, REQUESTS_TOTAL, MetricsRegistry
from repro.scenario import Scenario, materialize

# Back-compat re-export: the adapter now lives with the other schedulers, so
# ``create_scheduler("fps-online")`` works without importing the experiments
# package at all.
from repro.scheduling import FPSOnlineSchedulabilityMethod  # noqa: F401
from repro.service import (
    CACHE_HIT,
    ScheduleRequest,
    ScheduleResponse,
    SchedulerSpec,
    SchedulingService,
    execute_request,
)
from repro.store import SqliteBackend

# Back-compat re-export: the best-per-objective aggregation moved into the
# scheduling service alongside the rest of the response building.
from repro.service import ga_best_objectives  # noqa: F401
from repro.taskgen import SystemGenerator

#: Canonical method ordering used in result tables.
SCHEDULABILITY_METHODS = ("fps-offline", "fps-online", "gpiocp", "static", "ga")
ACCURACY_METHODS = ("fps", "gpiocp", "static", "ga")

#: Offset decorrelating the GA's derived RNG stream from the generator's.
_GA_SEED_OFFSET = 1_000_003


# -- evaluation cells ----------------------------------------------------------


@dataclass(frozen=True)
class EvalJob:
    """One picklable unit of sweep work: evaluate ``method`` on one system.

    ``method`` is a registered scheduler name or a full spec string such as
    ``"ga:generations=10"`` (see :class:`repro.service.SchedulerSpec`).
    """

    utilisation: float
    system_index: int
    method: str


@dataclass(frozen=True)
class CellResult:
    """Outcome of one evaluation cell.

    ``psi`` / ``upsilon`` are the metrics of the method's produced schedule;
    for the GA, ``best_psi`` / ``best_upsilon`` carry the best-per-objective
    Pareto points that Figures 6 and 7 report (for single-schedule methods
    they simply equal ``psi`` / ``upsilon``).
    """

    schedulable: bool
    psi: float
    upsilon: float
    best_psi: float
    best_upsilon: float

    @classmethod
    def from_response(cls, response: ScheduleResponse) -> "CellResult":
        return cls(
            schedulable=response.schedulable,
            psi=response.psi,
            upsilon=response.upsilon,
            best_psi=response.best_psi,
            best_upsilon=response.best_upsilon,
        )


def cell_seed(config: ExperimentConfig, utilisation: float, system_index: int) -> int:
    """The deterministic RNG seed of one ``(utilisation, system)`` pair."""
    return config.seed + int(round(utilisation * 100)) * 10_000 + system_index


def cell_scenario(config: ExperimentConfig, utilisation: float) -> Scenario:
    """The configured scenario with the cell's utilisation pinned.

    Only valid for scenario-backed configurations; the pinned-utilisation copy
    is what both system generation and the cell's schedule request use, so the
    two always agree on which synthetic system the cell evaluates.
    """
    assert config.scenario is not None
    # Every cell of a sweep re-pins the same scenario at the same few
    # utilisation points (once per method per system); the pinned copy is a
    # frozen value, so warm workers share it from a per-process memo.
    return get_memo("cell-scenario").get_or_create(
        (config.scenario.content_key(), utilisation),
        lambda: config.scenario.with_utilisation(utilisation),
    )


def generate_system(
    config: ExperimentConfig, utilisation: float, system_index: int
) -> TaskSet:
    """Regenerate the synthetic system of one cell (pure in its arguments).

    Scenario-backed configurations draw from the scenario's workload (with the
    sweep utilisation pinned); legacy configurations keep the historical
    ``seed``/``generator`` derivation, so their systems never change.
    """
    if config.scenario is not None:
        return materialize(
            config.scenario, system_index, utilisation=utilisation
        ).task_set
    seed = cell_seed(config, utilisation, system_index)
    # Same per-worker reuse as the scenario path (which memoises inside
    # materialize): each method of a sweep re-draws the same cell system.
    return get_memo("generate-system", 256).get_or_create(
        (config.generator, seed, utilisation),
        lambda: SystemGenerator(config.generator, rng=seed).generate(utilisation),
    )


def cell_spec(config: ExperimentConfig, job: EvalJob) -> SchedulerSpec:
    """The fully-pinned scheduler spec one cell executes.

    ``job.method`` is parsed as a spec string.  For the GA, the configured
    ``GAConfig`` supplies defaults under any options the spec pins, and the
    RNG seed is derived from the cell seed whenever neither pins one — so GA
    cells are as deterministic (and as worker-count-independent) as every
    other method.
    """
    spec = SchedulerSpec.parse(job.method)
    if spec.name != "ga":
        return spec
    options = asdict(config.ga)
    options.update(spec.options_dict())
    if options.get("seed") is None:
        options["seed"] = (
            cell_seed(config, job.utilisation, job.system_index) + _GA_SEED_OFFSET
        )
    return SchedulerSpec("ga", options)


def cell_request(config: ExperimentConfig, job: EvalJob) -> ScheduleRequest:
    """The schedule request one cell executes.

    A cell needs the system-level figures only, so its request is a summary
    request: no schedules in the response or in the cell cache.  With a
    scenario-backed configuration the request itself is scenario-backed — the
    executing process materialises the system from the declarative
    description, exactly as a direct ``--scenario`` service request would;
    otherwise it carries the cell's generated system.  The request resolves a
    method alias (``fps``) to its registered name (``fps-offline``), so an
    alias's cells share cache entries with its method's.
    """
    if config.scenario is not None:
        return ScheduleRequest(
            scenario=cell_scenario(config, job.utilisation),
            system_index=job.system_index,
            spec=cell_spec(config, job),
            summary=True,
        )
    task_set = generate_system(config, job.utilisation, job.system_index)
    return ScheduleRequest(task_set=task_set, spec=cell_spec(config, job), summary=True)


def evaluate_cell(config: ExperimentConfig, job: EvalJob) -> CellResult:
    """Evaluate one cell; a pure function of ``(config, job)``.

    Cells execute through the scheduling service's pure request path
    (:func:`repro.service.execute_request`), so a sweep cell and a direct
    service request with the same content are the same computation.
    """
    return CellResult.from_response(execute_request(cell_request(config, job)))


# -- the engine ----------------------------------------------------------------


class ExperimentEngine:
    """Executes sweeps as batches of evaluation cells with optional persistence.

    Parameters default to what the configuration carries (``config.n_workers``
    and ``config.artifact_dir``); both can be overridden per engine.  Cells
    run through a :class:`~repro.service.SchedulingService` the engine starts
    on first use: on ``n_workers`` pool workers (in-process at ``1``), with
    its schedule cache in ``<artifact_dir>/cells.db`` when there is an
    artifact directory and no cache otherwise.  Use the engine as a context
    manager (or call :meth:`close`) to release the worker pool and the cache.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        n_workers: Optional[int] = None,
        artifact_dir: Optional[str] = None,
    ):
        self.config = config or ExperimentConfig()
        self.n_workers = n_workers if n_workers is not None else self.config.n_workers
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        directory = artifact_dir if artifact_dir is not None else self.config.artifact_dir
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(directory, self.config) if directory is not None else None
        )
        self._service: Optional[SchedulingService] = None
        #: Cells computed by services this engine has already closed.
        self._computed_before = 0
        #: Cell counters and evaluate-latency histogram (kind="experiment").
        self.registry = MetricsRegistry()

    @property
    def cells_computed(self) -> int:
        """Cells actually evaluated (cache misses) over this engine's lifetime."""
        open_count = self._service.computed if self._service is not None else 0
        return self._computed_before + open_count

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._service is not None:
            self._computed_before += self._service.computed
            self._service.close()
            # The service does not close a backend it was handed.
            if self._service.cache is not None:
                self._service.cache.close()
            self._service = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cell execution ----------------------------------------------------------

    def run_cells(self, jobs: Sequence[EvalJob]) -> Dict[EvalJob, CellResult]:
        """Evaluate ``jobs`` as one batch of schedule requests.

        Results are keyed by the input jobs.  With an artifact directory,
        cached cells are answered from the cell cache and every freshly
        computed cell is persisted before the service hands it back, so an
        interrupted call leaves every computed cell reusable.
        """
        if self._service is None:
            if self.store is None:
                self._service = SchedulingService(n_workers=self.n_workers, cache=None)
            else:
                # A live backend, not a spec string: the spec grammar cannot
                # carry every path (a comma splits its options).
                backend = SqliteBackend(self.store.root / ArtifactStore.CELL_CACHE_FILENAME)
                self._service = SchedulingService(
                    n_workers=self.n_workers, cache_backend=backend
                )
        results: Dict[EvalJob, CellResult] = {}

        def record(position: int, response: ScheduleResponse) -> None:
            results[jobs[position]] = CellResult.from_response(response)
            if response.cache == CACHE_HIT:
                self._count_cell("hit")
            else:
                # elapsed_s is the compute time, measured where the cell ran.
                self._observe_evaluate(response.elapsed_s)
                self._count_cell("miss")

        # A generator: the service builds each cell's request (and system)
        # as its window reaches it and lets go of it once delivered.
        self._service.submit_batch(
            (cell_request(self.config, job) for job in jobs), on_response=record
        )
        return results

    def _count_cell(self, cache: str) -> None:
        self.registry.counter_inc(
            REQUESTS_TOTAL,
            help="Requests answered, by kind and cache status.",
            kind="experiment",
            cache=cache,
        )

    def _observe_evaluate(self, duration_s: float) -> None:
        self.registry.histogram_observe(
            REQUEST_LATENCY_MS,
            max(0.0, duration_s) * 1000.0,
            help="Per-phase request latency in milliseconds.",
            kind="experiment",
            phase="evaluate",
        )

    def metrics(self) -> Dict[str, Any]:
        """A merged metrics snapshot of this engine (see :mod:`repro.obs`)."""
        return self.registry.snapshot()

    # -- the sweeps --------------------------------------------------------------

    def generate_system(self, utilisation: float, system_index: int) -> TaskSet:
        return generate_system(self.config, utilisation, system_index)

    def schedulability_methods(self) -> List[str]:
        return [m for m in SCHEDULABILITY_METHODS if self.config.include_ga or m != "ga"]

    def accuracy_methods(self) -> List[str]:
        return [m for m in ACCURACY_METHODS if self.config.include_ga or m != "ga"]

    def schedulability_sweep(
        self,
        utilisations: Optional[Sequence[float]] = None,
        *,
        methods: Optional[Sequence[str]] = None,
    ) -> SweepResult:
        """Fraction of schedulable systems per method and utilisation (Figure 5).

        ``methods`` restricts (or re-parameterises) the evaluated schedulers;
        entries are registered names or spec strings such as
        ``"ga:generations=10"``.  The default is every method of the paper's
        Figure 5, honouring ``config.include_ga``.
        """
        config = self.config
        utilisations = list(utilisations or config.schedulability_utilisations)
        methods = list(methods) if methods is not None else self.schedulability_methods()

        artifact = self._sweep_artifact_name("schedulability", utilisations, methods)
        cached = self._load_sweep_artifact(artifact)
        if cached is not None:
            return cached

        jobs = [
            EvalJob(utilisation, system_index, method)
            for utilisation in utilisations
            for system_index in range(config.n_systems)
            for method in methods
        ]
        cells = self.run_cells(jobs)

        series: Dict[str, List[float]] = {method: [] for method in methods}
        for utilisation in utilisations:
            for method in methods:
                count = sum(
                    cells[EvalJob(utilisation, system_index, method)].schedulable
                    for system_index in range(config.n_systems)
                )
                series[method].append(count / config.n_systems)

        result = SweepResult(
            name="schedulability", utilisations=utilisations, series=series
        )
        if self.store is not None:
            self.store.save_result(artifact, sweep_result_to_dict(result))
        return result

    def accuracy_sweep(
        self,
        utilisations: Optional[Sequence[float]] = None,
        *,
        methods: Optional[Sequence[str]] = None,
    ) -> AccuracySweepResult:
        """Mean Psi and Upsilon per method over schedulable systems (Figures 6-7).

        Following the paper, the sweep evaluates the offline methods on systems
        that the proposed scheduling can handle (the static heuristic is used
        as the admission filter, whether or not ``"static"`` is among the
        reported ``methods``); the GA contributes the best-Psi point of its
        Pareto front to Figure 6 and the best-Upsilon point to Figure 7.
        """
        config = self.config
        utilisations = list(utilisations or config.accuracy_utilisations)
        methods = list(methods) if methods is not None else self.accuracy_methods()

        artifact = self._sweep_artifact_name("accuracy", utilisations, methods)
        if self.store is not None:
            payload = self.store.load_result(artifact)
            if payload is not None:
                try:
                    return accuracy_sweep_from_dict(payload)
                except PayloadVersionError:
                    raise  # newer artifact: never recompute-and-overwrite it
                except (ValueError, KeyError, TypeError):
                    pass  # corrupt/legacy artifact: recompute

        psi_series: Dict[str, List[float]] = {method: [] for method in methods}
        upsilon_series: Dict[str, List[float]] = {method: [] for method in methods}
        systems_evaluated: Dict[float, int] = {}

        # "static" doubles as the admission filter, so its cells come from
        # _admit_systems rather than a second evaluation; the GA (under any
        # spec parameters) reports its best-per-objective Pareto points.
        other_methods = [method for method in methods if method != "static"]
        ga_methods = {
            method for method in methods if SchedulerSpec.parse(method).name == "ga"
        }
        for utilisation in utilisations:
            admitted, static_cells = self._admit_systems(utilisation)
            jobs = [
                EvalJob(utilisation, system_index, method)
                for system_index in admitted
                for method in other_methods
            ]
            cells = self.run_cells(jobs)

            per_method_psi: Dict[str, List[float]] = {method: [] for method in methods}
            per_method_upsilon: Dict[str, List[float]] = {method: [] for method in methods}
            for system_index in admitted:
                if "static" in per_method_psi:
                    static_cell = static_cells[system_index]
                    per_method_psi["static"].append(static_cell.psi)
                    per_method_upsilon["static"].append(static_cell.upsilon)
                for method in other_methods:
                    cell = cells[EvalJob(utilisation, system_index, method)]
                    if method in ga_methods:
                        per_method_psi[method].append(cell.best_psi)
                        per_method_upsilon[method].append(cell.best_upsilon)
                    else:
                        per_method_psi[method].append(cell.psi)
                        per_method_upsilon[method].append(cell.upsilon)

            systems_evaluated[utilisation] = len(admitted)
            for method in methods:
                psi_series[method].append(mean(per_method_psi[method]))
                upsilon_series[method].append(mean(per_method_upsilon[method]))

        result = AccuracySweepResult(
            psi=SweepResult(name="psi", utilisations=utilisations, series=psi_series),
            upsilon=SweepResult(
                name="upsilon", utilisations=utilisations, series=upsilon_series
            ),
            systems_evaluated=systems_evaluated,
        )
        if self.store is not None:
            self.store.save_result(artifact, accuracy_sweep_to_dict(result))
        return result

    def _admit_systems(
        self, utilisation: float
    ) -> Tuple[List[int], Dict[int, CellResult]]:
        """The first ``n_systems`` static-schedulable system indices at ``utilisation``.

        Mirrors the historical sequential admission loop exactly (first-n
        schedulable indices within ``10 * n_systems`` attempts) while batching
        the static evaluations through the worker pool.  Emits a warning when
        the attempt budget runs out before enough systems are found.
        """
        config = self.config
        n_systems = config.n_systems
        max_attempts = n_systems * 10
        batch_size = max(n_systems, 2 * self.n_workers)

        admitted: List[int] = []
        static_cells: Dict[int, CellResult] = {}
        next_index = 0
        while len(admitted) < n_systems and next_index < max_attempts:
            upper = min(next_index + batch_size, max_attempts)
            jobs = [
                EvalJob(utilisation, system_index, "static")
                for system_index in range(next_index, upper)
            ]
            cells = self.run_cells(jobs)
            for job in jobs:
                cell = cells[job]
                static_cells[job.system_index] = cell
                if cell.schedulable and len(admitted) < n_systems:
                    admitted.append(job.system_index)
            next_index = upper

        if len(admitted) < n_systems:
            warnings.warn(
                f"accuracy sweep at U={utilisation}: only {len(admitted)} of the "
                f"requested {n_systems} schedulable systems were found within "
                f"{max_attempts} attempts; reported means cover the smaller sample "
                f"(see AccuracySweepResult.systems_evaluated)",
                UserWarning,
                stacklevel=3,
            )
        return admitted, static_cells

    # -- artifact helpers --------------------------------------------------------

    def _sweep_artifact_name(
        self, prefix: str, utilisations: Sequence[float], methods: Sequence[str]
    ) -> str:
        signature = content_hash(
            {
                "utilisations": list(utilisations),
                "methods": list(methods),
                "n_systems": self.config.n_systems,
            },
            length=10,
        )
        return f"{prefix}-{signature}"

    def _load_sweep_artifact(self, name: str) -> Optional[SweepResult]:
        if self.store is None:
            return None
        payload = self.store.load_result(name)
        if payload is None:
            return None
        try:
            return sweep_result_from_dict(payload)
        except PayloadVersionError:
            raise  # newer artifact: never recompute-and-overwrite it
        except (ValueError, KeyError, TypeError):
            return None  # corrupt/legacy artifact: recompute
