"""The in-process workloads: cold and warm campaigns and the quick Figure 5.

Each workload turns the seed into its inputs, knows how to start the
services it times against (for the set-up probe), and runs one repetition
through the package's public entry points, returning the cells it
answered, the wall time and the bytes whose digest is checked.

Every repetition starts from ``reset_memos()`` and fresh artifact (and, for
the cold campaign, cache) directories, as a fresh ``campaign run`` or
``experiments`` process would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


@dataclass
class Rep:
    """One repetition: what it answered, how long it took, what it wrote."""

    cells: int
    #: Wall seconds, and the same scaled to the reference host speed.
    seconds: float
    scaled: float
    output: bytes
    failed: int
    #: The services' own metrics exposition, when asked for.
    metrics_text: str = ""
    #: The campaign journal part of ``output`` (campaign workloads).
    journal: bytes = b""
    #: The sweep results (``fig5-quick``).
    results: List[Any] = field(default_factory=list)


def _campaign_rep(
    spec,
    clock,
    *,
    n_workers: int,
    artifact_dir: Path,
    cache_backend: str,
    expect_hits: bool,
    capture: bool,
) -> Rep:
    from repro.campaign import CampaignRunner
    from repro.core.memo import reset_memos
    from repro.obs import render

    def work():
        runner = CampaignRunner(
            spec, artifact_dir=artifact_dir, n_workers=n_workers, cache_backend=cache_backend
        )
        try:
            result = runner.run()
            report = result.report().to_json()
            stats = runner.service.stats()
            service = runner.simulation if runner.simulation is not None else runner.service
            metrics_text = render(service.metrics()) if capture else ""
        finally:
            runner.close()
        return result, report, stats, metrics_text

    reset_memos()
    (result, report, stats, metrics_text), seconds, scaled = clock.segment(work)
    expected = spec.n_cells + spec.n_runtime_cells
    answered = len(result.records) + len(result.runtime_records)
    failed = expected - answered
    if expect_hits and stats.get("cache_misses", 0):
        failed += int(stats["cache_misses"])
    journal = (artifact_dir / spec.content_key() / "campaign.jsonl").read_bytes()
    return Rep(
        cells=answered,
        seconds=seconds,
        scaled=scaled,
        output=journal + report.encode(),
        failed=failed,
        metrics_text=metrics_text,
        journal=journal,
    )


#: FPS never aims at a job's ideal start, so its Psi is about 0; a job can
#: still start at its ideal instant by coincidence (1 job of 198 on one
#: random system), so the check bounds the mean rather than every cell.
FPS_PSI_MEAN_LIMIT = 0.01


def campaign_shape_problems(spec, journal: bytes) -> List[str]:
    """The paper's shape on campaign records: FPS-offline Psi ~ 0, GA >= static."""
    import json

    problems: List[str] = []
    by_key: Dict[Any, Dict[str, Any]] = {}
    for line in journal.decode().splitlines():
        entry = json.loads(line)
        if "x" in entry:
            continue
        by_key[(entry["sc"], entry["m"], entry["u"], entry["i"], entry["r"])] = entry["v"]
    methods = [str(method) for method in spec.methods]
    ga = next((m for m in methods if m.startswith("ga")), None)
    fps_psi = [
        values["psi"]
        for (_, method, _, _, _), values in by_key.items()
        if method == "fps-offline" and values["schedulable"]
    ]
    if fps_psi and sum(fps_psi) / len(fps_psi) > FPS_PSI_MEAN_LIMIT:
        problems.append(f"fps-offline mean psi {sum(fps_psi) / len(fps_psi):.4f} is not about 0")
    for (scenario, method, u, i, r), values in by_key.items():
        if method == "static" and ga is not None:
            ga_values = by_key.get((scenario, ga, u, i, r))
            if ga_values is not None and values["schedulable"] and not ga_values["schedulable"]:
                problems.append(f"GA below static at {scenario} u={u} i={i}")
    return problems


# -- campaign-cold -------------------------------------------------------------------------


class CampaignCold:
    """The write side: every cell scheduled, simulated, cached and journalled."""

    name = "campaign-cold"
    n_workers = 2
    checks = ("fps-offline-psi-about-zero", "ga-at-least-static")

    def __init__(self, seed: int, scale: str):
        from repro.campaign import CampaignSpec, RuntimeSpec
        from repro.scenario import create_scenario

        full = scale == "full"
        scenarios = ("paper-default", "short-hyperperiod", "faulty-controller")
        self.spec = CampaignSpec(
            name="perfbench-cold",
            scenarios=[create_scenario(name).with_workload(seed=seed) for name in scenarios],
            methods=(
                "fps-offline",
                "gpiocp",
                "static",
                "ga:population_size=24,generations=12" if full else "ga:population_size=8,generations=3",
            ),
            utilisations=(0.3, 0.5, 0.7, 0.9) if full else (0.3, 0.9),
            n_systems=4 if full else 1,
            runtime=RuntimeSpec(execution_models=("dedicated-controller", "remote-cpu")),
        )

    def prepare(self, work, clock) -> None:
        self.work = work

    def setup_probe(self, state: Path):
        """Build the runner and start its two pools; returns the runner.

        The scheduling and simulation services each get one cheap request
        per worker at once, so every worker process of both pools starts.
        """
        from repro.campaign import CampaignRunner
        from repro.runtime import SimulationRequest
        from repro.service import ScheduleRequest

        runner = CampaignRunner(
            self.spec,
            artifact_dir=state / "art",
            n_workers=self.n_workers,
            cache_backend=f"sqlite:path={state / 'cache.db'}",
        )
        try:
            scenario = self.spec.scenarios[0]
            futures = [
                runner.service.execute_in_pool(
                    ScheduleRequest(scenario=scenario, system_index=index, spec="fps-offline")
                )
                for index in range(self.n_workers)
            ]
            futures += [
                runner.simulation.execute_in_pool(
                    SimulationRequest(
                        scenario=scenario,
                        system_index=index,
                        method="fps-offline",
                        execution_model="dedicated-controller",
                    )
                )
                for index in range(self.n_workers)
            ]
            for future in futures:
                future.result()
        except BaseException:
            runner.close()
            raise
        return runner

    def repetition(self, clock, *, pooled: bool = True, capture: bool = False) -> Rep:
        state = self.work.fresh("cold")
        return _campaign_rep(
            self.spec,
            clock,
            n_workers=self.n_workers if pooled else 1,
            artifact_dir=state / "art",
            cache_backend=f"sqlite:path={state / 'cache.db'}",
            expect_hits=False,
            capture=capture,
        )

    def shape_problems(self, rep: Rep) -> List[str]:
        return campaign_shape_problems(self.spec, rep.journal)


# -- campaign-warm -------------------------------------------------------------------------


class CampaignWarm:
    """The read side: a big grid re-answered from a populated SQLite cache."""

    name = "campaign-warm"
    n_workers = 1
    checks = ("all-cache-hits", "warm-journal-equals-populated", "fps-offline-psi-about-zero", "ga-at-least-static")

    def __init__(self, seed: int, scale: str):
        from repro.campaign import CampaignSpec
        from repro.scenario import create_scenario

        full = scale == "full"
        scenarios = ("paper-default", "short-hyperperiod", "faulty-controller")
        self.spec = CampaignSpec(
            name="perfbench-warm",
            scenarios=[create_scenario(name).with_workload(seed=seed) for name in scenarios],
            methods=(
                "fps-offline",
                "fps-online",
                "gpiocp",
                "static",
                "ga:population_size=8,generations=4",
            ),
            utilisations=(0.3, 0.5, 0.7, 0.9) if full else (0.3, 0.9),
            n_systems=16 if full else 1,
        )
        self.populated: Optional[bytes] = None

    def prepare(self, work, clock) -> None:
        """Populate the cache once (untimed), keeping the journal it wrote."""
        self.work = work
        self.cache_backend = f"sqlite:path={work.path / 'warm-cache.db'}"
        state = work.fresh("populate")
        rep = _campaign_rep(
            self.spec,
            clock,
            n_workers=2,
            artifact_dir=state,
            cache_backend=self.cache_backend,
            expect_hits=False,
            capture=False,
        )
        self.populated = rep.journal

    def setup_probe(self, state: Path):
        """Build the runner (serial: no pool); returns it."""
        from repro.campaign import CampaignRunner

        return CampaignRunner(
            self.spec,
            artifact_dir=state / "art",
            n_workers=self.n_workers,
            cache_backend=f"sqlite:path={state / 'warm-cache.db'}",
        )

    def repetition(self, clock, *, pooled: bool = True, capture: bool = False) -> Rep:
        return _campaign_rep(
            self.spec,
            clock,
            n_workers=self.n_workers,
            artifact_dir=self.work.fresh("warm"),
            cache_backend=self.cache_backend,
            expect_hits=True,
            capture=capture,
        )

    def shape_problems(self, rep: Rep) -> List[str]:
        problems = campaign_shape_problems(self.spec, rep.journal)
        if rep.journal != self.populated:
            problems.append("warm journal differs from the one written while populating")
        return problems


# -- fig5-quick ------------------------------------------------------------------------------


class Fig5Quick:
    """The paper's headline sweep on the experiments engine, in-process.

    A repetition runs the quick sweep for :data:`SWEEPS` seeds derived from
    the workload seed (480 cells), so that a run's cost does not hinge on
    which 32 systems a single seed happens to draw.
    """

    name = "fig5-quick"
    n_workers = 1
    checks = ("fig5-expected-ordering",)
    SWEEPS = 3

    def __init__(self, seed: int, scale: str):
        from repro.experiments import ExperimentConfig

        base = ExperimentConfig.quick() if scale == "full" else ExperimentConfig.smoke()
        sweeps = self.SWEEPS if scale == "full" else 1
        self.configs = [
            base.with_overrides(seed=seed * self.SWEEPS + k) for k in range(sweeps)
        ]

    def prepare(self, work, clock) -> None:
        self.work = work

    def setup_probe(self, state: Path):
        """Build the engine (serial: no pool); returns it."""
        from repro.experiments.engine import ExperimentEngine

        return ExperimentEngine(self.configs[0])

    def repetition(self, clock, *, pooled: bool = True, capture: bool = False) -> Rep:
        from repro.core.memo import reset_memos
        from repro.experiments import run_fig5

        reset_memos()
        results, seconds, scaled = [], 0.0, 0.0
        for config in self.configs:
            result, raw, rescaled = clock.segment(lambda: run_fig5(config))
            results.append(result)
            seconds += raw
            scaled += rescaled
        cells = sum(
            len(config.schedulability_utilisations) * config.n_systems * len(result.series)
            for config, result in zip(self.configs, results)
        )
        output = "\n".join(result.to_table() for result in results).encode()
        return Rep(
            cells=cells, seconds=seconds, scaled=scaled, output=output, failed=0, results=results
        )

    def shape_problems(self, rep: Rep) -> List[str]:
        """The Figure 5 shape behind ``EXPECTED_ORDERING``."""
        problems: List[str] = []
        for result in rep.results:
            problems += self._series_problems(result.series)
        return problems

    @staticmethod
    def _series_problems(series) -> List[str]:
        from repro.experiments.fig5_schedulability import EXPECTED_ORDERING

        mean = {method: sum(values) / len(values) for method, values in series.items()}
        problems: List[str] = []
        if set(series) != set(EXPECTED_ORDERING):
            problems.append(f"fig5 methods {sorted(series)} != {sorted(EXPECTED_ORDERING)}")
            return problems
        for method in ("fps-online", "gpiocp"):
            if mean["fps-offline"] < mean[method] - 1e-9:
                problems.append(f"fps-offline below {method}")
        for ga_value, static_value in zip(series["ga"], series["static"]):
            if ga_value < static_value - 1e-9:
                problems.append("GA below static")
        for method in ("fps-offline", "static", "ga"):
            if mean[method] < mean["gpiocp"] - 1e-9:
                problems.append(f"{method} below gpiocp")
        if series["gpiocp"][-1] > series["gpiocp"][0]:
            problems.append("gpiocp does not collapse with utilisation")
        return problems


IN_PROCESS = {cls.name: cls for cls in (CampaignCold, CampaignWarm, Fig5Quick)}
