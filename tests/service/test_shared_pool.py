"""One worker pool per service pair, and the engine's sweeps on that pool.

A simulation service runs its pooled chunks on the pool of the scheduling
service it schedules through; only a scheduling service without a local pool
makes it start one of its own.  Sharing never changes an answer.
"""

import gc
import weakref
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, RuntimeSpec
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.obs.trace import PHASE_QUEUE_WAIT
from repro.runtime import SimulationRequest, SimulationService
from repro.scheduling import GAConfig
from repro.server import ServerClient, ThreadedServer
from repro.service import ScheduleRequest, SchedulingService, execute_request
from repro.store import SqliteBackend


def simulation_batch():
    return [
        SimulationRequest(
            scenario="short-hyperperiod",
            system_index=index,
            method=method,
            request_id=f"{index}/{method}",
        )
        for index in range(2)
        for method in ("static", "gpiocp")
    ]


def results(responses):
    return [response.result_dict() for response in responses]


@pytest.fixture(scope="module")
def serial_simulations():
    with SimulationService(cache=None) as service:
        return results(service.submit_batch(simulation_batch()))


def worker_count(executor):
    return len(executor._processes)


class TestCampaignAndDaemon:
    def test_runtime_campaign_runs_on_one_pool(self):
        spec = CampaignSpec(
            name="shared-pool",
            scenarios=("short-hyperperiod",),
            methods=("static", "gpiocp"),
            n_systems=2,
            runtime=RuntimeSpec(execution_models=("dedicated-controller",)),
        )
        with CampaignRunner(spec, n_workers=2) as runner:
            result = runner.run()
            executor = runner.service.core.executor()
            assert runner.simulation.core.executor() is executor
            assert worker_count(executor) <= 2
        assert result.complete
        assert len(result.runtime_records) == 4

    def test_daemon_pair_runs_on_one_pool(self):
        with ThreadedServer(n_workers=2, port=0) as threaded:
            server = threaded.server
            with ServerClient(server.host, server.port) as client:
                client.simulate_batch(simulation_batch())
                client.schedule_batch(
                    [request.schedule_request() for request in simulation_batch()]
                )
            executor = server.scheduling.core.executor()
            assert server.simulation.core.executor() is executor
            assert worker_count(executor) <= 2


class TestPoolOwnership:
    def test_closing_a_borrower_leaves_the_lender_usable(self, serial_simulations):
        schedule_requests = [r.schedule_request() for r in simulation_batch()]
        with SchedulingService(cache=None) as serial:
            expected = results(serial.submit_batch(schedule_requests))
        with SchedulingService(n_workers=2, cache=None) as scheduling:
            with SimulationService(
                n_workers=2, cache=None, scheduling=scheduling
            ) as simulation:
                pooled = results(simulation.submit_batch(simulation_batch()))
                executor = scheduling.core.executor()
                assert simulation.core.executor() is executor
            assert pooled == serial_simulations
            # The borrower is closed; the lender and its pool carry on.
            assert scheduling.core.executor() is executor
            assert results(scheduling.submit_batch(schedule_requests)) == expected
            assert scheduling.execute_in_pool(schedule_requests[0]).result().schedulable

    def test_an_owned_pair_starts_and_stops_one_pool(self, monkeypatch, serial_simulations):
        started, stopped = [], []
        original_init = ProcessPoolExecutor.__init__
        original_shutdown = ProcessPoolExecutor.shutdown

        def init(self, *args, **kwargs):
            started.append(self)
            original_init(self, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            stopped.append(self)
            original_shutdown(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
        monkeypatch.setattr(ProcessPoolExecutor, "shutdown", shutdown)
        with SimulationService(n_workers=2, cache=None) as simulation:
            assert simulation.scheduling.n_workers == 2
            assert results(simulation.submit_batch(simulation_batch())) == serial_simulations
            simulation.scheduling.submit_batch(
                [r.schedule_request() for r in simulation_batch()]
            )
            simulation.execute_in_pool(simulation_batch()[0]).result()
        assert len(started) == 1
        assert stopped == started

    def test_pool_less_scheduling_service_gets_a_pool_of_its_own(self, serial_simulations):
        class DuckScheduling:
            """Schedules in-process; has a cache attribute but no pool."""

            cache = None
            n_workers = 2

            def submit(self, request):
                return execute_request(request)

            def close(self):
                pass

        with SimulationService(
            n_workers=2, cache=None, scheduling=DuckScheduling()
        ) as simulation:
            pooled = results(simulation.submit_batch(simulation_batch()))
            assert worker_count(simulation.core.executor()) >= 1
        assert pooled == serial_simulations


    def test_closed_services_are_freed_without_the_cyclic_collector(self):
        # A reference cycle would keep every closed service's cache entries
        # alive until a full collection: memory grows service by service.
        gc.disable()
        try:
            with SchedulingService(n_workers=2) as scheduling:
                with SimulationService(n_workers=2, scheduling=scheduling) as simulation:
                    simulation.submit(simulation_batch()[0])
                    cores = [weakref.ref(simulation.core), weakref.ref(scheduling.core)]
            del scheduling, simulation
            assert [core() for core in cores] == [None, None]
        finally:
            gc.enable()


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        schedulability_utilisations=(0.3, 0.6),
        accuracy_utilisations=(0.3, 0.6),
        n_systems=3,
        ga=GAConfig(population_size=8, generations=4),
    )


class TestEnginePool:
    @pytest.mark.parametrize("scenario", [None, "short-hyperperiod"])
    def test_two_workers_equal_serial_on_both_sweeps(self, tiny_config, scenario):
        config = tiny_config.with_overrides(scenario=scenario)
        with ExperimentEngine(config, n_workers=1) as engine:
            serial = (engine.schedulability_sweep(), engine.accuracy_sweep())
        with ExperimentEngine(config, n_workers=2) as engine:
            pooled = (engine.schedulability_sweep(), engine.accuracy_sweep())
            assert isinstance(engine._service, SchedulingService)
            assert engine._service.cache is None
        assert pooled[0].series == serial[0].series
        assert pooled[1].psi.series == serial[1].psi.series
        assert pooled[1].upsilon.series == serial[1].upsilon.series
        assert pooled[1].systems_evaluated == serial[1].systems_evaluated

    @pytest.mark.parametrize("delivered", [1, 5])
    def test_pooled_cells_are_journalled_as_delivered(
        self, tiny_config, tmp_path, monkeypatch, delivered
    ):
        config = tiny_config.with_overrides(include_ga=False)
        original = SchedulingService.submit_batch

        def interrupt_after_delivered(self, requests, on_response=None):
            seen = []

            def hook(position, response):
                if len(seen) == delivered:
                    raise KeyboardInterrupt
                seen.append(position)
                on_response(position, response)

            return original(self, requests, on_response=hook)

        monkeypatch.setattr(SchedulingService, "submit_batch", interrupt_after_delivered)
        with ExperimentEngine(config, n_workers=2, artifact_dir=str(tmp_path)) as engine:
            with pytest.raises(KeyboardInterrupt):
                engine.schedulability_sweep()
            computed = engine.cells_computed
        # Every delivered cell, and the one whose delivery was cut, is in the
        # cache file: a run of done cells is stored before it is handed back.
        with SqliteBackend(tmp_path / "cells.db") as backend:
            stored = len(backend)
        assert delivered < stored <= computed
        monkeypatch.setattr(SchedulingService, "submit_batch", original)
        with ExperimentEngine(config, n_workers=2, artifact_dir=str(tmp_path)) as engine:
            resumed = engine.schedulability_sweep()
            n_cells = 2 * 3 * len(engine.schedulability_methods())
            assert engine.cells_computed == n_cells - stored
        with ExperimentEngine(config, n_workers=1) as engine:
            assert resumed.series == engine.schedulability_sweep().series


def test_observed_pool_entry_matches_serial():
    requests = [
        ScheduleRequest(scenario="short-hyperperiod", system_index=index, spec="static")
        for index in range(3)
    ]
    with SchedulingService(cache=None) as serial:
        expected = results(serial.submit_batch(requests))
    with SchedulingService(cache=None, n_workers=2, chunksize=1) as pooled:
        assert results(pooled.submit_batch(requests)) == expected
        observed, trace, snapshot = pooled.execute_in_pool_observed(requests[0]).result()
    assert observed.result_dict() == expected[0]
    assert trace["phases"][0]["phase"] == PHASE_QUEUE_WAIT
    assert "families" in snapshot
