"""Micro-benchmarks of the individual schedulers (ablation support).

These are not paper figures; they quantify the cost of each scheduling method
on a fixed medium-load system (the heuristic is polynomial, the GA dominates
the experiment run time).  ``test_bench_heuristic`` repeats one call, so after
its first round it times the per-process heuristic memo;
``test_bench_heuristic_cold`` empties the memos before every round and so
times the heuristic itself (graph decomposition plus LCC-D).
"""

import pytest

from repro.core.memo import reset_memos
from repro.scheduling import (
    FPSOfflineScheduler,
    GAConfig,
    GAScheduler,
    GPIOCPScheduler,
    HeuristicScheduler,
)
from repro.taskgen import SystemGenerator


@pytest.fixture(scope="module")
def medium_system():
    return SystemGenerator(rng=99).generate(0.5)


@pytest.mark.benchmark(group="schedulers")
def test_bench_fps_offline(benchmark, medium_system):
    result = benchmark(lambda: FPSOfflineScheduler().schedule_taskset(medium_system))
    assert result.per_device


@pytest.mark.benchmark(group="schedulers")
def test_bench_gpiocp(benchmark, medium_system):
    result = benchmark(lambda: GPIOCPScheduler().schedule_taskset(medium_system))
    assert result.per_device


@pytest.mark.benchmark(group="schedulers")
def test_bench_heuristic(benchmark, medium_system):
    result = benchmark(lambda: HeuristicScheduler().schedule_taskset(medium_system))
    assert result.schedulable


@pytest.mark.benchmark(group="schedulers")
def test_bench_heuristic_cold(benchmark, medium_system):
    result = benchmark.pedantic(
        lambda: HeuristicScheduler().schedule_taskset(medium_system),
        setup=reset_memos,
        rounds=7,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.schedulable


@pytest.mark.benchmark(group="schedulers")
def test_bench_ga(benchmark, medium_system):
    scheduler = GAScheduler(GAConfig(population_size=20, generations=10, seed=5))
    result = benchmark.pedantic(
        lambda: scheduler.schedule_taskset(medium_system), rounds=1, iterations=1
    )
    assert result.schedulable
