"""The ``daemon-open-loop`` workload: a serving daemon under fixed-rate load.

The daemon (``python -m repro.server serve``) runs as a child process with
one pool worker and a SQLite cache.  One asyncio generator process, holding
:data:`CONNECTIONS` connections, sends requests on a fixed schedule whatever
the replies do (an open loop), so a slow daemon builds a queue instead of
slowing the load.  Every request is timed from when it was *due*, which
charges a stall to every request it delays, and the generator records how
late it ran.

Request mix, drawn from the workload seed: about 85% repeats of a hot set of
schedule requests (cache hits), 10% fresh ``static``/``gpiocp`` schedule
requests on new system indices (cache misses, computed and stored), and 5%
``simulate`` requests from a hot set.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    BenchmarkError,
    PeakRss,
    ROOT,
    child_env,
    log,
    median,
    percentile,
    tail,
)

#: Fixed rates (requests/s) reported as ``rtt_*.low`` and ``rtt_*.high``:
#: about a fifth and two fifths of ``max_rate_rps`` on a shared 2-CPU host;
#: nearer to it, the host's own speed swings moved the high step's tail by
#: more than any bound could absorb.
LOW_RATE = 150.0
HIGH_RATE = 300.0
#: The fixed rate ladder (10% apart) ``max_rate_rps`` is searched on.  The
#: search starts at ``LADDER_START`` times the high rate; from a passing
#: rung it climbs two rungs at a time until one fails, then tries the rung
#: it skipped; from a failing one it steps down until a rung passes.
#: It stops starting new rungs after 30% of the run.
LADDER = (
    330.0, 360.0, 400.0, 440.0, 480.0, 530.0, 580.0, 640.0, 700.0, 770.0,
    850.0, 940.0, 1030.0, 1130.0, 1250.0, 1380.0, 1500.0,
)
#: Requests per rung: five tail windows, so one stall of the daemon (a
#: garbage collection, a cache checkpoint) moves one window, not the rung.
RUNG_REQUESTS = 1000
LADDER_START = 2.0
#: A rung passes while its tail latency stays within this limit (ms) ...
TAIL_LIMIT_MS = 50.0
#: ... and its in-flight backlog does not grow from the second quarter of the
#: rung to the last by more than this factor (plus a slack of a few requests);
#: the first quarter is skipped because every rung starts from an idle daemon.
BACKLOG_GROWTH = 2.0
#: Tail latencies are taken per window of this many consecutive requests
#: (p95: ten samples beyond) and the median window is reported, so one
#: scheduler hiccup moves one window, not the figure.
WINDOW = 200
CONNECTIONS = 2

HOT_SCENARIOS = ("paper-default", "short-hyperperiod")
HOT_METHODS = ("static", "gpiocp", "fps-offline")
HOT_GA = "ga:population_size=8,generations=4"
SIM_MODELS = ("dedicated-controller", "remote-cpu")
SHARE_MISS = 0.10
#: Share of the misses that run the static heuristic (the rest run GPIOCP).
#: Static misses alone then fill the top 5% of latencies, so the windowed
#: p95 falls inside one cost mode instead of on the cliff between two.
SHARE_MISS_STATIC = 0.8
SHARE_SIM = 0.05
#: Misses use system indices from here on, never repeated within a run.
MISS_BASE = 10_000


@dataclass
class Inputs:
    """Everything the generator sends, derived from the workload seed."""

    seed: int
    hot: List[Any]
    sims: List[Any]
    miss_scenario: Any
    next_miss: int = 0

    def miss(self, method: str):
        from repro.service import ScheduleRequest

        self.next_miss += 1
        return ScheduleRequest(
            scenario=self.miss_scenario,
            system_index=MISS_BASE + self.next_miss - 1,
            spec=method,
        )



def build_inputs(seed: int, scale: str) -> Inputs:
    from repro.runtime import SimulationRequest
    from repro.scenario import create_scenario
    from repro.service import ScheduleRequest

    n_systems = 6 if scale == "full" else 2
    scenarios = [create_scenario(name).with_workload(seed=seed) for name in HOT_SCENARIOS]
    hot = [
        ScheduleRequest(scenario=scenario, system_index=index, spec=method)
        for scenario in scenarios
        for index in range(n_systems)
        for method in HOT_METHODS
    ]
    hot += [
        ScheduleRequest(scenario=scenario, system_index=index, spec=HOT_GA)
        for scenario in scenarios
        for index in range(2)
    ]
    sims = [
        SimulationRequest(
            scenario=scenario, system_index=index, method="static", execution_model=model
        )
        for scenario in scenarios
        for index in range(2)
        for model in SIM_MODELS
    ]
    return Inputs(seed=seed, hot=hot, sims=sims, miss_scenario=scenarios[1])


def draw(inputs: Inputs, rng: random.Random) -> Tuple[str, Any]:
    """The next ``(op, request)`` of the mix."""
    value = rng.random()
    if value < SHARE_MISS:
        static = rng.random() < SHARE_MISS_STATIC
        return "schedule", inputs.miss("static" if static else "gpiocp")
    if value < SHARE_MISS + SHARE_SIM:
        return "simulate", rng.choice(inputs.sims)
    return "schedule", rng.choice(inputs.hot)


# -- the daemon process -----------------------------------------------------------------


class Daemon:
    """A ``repro.server serve`` child process on an ephemeral port.

    With ``spans_path`` it is started through ``traced_daemon.py``, which
    writes the daemon's spans there when it stops.
    """

    def __init__(self, state: Path, spans_path: Optional[Path] = None):
        self.state = state
        self.spans_path = spans_path
        state.mkdir(parents=True, exist_ok=True)
        self.port_file = state / "port"
        self.log_path = state / "daemon.log"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait until the port file exists and ``health`` answers."""
        started = time.perf_counter()
        self._log = open(self.log_path, "ab")
        serve = [
            "--port",
            "0",
            "--port-file",
            str(self.port_file),
            "--workers",
            "1",
            "--cache-backend",
            f"sqlite:path={self.state / 'cache.db'}",
            "--log-level",
            "warning",
        ]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.server", "serve", *serve]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_daemon.py"), str(self.spans_path), *serve]
        self.process = subprocess.Popen(
            command,
            env=child_env(),
            cwd=str(ROOT),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = started + 60.0
        while True:
            if self.process.poll() is not None:
                raise BenchmarkError(f"daemon exited early; see {self.log_path}")
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text:
                self.port = int(text)
                break
            if time.perf_counter() > deadline:
                raise BenchmarkError("daemon did not write its port file")
            time.sleep(0.005)
        asyncio.run(self._health())
        return time.perf_counter() - started

    async def _health(self) -> None:
        from repro.server import AsyncServerClient

        client = await AsyncServerClient.connect("127.0.0.1", self.port)
        try:
            status = await client.health()
        finally:
            await client.close()
        if status.get("status") != "ok":
            raise BenchmarkError(f"daemon unhealthy: {status}")

    def stop(self) -> None:
        """Shut down over the wire; kill only if that does not finish."""
        if self.process is None:
            return
        if self.process.poll() is None and self.port:
            try:
                asyncio.run(self._shutdown())
            except (OSError, ConnectionError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()
        self.process = None

    async def _shutdown(self) -> None:
        from repro.server import AsyncServerClient

        client = await AsyncServerClient.connect("127.0.0.1", self.port)
        try:
            await client.shutdown()
        finally:
            await client.close()


def probe_daemon_setup(state: Path) -> float:
    """One ``setup_s`` sample: spawn until ``health`` answers, then stop."""
    daemon = Daemon(state)
    try:
        return daemon.start()
    finally:
        daemon.stop()


# -- the open-loop generator ----------------------------------------------------------------


@dataclass
class Step:
    """One fixed-rate interval of the open loop."""

    rate: float
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    inflight: List[int] = field(default_factory=list)
    sent: int = 0
    ok: int = 0
    refused: int = 0
    errors: int = 0
    wrong: int = 0
    started: float = 0.0
    finished: float = 0.0
    server: Dict[str, float] = field(default_factory=dict)

    @property
    def tail(self) -> Tuple[float, float, int, int]:
        """``(median window tail, its percentile, samples per window, windows)``."""
        ordered = [value for value in self.latencies_ms if value is not None]
        windows = [
            ordered[start : start + WINDOW]
            for start in range(0, max(1, len(ordered) - WINDOW + 1), WINDOW)
        ]
        tails = [tail(window) for window in windows]
        return median([t[0] for t in tails]), tails[0][1], tails[0][2], len(tails)

    @property
    def backlog_grew(self) -> bool:
        quarter = max(1, len(self.inflight) // 4)
        second = sum(self.inflight[quarter : 2 * quarter]) / quarter
        last = sum(self.inflight[-quarter:]) / quarter
        return last > BACKLOG_GROWTH * second + 3

    @property
    def passed(self) -> bool:
        return (
            self.refused == 0
            and self.errors == 0
            and self.tail[0] <= TAIL_LIMIT_MS
            and not self.backlog_grew
        )

    @property
    def achieved_rps(self) -> float:
        return self.ok / (self.finished - self.started) if self.finished > self.started else 0.0


def _fingerprint(op: str, payload: Dict[str, Any]) -> Tuple:
    result = payload["data"]["result"]
    if op == "schedule":
        keys = ("schedulable", "psi", "upsilon", "best_psi", "best_upsilon")
    else:
        keys = ("schedulable", "accuracy", "psi", "upsilon", "events_processed")
    return tuple(result.get(key) for key in keys)


class Generator:
    """Sends the seeded mix at fixed rates over a few connections."""

    def __init__(self, inputs: Inputs, port: int):
        self.inputs = inputs
        self.port = port
        self.rng = random.Random(inputs.seed)
        #: First full answer per distinct request, for the parity check.
        self.answers: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.fingerprints: Dict[Tuple[str, str], Tuple] = {}
        self.requests: Dict[Tuple[str, str], Any] = {}
        self.miss_keys: List[Tuple[str, str]] = []
        self._encoded: Dict[int, Tuple[str, str, Dict[str, Any]]] = {}
        self.clients: List[Any] = []

    async def connect(self) -> None:
        from repro.server import AsyncServerClient

        self.clients = [
            await AsyncServerClient.connect("127.0.0.1", self.port)
            for _ in range(CONNECTIONS)
        ]

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    def _encode(self, op: str, request) -> Tuple[str, Tuple[str, str], Dict[str, Any]]:
        cached = self._encoded.get(id(request))
        if cached is None:
            key = (op, request.content_key())
            cached = (op, key, request.to_dict())
            self._encoded[id(request)] = cached
            self.requests.setdefault(key, request)
        return cached

    def pick(self) -> Tuple[str, Tuple[str, str], Dict[str, Any]]:
        op, request = draw(self.inputs, self.rng)
        if request.system_index >= MISS_BASE:
            key = (op, request.content_key())
            self.requests[key] = request
            self.miss_keys.append(key)
            return op, key, request.to_dict()
        return self._encode(op, request)

    async def _one(self, step: Step, index: int, client, op, key, payload, due: float) -> None:
        from repro.server import ServerError

        loop = asyncio.get_running_loop()
        try:
            answer = await client.call(op, payload)
        except ServerError as error:
            if error.code == "overloaded":
                step.refused += 1
            else:
                step.errors += 1
            step.latencies_ms[index] = (loop.time() - due) * 1e3
            return
        done = loop.time()
        step.latencies_ms[index] = (done - due) * 1e3
        step.finished = max(step.finished, done)
        fingerprint = _fingerprint(op, answer)
        known = self.fingerprints.setdefault(key, fingerprint)
        if known != fingerprint:
            step.wrong += 1
            return
        if key not in self.answers:
            self.answers[key] = answer["data"]["result"]
        step.ok += 1

    async def warm(self) -> None:
        """Answer the hot sets once (closed loop, untimed) so they are cached."""
        for op, requests in (("schedule", self.inputs.hot), ("simulate", self.inputs.sims)):
            for request in requests:
                op_, key, payload = self._encode(op, request)
                step = Step(rate=0.0, latencies_ms=[None])
                await self._one(step, 0, self.clients[0], op_, key, payload, time.monotonic())
                if step.ok != 1:
                    raise BenchmarkError(f"warm-up request failed: {key}")

    async def run_step(self, rate: float, seconds: float) -> Step:
        loop = asyncio.get_running_loop()
        count = max(1, int(round(rate * seconds)))
        step = Step(rate=rate, latencies_ms=[None] * count)
        start = loop.time() + 0.01
        step.started = start
        outstanding: set = set()
        tasks = []
        for index in range(count):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            step.late_ms.append(max(0.0, loop.time() - due) * 1e3)
            op, key, payload = self.pick()
            client = self.clients[index % len(self.clients)]
            task = asyncio.ensure_future(self._one(step, index, client, op, key, payload, due))
            outstanding.add(task)
            task.add_done_callback(outstanding.discard)
            tasks.append(task)
            step.inflight.append(len(outstanding))
            step.sent += 1
        await asyncio.gather(*tasks)
        return step


async def _server_snapshot(client) -> Dict[str, float]:
    """``server.*`` numbers from the daemon's own ``stats``/``metrics`` RPCs."""
    from tracer import memo_metrics_from_exposition, parse_exposition, phase_mean_ms

    stats = await client.stats()
    samples = parse_exposition(await client.metrics())
    hits = misses = 0
    for kind in ("schedule", "simulation"):
        cache = (stats.get(kind) or {}).get("cache") or {}
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
    out = {
        "server.admitted": float(stats["requests"]["admitted"]),
        "server.rejected": float(stats["requests"]["rejected"]),
        "server.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.inflight_dedup": float(stats["requests"]["in_flight_dedup"]),
        "server.queue_wait_ms": phase_mean_ms(samples, "queue-wait"),
        "server.schedule_ms": phase_mean_ms(samples, "schedule", kind="schedule"),
        "server.simulate_ms": phase_mean_ms(samples, "simulate", kind="simulation"),
    }
    out.update(memo_metrics_from_exposition(samples))
    return out


@dataclass
class LadderRun:
    low: Step
    high: Step
    ladder: List[Step]
    server: Dict[str, float]
    setup_s: float
    #: Peak RSS of the daemon and its worker up to the end of the fixed
    #: rates (the ladder's length, and so its cache growth, varies by run).
    peak_rss_mb: float
    generator: Generator

    @property
    def steps(self) -> List[Step]:
        return [self.low, self.high] + self.ladder


def run_ladder(inputs: Inputs, state: Path, seconds: float) -> LadderRun:
    """Start a daemon, warm it, then run the fixed rates and the ladder."""
    daemon = Daemon(state)
    setup_s = daemon.start()
    try:
        with PeakRss(daemon.process.pid) as rss:
            generator, steps, server, peak = asyncio.run(
                _drive(inputs, daemon.port, seconds, rss)
            )
    finally:
        daemon.stop()
    low, high, ladder = steps[0], steps[1], steps[2:]
    return LadderRun(low, high, ladder, server, setup_s, peak, generator)


def run_traced(
    inputs: Inputs, state: Path, seconds: float, spans_path: Path
) -> Tuple[Step, Step, Dict[str, float]]:
    """The fixed rates of :func:`run_ladder` against a traced daemon.

    Returns the low and high steps and the per-layer summary the daemon
    wrote when it stopped.
    """
    daemon = Daemon(state, spans_path)
    daemon.start()
    try:
        with PeakRss(daemon.process.pid) as rss:
            _, steps, _, _ = asyncio.run(
                _drive(inputs, daemon.port, seconds, rss, ladder=False)
            )
    finally:
        daemon.stop()
    if not spans_path.is_file():
        raise BenchmarkError(f"the traced daemon wrote no spans; see {daemon.log_path}")
    summary = json.loads(spans_path.read_text())["meta"]["summary"]
    return steps[0], steps[1], summary


async def _drive(inputs: Inputs, port: int, seconds: float, rss: PeakRss, ladder: bool = True):
    generator = Generator(inputs, port)
    await generator.connect()
    steps: List[Step] = []

    async def measure(label: str, rate: float, duration: float) -> Step:
        step = await generator.run_step(rate, duration)
        step.server = await _server_snapshot(generator.clients[0])
        steps.append(step)
        _log_step(label, step)
        return step

    async def rung(rate: float) -> bool:
        """A rung fails only when two attempts in a row fail, so that one
        transient stall of the host does not end the search."""
        for _ in range(2):
            if (await measure("ladder", rate, RUNG_REQUESTS / rate)).passed:
                return True
        return False

    try:
        await generator.warm()
        await generator.run_step(LOW_RATE, min(1.0, seconds / 10))  # untimed warm-up
        await measure("fixed", LOW_RATE, seconds * 0.35)
        await measure("fixed", HIGH_RATE, seconds * 0.35)
        peak = rss.peak_mb
        if not ladder:
            return generator, steps, steps[-1].server, peak
        deadline = time.monotonic() + seconds * 0.3
        start = next(i for i, rate in enumerate(LADDER) if rate >= LADDER_START * HIGH_RATE)
        if await rung(LADDER[start]):
            best, index = start, start + 2
            while index < len(LADDER) and time.monotonic() < deadline:
                if not await rung(LADDER[index]):
                    if await rung(LADDER[index - 1]):
                        best = index - 1
                    break
                best, index = index, index + 2
            if index == len(LADDER) and best == len(LADDER) - 2:
                await rung(LADDER[-1])
        else:
            index = start - 1
            while index >= 0 and LADDER[index] > HIGH_RATE and time.monotonic() < deadline:
                if await rung(LADDER[index]):
                    break
                index -= 1
    finally:
        await generator.close()
    return generator, steps, steps[-1].server, peak


def _log_step(label: str, step: Step) -> None:
    value, pct, n, windows = step.tail
    log(
        f"  {label} {step.rate:.0f} rps: n={step.sent} p50={median(step.latencies_ms):.2f}ms "
        f"p{pct:.1f}={value:.2f}ms (median of {windows} x {n}) late_p99={percentile(step.late_ms, 99):.2f}ms "
        f"backlog_max={max(step.inflight)} refused={step.refused} "
        f"{'pass' if step.passed else 'FAIL'}"
    )


# -- checks and the in-process replay ---------------------------------------------------------


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def parity_problems(generator: Generator, sample_misses: int = 8) -> Tuple[int, List[str]]:
    """Daemon answers vs in-process ``execute_request``/``execute_simulation``.

    Covers every hot schedule and simulation request and the first
    ``sample_misses`` misses.  Returns ``(requests checked, problems)``.
    """
    from repro.runtime import execute_simulation
    from repro.service import execute_request

    checked = 0
    problems: List[str] = []
    misses = set(generator.miss_keys)
    sampled = set(generator.miss_keys[:sample_misses])
    for key, answer in generator.answers.items():
        if key in misses and key not in sampled:
            continue
        request = generator.requests[key]
        if key[0] == "schedule":
            expected = execute_request(request).result_dict()
        else:
            expected = execute_simulation(request).result_dict()
        checked += 1
        if _canonical(answer) != _canonical(json.loads(_canonical(expected))):
            problems.append(f"daemon answer differs from in-process result for {key}")
    return checked, problems


def replay(inputs: Inputs, count: int, seed: int):
    """A traced runner of the daemon pool worker's part of the mix, in-process.

    In the daemon only cache misses reach the pool worker: the hot schedule
    and simulate requests are answered from the cache on the event loop.
    The worker computes a miss with ``execute_request_observed``, on a copy
    of the request unpickled from the pool's queue.  Each call of the runner
    resets the memos and runs that entry on fresh copies of the same
    ``count`` misses, drawn as the mix draws them, so every call does
    identical work.
    """
    import pickle

    from repro.core.memo import reset_memos
    from repro.service import ScheduleRequest
    from repro.service.service import execute_request_observed

    rng = random.Random(seed)
    misses = [
        ScheduleRequest(
            scenario=inputs.miss_scenario,
            system_index=MISS_BASE + index,
            spec="static" if rng.random() < SHARE_MISS_STATIC else "gpiocp",
        )
        for index in range(count)
    ]

    def run_once(recorder) -> float:
        """Wall seconds of one pass, traced into ``recorder``."""
        import tracer as tracing

        copies = [pickle.loads(pickle.dumps(request)) for request in misses]
        reset_memos()
        tracing.install(recorder)
        try:
            started = time.perf_counter()
            for request in copies:
                execute_request_observed((request, None, None))
            return time.perf_counter() - started
        finally:
            tracing.uninstall(recorder)

    return run_once
