"""Shared plumbing of the benchmark: paths, statistics, host speed, memory, set-up.

Everything the benchmark writes goes under ``.perfbench_work/`` in the
checkout it runs from; trace files are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

#: The seed the stored digests were taken with, and the held-out seed every
#: performance claim must also hold on (never used while tuning a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Fresh-process set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Seconds the calibration kernel takes on a 2-vCPU Xeon host in its quick
#: state; timed figures are reported as if the host ran at that speed.
CALIBRATION_REFERENCE_S = 0.025


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed child, ...)."""


def require_source() -> None:
    """Make the checkout's ``src/`` importable, or fail before any result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str):
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_ROOT))

    def fresh(self, name: str) -> Path:
        """A new empty subdirectory (one per repetition)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ten samples or fewer no such
    percentile exists and the maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return float(ordered[index])


# -- host speed -----------------------------------------------------------------------


def _kernel() -> None:
    """A fixed mix of interpreter and numpy work, about 25 ms."""
    import numpy as np

    total = 0
    for i in range(200_000):
        total += i * i % 7
    values = np.arange(20_000)
    for _ in range(20):
        values = np.sort(values[::-1]).copy()


def calibration_seconds(cpus: Sequence[int]) -> float:
    """Mean time of the calibration kernel on each of ``cpus``.

    The calling thread is pinned to each CPU in turn and its affinity is
    restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class SpeedClock:
    """Times segments of work and scales them to the reference host speed.

    The shared host's speed drifts by a fifth and more over tens of seconds,
    per vCPU.  Each segment is bracketed by runs of a fixed calibration
    kernel on ``cpus`` (the CPUs the segment's work runs on; consecutive
    segments share the calibration between them), and its wall time is
    scaled by ``CALIBRATION_REFERENCE_S`` over the bracketing mean.  Raw wall
    times are kept alongside.
    """

    def __init__(self, cpus: Sequence[int]):
        self.cpus = tuple(cpus)
        #: The most recent calibration, which opens the next segment.
        self.last: Optional[float] = None

    def calibrate(self) -> float:
        self.last = calibration_seconds(self.cpus)
        return self.last

    def opening(self) -> float:
        return self.last if self.last is not None else self.calibrate()

    def factor(self, opening: float) -> float:
        """Reference over measured speed for a segment that ends now."""
        return CALIBRATION_REFERENCE_S / ((opening + self.calibrate()) / 2)

    def segment(self, work):
        """Run ``work()``; returns ``(result, raw seconds, scaled seconds)``."""
        opening = self.opening()
        started = time.perf_counter()
        result = work()
        raw = time.perf_counter() - started
        return result, raw, raw * self.factor(opening)


# -- memory -----------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_rss_bytes(root: int) -> int:
    """Resident memory of ``root`` and all its descendants."""
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
        stack.extend(_children(pid))
    return total


class PeakRss:
    """Samples the summed RSS of a process tree on a background thread."""

    def __init__(self, root: Optional[int] = None, interval_s: float = 0.02):
        self.root = root if root is not None else os.getpid()
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.root))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, tree_rss_bytes(self.root))

    @property
    def peak_mb(self) -> float:
        return self.peak / (1024.0 * 1024.0)


# -- set-up probes ------------------------------------------------------------------


def probe_setup(workload: str, seed: int, scale: str, state_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter until the workload is ready.

    The child (``setup_probe.py``) imports the package and starts the
    services the workload times against, then prints ``ready``.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            workload,
            str(seed),
            scale,
            str(state_dir),
        ],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
