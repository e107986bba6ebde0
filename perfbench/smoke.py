"""Smoke test of the benchmark itself, at minimum input sizes.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run at
``--scale smoke`` and asserts that the result line is well formed, that
every end-to-end (or per-layer) metric of ``BENCHMARK.json`` is printed
with its unit, and that the workload's correctness checks ran and passed.
It then runs the benchmark from a directory that holds only
``BENCHMARK.json`` and the benchmark's files and asserts that it fails
without printing a result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH_DIR, ROOT, WORK_ROOT

#: Checks each workload must report having made.
EXPECTED_CHECKS = {
    "campaign-cold": ("cells-complete", "repetitions-identical", "fps-offline-psi-about-zero", "ga-at-least-static"),
    "campaign-warm": ("cells-complete", "repetitions-identical", "warm-journal-equals-populated"),
    "fig5-quick": ("cells-complete", "repetitions-identical", "fig5-expected-ordering"),
    "daemon-open-loop": ("no-refusals-or-errors", "daemon-equals-in-process"),
}


def run(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    result = run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        ROOT,
    )
    label = f"{workload} trace={trace}"
    assert result.returncode == 0, f"{label}: exit {result.returncode}\n{result.stderr[-2000:]}"
    lines = result.stdout.strip().splitlines()
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}, label
    assert payload["correct"] is True and payload["failed"] == 0, label
    assert isinstance(payload["attempted"], int) and payload["attempted"] >= 1, label
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(payload["metrics"]) == {m["name"] for m in expected}, label
    for metric in expected:
        entry = payload["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], f"{label}: unit of {metric['name']}"
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), label
        printed = f"  {metric['name']} = "
        assert any(line.startswith(printed) and line.endswith(metric["unit"]) for line in lines), (
            f"{label}: {metric['name']} not printed with its unit"
        )
    checks_line = next(line for line in lines if line.startswith("  checks: "))
    for check in EXPECTED_CHECKS[workload]:
        assert check in checks_line, f"{label}: check {check} did not run"
    print(f"ok  {label}: {len(expected)} metrics, {checks_line.strip()}")


def check_fails_without_sources() -> None:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        result = run(["--workload", "fig5-quick", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert result.returncode != 0, "ran without the package sources"
        assert '"metrics"' not in result.stdout, "printed a result without the package sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without a result when src/ is missing")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_fails_without_sources()


if __name__ == "__main__":
    main()
