"""The generic experiment runner behind Figures 5-7.

The runner is a thin facade over :class:`repro.experiments.engine.ExperimentEngine`:
sweeps are decomposed into per-``(utilisation, system, method)`` evaluation
cells, executed serially or across a worker pool (``config.n_workers``) and —
when ``config.artifact_dir`` is set — persisted in a resumable on-disk cache.
Per-``(utilisation, system)`` deterministic seeding makes the aggregated
series bit-identical at any worker count.

The sweep semantics are unchanged from the historical in-process runner:

* the fraction of schedulable systems per method (Figure 5);
* the mean Psi and Upsilon per method over the systems that the proposed
  methods can schedule (Figures 6 and 7) — for the GA the best-Psi and the
  best-Upsilon points of the Pareto front are reported, as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.task import TaskSet
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    ACCURACY_METHODS,
    SCHEDULABILITY_METHODS,
    ExperimentEngine,
    ga_best_objectives,
)
from repro.experiments.results import AccuracySweepResult, SweepResult

__all__ = [
    "ExperimentRunner",
    "SweepResult",
    "AccuracySweepResult",
    "SCHEDULABILITY_METHODS",
    "ACCURACY_METHODS",
    "ga_best_objectives",
]


class ExperimentRunner:
    """Drives the synthetic-system sweeps of the paper's evaluation."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config or ExperimentConfig()

    # -- system generation -------------------------------------------------------

    def generate_system(self, utilisation: float, system_index: int) -> TaskSet:
        from repro.experiments.engine import generate_system

        return generate_system(self.config, utilisation, system_index)

    # -- figure 5 -----------------------------------------------------------------

    def schedulability_sweep(
        self, utilisations: Optional[Sequence[float]] = None
    ) -> SweepResult:
        """Fraction of schedulable systems per method and utilisation (Figure 5)."""
        with ExperimentEngine(self.config) as engine:
            return engine.schedulability_sweep(utilisations)

    # -- figures 6 and 7 -----------------------------------------------------------

    def accuracy_sweep(
        self, utilisations: Optional[Sequence[float]] = None
    ) -> AccuracySweepResult:
        """Mean Psi and Upsilon per method over schedulable systems (Figures 6-7)."""
        with ExperimentEngine(self.config) as engine:
            return engine.accuracy_sweep(utilisations)
