"""Execution: the one executor, plus integrity and degradation.

The paper's protocol layer already tolerates lossy radios
(:mod:`repro.runtime.faults`); this package runs every fan-out of the
pipeline and its sweeps — the :mod:`repro.shard` tiled pipeline, the
experiment battery, serving batches — and gives that substrate, with the
on-disk :class:`~repro.perf.ArtifactCache`, the same default assumption:
workers crash, shards straggle, artifacts rot, and the pipeline must
carry on.

* :class:`ResilientRunner` — the only executor: a process-pool fan-out
  with results in config order, fail-fast by default (one attempt, the
  task's own exception propagates); :func:`resolve_jobs` sets its worker
  count and :func:`task_context` hands its tasks the caller's cache and
  tracer;
* :class:`SupervisorPolicy` — opts a runner into supervision: per-task
  retry with seeded exponential backoff, percentile-deadline straggler
  speculation with first-result-wins, and process-pool resurrection on
  hard worker death;
* :class:`ExecutorFaultPlan` — deterministic chaos schedule (worker
  kills, straggler delays, artifact corruption) keyed by the splitmix64
  idiom shared with the radio fault layer;
* :class:`DegradedReport` — the honest accounting a partial extraction
  ships with when a shard is permanently lost (wired through
  :func:`repro.shard.run_sharded`);
* ``python -m repro.resilience`` — the kill-and-recover chaos smoke
  harness CI runs.

With no fault plan and no real failures, supervision is pass-through:
supervised runs are bit-identical to fail-fast ones, which the
equivalence batteries assert.
"""

from .degrade import DegradedReport, grid_seams, quality_verdict
from .faults import (
    ExecutorFaultPlan,
    InjectedWorkerCrash,
    corrupt_cache_entries,
)
from .supervisor import (
    ResilientRunner,
    SupervisorPolicy,
    TaskFailedError,
    TaskOutcome,
    resolve_jobs,
    task_context,
)

__all__ = [
    "DegradedReport",
    "ExecutorFaultPlan",
    "InjectedWorkerCrash",
    "ResilientRunner",
    "SupervisorPolicy",
    "TaskFailedError",
    "TaskOutcome",
    "corrupt_cache_entries",
    "grid_seams",
    "quality_verdict",
    "resolve_jobs",
    "task_context",
]
