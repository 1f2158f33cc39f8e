"""The executor: process-pool fan-out, fail-fast or supervised.

:class:`ResilientRunner` runs a pure task function over a list of
configs — inline at ``jobs=1``, else on a ``ProcessPoolExecutor`` — and
returns one :class:`TaskOutcome` per config in config order, never
completion order, so a parallel run is bit-identical to the serial one.
Configs and results cross the process boundary by pickle;
:class:`~repro.network.graph.SensorNetwork` ships as compact arrays.

Without a :class:`SupervisorPolicy` the runner is **fail-fast**: one
attempt per task, no backoff, no speculation, and a failing task's own
exception propagates unchanged (the lowest config index wins when several
fail).  With a policy every task is supervised:

* a failed attempt (injected :class:`~.faults.InjectedWorkerCrash`, a
  real exception, or a worker death that breaks the process pool) is
  retried up to ``SupervisorPolicy.max_attempts`` times with seeded
  exponential backoff;
* an attempt that overruns the straggler deadline — derived from the
  running percentile of completed-attempt durations, the same
  nearest-rank :func:`~repro.observability.metrics.percentile` the
  :class:`~repro.observability.metrics.MetricsReport` latency columns
  use — gets a speculative duplicate, and the first finished copy wins
  (bit-identical either way: task functions are pure);
* a task that exhausts its budget is returned as a failed
  :class:`TaskOutcome` instead of raising, so callers can degrade
  gracefully (:mod:`repro.shard` turns these into a
  :class:`~.degrade.DegradedReport`).

With no :class:`~.faults.ExecutorFaultPlan` and no real failures, every
task succeeds on attempt 0 under either policy, so supervised and
fail-fast runs return the same results.

The runner also owns the two steps every fan-out shares: the worker
count (:func:`resolve_jobs`) and the task context — the caller's cache
and tracer, installed around each ``map`` for task functions to read
through :func:`task_context`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability.metrics import percentile
from ..runtime.faults import hash_uniform
from .faults import (
    ExecutorFaultPlan,
    InjectedWorkerCrash,
    _SALT_BACKOFF,
    _stage_coord,
)

__all__ = ["SupervisorPolicy", "TaskOutcome", "TaskFailedError",
           "ResilientRunner", "resolve_jobs", "task_context"]

_JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The worker count: explicit ``jobs`` > ``REPRO_JOBS`` > 1 (serial).

    A call that did not ask for parallelism must not silently fork —
    tests and embedding code rely on single-process execution by default.
    """
    if jobs is None:
        env = os.environ.get(_JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{_JOBS_ENV} must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


# The cache/tracer of the running ``map`` (installed and restored by
# :meth:`ResilientRunner.map`), made visible to its task function:
# directly when the task runs inline (jobs=1), and as a fork-time snapshot
# in pool workers on fork platforms (reads of the warmed in-memory tier
# still hit; worker-side writes stay worker-local, which is sound because
# tasks are pure).  On spawn platforms workers see None and fall back to
# the config's ``cache_dir`` — the disk tier is the shared medium.
_task_cache = None
_task_tracer = None


def task_context(cache_dir=None):
    """The ``(cache, tracer)`` for the currently executing task.

    Inside a worker that inherited no context, a *cache_dir* (threaded
    through the pickled config) reconstructs a disk-backed cache so
    parallel tasks still share artifacts.
    """
    cache, tracer = _task_cache, _task_tracer
    if cache is None and cache_dir is not None:
        from ..perf.cache import ArtifactCache

        cache = ArtifactCache(disk_dir=cache_dir)
    return cache, tracer


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor fights for each task.

    Attributes:
        max_attempts: total attempt budget per task (first try included);
            1 disables retry entirely.
        backoff_base: seconds before the first retry.
        backoff_factor: multiplier per further retry (exponential).
        backoff_jitter: fraction of the backoff added as deterministic
            jitter — the jitter draw comes from the fault plan's seed (or
            ``seed`` when running without a plan), so the whole recovery
            schedule is a pure function of ``(policy, plan)``.
        seed: jitter seed used when no fault plan is attached.
        speculate: enable straggler re-execution (parallel runs only —
            a serial run has nowhere to speculate to).
        straggler_percentile: which completed-duration percentile anchors
            the deadline (nearest-rank, q in [0, 1]).
        straggler_factor: deadline = ``factor × percentile`` of completed
            attempt durations.
        straggler_min_samples: completed attempts required before any
            deadline is trusted.
        straggler_min_seconds: deadline floor — never speculate on tasks
            younger than this, whatever the percentiles say.
        poll_seconds: supervisor wake-up tick while attempts are in
            flight.
        max_pool_restarts: process-pool rebuilds tolerated per ``map``
            call before the remaining tasks are declared failed (a
            crash-looping worker must not wedge the supervisor).
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    speculate: bool = True
    straggler_percentile: float = 0.5
    straggler_factor: float = 4.0
    straggler_min_samples: int = 3
    straggler_min_seconds: float = 0.05
    poll_seconds: float = 0.02
    max_pool_restarts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if not 0.0 <= self.straggler_percentile <= 1.0:
            raise ValueError("straggler_percentile must be in [0, 1]")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")

    def backoff_seconds(self, stage: str, task: int, attempt: int,
                        plan: Optional[ExecutorFaultPlan] = None) -> float:
        """Deterministic backoff before retry number ``attempt``."""
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        if self.backoff_jitter == 0.0:
            return base
        if plan is not None:
            draw = plan.backoff_jitter(stage, task, attempt)
        else:
            draw = hash_uniform(self.seed, _SALT_BACKOFF,
                                _stage_coord(stage), task, attempt)
        return base * (1.0 + self.backoff_jitter * draw)


@dataclass
class TaskOutcome:
    """One supervised task's final state.

    ``ok`` tasks carry their ``result``; failed tasks carry the error
    strings of every attempt.  ``attempts`` counts every execution
    started for the task — retries and speculative duplicates included.
    """

    index: int
    ok: bool
    result: Any = None
    attempts: int = 1
    retries: int = 0
    speculated: bool = False
    errors: Tuple[str, ...] = ()


class TaskFailedError(RuntimeError):
    """Raised by :meth:`ResilientRunner.map_results` when any task
    exhausted its attempt budget."""

    def __init__(self, outcomes: Sequence[TaskOutcome]):
        self.failed = [o for o in outcomes if not o.ok]
        lines = "; ".join(
            f"task {o.index} after {o.attempts} attempts "
            f"({o.errors[-1] if o.errors else 'no error recorded'})"
            for o in self.failed
        )
        super().__init__(f"{len(self.failed)} task(s) failed: {lines}")


def _attempt_task(payload: Tuple) -> Any:
    """Execute one supervised attempt (module-level: pickles into pool
    workers).  Applies the fault plan's injected delay and kill before
    running the real task function."""
    fn, config, stage, index, attempt, plan = payload
    if plan is not None:
        stall = plan.delay(stage, index, attempt)
        if stall > 0:
            time.sleep(stall)
        if plan.kills(stage, index, attempt):
            raise InjectedWorkerCrash(
                f"injected worker crash: stage={stage} task={index} "
                f"attempt={attempt}")
    return fn(config)


_FAILED = object()  # resolution sentinel distinct from any task result

_DEADLINE_ERROR = "DeadlineExceeded: budget exhausted before attempt"


def _expired(deadline_at: Optional[float]) -> bool:
    """Whether the wall-clock budget for new attempts has run out."""
    return deadline_at is not None and time.perf_counter() >= deadline_at


# The budget of a runner without a policy: one attempt (so no retry or
# backoff) and no speculation; its failures raise instead of becoming
# failed outcomes.
_FAIL_FAST = SupervisorPolicy(max_attempts=1, speculate=False)


class ResilientRunner:
    """The executor: fan a pure task function out over configs, outcomes
    in config order; fail-fast by default, supervised under a *policy*.

    ``jobs`` resolves through :func:`resolve_jobs` (explicit >
    ``REPRO_JOBS`` > serial).  *cache* and *tracer* form the task context
    installed around every ``map``; under a policy the *tracer* also
    receives one ``on_task_retry`` / ``on_speculate`` /
    ``on_task_failure`` call per event, so supervision shows up in the
    :class:`~repro.observability.metrics.MetricsReport` next to the
    radio-level retry counters.
    """

    def __init__(self, jobs: Optional[int] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 fault_plan: Optional[ExecutorFaultPlan] = None,
                 tracer=None, cache=None):
        self.jobs = resolve_jobs(jobs)
        self.fail_fast = policy is None
        self.policy = _FAIL_FAST if policy is None else policy
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.cache = cache
        #: per-stage supervision counters accumulated across ``map`` calls;
        #: empty for a fail-fast runner, which supervises nothing.
        self.stage_counters: Dict[str, Dict[str, int]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _count(self, stage: str, what: str, amount: int = 1) -> None:
        if self.fail_fast:
            return
        counters = self.stage_counters.setdefault(
            stage, {"attempts": 0, "retries": 0, "speculations": 0,
                    "failures": 0})
        counters[what] += amount

    def _note_retry(self, stage: str) -> None:
        self._count(stage, "retries")
        if self.tracer is not None:
            self.tracer.on_task_retry(stage)

    def _note_speculation(self, stage: str) -> None:
        self._count(stage, "speculations")
        if self.tracer is not None:
            self.tracer.on_speculate(stage)

    def _note_failure(self, stage: str) -> None:
        self._count(stage, "failures")
        if self.tracer is not None:
            self.tracer.on_task_failure(stage)

    # -- serial path --------------------------------------------------------

    def _map_serial(self, fn: Callable[[Any], Any], configs: Sequence[Any],
                    stage: str,
                    deadline_at: Optional[float] = None) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for index, config in enumerate(configs):
            errors: List[str] = []
            outcome: Optional[TaskOutcome] = None
            started = 0
            for attempt in range(self.policy.max_attempts):
                if _expired(deadline_at):
                    errors.append(_DEADLINE_ERROR)
                    break
                started = attempt + 1
                self._count(stage, "attempts")
                try:
                    result = _attempt_task(
                        (fn, config, stage, index, attempt, self.fault_plan))
                except Exception as exc:  # noqa: BLE001 - supervision point
                    if self.fail_fast:
                        raise
                    errors.append(f"{type(exc).__name__}: {exc}")
                    if attempt + 1 < self.policy.max_attempts \
                            and not _expired(deadline_at):
                        self._note_retry(stage)
                        pause = self.policy.backoff_seconds(
                            stage, index, attempt + 1, self.fault_plan)
                        if pause > 0:
                            time.sleep(pause)
                else:
                    outcome = TaskOutcome(
                        index=index, ok=True, result=result,
                        attempts=attempt + 1, retries=attempt,
                        errors=tuple(errors))
                    break
            if outcome is None:
                self._note_failure(stage)
                outcome = TaskOutcome(
                    index=index, ok=False,
                    attempts=started,
                    retries=max(0, started - 1),
                    errors=tuple(errors))
            outcomes.append(outcome)
        return outcomes

    # -- parallel path ------------------------------------------------------

    def _map_parallel(self, fn: Callable[[Any], Any], configs: Sequence[Any],
                      stage: str,
                      deadline_at: Optional[float] = None
                      ) -> List[TaskOutcome]:
        policy = self.policy
        n = len(configs)
        workers = min(self.jobs, n)
        resolved: Dict[int, Any] = {}
        attempts_started = [0] * n
        retries = [0] * n
        speculated = [False] * n
        errors: List[List[str]] = [[] for _ in range(n)]
        # Fail-fast only: the exception of each failed task.
        raised: Dict[int, Exception] = {}
        durations: List[float] = []
        pending: Dict[Any, Tuple[int, int, float]] = {}
        # After a worker death, attempts run one at a time (the rest wait
        # here), so a further death is charged to the task that caused it
        # and not to every task that shared the pool with it.
        waiting: List[int] = []
        isolated = False
        restarts = 0
        pool = ProcessPoolExecutor(max_workers=workers)

        def submit(index: int) -> None:
            if isolated and pending:
                waiting.append(index)
                return
            attempt = attempts_started[index]
            attempts_started[index] += 1
            self._count(stage, "attempts")
            future = pool.submit(
                _attempt_task,
                (fn, configs[index], stage, index, attempt, self.fault_plan))
            pending[future] = (index, attempt, time.perf_counter())

        def in_flight(index: int) -> int:
            return sum(1 for idx, _, _ in pending.values() if idx == index)

        def fail_on_deadline(index: int) -> None:
            errors[index].append(_DEADLINE_ERROR)
            resolved[index] = _FAILED
            self._note_failure(stage)

        def retry_or_fail(index: int) -> None:
            if _expired(deadline_at):
                if in_flight(index) == 0:
                    fail_on_deadline(index)
                return
            if attempts_started[index] < policy.max_attempts:
                retries[index] += 1
                self._note_retry(stage)
                pause = policy.backoff_seconds(
                    stage, index, attempts_started[index], self.fault_plan)
                if pause > 0:
                    time.sleep(pause)
                submit(index)
            elif in_flight(index) == 0:
                resolved[index] = _FAILED
                self._note_failure(stage)

        def finished() -> bool:
            if not raised:
                return len(resolved) == n
            # Fail-fast stops once every task below the lowest failed
            # index has resolved: no other failure can outrank it.
            return all(index in resolved for index in range(min(raised)))

        try:
            for index in range(n):
                if _expired(deadline_at):
                    fail_on_deadline(index)
                else:
                    submit(index)
            while not finished():
                if not pending and waiting:
                    index = waiting.pop(0)
                    if _expired(deadline_at):
                        fail_on_deadline(index)
                    else:
                        submit(index)
                    continue
                if not pending:  # pragma: no cover - defensive
                    for index in range(n):
                        if index not in resolved:
                            resolved[index] = _FAILED
                            self._note_failure(stage)
                    break
                try:
                    done, _ = wait(set(pending),
                                   timeout=policy.poll_seconds,
                                   return_when=FIRST_COMPLETED)
                    now = time.perf_counter()
                    for future in done:
                        index, _attempt, t0 = pending.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:  # noqa: BLE001
                            if self.fail_fast:
                                raised[index] = exc
                                resolved[index] = _FAILED
                                continue
                            errors[index].append(
                                f"{type(exc).__name__}: {exc}")
                            if index not in resolved:
                                retry_or_fail(index)
                        else:
                            durations.append(now - t0)
                            if index not in resolved:
                                resolved[index] = result
                except BrokenProcessPool:
                    if self.fail_fast:
                        raise
                    # A hard worker death poisons the whole pool: every
                    # in-flight attempt is lost.  Rebuild the pool and
                    # resubmit the lost tasks — their aborted attempts
                    # already consumed budget at submission time.
                    pool.shutdown(wait=False, cancel_futures=True)
                    pending.clear()
                    lost = [index for index in range(n)
                            if index not in resolved and index not in waiting]
                    restarts += 1
                    if restarts > policy.max_pool_restarts:
                        for index in range(n):
                            if index not in resolved:
                                errors[index].append(
                                    "BrokenProcessPool: restart budget "
                                    "exhausted")
                                resolved[index] = _FAILED
                                self._note_failure(stage)
                        break
                    pool = ProcessPoolExecutor(max_workers=workers)
                    isolated = True
                    for index in lost:
                        errors[index].append(
                            "BrokenProcessPool: worker process died")
                        retry_or_fail(index)
                    continue
                # Straggler sweep: anything older than the percentile
                # deadline gets one speculative duplicate (budget allowing).
                if (policy.speculate and workers > 1 and not isolated
                        and not _expired(deadline_at)
                        and len(durations) >= policy.straggler_min_samples):
                    deadline = max(
                        policy.straggler_min_seconds,
                        policy.straggler_factor * percentile(
                            durations, policy.straggler_percentile))
                    now = time.perf_counter()
                    for index, _attempt, t0 in list(pending.values()):
                        if (index not in resolved
                                and now - t0 > deadline
                                and in_flight(index) == 1
                                and attempts_started[index]
                                < policy.max_attempts):
                            speculated[index] = True
                            self._note_speculation(stage)
                            submit(index)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        if raised:
            raise raised[min(raised)]

        outcomes: List[TaskOutcome] = []
        for index in range(n):
            value = resolved.get(index, _FAILED)
            outcomes.append(TaskOutcome(
                index=index,
                ok=value is not _FAILED,
                result=None if value is _FAILED else value,
                attempts=attempts_started[index],
                retries=retries[index],
                speculated=speculated[index],
                errors=tuple(errors[index]),
            ))
        return outcomes

    # -- public API ---------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], configs: Sequence[Any],
            stage: str = "task",
            deadline_at: Optional[float] = None) -> List[TaskOutcome]:
        """Run ``fn`` over *configs*; outcomes in config order.

        *fn* must be a module-level callable (picklable) and must not
        depend on shared mutable state — each worker process runs with
        its own copy of everything; it reads the runner's cache and
        tracer through :func:`task_context`.

        Fail-fast (no policy), the first failing task's exception
        propagates — the lowest config index when several fail.  Under a
        policy ``map`` never raises for task failures — inspect ``ok``.

        *deadline_at* (a ``time.perf_counter`` instant) is a hard budget
        on *starting* work: once it passes, no further attempt — first
        try, retry or speculation — is launched, and every task that has
        nothing in flight is declared failed with a ``DeadlineExceeded``
        error.  Attempts already running are allowed to finish (a pure
        task function cannot be safely interrupted), so results that beat
        the deadline by racing it are kept.  ``deadline_at=None`` (the
        default) preserves the unbounded behaviour.
        """
        global _task_cache, _task_tracer
        configs = list(configs)
        previous = (_task_cache, _task_tracer)
        _task_cache, _task_tracer = self.cache, self.tracer
        try:
            if self.jobs == 1 or len(configs) <= 1:
                return self._map_serial(fn, configs, stage,
                                        deadline_at=deadline_at)
            return self._map_parallel(fn, configs, stage,
                                      deadline_at=deadline_at)
        finally:
            _task_cache, _task_tracer = previous

    def map_results(self, fn: Callable[[Any], Any], configs: Sequence[Any],
                    stage: str = "task") -> List[Any]:
        """Like :meth:`map` but unwraps results, raising
        :class:`TaskFailedError` if any task exhausted its budget."""
        outcomes = self.map(fn, configs, stage=stage)
        if any(not o.ok for o in outcomes):
            raise TaskFailedError(outcomes)
        return [o.result for o in outcomes]
