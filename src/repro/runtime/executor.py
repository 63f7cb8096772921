"""Supervised parallel trace execution.

Every experiment needs ~7 mutually independent traces (train ×2,
calibration, normal evals ×2, attack evals ×2), and :func:`run_scenario`
is deterministic per seed — a textbook fan-out.  :class:`TraceExecutor`
runs a batch of :class:`TraceTask`\\ s across a
:class:`~concurrent.futures.ProcessPoolExecutor`, preserving task order in
the results, and degrades gracefully to in-process serial execution when
``jobs <= 1``, the batch is trivial, or the platform refuses to give us a
process pool (sandboxes without semaphores, missing ``fork``…).

Unlike a bare pool, every task is **individually supervised** by a
:class:`SupervisionPolicy`:

* a task that raises is retried with exponential backoff until its
  budget (``max_retries``) runs out;
* a task that overruns ``task_timeout`` has its pool killed, is charged a
  retry, and is requeued on a fresh pool — hung workers never stall a
  sweep;
* a worker crash (``BrokenProcessPool``) re-spawns the pool up to
  ``max_pool_respawns`` times, **keeping every already-completed result**
  and resubmitting only the unfinished tasks; if the budget runs out the
  remaining tasks finish serially;
* permanent failures are collected into a :class:`FailureReport` (one
  :class:`TaskFailure` per task, :class:`PoolFailure` for infrastructure)
  raised after the batch has made all the progress it can — completed
  results are still delivered incrementally through ``on_result``.

Determinism: each simulation seeds its own RNGs from its config, so the
traces are bit-identical whether they ran serially, in a pool, in any
completion order, or after any number of retries/respawns — ``--jobs 4``
with a crashed worker and ``--jobs 1`` produce the same numbers.
"""

from __future__ import annotations

import math
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.runtime.faults import FaultPlan, FaultSpec, trip_sim_fault
from repro.simulation.scenario import ScenarioConfig, SimulationTrace, run_scenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.attacks.base import Attack
    from repro.runtime.metrics import RuntimeMetrics

#: Injectable sleep for tests (monkeypatch to skip real backoff waits).
_sleep = time.sleep


@dataclass(frozen=True)
class TraceTask:
    """One independent simulation: a scenario config + attack composition."""

    config: ScenarioConfig
    attacks: tuple["Attack", ...] = ()
    label: str = ""


@dataclass(frozen=True)
class SupervisionPolicy:
    """Per-task supervision knobs for :class:`TraceExecutor`.

    ``max_retries`` bounds the *charged* re-attempts of a single task
    after its own error or timeout (a task requeued because somebody
    else's crash broke the pool is not charged).  ``task_timeout`` is the
    wall-clock budget per task under pool execution, counted from when
    the task is observed *running* — time spent queued behind busy
    workers is not charged; ``None`` disables it (and serial execution
    cannot enforce one — an in-process hang cannot be cancelled).
    Backoff before the Nth charged retry is
    ``min(backoff_cap, backoff_base * 2**(N-1))`` seconds.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_respawns: int = 2

    def __post_init__(self):
        # Negated comparisons, so NaN fails them too.
        for name in ("max_retries", "max_pool_respawns", "backoff_base", "backoff_cap"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        if self.task_timeout is not None and not 0 < self.task_timeout < math.inf:
            raise ValueError(
                f"task_timeout must be None or positive and finite, got {self.task_timeout!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-running a task's Nth charged attempt."""
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget.

    ``kind`` is ``"error"`` (the simulation raised) or ``"timeout"`` (it
    overran the per-task limit); ``attempts`` counts charged attempts and
    ``error`` holds the final exception's ``repr`` (or the timeout note).
    """

    index: int
    label: str
    kind: str
    attempts: int
    error: str


@dataclass(frozen=True)
class PoolFailure:
    """Pool infrastructure gave up: ``kind`` is ``"unavailable"`` (could
    not be created) or ``"respawns-exhausted"`` (kept breaking)."""

    kind: str
    error: str


class FailureReport(RuntimeError):
    """Raised by :meth:`TraceExecutor.run` when tasks failed permanently.

    Carries the full structured taxonomy — ``task_failures`` /
    ``pool_failures`` / ``completed`` / ``total`` — instead of a bare
    exception, so callers (and the resume journal) can see exactly how
    far the batch got.  It is only raised *after* the batch has made all
    the progress it can: every completable task completed and was
    delivered through ``on_result`` first.
    """

    def __init__(
        self,
        task_failures: Sequence[TaskFailure] = (),
        pool_failures: Sequence[PoolFailure] = (),
        completed: int = 0,
        total: int = 0,
    ):
        self.task_failures = tuple(task_failures)
        self.pool_failures = tuple(pool_failures)
        self.completed = completed
        self.total = total
        lines = [
            f"{completed}/{total} tasks completed, "
            f"{len(self.task_failures)} failed permanently"
        ]
        lines.extend(
            f"  task {f.index} ({f.label or 'unlabelled'}): "
            f"{f.kind} after {f.attempts} attempt(s): {f.error}"
            for f in self.task_failures
        )
        lines.extend(f"  pool: {p.kind}: {p.error}" for p in self.pool_failures)
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
def _run_trace_task(
    task: TraceTask,
    fault: FaultSpec | None = None,
    in_pool: bool = False,
) -> tuple[SimulationTrace, float]:
    """Worker entry point: simulate one task, timing its wall-clock.

    Module-level so it pickles by reference into pool workers.  ``fault``
    is the matched fault-injection spec for this submission (test
    harness); it trips *before* the simulation so a retried submission
    reproduces the identical trace.
    """
    start = time.perf_counter()
    if fault is not None:
        trip_sim_fault(fault, in_pool=in_pool)
    trace = run_scenario(task.config, attacks=list(task.attacks))
    return trace, time.perf_counter() - start


# ----------------------------------------------------------------------
# Batch bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _BatchState:
    """Mutable per-batch progress shared by the pool and serial paths.

    This is what makes recovery lossless: completed results live here,
    not inside a pool, so a fallback or respawn resumes from the exact
    set of unfinished tasks instead of re-running the batch.
    """

    tasks: list[TraceTask]
    results: list[SimulationTrace | None] = field(init=False)
    done: list[bool] = field(init=False)
    failed: list[bool] = field(init=False)
    attempts: list[int] = field(init=False)     # charged attempts (retry budget)
    submissions: list[int] = field(init=False)  # every submission (fault matching)
    retry_next: set[int] = field(default_factory=set)  # next submit is a charged retry
    task_failures: list[TaskFailure] = field(default_factory=list)
    pool_failures: list[PoolFailure] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.tasks)
        self.results = [None] * n
        self.done = [False] * n
        self.failed = [False] * n
        self.attempts = [0] * n
        self.submissions = [0] * n

    def pending_indices(self) -> list[int]:
        return [
            i for i in range(len(self.tasks))
            if not self.done[i] and not self.failed[i]
        ]

    def label(self, i: int) -> str:
        return self.tasks[i].label or _default_label(self.tasks[i])


class TraceExecutor:
    """Order-preserving, supervised batch runner for independent simulations.

    Parameters
    ----------
    jobs:
        Maximum worker processes.  ``1`` (the default) never spawns a
        pool; higher values use up to ``min(jobs, len(tasks))`` workers.
    metrics:
        Optional :class:`~repro.runtime.metrics.RuntimeMetrics`; receives
        one ``simulated`` event per finished trace (completion order) plus
        ``retry`` / ``timeout`` / ``requeue`` / ``respawn`` / ``fallback``
        / ``task_failed`` / ``pool_failed`` supervision events.
    policy:
        A :class:`SupervisionPolicy` (defaults: 2 retries, no timeout,
        2 pool respawns).
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` for
        deterministic fault injection (tests/chaos benchmarks only).
    """

    #: Pool-infrastructure failures at pool *creation* that trigger the
    #: serial fallback.  Failures of individual futures are classified in
    #: the supervision loop instead (BrokenProcessPool → respawn,
    #: anything else → per-task retry).
    _POOL_ERRORS = (BrokenProcessPool, OSError, ImportError, PermissionError,
                    pickle.PicklingError)

    def __init__(
        self,
        jobs: int = 1,
        metrics: "RuntimeMetrics | None" = None,
        policy: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.metrics = metrics
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.faults = faults

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[TraceTask],
        on_result: Callable[[int, SimulationTrace], None] | None = None,
    ) -> list[SimulationTrace]:
        """Simulate every task; results are in task order.

        ``on_result(index, trace)`` is invoked exactly once per task in
        *completion* order, as soon as its trace exists — callers use it
        to flush partial batch results (cache writes, journal entries)
        before the batch finishes or fails.

        Raises :class:`FailureReport` if any task failed permanently;
        every other task still completed (and was delivered through
        ``on_result``) first.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        state = _BatchState(tasks)
        if self.jobs > 1 and len(tasks) > 1:
            try:
                self._run_parallel(state, on_result)
            except self._POOL_ERRORS as exc:
                self._record_fallback(
                    f"process pool unavailable ({type(exc).__name__}); running serially"
                )
        self._run_serial(state, on_result)
        if state.task_failures:
            raise FailureReport(
                task_failures=state.task_failures,
                pool_failures=state.pool_failures,
                completed=sum(state.done),
                total=len(tasks),
            )
        return state.results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _complete(self, state, i, trace, seconds, on_result) -> None:
        state.results[i] = trace
        state.done[i] = True
        if self.metrics is not None:
            self.metrics.record_simulated(state.label(i), seconds)
        if on_result is not None:
            on_result(i, trace)

    def _fail(self, state, i, kind, error) -> None:
        state.failed[i] = True
        failure = TaskFailure(
            index=i, label=state.label(i), kind=kind,
            attempts=state.attempts[i], error=error,
        )
        state.task_failures.append(failure)
        if self.metrics is not None:
            self.metrics.record_task_failure(state.label(i), f"{kind}: {error}")

    def _charge_submission(self, state, i) -> bool:
        """Advance task ``i``'s counters for one submission.

        Returns False when the task's retry budget is already spent (the
        caller must not submit it again).  The budget is only charged for
        the first submission and for retries the task earned itself
        (``state.retry_next``); innocent post-respawn requeues advance the
        submission counter but not the budget.
        """
        charged = state.submissions[i] == 0 or i in state.retry_next
        if charged and state.attempts[i] > self.policy.max_retries:
            return False
        state.retry_next.discard(i)
        state.submissions[i] += 1
        if charged:
            state.attempts[i] += 1
            if state.attempts[i] > 1 and self.metrics is not None:
                self.metrics.record_retry(
                    state.label(i), self.policy.backoff(state.attempts[i] - 1)
                )
        elif self.metrics is not None:
            self.metrics.record_requeue(state.label(i))
        return True

    def _task_fault(self, state, i) -> FaultSpec | None:
        if self.faults is None:
            return None
        return self.faults.sim_fault(i, state.submissions[i])

    def _record_fallback(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.record_fallback(reason)

    # ------------------------------------------------------------------
    # Serial path (jobs<=1, trivial batches, and the pool fallback) —
    # identical supervision minus the unenforceable timeout.
    # ------------------------------------------------------------------
    def _run_serial(self, state: _BatchState, on_result) -> None:
        for i in state.pending_indices():
            while True:
                if not self._charge_submission(state, i):
                    # budget spent on arrival (e.g. timeouts under the pool)
                    self._fail(state, i, "error", "retry budget exhausted")
                    break
                fault = self._task_fault(state, i)
                try:
                    trace, seconds = _run_trace_task(state.tasks[i], fault, in_pool=False)
                except Exception as exc:
                    if state.attempts[i] > self.policy.max_retries:
                        self._fail(state, i, "error", repr(exc))
                        break
                    state.retry_next.add(i)
                    _sleep(self.policy.backoff(state.attempts[i]))
                    continue
                self._complete(state, i, trace, seconds, on_result)
                break

    # ------------------------------------------------------------------
    # Pool path: spawn → drive → (respawn on break/timeout) → done.
    # ------------------------------------------------------------------
    def _run_parallel(self, state: _BatchState, on_result) -> None:
        respawns = 0
        while True:
            todo = state.pending_indices()
            if not todo:
                return
            # Pool creation errors propagate to run()'s serial fallback.
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(todo)))
            try:
                healthy = self._drive_pool(pool, state, todo, on_result)
            except BaseException:
                self._kill_pool(pool)
                raise
            if healthy:
                pool.shutdown(wait=False)
                return
            # The pool broke (worker crash) or was killed (hung task).
            respawns += 1
            if respawns > self.policy.max_pool_respawns:
                failure = PoolFailure(
                    "respawns-exhausted",
                    f"pool broke {respawns} times "
                    f"(budget {self.policy.max_pool_respawns}); finishing serially",
                )
                state.pool_failures.append(failure)
                if self.metrics is not None:
                    self.metrics.record_pool_failure(failure.error)
                self._record_fallback(failure.error)
                return
            if self.metrics is not None:
                self.metrics.record_respawn(
                    f"respawn {respawns}/{self.policy.max_pool_respawns}"
                )

    def _drive_pool(self, pool, state: _BatchState, todo, on_result) -> bool:
        """Supervise one pool until the batch finishes or the pool dies.

        Returns True when every pending task completed or failed
        permanently; False when the pool must be respawned (it broke, or
        a hung task forced us to kill it).  Completed results are already
        recorded in ``state`` either way.
        """
        futures: dict[Future, int] = {}
        deadlines: dict[Future, float] = {}

        def submit(i: int) -> Future | None:
            if not self._charge_submission(state, i):
                self._fail(state, i, "timeout", "retry budget exhausted")
                return None
            fut = pool.submit(
                _run_trace_task, state.tasks[i], self._task_fault(state, i), True
            )
            futures[fut] = i
            if self.policy.task_timeout is not None:
                deadlines[fut] = time.monotonic() + self.policy.task_timeout
            return fut

        try:
            for i in todo:
                submit(i)
        except BrokenProcessPool:
            self._kill_pool(pool)
            return False

        pending = set(futures)
        while pending:
            wait_timeout = None
            if deadlines:
                wait_timeout = max(
                    0.0, min(deadlines[f] for f in pending) - time.monotonic()
                )
            done, pending = wait(pending, timeout=wait_timeout,
                                 return_when=FIRST_COMPLETED)
            retry_indices: list[int] = []
            broken = False
            for fut in done:
                i = futures.pop(fut)
                deadlines.pop(fut, None)
                try:
                    trace, seconds = fut.result()
                except BrokenProcessPool:
                    # A worker died and this future's work is lost.  Keep
                    # draining the round: sibling futures that *did* resolve
                    # carry real results we must not throw away.
                    broken = True
                    continue
                except Exception as exc:
                    if state.attempts[i] > self.policy.max_retries:
                        self._fail(state, i, "error", repr(exc))
                    else:
                        retry_indices.append(i)
                    continue
                self._complete(state, i, trace, seconds, on_result)

            if broken:
                # Salvage anything else that finished before the breakage
                # was observed, then hand back for a pool respawn.  Tasks
                # that earned a retry this round keep their charge.
                for fut in list(pending):
                    if not fut.done():
                        continue
                    i = futures.pop(fut)
                    deadlines.pop(fut, None)
                    pending.discard(fut)
                    try:
                        trace, seconds = fut.result()
                    except Exception:
                        continue
                    self._complete(state, i, trace, seconds, on_result)
                state.retry_next.update(retry_indices)
                self._kill_pool(pool)
                return False

            if retry_indices:
                # One backoff wait covers the round's failures; each task's
                # own attempt count still drives its budget and fault plan.
                _sleep(max(self.policy.backoff(state.attempts[i])
                           for i in retry_indices))
                for i in retry_indices:
                    state.retry_next.add(i)
                    try:
                        fut = submit(i)
                    except BrokenProcessPool:
                        self._kill_pool(pool)
                        return False
                    if fut is not None:
                        pending.add(fut)

            # Hung tasks: charge them a retry and kill the pool — a worker
            # stuck inside C-level simulation code can only be cancelled by
            # terminating its process.
            if deadlines:
                now = time.monotonic()
                overdue = []
                for f in pending:
                    deadline = deadlines.get(f)
                    if deadline is None or deadline > now:
                        continue
                    if not f.running():
                        # Still queued behind busy workers — waiting for a
                        # slot is not hanging; restart the clock from the
                        # moment we observed it unstarted.
                        deadlines[f] = now + (self.policy.task_timeout or 0.0)
                        continue
                    overdue.append(f)
                if overdue:
                    for fut in overdue:
                        i = futures[fut]
                        if self.metrics is not None:
                            self.metrics.record_timeout(
                                state.label(i), self.policy.task_timeout or 0.0
                            )
                        if state.attempts[i] > self.policy.max_retries:
                            self._fail(
                                state, i, "timeout",
                                f"exceeded {self.policy.task_timeout}s "
                                f"(attempt {state.attempts[i]})",
                            )
                        else:
                            state.retry_next.add(i)
                    self._kill_pool(pool)
                    return False
        return True

    @staticmethod
    def _kill_pool(pool) -> None:
        """Tear a pool down *now*, terminating hung or orphaned workers.

        ``shutdown`` alone would block on a worker stuck in a simulation;
        the private ``_processes`` access is the only way the stdlib pool
        exposes its children (stable since 3.7, guarded regardless).
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover
                pass
        for proc in processes:
            try:
                proc.join(1.0)
            except Exception:  # pragma: no cover
                pass


def _default_label(task: TraceTask) -> str:
    kind = "attack" if task.attacks else "normal"
    return f"{task.config.protocol}/{task.config.transport} {kind} seed={task.config.seed}"
