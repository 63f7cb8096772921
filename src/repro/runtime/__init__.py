"""Runtime layer: supervised parallel execution + persistent artifact cache.

* :class:`~repro.runtime.session.Session` — the documented entry point:
  ``Session(jobs=4).detect(plan)``;
* :class:`~repro.runtime.executor.TraceExecutor` /
  :class:`~repro.runtime.executor.TraceTask` — process-pool fan-out of
  independent simulations, individually supervised
  (:class:`~repro.runtime.executor.SupervisionPolicy`: bounded retries
  with backoff, per-task timeouts, pool respawn on worker crash) with a
  structured failure taxonomy
  (:class:`~repro.runtime.executor.TaskFailure` /
  :class:`~repro.runtime.executor.PoolFailure` /
  :class:`~repro.runtime.executor.FailureReport`) and a graceful serial
  fallback;
* :class:`~repro.runtime.cache.ArtifactCache` — content-addressed on-disk
  trace cache with atomic writes, corruption-tolerant loads, write-failure
  degradation and LRU eviction;
* :class:`~repro.runtime.cache.ResumeJournal` — append-only record of
  completed trace keys, making interrupted sweeps resumable;
* :class:`~repro.runtime.faults.FaultPlan` /
  :class:`~repro.runtime.faults.FaultSpec` — deterministic fault
  injection (worker crashes, hangs, pickling failures, disk faults) so
  every recovery path above is exercised in CI;
* :class:`~repro.runtime.metrics.RuntimeMetrics` /
  :class:`~repro.runtime.metrics.TraceEvent` — timing, hit/miss and
  supervision counters plus the live progress hook;
* :class:`~repro.runtime.profiling.StageProfiler` — one cProfile table
  per pipeline stage behind ``Session(profile_stages=True)``.
"""

from repro.runtime.cache import (
    ArtifactCache,
    ResumeJournal,
    code_version,
    default_cache_dir,
    stable_key,
)
from repro.runtime.executor import (
    FailureReport,
    PoolFailure,
    SupervisionPolicy,
    TaskFailure,
    TraceExecutor,
    TraceTask,
)
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault
from repro.runtime.metrics import RuntimeMetrics, TraceEvent
from repro.runtime.session import Session, default_session, set_default_session

__all__ = [
    "ArtifactCache",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PoolFailure",
    "ResumeJournal",
    "RuntimeMetrics",
    "Session",
    "SupervisionPolicy",
    "TaskFailure",
    "TraceEvent",
    "TraceExecutor",
    "TraceTask",
    "code_version",
    "default_cache_dir",
    "default_session",
    "set_default_session",
    "stable_key",
]
