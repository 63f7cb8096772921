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
  :class:`~repro.runtime.metrics.TraceEvent` — one recorder,
  ``record(kind, label, seconds)``, over the event kinds declared once in
  :data:`~repro.runtime.metrics.EVENT_KINDS`, from which the timing,
  cache, supervision and streaming counters, the summary line and the
  CLI's live progress lines all derive.
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
from repro.runtime.session import Session

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
    "stable_key",
]
