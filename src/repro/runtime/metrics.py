"""Progress and timing instrumentation for the runtime layer.

A :class:`RuntimeMetrics` instance rides along with every
:class:`~repro.runtime.session.Session`.  Every observable runtime
happening is one :class:`TraceEvent` of a kind declared once, in
:data:`EVENT_KINDS`, and :meth:`RuntimeMetrics.record` is its only
recorder: the executor reports per-trace wall-clock and every
supervision decision (retries, timeouts, requeues, pool respawns,
permanent failures), the artifact cache its evictions and write
failures, and the session its cache hits / misses, resumed traces,
stage timings and streaming events.  The counters,
:meth:`~RuntimeMetrics.reset`, :meth:`~RuntimeMetrics.summary`, the
CLI's live progress lines and its ``--bench`` dump all derive from that
table, and an optional callback hook receives each event as it happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TraceEvent:
    """One observable runtime happening, delivered to the metrics hook.

    ``kind`` is a key of :data:`EVENT_KINDS`; what ``label`` and
    ``seconds`` carry is documented beside each entry there.
    """

    kind: str
    label: str = ""
    seconds: float = 0.0


@dataclass(frozen=True)
class EventKind:
    """What one event kind declares; each field may be ``None``.

    ``counter`` names the :class:`RuntimeMetrics` attribute one event
    advances by 1.  ``phrase`` is the kind's :meth:`RuntimeMetrics.
    summary` fragment, a format string over the counters (and
    ``trace_wall_clock``), shown once the counter is non-zero, or on
    every summary when ``always`` is set.  ``line`` is the CLI's live
    progress line, a format string over the event's ``label`` and
    ``seconds``.
    """

    counter: str | None
    phrase: str | None = None
    line: str | None = None
    always: bool = False


_RUNTIME_LINE = "  [runtime] {label}"

#: Every runtime event kind, in summary order.
EVENT_KINDS: dict[str, EventKind] = {
    # A trace finished simulating.  label: the task label; seconds: its
    # wall-clock.
    "simulated": EventKind(
        "simulations", "{simulations} simulated ({trace_wall_clock:.1f}s "
        "trace wall-clock)", "  [sim]    {label}  ({seconds:.1f}s)", always=True),
    # An artifact was loaded from the on-disk cache.  label: the task label.
    "cache_hit": EventKind(
        "cache_hits", "cache {cache_hits} hit / {cache_misses} miss",
        "  [cache]  {label}", always=True),
    # An artifact was absent (or unreadable) on disk.  label: the task label.
    "cache_miss": EventKind("cache_misses"),
    # The eviction policy removed a cache entry.  label: the entry's key.
    "evicted": EventKind("evictions", "{evictions} evicted", always=True),
    # The process pool was unavailable (or its respawn budget ran out) and
    # the executor fell back to serial execution.  label: the reason.
    "fallback": EventKind("fallbacks", line=_RUNTIME_LINE),
    # A journaled trace from an interrupted sweep was served from the
    # cache instead of re-simulating.  label: the task label.
    "resumed": EventKind("resumed", "{resumed} resumed", "  [resume] {label}"),
    # A failed or timed-out task was resubmitted, charging its retry
    # budget.  label: the task label; seconds: the backoff before it.
    "retry": EventKind("retries", "{retries} retried", "  [retry]  {label}"),
    # A task overran the per-task timeout and its worker was cancelled.
    # label: the task label; seconds: the limit.
    "timeout": EventKind("timeouts", "{timeouts} timed out",
                         "  [timeout] {label}  (limit {seconds:.0f}s)"),
    # An unfinished task was resubmitted after a pool respawn through no
    # fault of its own (no retry budget charged).  label: the task label.
    "requeue": EventKind("requeues"),
    # A broken or deliberately killed process pool was replaced.
    # label: ``respawn <n>/<budget>``.
    "respawn": EventKind("respawns", "{respawns} pool respawns", _RUNTIME_LINE),
    # A task exhausted its retry budget.  label: ``<task>: <kind>:
    # <error>``; the failure is in the final FailureReport too.
    "task_failed": EventKind("task_failures", "{task_failures} failed",
                             _RUNTIME_LINE),
    # Pool infrastructure failed permanently.  label: the reason.
    "pool_failed": EventKind("pool_failures", line=_RUNTIME_LINE),
    # The disk refused an artifact-cache write; the run continues.
    # label: the error.
    "cache_write_failed": EventKind(
        "cache_write_failures", "{cache_write_failures} cache write failures",
        _RUNTIME_LINE),
    # Repeated write failures (or an unwritable directory) made the cache
    # read-only for the rest of the run.  label: the reason.
    "cache_off": EventKind(None, line=_RUNTIME_LINE),
    # The online detector raised an alarm.  label: ``<lane> t=... score=...
    # < <threshold>`` plus any verdict fragment; seconds: scoring latency.
    "alarm": EventKind("alarms", "{alarms} alarms", "  [ALARM]  {label}"),
    # A fleet's cross-monitor quorum fused lane alarms into a network-level
    # verdict.  label: ``t=... <k>/<n> streams below <threshold> (quorum
    # <q>)`` plus any verdict fragment; seconds: the batch scoring latency.
    "fused_alarm": EventKind("fused_alarms", "{fused_alarms} fused alarms",
                             "  [FUSED]  {label}"),
    # Attribution classified an alarm.  label: ``<lane> t=...`` (or ``fused
    # t=...``) and the ``type=... features=...`` fragment, which the alarm's
    # own line already carries, so this kind prints no line.
    "verdict": EventKind("verdicts", "{verdicts} typed verdicts"),
    # The fleet scored one tick's window bucket in one vectorized call.
    # label: the row count, added to ``fleet_windows``; seconds: the call.
    "fleet_batch": EventKind(
        "fleet_batches", "{fleet_windows} fleet windows in {fleet_batches} batches"),
    # A quarantine-mode detector caught a late / duplicate / NaN /
    # out-of-range row.  label: ``<lane> <kind> row <index> t=...: <detail>``.
    "stream_fault": EventKind("stream_faults", "{stream_faults} rows quarantined",
                              "  [FAULT]  {label}"),
    # A fleet lane was abnormally sealed.  label: ``<lane>: <reason>``
    # (dropped / stalled / faulted / crashed).
    "lane_sealed": EventKind("lanes_sealed", "{lanes_sealed} lanes sealed",
                             "  [SEAL]   {label}"),
    # A seal or drop hit an already-finished lane: an idempotent no-op.
    # label: the lane.
    "duplicate_seal": EventKind("duplicate_seals", "{duplicate_seals} duplicate seals",
                                "  [SEAL]   {label} (duplicate, no-op)"),
    # A durable streaming run snapshot its state to disk.  label: the
    # round count.
    "checkpoint": EventKind("checkpoints", "{checkpoints} checkpoints",
                            "  [CKPT]   saved {label}"),
    # A durable streaming run restored a checkpoint and resumed.  label:
    # the furthest restored replay position.
    "restore": EventKind("restores", "{restores} restored",
                         "  [CKPT]   restored {label}"),
    # A pipeline stage finished.  label: the stage (simulate / extract /
    # fit / score / stream / fleet), accumulated into ``stage_seconds``;
    # seconds: its wall-clock.
    "stage": EventKind(None),
}

#: The counter attributes the registry declares, in summary order.
COUNTERS = tuple(kind.counter for kind in EVENT_KINDS.values() if kind.counter)


class RuntimeMetrics:
    """Counters + timings for one runtime session.

    Holds one attribute per :data:`COUNTERS` name, plus three
    accumulated quantities: ``trace_seconds`` (``simulated`` events),
    ``stage_seconds`` (``stage`` events) and ``fleet_windows``
    (``fleet_batch`` rows).

    Parameters
    ----------
    on_event:
        Optional callback invoked with every :class:`TraceEvent` as it is
        recorded.  Exceptions raised by the callback propagate — it is a
        local hook, not a plugin boundary.
    """

    def __init__(self, on_event: Callable[[TraceEvent], None] | None = None):
        self.on_event = on_event
        self.reset()

    def record(self, kind: str, label: str = "", seconds: float = 0.0) -> None:
        """Account one event of a declared kind, then hand it to the hook."""
        declared = EVENT_KINDS.get(kind)
        if declared is None:
            raise ValueError(f"undeclared runtime event kind {kind!r}")
        if declared.counter is not None:
            setattr(self, declared.counter, getattr(self, declared.counter) + 1)
        if kind == "simulated":
            self.trace_seconds.append((label, seconds))
        elif kind == "stage":
            self.stage_seconds[label] = self.stage_seconds.get(label, 0.0) + seconds
        elif kind == "fleet_batch":
            self.fleet_windows += int(label)
        if self.on_event is not None:
            self.on_event(TraceEvent(kind, label, seconds))

    @property
    def total_trace_seconds(self) -> float:
        """Summed wall-clock of every simulated trace (not elapsed time —
        parallel traces overlap)."""
        return sum(s for _, s in self.trace_seconds)

    def reset(self) -> None:
        """Zero every counter (the callback hook is kept)."""
        for counter in COUNTERS:
            setattr(self, counter, 0)
        self.fleet_windows = 0
        #: (label, wall-clock seconds) per simulated trace, completion order.
        self.trace_seconds: list[tuple[str, float]] = []
        #: Accumulated wall-clock per pipeline stage — where a session's
        #: time goes.
        self.stage_seconds: dict[str, float] = {}

    def summary(self) -> str:
        """One-line human-readable state, used by the CLI."""
        values = {**vars(self), "trace_wall_clock": self.total_trace_seconds}
        parts = [
            kind.phrase.format_map(values)
            for kind in EVENT_KINDS.values()
            if kind.phrase is not None and (kind.always or values[kind.counter])
        ]
        if self.stage_seconds:
            stages = " ".join(
                f"{k}={v:.1f}s" for k, v in sorted(self.stage_seconds.items())
            )
            parts.append(f"stages: {stages}")
        return ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RuntimeMetrics({self.summary()})"
