"""The one place the detector-construction knobs are defined.

Each keyword is declared once, on a constructor: ``OnlineDetector`` and
``FleetDetector`` (their ``from_detector`` wrappers adopt a fitted
batch detector's model, method and threshold and forward every other
keyword unchanged) and :meth:`FleetDetector.add_stream` for the
per-lane extraction knobs.  :meth:`Session.stream_detect` and
:meth:`Session.fleet_detect` accept the same keywords with the same
meanings and the same defaults, defined here so the surfaces cannot
drift apart (``tests/stream/test_fleet.py`` asserts the symmetry by
introspection):

``threshold`` : float | None
    Decision threshold; a window alarms iff ``score < threshold``.
    ``None`` (the default of ``from_detector`` and the Session methods)
    adopts the fitted batch detector's calibrated ``threshold_`` via
    :func:`resolve_threshold`.  NaN is rejected; ``-inf`` never alarms.
``warmup`` : float | None
    Suppress windows ending before this simulation time.  The raw
    default is :data:`DEFAULT_WARMUP` (0.0 — score everything); the
    Session methods default to ``None``, meaning "the plan's warmup".
``monitor`` / ``monitors``
    The observed node (:data:`DEFAULT_MONITOR`) for single-stream
    detection, or the observed node set for a fleet.  Session methods
    default to ``None``: the plan's monitor, or for a fleet every node
    except the plan's attacker.
``quorum`` : int | float
    The fused-verdict policy (:data:`DEFAULT_QUORUM`): an ``int`` k
    demands k alarming streams among those reporting on a tick (k-of-n
    with a fixed k — conservative when streams drop out); a ``float``
    in (0, 1] demands that fraction of the *reporting* streams (adapts
    to dropped or still-warming-up streams).  :func:`needed_votes`
    evaluates the policy per tick.
``on_alarm`` / ``on_fused``
    Callbacks invoked per-stream :class:`~repro.stream.detector.Alarm`
    and per fused :class:`~repro.stream.fleet.FleetAlarm` as they fire.
``row_policy`` : str
    What to do with degraded input rows (late / duplicate / NaN-bearing /
    out-of-range).  ``"strict"`` (:data:`DEFAULT_ROW_POLICY`) keeps the
    historical contract: trust the extractor, raise on protocol
    violations — a row at or before the last finalised (scored) tick
    raises :class:`ValueError`, on a fleet lane and on an
    :class:`~repro.stream.detector.OnlineDetector` alike (the
    extractor never emits one).  ``"quarantine"`` routes bad rows to a
    typed :class:`~repro.stream.faults.StreamFault` record instead of
    raising; detection continues on the surviving rows.  Session
    methods default to ``None`` = the shared default.
``max_consecutive_faults`` : int
    Quarantine-mode circuit breaker, a ``FleetDetector`` keyword only
    (:data:`DEFAULT_MAX_FAULTS`): a lane exceeding this many
    *consecutive* quarantined rows is auto-sealed with reason
    ``"faulted"``.  The ``Session`` picks it rather than exposing it:
    :data:`DEFAULT_MAX_FAULTS` for ``fleet_detect`` lanes, and
    ``sys.maxsize`` — no breaker — for a single stream
    (``Session.stream_detect``, and ``OnlineDetector`` likewise), since
    sealing its only lane would end the run.
``attribution`` : bool
    Attach a typed :class:`~repro.attribution.Verdict` to every alarm
    (anomaly class, culprit features, CUSUM onset) and a fused verdict
    to every :class:`~repro.stream.fleet.FleetAlarm`.  Off by default
    (:data:`DEFAULT_ATTRIBUTION`) — verdicts are pure annotation
    (scores/alarms stay bit-identical either way), but cost one extra
    sub-model pass per alarming window.
``stall_timeout`` : float | None
    Fleet liveness bound, in simulation seconds: a lane whose frontier
    lags the most advanced live lane by more than this is auto-sealed
    with reason ``"stalled"``, so one wedged probe can never hold the
    watermark (and every other lane's scoring) back forever.  ``None``
    (default) waits indefinitely — the historical behaviour.

The detector-training knobs (``classifier`` / ``method`` /
``false_alarm_rate`` / ``max_models`` / ``n_buckets`` / ``n_jobs``)
follow :meth:`repro.runtime.Session.fitted_detector` unchanged.
Durable-run knobs (``checkpoint`` / ``checkpoint_every`` /
``resume_from``) are documented in :mod:`repro.stream.durability`.
"""

from __future__ import annotations

import math

#: Default observed node for single-stream detection.
DEFAULT_MONITOR = 0

#: Default warmup: score every closed window from time zero.
DEFAULT_WARMUP = 0.0

#: Default fusion policy: any one alarming stream raises the fused alarm.
DEFAULT_QUORUM: int | float = 1

#: The degraded-input policies a detector accepts.
ROW_POLICIES = ("strict", "quarantine")

#: Default degraded-input policy: raise, exactly as before PR 7.
DEFAULT_ROW_POLICY = "strict"

#: Quarantine circuit breaker: consecutive faulted rows before a lane
#: is auto-sealed with reason ``"faulted"``.
DEFAULT_MAX_FAULTS = 5

#: Default checkpoint cadence for durable runs: snapshot every N
#: dispatched sampling ticks.
DEFAULT_CHECKPOINT_EVERY = 16

#: Default attribution policy: plain (untyped) alarms, as before PR 9.
DEFAULT_ATTRIBUTION = False


def validate_row_policy(row_policy: str | None) -> str:
    """Normalise a ``row_policy`` value (``None`` = the shared default)."""
    if row_policy is None:
        return DEFAULT_ROW_POLICY
    if row_policy not in ROW_POLICIES:
        raise ValueError(
            f"row_policy must be one of {ROW_POLICIES}, got {row_policy!r}"
        )
    return row_policy


def resolve_threshold(detector, threshold: float | None) -> float:
    """The effective decision threshold for a construction call.

    ``None`` adopts the fitted detector's calibrated ``threshold_``;
    an explicit value overrides it.  Raises :class:`ValueError` when
    there is nothing to adopt (unfitted / uncalibrated detector).
    """
    if threshold is not None:
        return float(threshold)
    if getattr(detector, "threshold_", None) is None:
        raise ValueError(
            "detector has no calibrated threshold_; fit it with a "
            "calibration_X or pass threshold= explicitly"
        )
    return float(detector.threshold_)


def validate_quorum(quorum: int | float) -> int | float:
    """Check a quorum policy value (see the module docstring)."""
    if isinstance(quorum, bool) or not isinstance(quorum, (int, float)):
        raise ValueError(f"quorum must be an int >= 1 or a float in (0, 1], got {quorum!r}")
    if isinstance(quorum, int):
        if quorum < 1:
            raise ValueError(f"integer quorum must be >= 1, got {quorum}")
    elif not 0.0 < quorum <= 1.0:
        raise ValueError(f"fractional quorum must be in (0, 1], got {quorum}")
    return quorum


def needed_votes(quorum: int | float, reporting: int) -> int:
    """Alarming streams required to fuse, given how many reported.

    An ``int`` quorum is absolute (never satisfiable while fewer than
    k streams report — dropped streams make the fleet *more* cautious);
    a ``float`` is a ceiling fraction of the reporting streams.
    """
    if isinstance(quorum, int):
        return quorum
    return max(1, math.ceil(quorum * reporting))
