"""Online anomaly detection over streamed feature windows.

An :class:`OnlineDetector` wraps a trained
:class:`~repro.core.model.CrossFeatureModel` plus a decision threshold
and consumes :class:`~repro.stream.extractor.WindowRow` events as windows
close, emitting a typed :class:`Alarm` the moment a window's normality
score falls below the threshold — the deployment posture the paper
frames (an IDS watching a live node), instead of scoring a finished
trace after the fact.

It is a one-lane :class:`~repro.stream.fleet.FleetDetector`: the fleet
is the only streaming engine (row policy, scoring, attribution, alarms),
and :meth:`OnlineDetector.consume` seals the lane just past each row, so
the row scores and its alarm returns inside the call.  A durable single
stream is a one-lane fleet driven by
:func:`~repro.stream.durability.run_durable_fleet`.
Scoring one row at a time is bit-identical to scoring the batch matrix:
every step of :meth:`CrossFeatureModel.normality_score` — discretizer
transform, sub-model tree walk, per-row probability lookup and the
per-row mean / geometric pooling — treats rows independently, so the
``(1, L)`` slice reproduces the batch row's bits.  The streaming test
suite asserts this end to end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attribution import AlarmAttributor, Verdict
from repro.core.model import CrossFeatureDetector, CrossFeatureModel
from repro.stream.config import (
    DEFAULT_ATTRIBUTION,
    DEFAULT_MONITOR,
    DEFAULT_ROW_POLICY,
    resolve_threshold,
)
from repro.stream.extractor import WindowRow
from repro.stream.faults import StreamFault


@dataclass(frozen=True)
class Alarm:
    """One anomaly alarm raised by the online detector.

    ``latency_s`` is the wall-clock cost of scoring the window — the
    delay between the window closing (row delivery) and the alarm being
    available to act on.  ``verdict`` is the typed attribution verdict
    (None unless the detector was built with ``attribution``).
    """

    index: int          #: emitted-window index at the monitor
    time: float         #: window end, simulation seconds
    score: float        #: normality score (higher = more normal)
    threshold: float    #: decision threshold in force
    monitor: int        #: observed node
    latency_s: float    #: wall-clock seconds from window close to alarm
    stream: str = ""    #: lane name ("" on an OnlineDetector)
    verdict: Verdict | None = None  #: typed attribution verdict


@dataclass
class StreamResult:
    """Everything one streaming run produced.

    ``labels`` is the post-hoc ground truth per emitted window (empty for
    live deployments without it); latency statistics cover *every* scored
    window, alarmed or not.
    """

    monitor: int
    threshold: float
    method: str
    times: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    alarms: list[Alarm]
    windows: int
    elapsed_s: float
    mean_latency_s: float
    max_latency_s: float

    @property
    def windows_per_second(self) -> float:
        """Detection throughput (scored windows per wall-clock second)."""
        return self.windows / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def recall_precision(self) -> tuple[float, float]:
        """Operating point of the emitted alarms against ``labels``.

        Requires ground truth with at least one intrusion window (raises
        :class:`ValueError` otherwise, like the batch metrics).
        """
        from repro.eval.metrics import recall_precision_at

        return recall_precision_at(self.scores, self.labels, self.threshold)

    def summary(self) -> str:
        """One-line human-readable digest (the CLI prints this)."""
        return (
            f"{self.windows} windows scored, {len(self.alarms)} alarms, "
            f"{self.windows_per_second:.0f} windows/s, "
            f"latency mean {self.mean_latency_s * 1e3:.2f}ms / "
            f"max {self.max_latency_s * 1e3:.2f}ms"
        )


class OnlineDetector:
    """Consume closed windows, score them, raise alarms.

    A thin wrapper around a private one-lane
    :class:`~repro.stream.fleet.FleetDetector` (lane ``""``); the
    read-only attributes below read that lane.

    Parameters
    ----------
    model:
        A *trained* (and, for ``calibrated_probability``, calibrated)
        :class:`CrossFeatureModel`.
    threshold:
        Decision threshold: alarm iff ``score < threshold`` (the batch
        detector's rule).
    method:
        Scoring rule, as in :meth:`CrossFeatureModel.normality_score`.
    monitor:
        Node id stamped on emitted alarms.
    on_alarm:
        Callback invoked with each :class:`Alarm` as it fires.
    row_policy:
        Degraded-input policy (see :mod:`repro.stream.config`):
        ``"strict"`` trusts the extractor and scores every row, raising
        :class:`ValueError` only for a row at or before the last scored
        window; ``"quarantine"`` validates each row and routes late,
        duplicate, NaN-bearing or out-of-range ones to
        ``fault_records`` instead of scoring them.  A single stream has
        no consecutive-fault breaker.
    on_fault:
        Callback invoked with each quarantined
        :class:`~repro.stream.faults.StreamFault`.
    attribution:
        ``True`` attaches a typed verdict to every alarm (see
        :class:`~repro.attribution.AlarmAttributor`).  Runs strictly
        after scoring — scores and alarm decisions are bit-identical
        with it on or off.
    """

    def __init__(
        self,
        model: CrossFeatureModel,
        threshold: float,
        method: str = "avg_probability",
        monitor: int = DEFAULT_MONITOR,
        on_alarm: Callable[[Alarm], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        on_fault: Callable[[StreamFault], None] | None = None,
        attribution: bool = DEFAULT_ATTRIBUTION,
    ):
        # Imported here: the fleet module imports Alarm from this one.
        from repro.stream.fleet import FleetDetector

        self._fleet = FleetDetector(
            model, threshold, method=method, on_alarm=on_alarm,
            row_policy=row_policy, max_consecutive_faults=sys.maxsize,
            on_fault=on_fault, attribution=attribution,
        )
        self._fleet.attach("", monitor=monitor)
        self._lane = self._fleet._lanes[""]

    @classmethod
    def from_detector(
        cls,
        detector: CrossFeatureDetector,
        threshold: float | None = None,
        **knobs,
    ) -> "OnlineDetector":
        """Wrap a fitted batch :class:`CrossFeatureDetector` unchanged.

        ``threshold=None`` adopts the detector's calibrated
        ``threshold_`` — the shared construction rule documented in
        :mod:`repro.stream.config`; ``knobs`` are the constructor's
        keywords.
        """
        return cls(
            detector.model,
            resolve_threshold(detector, threshold),
            method=detector.method,
            **knobs,
        )

    # ------------------------------------------------------------------
    @property
    def times(self) -> list[float]:
        """Window ends of the scored windows."""
        return self._lane.times

    @property
    def scores(self) -> list[float]:
        """Normality scores of the scored windows."""
        return self._lane.scores

    @property
    def alarms(self) -> list[Alarm]:
        """Alarms raised so far."""
        return self._lane.alarms

    @property
    def fault_records(self) -> list[StreamFault]:
        """Quarantined rows so far (always empty under ``strict``)."""
        return self._lane.faults

    @property
    def windows(self) -> int:
        """Windows scored so far."""
        return len(self._lane.scores)

    @property
    def quarantined(self) -> int:
        """Degraded rows quarantined so far (always 0 under ``strict``)."""
        return len(self._lane.faults)

    @property
    def attribution(self) -> AlarmAttributor | None:
        """The lane's attributor (``None`` with attribution off)."""
        return self._fleet._attributors.get("")

    @property
    def monitor(self) -> int:
        """Node id stamped on emitted alarms."""
        return self._lane.monitor

    @property
    def threshold(self) -> float:
        """Decision threshold in force."""
        return self._fleet.threshold

    @property
    def method(self) -> str:
        """Scoring rule."""
        return self._fleet.method

    def consume(self, row: WindowRow) -> Alarm | None:
        """Score one closed window; return the alarm if one fires.

        Wire this as the :class:`StreamingExtractor`'s ``on_row`` hook.
        Under ``row_policy="quarantine"`` a degraded row is recorded on
        ``fault_records`` and *not* scored (returns ``None``).
        """
        alarms = len(self._lane.alarms)
        self._fleet.ingest("", row)
        self._fleet.seal("", math.nextafter(float(row.time), math.inf))
        return self._lane.alarms[-1] if len(self._lane.alarms) > alarms else None

    def result(
        self,
        labels: np.ndarray | None = None,
        elapsed_s: float = 0.0,
    ) -> StreamResult:
        """Freeze the run into a :class:`StreamResult`."""
        labels = None if labels is None else {"": labels}
        return self._fleet.result(labels, elapsed_s).streams[""]
