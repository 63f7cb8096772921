"""Online anomaly detection over streamed feature windows.

An :class:`OnlineDetector` wraps a trained
:class:`~repro.core.model.CrossFeatureModel` plus a decision threshold
and consumes :class:`~repro.stream.extractor.WindowRow` events as windows
close, emitting a typed :class:`Alarm` the moment a window's normality
score falls below the threshold — the deployment posture the paper
frames (an IDS watching a live node), instead of scoring a finished
trace after the fact.

Scoring one row at a time is bit-identical to scoring the batch matrix:
every step of :meth:`CrossFeatureModel.normality_score` — discretizer
transform, sub-model tree walk, per-row probability lookup and the
per-row mean / geometric pooling — treats rows independently, so the
``(1, L)`` slice reproduces the batch row's bits.  The streaming test
suite asserts this end to end.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attribution import AlarmAttributor, Verdict, resolve_attributor
from repro.core.model import CrossFeatureDetector, CrossFeatureModel
from repro.stream.config import (
    DEFAULT_ATTRIBUTION,
    DEFAULT_ROW_POLICY,
    validate_row_policy,
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
    stream: str = ""    #: fleet lane name ("" outside fleet detection)
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
        ``"strict"`` trusts the extractor and scores every row as
        before; ``"quarantine"`` validates each row and routes late,
        duplicate, NaN-bearing or out-of-range ones to
        ``fault_records`` instead of scoring them.
    on_fault:
        Callback invoked with each quarantined
        :class:`~repro.stream.faults.StreamFault`.
    attribution:
        Attach typed verdicts to alarms: ``True`` builds a default
        :class:`~repro.attribution.AlarmAttributor` over this model and
        threshold, or pass a configured attributor.  Runs strictly
        after scoring — scores and alarm decisions are bit-identical
        with it on or off.
    """

    def __init__(
        self,
        model: CrossFeatureModel,
        threshold: float,
        method: str = "avg_probability",
        monitor: int = 0,
        on_alarm: Callable[[Alarm], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        on_fault: Callable[[StreamFault], None] | None = None,
        attribution: AlarmAttributor | bool = DEFAULT_ATTRIBUTION,
    ):
        if model.discretizer is None:
            raise ValueError("model must be fitted before online detection")
        self.model = model
        self.threshold = float(threshold)
        self.method = method
        self.monitor = monitor
        self.on_alarm = on_alarm
        self.row_policy = validate_row_policy(row_policy)
        self.on_fault = on_fault
        self.attribution = resolve_attributor(model, self.threshold, attribution)
        self.times: list[float] = []
        self.scores: list[float] = []
        self.latencies: list[float] = []
        self.alarms: list[Alarm] = []
        self.fault_records: list[StreamFault] = []
        self._last_index = -1

    @classmethod
    def from_detector(
        cls,
        detector: CrossFeatureDetector,
        threshold: float | None = None,
        monitor: int = 0,
        on_alarm: Callable[[Alarm], None] | None = None,
        row_policy: str = DEFAULT_ROW_POLICY,
        on_fault: Callable[[StreamFault], None] | None = None,
        attribution: AlarmAttributor | bool = DEFAULT_ATTRIBUTION,
    ) -> "OnlineDetector":
        """Wrap a fitted batch :class:`CrossFeatureDetector` unchanged.

        ``threshold=None`` adopts the detector's calibrated
        ``threshold_`` — the shared construction rule documented in
        :mod:`repro.stream.config`.
        """
        from repro.stream.config import resolve_threshold

        if detector.threshold_ is None and threshold is None:
            raise ValueError("detector must be fitted before online detection")
        return cls(
            model=detector.model,
            threshold=resolve_threshold(detector, threshold),
            method=detector.method,
            monitor=monitor,
            on_alarm=on_alarm,
            row_policy=row_policy,
            on_fault=on_fault,
            attribution=attribution,
        )

    # ------------------------------------------------------------------
    @property
    def windows(self) -> int:
        """Windows scored so far."""
        return len(self.scores)

    @property
    def quarantined(self) -> int:
        """Degraded rows quarantined so far (always 0 under ``strict``)."""
        return len(self.fault_records)

    def _classify_row(self, row: WindowRow) -> tuple[str, str] | None:
        """The quarantine verdict for a degraded row, or ``None`` if clean."""
        if np.isnan(row.features).any():
            return "nan", "row carries NaN features"
        if np.isinf(row.features).any():
            return "out_of_range", "row carries non-finite features"
        if not np.isfinite(row.time) or row.time < 0:
            return "out_of_range", f"window time {row.time} is not a valid instant"
        if self.times:
            if row.time == self.times[-1] and row.index <= self._last_index:
                return "duplicate", f"window at {row.time} was already scored"
            if row.time < self.times[-1]:
                return "late", (
                    f"window at {row.time} arrived after one at {self.times[-1]}"
                )
        return None

    def _quarantine(self, row: WindowRow, kind: str, detail: str) -> StreamFault:
        """Record one quarantined row and notify the hook."""
        fault = StreamFault(
            stream="", kind=kind, index=row.index, time=row.time, detail=detail
        )
        self.fault_records.append(fault)
        if self.on_fault is not None:
            self.on_fault(fault)
        return fault

    def consume(self, row: WindowRow) -> Alarm | None:
        """Score one closed window; return the alarm if one fires.

        Wire this as the :class:`StreamingExtractor`'s ``on_row`` hook.
        Under ``row_policy="quarantine"`` a degraded row is recorded on
        ``fault_records`` and *not* scored (returns ``None``).
        """
        if self.row_policy == "quarantine":
            verdict = self._classify_row(row)
            if verdict is not None:
                self._quarantine(row, *verdict)
                return None
        t0 = _time.perf_counter()
        score = float(
            self.model.normality_score(row.features[None, :], self.method)[0]
        )
        latency = _time.perf_counter() - t0
        self.times.append(row.time)
        self.scores.append(score)
        self.latencies.append(latency)
        self._last_index = row.index
        alarming = score < self.threshold
        verdict = None
        if self.attribution is not None:
            # Attribution reads the score and row, never the reverse:
            # the alarm decision above is already final.
            verdict = self.attribution.attribute(
                row.time, score, row.features, alarming
            )
        if alarming:
            alarm = Alarm(
                index=row.index,
                time=row.time,
                score=score,
                threshold=self.threshold,
                monitor=self.monitor,
                latency_s=latency,
                verdict=verdict,
            )
            self.alarms.append(alarm)
            if self.on_alarm is not None:
                self.on_alarm(alarm)
            return alarm
        return None

    def result(
        self,
        labels: np.ndarray | None = None,
        elapsed_s: float = 0.0,
    ) -> StreamResult:
        """Freeze the run into a :class:`StreamResult`."""
        latencies = np.asarray(self.latencies, dtype=float)
        return StreamResult(
            monitor=self.monitor,
            threshold=self.threshold,
            method=self.method,
            times=np.asarray(self.times, dtype=float),
            scores=np.asarray(self.scores, dtype=float),
            labels=(
                np.asarray(labels, dtype=bool)
                if labels is not None
                else np.zeros(len(self.scores), dtype=bool)
            ),
            alarms=list(self.alarms),
            windows=len(self.scores),
            elapsed_s=elapsed_s,
            mean_latency_s=float(latencies.mean()) if len(latencies) else 0.0,
            max_latency_s=float(latencies.max()) if len(latencies) else 0.0,
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The detector's mutable run state (scores, alarms, quarantine).

        The model/threshold/method construction knobs are not captured;
        restore targets a detector built over the same trained model.
        """
        state = {
            "times": list(self.times),
            "scores": list(self.scores),
            "latencies": list(self.latencies),
            "alarms": list(self.alarms),
            "fault_records": list(self.fault_records),
            "last_index": self._last_index,
        }
        if self.attribution is not None:
            state["attribution"] = self.attribution.snapshot()
        return state

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`snapshot`, replacing all current run state.

        Restored alarms and faults do *not* re-fire the ``on_alarm`` /
        ``on_fault`` hooks — they already fired in the original run.
        Attribution state (CUSUM statistic, blame/residual history)
        restores when both sides have attribution; a snapshot from a
        plain run leaves a fresh attributor empty.
        """
        self.times = list(state["times"])
        self.scores = list(state["scores"])
        self.latencies = list(state["latencies"])
        self.alarms = list(state["alarms"])
        self.fault_records = list(state["fault_records"])
        self._last_index = state["last_index"]
        if self.attribution is not None and state.get("attribution") is not None:
            self.attribution.restore(state["attribution"])
