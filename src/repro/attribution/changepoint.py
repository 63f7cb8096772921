"""Temporal layer: CUSUM onset localisation + forecast-residual checks.

An alarm says "this window is anomalous"; the temporal layer says *when
the trouble started*.  Two instruments, both in DETONAR's spirit of
watching per-window statistics over time:

* :class:`ScoreCusum` — a one-sided CUSUM over the normality-score
  stream.  Scores sit above the decision threshold under normal load
  and collapse below it under attack, so the statistic accumulates
  ``(reference - drift) - score`` clipped at zero; the *onset* estimate
  is the last time the statistic left zero before the decision level
  was crossed — the standard CUSUM change-point estimator.
* :func:`residual_flags` — per-feature one-step forecast residuals.
  DETONAR fits ARIMA per feature; we use the drift-free special case (a
  trailing-window mean forecast with a standard-deviation band), which
  needs no fitting, no state beyond a short history, and no
  dependencies.  A feature whose current value leaves the ``z``-sigma
  band is *temporally* surprising, corroborating its blame share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.eval.timeseries import ScoreSeries

__all__ = [
    "ChangePoint",
    "ScoreCusum",
    "residual_flags",
    "residual_zscores",
    "score_change_points",
]

#: CUSUM allowance (drift), as a fraction of the reference score.  The
#: statistic only accumulates score deficits below ``reference * (1 -
#: DRIFT_FRAC)``, so the ~2% of normal windows that dip just under the
#: alarm threshold drain away instead of creeping the statistic upward.
DRIFT_FRAC = 0.1

#: CUSUM decision level, as a fraction of the reference score.  Attack
#: windows typically run several tenths of the threshold *below* it, so
#: a genuine intrusion crosses within a few windows while an isolated
#: false alarm (one window, small deficit) cannot.
DECISION_FRAC = 0.5


class ScoreCusum:
    """One-sided (downward) CUSUM over a normality-score stream.

    ``update`` once per scored window, in time order.  ``onset`` is the
    change-point estimate for the episode currently in progress (None
    until the decision level has been crossed); it resets when the
    statistic drains back to zero — the paper's "self-healing" regime.
    """

    def __init__(
        self,
        reference: float,
        drift_frac: float = DRIFT_FRAC,
        decision_frac: float = DECISION_FRAC,
    ):
        # Negated comparisons, so NaN fails them too.
        if not 0 < reference < math.inf:
            raise ValueError(f"reference must be positive and finite, got {reference!r}")
        if not 0 <= drift_frac < math.inf:
            raise ValueError(f"drift_frac must be non-negative and finite, got {drift_frac!r}")
        if not 0 < decision_frac < math.inf:
            raise ValueError(
                f"decision_frac must be positive and finite, got {decision_frac!r}"
            )
        self.reference = float(reference)
        self.drift = float(drift_frac) * self.reference
        self.decision = float(decision_frac) * self.reference
        self.stat = 0.0
        self._onset_candidate: float | None = None
        self.onset: float | None = None
        self.detected_at: float | None = None

    def update(self, time: float, score: float) -> float | None:
        """Advance one window; return the current onset estimate."""
        previous = self.stat
        self.stat = max(0.0, previous + (self.reference - self.drift) - float(score))
        if self.stat == 0.0:
            self._onset_candidate = None
            self.onset = None
            self.detected_at = None
        else:
            if previous == 0.0:
                self._onset_candidate = float(time)
            if self.detected_at is None and self.stat >= self.decision:
                self.onset = self._onset_candidate
                self.detected_at = float(time)
        return self.onset

    # -- durability -----------------------------------------------------
    def snapshot(self) -> dict:
        """The statistic's mutable state (construction knobs excluded)."""
        return {
            "stat": self.stat,
            "onset_candidate": self._onset_candidate,
            "onset": self.onset,
            "detected_at": self.detected_at,
        }

    def restore(self, state: dict) -> None:
        self.stat = state["stat"]
        self._onset_candidate = state["onset_candidate"]
        self.onset = state["onset"]
        self.detected_at = state["detected_at"]


@dataclass(frozen=True)
class ChangePoint:
    """One detected score-collapse episode."""

    onset: float        #: estimated start (statistic last left zero)
    detected_at: float  #: decision-level crossing (detection delay ends)


def score_change_points(
    series: ScoreSeries,
    reference: float,
    drift_frac: float = DRIFT_FRAC,
    decision_frac: float = DECISION_FRAC,
) -> list[ChangePoint]:
    """All change points of a finished :class:`ScoreSeries`.

    Batch counterpart of :class:`ScoreCusum`: replays the curve through
    one statistic and records each episode at its decision crossing.
    """
    cusum = ScoreCusum(reference, drift_frac=drift_frac, decision_frac=decision_frac)
    episodes: list[ChangePoint] = []
    reported = False
    for t, s in zip(series.times, series.scores):
        cusum.update(float(t), float(s))
        if cusum.detected_at is None:
            reported = False
        elif not reported:
            episodes.append(
                ChangePoint(onset=float(cusum.onset), detected_at=cusum.detected_at)
            )
            reported = True
    return episodes


def residual_zscores(
    history: np.ndarray, current: np.ndarray, min_history: int = 8
) -> np.ndarray | None:
    """|z| of ``current`` against a trailing-window forecast, per feature.

    ``history`` is the ``(w, L)`` matrix of recent *pre-alarm* rows; the
    forecast is its per-feature mean, the band its standard deviation
    (floored at 1e-9 so a constant history treats any change as
    arbitrarily surprising).  Returns None with fewer than
    ``min_history`` rows — too little history to call anything
    surprising.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim == 1:
        history = history[None, :]
    if len(history) < min_history:
        return None
    return np.abs(_zscores(history, np.asarray(current, dtype=float)))


def _zscores(history: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Signed z of ``current`` against the columns of a 2-D ``history``.

    The one forecast-residual z: :func:`residual_zscores` takes its
    magnitude, the taxonomy's signed activity squashes its sign.
    """
    mean = history.mean(axis=0)
    std = np.maximum(history.std(axis=0), 1e-9)
    return (current - mean) / std


def residual_flags(
    history: np.ndarray,
    current: np.ndarray,
    z: float = 4.0,
    min_history: int = 8,
) -> np.ndarray | None:
    """Boolean per-feature "temporally surprising" flags (``|z| >= z``).

    The default ``z=4`` keeps the flag rare on stationary traffic
    (<0.01% per Gaussian feature) while any step change of a few
    standard deviations trips it immediately.
    """
    scores = residual_zscores(history, current, min_history=min_history)
    if scores is None:
        return None
    return scores >= float(z)
