"""Per-stream typed-verdict state machine.

An :class:`AlarmAttributor` rides next to one online detector.  It sees
every scored window (advancing the CUSUM change-point statistic and the
forecast-residual history) and, for each *alarming* window, produces a
:class:`Verdict`: the anomaly class, the culprit features with their
blame, which of them are temporally surprising, and the estimated
onset.

It runs strictly *after* scoring — it reads scores and feature rows,
never writes them — so attribution on vs. off cannot change a score, an
alarm, or their bits.  That contract is asserted by the streaming tests
and ``benchmarks/test_attribution.py``.

Everything a verdict needs that does not change per window — each
column's fine activity group and group size, and each taxonomy
variant's basis positions, prototype and norm — is compiled once per
attributor, so a verdict costs a handful of numpy calls.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.attribution.changepoint import ScoreCusum, _zscores
from repro.attribution.contributions import (
    contribution_matrix,
    feature_labels,
    target_indices,
    top_contributors,
)
from repro.attribution.taxonomy import (
    ACTIVITY_DAMPING,
    ANOMALY_TYPES,
    MIN_MATCH,
    UNKNOWN,
    AnomalyType,
    _classify,
    _compile_taxonomy,
    _group_table,
    _pool,
    classify_shares,
    feature_group,
    fine_group,
    group_shares,
)
from repro.checks import check_int
from repro.core.model import CrossFeatureModel

__all__ = ["AlarmAttributor", "Verdict", "fuse_verdicts"]


@dataclass(frozen=True)
class Verdict:
    """One typed verdict attached to an alarm.

    ``features``/``targets``/``contributions``/``residual`` are aligned:
    the top culprit features (most blame first), their feature-vector
    column indices, their aggregated blame, and whether each one also
    trips the forecast-residual check (empty until enough history).
    ``onset`` is the CUSUM change-point estimate — None while the score
    collapse has not yet crossed the decision level.  ``windows`` counts
    the alarming windows whose blame was aggregated into this verdict.
    """

    anomaly_type: str
    match: float
    features: tuple
    targets: tuple[int, ...]
    contributions: tuple[float, ...]
    residual: tuple[bool, ...]
    onset: float | None
    windows: int

    def summary(self) -> str:
        """``type=... features=a,b,c`` fragment for alarm lines."""
        feats = ",".join(str(f) for f in self.features[:3])
        text = f"type={self.anomaly_type} features={feats}"
        if self.onset is not None:
            text += f" onset={self.onset:g}s"
        return text


class AlarmAttributor:
    """Typed-verdict state for one detection stream.

    Parameters
    ----------
    model:
        The *same* fitted :class:`CrossFeatureModel` the detector scores
        with (attribution reuses its sub-models and calibration).
    threshold:
        The detector's alarm threshold — the CUSUM reference level.
    taxonomy, min_match:
        Signature registry and unknown-floor (see
        :mod:`repro.attribution.taxonomy`).
    top_k:
        Culprit features per verdict.
    history:
        Alarming windows whose blame is averaged per verdict — smooths
        single-window noise inside an attack burst; the buffer clears
        when the CUSUM statistic drains to zero (the episode healed).
    residual_window, residual_z, residual_min_history:
        Trailing raw-row history length and band for the per-feature
        forecast-residual check.
    """

    def __init__(
        self,
        model: CrossFeatureModel,
        threshold: float,
        taxonomy: Mapping[str, AnomalyType] | None = None,
        min_match: float = MIN_MATCH,
        top_k: int = 6,
        history: int = 8,
        residual_window: int = 24,
        residual_z: float = 4.0,
        residual_min_history: int = 8,
    ):
        if model.discretizer is None:
            raise ValueError("model must be fitted before attribution")
        # Negated comparisons, so NaN fails them too.
        if not 0 < threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
        if not -math.inf < min_match < math.inf:
            raise ValueError(f"min_match must be finite, got {min_match!r}")
        if not 0 < residual_z < math.inf:
            raise ValueError(f"residual_z must be positive and finite, got {residual_z!r}")
        for name, value in (
            ("top_k", top_k),
            ("history", history),
            ("residual_window", residual_window),
            ("residual_min_history", residual_min_history),
        ):
            check_int(name, value, 1)
        if residual_min_history > residual_window:
            # The row history could never reach the minimum: no activity
            # view and no residual flags, ever.
            raise ValueError(
                f"residual_min_history ({residual_min_history}) must not exceed "
                f"residual_window ({residual_window})"
            )
        self.model = model
        self.threshold = float(threshold)
        self.taxonomy = dict(ANOMALY_TYPES if taxonomy is None else taxonomy)
        self.min_match = float(min_match)
        self.top_k = int(top_k)
        self.residual_z = float(residual_z)
        self.residual_min_history = int(residual_min_history)
        self._labels = feature_labels(model)
        self._targets = target_indices(model)
        self._groups = [feature_group(name) for name in self._labels]
        self._subset = model.feature_subset
        # Fine activity groups are indexed by feature-vector column in
        # the model's (subsetted) view — the z-scores live in feature
        # space, not sub-model space.  The pooling table and every
        # variant's basis are compiled once, here.
        names = model.feature_names_
        fine = [] if names is None else [fine_group(n) for n in names]
        self._activity = _group_table(fine) if any(fine) else None
        self._activity_types = (
            None if self._activity is None
            else _compile_taxonomy(self._activity.names, self.taxonomy)
        )
        self.cusum = ScoreCusum(self.threshold)
        self._recent_rows: deque[np.ndarray] = deque(maxlen=int(residual_window))
        self._recent_contribs: deque[np.ndarray] = deque(maxlen=int(history))
        #: Signed-activity vectors in ``self._activity.names`` order.
        self._recent_acts: deque[np.ndarray] = deque(maxlen=int(history))
        self.verdicts = 0

    def _view(self, features: np.ndarray) -> np.ndarray:
        """The model's view of a raw feature row (subset applied)."""
        features = np.asarray(features, dtype=float)
        if self._subset is not None:
            features = features[self._subset]
        return features

    def attribute(
        self,
        time: float,
        score: float,
        features: np.ndarray,
        alarming: bool,
        contribution: np.ndarray | None = None,
    ) -> Verdict | None:
        """Advance one scored window; return a verdict iff it alarmed.

        ``alarming`` is the detector's own decision (passed in rather
        than re-derived, so the two can never disagree).
        ``contribution`` lets a batched caller (the fleet's per-tick
        bucket) hand in a precomputed :func:`contribution_matrix` row;
        otherwise one is computed here.
        """
        self.cusum.update(time, score)
        row = self._view(features)
        verdict: Verdict | None = None
        if alarming:
            if contribution is None:
                contribution = contribution_matrix(self.model, features)[0]
            self._recent_contribs.append(np.asarray(contribution, dtype=float))
            aggregated = np.mean(np.vstack(self._recent_contribs), axis=0)
            # One z-score of the row against the recent normal history
            # feeds both the signed activity and the residual flags.
            z = None
            if len(self._recent_rows) >= self.residual_min_history:
                z = _zscores(np.vstack(self._recent_rows), row)
            # Classification prefers the signed-activity view (direction
            # separates the attack taxonomy); it needs a vocabulary and
            # enough non-alarming history to z-score against, else fall
            # back to blame shares.
            if self._activity is not None and z is not None:
                self._recent_acts.append(
                    _pool(np.tanh(z / ACTIVITY_DAMPING), self._activity)
                )
            if self._recent_acts:
                # Each group's mean over the contiguous last axis: the
                # same reduction as np.mean over that group's history.
                activity = np.stack(self._recent_acts, axis=1).mean(axis=1)
                anomaly_type, match = _classify(activity, self._activity_types)
            else:
                shares = group_shares(aggregated, self._groups)
                anomaly_type, match = classify_shares(
                    shares, self.taxonomy, self.min_match
                )
            feats, targets, contribs = top_contributors(
                aggregated, self._labels, self._targets, self.top_k
            )
            residual: tuple[bool, ...] = ()
            if z is not None:
                flags = np.abs(z) >= self.residual_z
                residual = tuple(bool(flags[t]) for t in targets)
            verdict = Verdict(
                anomaly_type=anomaly_type,
                match=float(match),
                features=feats,
                targets=targets,
                contributions=contribs,
                residual=residual,
                onset=self.cusum.onset,
                windows=len(self._recent_contribs),
            )
            self.verdicts += 1
        else:
            if self.cusum.stat == 0.0 and self._recent_contribs:
                # The episode healed: stale blame must not leak into the
                # next (possibly different) attack session.
                self._recent_contribs.clear()
                self._recent_acts.clear()
            # History holds non-alarming rows only: alarm windows must
            # not poison the "recent normal" baseline the activity and
            # residual checks z-score against, and a long attack burst
            # must not become its own normal.
            self._recent_rows.append(row)
        return verdict

    # -- durability -----------------------------------------------------
    def snapshot(self) -> dict:
        """Mutable run state (the model/taxonomy knobs are construction)."""
        return {
            "cusum": self.cusum.snapshot(),
            "recent_rows": [r.tolist() for r in self._recent_rows],
            "recent_contribs": [c.tolist() for c in self._recent_contribs],
            "recent_acts": [
                dict(zip(self._activity.names, a.tolist())) for a in self._recent_acts
            ],
            "verdicts": self.verdicts,
        }

    def restore(self, state: dict) -> None:
        self.cusum.restore(state["cusum"])
        self._recent_rows.clear()
        self._recent_rows.extend(
            np.asarray(r, dtype=float) for r in state["recent_rows"]
        )
        self._recent_contribs.clear()
        self._recent_contribs.extend(
            np.asarray(c, dtype=float) for c in state["recent_contribs"]
        )
        self._recent_acts.clear()
        self._recent_acts.extend(
            np.array([a[g] for g in self._activity.names], dtype=float)
            for a in state.get("recent_acts", [])
        )
        self.verdicts = state["verdicts"]


def fuse_verdicts(
    verdicts: list[Verdict],
    taxonomy: Mapping[str, AnomalyType] | None = None,
    top_k: int = 6,
) -> Verdict | None:
    """One fleet-level verdict from the reporting lanes' typed votes.

    Majority vote over the per-lane anomaly types (ties resolve to
    registry order, ``unknown`` losing to any typed vote); blame is the
    per-feature sum across votes; ``onset`` is the earliest lane onset —
    the fleet saw the attack no later than its first witness.
    """
    verdicts = [v for v in verdicts if v is not None]
    if not verdicts:
        return None
    taxonomy = ANOMALY_TYPES if taxonomy is None else taxonomy
    precedence = list(taxonomy) + [UNKNOWN]
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.anomaly_type] = counts.get(v.anomaly_type, 0) + 1
    winner = min(
        counts,
        key=lambda name: (
            -counts[name],
            precedence.index(name) if name in precedence else len(precedence),
        ),
    )
    winners = [v for v in verdicts if v.anomaly_type == winner]
    blame: dict = {}
    targets: dict = {}
    for v in verdicts:
        for f, t, c in zip(v.features, v.targets, v.contributions):
            blame[f] = blame.get(f, 0.0) + c
            targets[f] = t
    ranked = sorted(blame, key=lambda f: (-blame[f], targets[f]))[:top_k]
    onsets = [v.onset for v in verdicts if v.onset is not None]
    return Verdict(
        anomaly_type=winner,
        match=float(np.mean([v.match for v in winners])),
        features=tuple(ranked),
        targets=tuple(targets[f] for f in ranked),
        contributions=tuple(float(blame[f]) for f in ranked),
        residual=(),
        onset=min(onsets) if onsets else None,
        windows=sum(v.windows for v in verdicts),
    )
