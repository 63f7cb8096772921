"""Reference attribution: the oracle for the compiled per-attributor tables.

:class:`ReferenceAttributor` is the per-alarm path that
:class:`~repro.attribution.AlarmAttributor` replaced.  It rebuilds the
signed activity as a ``{group: float}`` dict per alarm, averages the
activity history one group at a time with ``np.mean`` over a list, and
scores every variant by re-sorting its basis and rebuilding both
vectors from dicts; the history's mean and standard deviation are
computed twice, once for the activity and once for the residual flags.

The dict-based taxonomy bodies below (:func:`signed_activity`,
:func:`match_activity`, :func:`classify_activity`,
:func:`classify_shares`, :func:`residual_flags`) are the definitions the
shipped functions of the same names reproduce bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.attribution import (
    ACTIVITY_DAMPING,
    ACTIVITY_MIN_MATCH,
    ANOMALY_TYPES,
    MIN_MATCH,
    UNKNOWN,
    AnomalyType,
    ScoreCusum,
    Verdict,
    contribution_matrix,
    feature_group,
    feature_labels,
    fine_group,
    group_shares,
    target_indices,
    top_contributors,
)
from repro.core.model import CrossFeatureModel


def signed_activity(features, history, groups, damping=ACTIVITY_DAMPING):
    """Per-fine-group signed deviation, pooled in a Python dict loop."""
    features = np.asarray(features, dtype=float)
    history = np.atleast_2d(np.asarray(history, dtype=float))
    if len(features) != len(groups):
        raise ValueError(f"{len(features)} columns for {len(groups)} groups")
    mean = history.mean(axis=0)
    std = np.maximum(history.std(axis=0), 1e-9)
    squashed = np.tanh((features - mean) / std / damping)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for g, a in zip(groups, squashed):
        if g is None:
            continue
        sums[g] = sums.get(g, 0.0) + float(a)
        counts[g] = counts.get(g, 0) + 1
    return {g: sums[g] / counts[g] for g in sorted(sums)}


def match_activity(atype: AnomalyType, activity: Mapping[str, float]) -> float:
    """Best centred cosine, rebuilding each variant's basis per call."""
    best = 0.0
    for variant in atype.variants:
        basis = sorted(set(activity) | set(variant))
        a = np.array([activity.get(g, 0.0) for g in basis])
        q = np.array([variant.get(g, 0.0) for g in basis])
        a = a - a.mean()
        na, nq = np.linalg.norm(a), np.linalg.norm(q)
        if na < 1e-12 or nq < 1e-12:
            continue
        best = max(best, float(a @ q / (na * nq)))
    return best


def classify_activity(activity, taxonomy=None, min_match=ACTIVITY_MIN_MATCH):
    taxonomy = ANOMALY_TYPES if taxonomy is None else taxonomy
    best_name, best_match = UNKNOWN, float("-inf")
    for atype in taxonomy.values():
        m = match_activity(atype, activity)
        if m > best_match:
            best_name, best_match = atype.name, m
    if best_match < min_match:
        return UNKNOWN, max(best_match, 0.0)
    return best_name, best_match


def classify_shares(shares, taxonomy=None, min_match=MIN_MATCH):
    taxonomy = ANOMALY_TYPES if taxonomy is None else taxonomy
    best_name, best_match = UNKNOWN, float("-inf")
    for atype in taxonomy.values():
        m = atype.match(shares)
        if m > best_match:
            best_name, best_match = atype.name, m
    if best_match < min_match:
        return UNKNOWN, max(best_match, 0.0)
    return best_name, best_match


def residual_flags(history, current, z=4.0, min_history=8):
    """``|z| >= z`` per feature, with its own mean and std of the history."""
    history = np.asarray(history, dtype=float)
    if history.ndim == 1:
        history = history[None, :]
    if len(history) < min_history:
        return None
    mean = history.mean(axis=0)
    std = np.maximum(history.std(axis=0), 1e-9)
    return np.abs((np.asarray(current, dtype=float) - mean) / std) >= float(z)


class ReferenceAttributor:
    """The dict-based per-alarm attribution path, same knobs and state."""

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
        names = model.feature_names_
        self._fine_groups = (
            None if names is None else [fine_group(n) for n in names]
        )
        if self._fine_groups is not None and not any(self._fine_groups):
            self._fine_groups = None
        self.cusum = ScoreCusum(self.threshold)
        self._recent_rows: deque[np.ndarray] = deque(maxlen=int(residual_window))
        self._recent_contribs: deque[np.ndarray] = deque(maxlen=int(history))
        self._recent_acts: deque[dict[str, float]] = deque(maxlen=int(history))
        self.verdicts = 0

    def _view(self, features):
        features = np.asarray(features, dtype=float)
        if self._subset is not None:
            features = features[self._subset]
        return features

    def attribute(self, time, score, features, alarming, contribution=None):
        self.cusum.update(time, score)
        row = self._view(features)
        verdict = None
        if alarming:
            if contribution is None:
                contribution = contribution_matrix(self.model, features)[0]
            self._recent_contribs.append(np.asarray(contribution, dtype=float))
            aggregated = np.mean(np.vstack(self._recent_contribs), axis=0)
            if (
                self._fine_groups is not None
                and len(self._recent_rows) >= self.residual_min_history
            ):
                self._recent_acts.append(
                    signed_activity(
                        row, np.vstack(self._recent_rows), self._fine_groups
                    )
                )
            if self._recent_acts:
                activity = {
                    g: float(np.mean([a[g] for a in self._recent_acts]))
                    for g in self._recent_acts[0]
                }
                anomaly_type, match = classify_activity(activity, self.taxonomy)
            else:
                shares = group_shares(aggregated, self._groups)
                anomaly_type, match = classify_shares(
                    shares, self.taxonomy, self.min_match
                )
            feats, targets, contribs = top_contributors(
                aggregated, self._labels, self._targets, self.top_k
            )
            residual = ()
            if self._recent_rows:
                flags = residual_flags(
                    np.vstack(self._recent_rows),
                    row,
                    z=self.residual_z,
                    min_history=self.residual_min_history,
                )
                if flags is not None:
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
                self._recent_contribs.clear()
                self._recent_acts.clear()
            self._recent_rows.append(row)
        return verdict

    def snapshot(self) -> dict:
        return {
            "cusum": self.cusum.snapshot(),
            "recent_rows": [r.tolist() for r in self._recent_rows],
            "recent_contribs": [c.tolist() for c in self._recent_contribs],
            "recent_acts": [dict(a) for a in self._recent_acts],
            "verdicts": self.verdicts,
        }
