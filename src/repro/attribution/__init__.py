"""Typed alarms: feature attribution, anomaly taxonomy, onset estimation.

The paper's §6 argues the cross-feature model "can be examined by human
experts"; this package does the examination automatically.  Three
layers, each usable alone:

* :mod:`~repro.attribution.contributions` — batched per-feature blame
  from sub-model disagreement (``1 - calibrated`` per sub-model).
* :mod:`~repro.attribution.taxonomy` — a declarative, fit-free registry
  mapping signed-activity signatures (per packet-type × direction
  deviations vs. recent normal traffic) to typed classes
  (``flooding``, ``blackhole``, ``dropping``, ``impersonation``,
  ``route_instability``, ``unknown``), with blame shares as fallback.
* :mod:`~repro.attribution.changepoint` — CUSUM onset localisation over
  the score stream plus DETONAR-style per-feature forecast residuals.

:class:`AlarmAttributor` composes them per stream;
:func:`fuse_verdicts` lifts lane verdicts to a fleet verdict.
Attribution runs strictly after scoring and never feeds back into it:
scores, alarms and fused timing are bit-identical with it on or off.
Detectors turn it on or off with their ``attribution=`` keyword.
"""

from __future__ import annotations

from repro.attribution.attributor import AlarmAttributor, Verdict, fuse_verdicts
from repro.attribution.changepoint import (
    ChangePoint,
    ScoreCusum,
    residual_flags,
    residual_zscores,
    score_change_points,
)
from repro.attribution.contributions import (
    contribution_matrix,
    feature_labels,
    target_indices,
    top_contributors,
)
from repro.attribution.taxonomy import (
    ACTIVITY_DAMPING,
    ACTIVITY_MIN_MATCH,
    ANOMALY_TYPES,
    GROUPS,
    MIN_MATCH,
    UNKNOWN,
    AnomalyType,
    classify_activity,
    classify_shares,
    feature_group,
    fine_group,
    group_shares,
    signed_activity,
)

__all__ = [
    "ACTIVITY_DAMPING",
    "ACTIVITY_MIN_MATCH",
    "ANOMALY_TYPES",
    "AlarmAttributor",
    "AnomalyType",
    "ChangePoint",
    "GROUPS",
    "MIN_MATCH",
    "ScoreCusum",
    "UNKNOWN",
    "Verdict",
    "classify_activity",
    "classify_shares",
    "contribution_matrix",
    "feature_group",
    "feature_labels",
    "fine_group",
    "fuse_verdicts",
    "group_shares",
    "residual_flags",
    "residual_zscores",
    "score_change_points",
    "signed_activity",
    "target_indices",
    "top_contributors",
]

