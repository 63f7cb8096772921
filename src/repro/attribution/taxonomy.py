"""Declarative anomaly taxonomy: activity signatures → typed classes.

The cross-feature model tells us *that* a window is anomalous; the
taxonomy names *what kind* of anomaly it looks like.  Two views feed a
verdict:

* **Blame** — every sub-model whose calibrated probability collapses
  contributes ``1 - calibrated`` to its labelled feature; features roll
  up into coarse semantic groups (:data:`GROUPS`) whose normalised
  shares name the culprit features on the alarm line.
* **Signed activity** — blame says *which* predictions broke, but the
  attack classes differ mainly in the *direction* traffic moved (a
  flood pushes RREQ receipts up; a blackhole pulls data receipts down).
  Each alarming window's features are z-scored against a trailing
  window of recent *non-alarming* rows, squashed with
  ``tanh(z / damping)``, and averaged into fine per-``{packet-type} ×
  {direction}`` groups (:func:`fine_group`).  Each anomaly type declares
  one activity *variant* per protocol regime it was profiled on, and
  matches by the best centred cosine against its variants.

Classification prefers the activity view (it separates the attack
taxonomy; see ``BENCH_attribution.json``) and falls back to blame
shares when there is no history or no MANET vocabulary to z-score
against.  Either way the answer is ``"unknown"`` below a documented
floor.

The registry is **fit-free** by design, mirroring Sintra's
``ANOMALY_TYPES`` idiom: nothing here is trained, so adding or tuning a
type is a reviewable data edit, the mapping cannot drift with a
retrained model, and a verdict can be audited by reading this file next
to the alarm's top features.  All thresholds live in module constants
with their rationale attached.  The variant vectors below are
hand-rounded trailing-window activity centroids profiled per attack ×
protocol at the ``BENCH_PLAN`` scale (20 nodes, 1000 s, seeds 11-13/41)
— re-run the full ``benchmarks/test_attribution.py`` suite
(``REPRO_BENCH_FULL=1``) after editing them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "ACTIVITY_DAMPING",
    "ACTIVITY_MIN_MATCH",
    "ANOMALY_TYPES",
    "AnomalyType",
    "GROUPS",
    "MIN_MATCH",
    "UNKNOWN",
    "classify_activity",
    "classify_shares",
    "feature_group",
    "fine_group",
    "group_shares",
    "signed_activity",
]

#: Verdict name used when no signature clears :data:`MIN_MATCH`.
UNKNOWN = "unknown"

#: Minimum signature-match score for a typed verdict.  Shares are
#: normalised (they sum to 1 over the groups), so a *diffuse* anomaly —
#: blame spread evenly over all groups — scores each signature near the
#: mean of its positive weights times ``1/len(GROUPS)``; 0.25 sits well
#: above that diffuse floor while staying below the 0.4–0.9 matches the
#: real attack taxonomy produces (see ``BENCH_attribution.json``).
MIN_MATCH = 0.25

#: Minimum centred-cosine for a typed *activity* verdict.  Profiled
#: attack windows match their own class at 0.3–0.8; a direction-free
#: (flat) activity vector scores ~0 against every centred variant, so
#: 0.15 rejects flat/contradictory windows without orphaning the real
#: attack taxonomy.
ACTIVITY_MIN_MATCH = 0.15

#: ``tanh(z / damping)`` squash for signed activities.  4.0 keeps a
#: 1-sigma wiggle near-linear (0.25) while a 20-sigma storm saturates
#: at 1 — per-window magnitudes stay comparable across attack kinds.
ACTIVITY_DAMPING = 4.0

#: Feature groups, in canonical order.  ``other`` collects index-only
#: features (no names fitted) and anything outside the MANET vocabulary.
GROUPS = (
    "rreq_storm",
    "route_error",
    "data_delivery",
    "control_mix",
    "route_churn",
    "route_shape",
    "mobility",
    "other",
)

_CHURN = {
    "route_add_count",
    "route_removal_count",
    "route_repair_count",
    "total_route_change",
}
_SHAPE = {"average_route_length", "route_find_count", "route_notice_count"}


def feature_group(name: object) -> str:
    """The semantic group of one feature (by its Table 4/5 name).

    Unnamed features (integer labels from a model fitted without
    ``feature_names``) fall into ``"other"`` — the taxonomy still runs,
    it just cannot separate attack classes without the vocabulary.
    """
    if not isinstance(name, str):
        return "other"
    if name.startswith("rreq_"):
        return "rreq_storm"
    if name.startswith("rerr_"):
        return "route_error"
    if name.startswith("data_"):
        return "data_delivery"
    if name.startswith(("route_all_", "rrep_", "hello_")):
        return "control_mix"
    if name in _CHURN:
        return "route_churn"
    if name in _SHAPE:
        return "route_shape"
    if name == "absolute_velocity":
        return "mobility"
    return "other"


#: Count-type traffic features carry the directional signal; IAT
#: statistics are excluded (their deviation *sign* is noise).
_FINE_TRAFFIC = re.compile(
    r"(data|rreq|rrep|rerr|hello|route_all)"
    r"_(sent|received|forwarded|dropped)_\d+s_count$"
)


def fine_group(name: object) -> str | None:
    """The fine signed-activity group of one feature, or None.

    Traffic counts map to ``{packet-type}_{direction}`` (all sampling
    periods of one direction pool together); topology features map to
    ``route_churn`` / ``route_shape`` / ``mobility``.  IAT features and
    anything outside the MANET vocabulary return None — they carry no
    usable direction.
    """
    if not isinstance(name, str):
        return None
    m = _FINE_TRAFFIC.match(name)
    if m:
        return f"{m.group(1)}_{m.group(2)}"
    if name in _CHURN:
        return "route_churn"
    if name in _SHAPE:
        return "route_shape"
    if name == "absolute_velocity":
        return "mobility"
    return None


def signed_activity(
    features: np.ndarray,
    history: np.ndarray,
    groups: list[str | None] | tuple[str | None, ...],
    damping: float = ACTIVITY_DAMPING,
) -> dict[str, float]:
    """Per-fine-group signed deviation of one row vs. normal history.

    ``history`` holds trailing *non-alarming* rows (same columns as
    ``features``); ``groups`` names each column's fine group (None
    columns are skipped).  Each column is z-scored against the history,
    squashed with ``tanh(z / damping)``, and averaged per group — the
    result maps group → activity in [-1, 1], where +1 means "far above
    its recent normal level" and -1 "far below".
    """
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


@dataclass(frozen=True)
class AnomalyType:
    """One typed anomaly class.

    ``signature`` maps coarse group name → weight: positive weights say
    "blame concentrated here looks like me", negative weights say
    "blame here argues against me".  The match score of a share vector
    ``s`` is ``sum(w_g * s_g) / sum(max(w_g, 0))`` — 1.0 means all
    blame sits in the positively-weighted groups, proportioned exactly
    like the weights; any blame in negatively-weighted groups subtracts.

    ``variants`` holds zero or more fine-group activity prototypes
    (group → expected signed deviation).  :meth:`match_activity` scores
    an observed activity vector by the best centred cosine over the
    variants — a type carries one variant per protocol regime because
    the same attack leaves visibly different fingerprints under AODV's
    flooding discovery vs. DSR's source routing.
    """

    name: str
    description: str
    signature: Mapping[str, float] = field(default_factory=dict)
    variants: tuple[Mapping[str, float], ...] = ()

    def match(self, shares: Mapping[str, float]) -> float:
        gain = sum(max(w, 0.0) for w in self.signature.values())
        if gain <= 0.0:
            return 0.0
        got = sum(w * shares.get(g, 0.0) for g, w in self.signature.items())
        return got / gain

    def match_activity(self, activity: Mapping[str, float]) -> float:
        """Best centred cosine of ``activity`` against the variants.

        The observed vector is centred (its mean over the shared basis
        subtracted) so a uniform "everything is up" window cannot match
        a shape-specific prototype; stored variants are already centred.
        """
        best = 0.0
        for variant in self.variants:
            basis = sorted(set(activity) | set(variant))
            a = np.array([activity.get(g, 0.0) for g in basis])
            q = np.array([variant.get(g, 0.0) for g in basis])
            a = a - a.mean()
            na, nq = np.linalg.norm(a), np.linalg.norm(q)
            if na < 1e-12 or nq < 1e-12:
                continue
            best = max(best, float(a @ q / (na * nq)))
        return best


#: The registry.  Insertion order is the deterministic tie-break: when
#: two signatures match equally, the earlier entry wins.  The first
#: variant of each attack type is its AODV fingerprint, the second DSR.
ANOMALY_TYPES: dict[str, AnomalyType] = {
    t.name: t
    for t in (
        AnomalyType(
            name="flooding",
            description=(
                "Route-request storm (UpdateStormAttack): bogus "
                "discovery floods every observer — RREQ receipts and "
                "route-control volume surge together while background "
                "hello/error traffic is starved of airtime."
            ),
            signature={
                "rreq_storm": 1.0,
                "control_mix": 0.25,
                "route_churn": 0.15,
                "data_delivery": -0.4,
            },
            variants=(
                {
                    "data_received": 0.07, "hello_dropped": -0.25,
                    "hello_forwarded": -0.25, "hello_received": 0.13,
                    "mobility": -0.26, "rerr_dropped": -0.25,
                    "rerr_forwarded": -0.12, "rerr_received": -0.1,
                    "rerr_sent": -0.1, "route_all_dropped": -0.09,
                    "route_all_forwarded": 0.14, "route_all_received": 0.32,
                    "route_all_sent": 0.46, "route_churn": -0.24,
                    "route_shape": -0.08, "rrep_dropped": -0.06,
                    "rrep_forwarded": 0.15, "rrep_sent": 0.5,
                    "rreq_dropped": -0.25, "rreq_forwarded": 0.1,
                    "rreq_received": 0.34, "rreq_sent": -0.13,
                },
                {
                    "data_received": 0.13, "hello_dropped": -0.21,
                    "hello_forwarded": -0.21, "hello_received": -0.21,
                    "hello_sent": -0.21, "mobility": -0.08,
                    "rerr_dropped": -0.21, "rerr_forwarded": 0.08,
                    "rerr_received": 0.05, "rerr_sent": 0.18,
                    "route_all_dropped": -0.07, "route_all_forwarded": 0.19,
                    "route_all_received": 0.22, "route_churn": 0.15,
                    "route_shape": 0.05, "rrep_dropped": -0.21,
                    "rrep_forwarded": 0.25, "rrep_sent": 0.14,
                    "rreq_dropped": -0.21, "rreq_forwarded": 0.14,
                    "rreq_received": 0.22, "rreq_sent": -0.15,
                },
            ),
        ),
        AnomalyType(
            name="blackhole",
            description=(
                "Route advertisement + absorption (BlackholeAttack): "
                "forged replies pull traffic toward the attacker, so "
                "reply volume rises while the data its neighbours "
                "expected to receive never arrives."
            ),
            signature={
                "data_delivery": 1.0,
                "route_churn": 0.5,
                "control_mix": 0.35,
                "rreq_storm": 0.25,
            },
            variants=(
                {
                    "data_received": -0.28, "data_sent": 0.09,
                    "hello_dropped": -0.18, "hello_forwarded": -0.18,
                    "hello_received": 0.08, "hello_sent": -0.15,
                    "mobility": -0.12, "rerr_dropped": -0.18,
                    "rerr_forwarded": 0.09, "rerr_received": 0.13,
                    "rerr_sent": 0.06, "route_all_dropped": 0.08,
                    "route_all_forwarded": 0.05, "route_all_received": 0.24,
                    "route_all_sent": 0.17, "route_churn": -0.13,
                    "route_shape": -0.18, "rrep_dropped": -0.15,
                    "rrep_forwarded": 0.11, "rrep_received": -0.21,
                    "rrep_sent": 0.45, "rreq_dropped": -0.18,
                    "rreq_forwarded": 0.08, "rreq_received": 0.24,
                    "rreq_sent": 0.07,
                },
                {
                    "data_received": 0.08, "data_sent": 0.05,
                    "hello_dropped": -0.13, "hello_forwarded": -0.13,
                    "hello_received": -0.13, "hello_sent": -0.13,
                    "mobility": -0.13, "rerr_dropped": -0.13,
                    "rerr_forwarded": 0.11, "rerr_sent": 0.19,
                    "route_all_dropped": 0.11, "route_all_received": 0.11,
                    "route_all_sent": 0.16, "route_churn": -0.11,
                    "route_shape": -0.24, "rrep_dropped": -0.13,
                    "rrep_forwarded": -0.11, "rrep_received": 0.2,
                    "rrep_sent": 0.05, "rreq_dropped": -0.13,
                    "rreq_forwarded": 0.13, "rreq_received": 0.1,
                    "rreq_sent": 0.14,
                },
            ),
        ),
        AnomalyType(
            name="dropping",
            description=(
                "Silent packet dropping (PacketDroppingAttack): the "
                "attacker says nothing, it just eats — the quietest "
                "fingerprint, a mild control-forwarding excess around "
                "re-discovery of the routes it silently broke."
            ),
            signature={
                "data_delivery": 1.0,
                "rreq_storm": -0.5,
                "route_error": -0.3,
                "control_mix": -0.2,
            },
            variants=(
                {
                    "data_received": 0.12, "data_sent": 0.06,
                    "hello_dropped": -0.13, "hello_forwarded": -0.13,
                    "hello_received": 0.07, "mobility": -0.21,
                    "rerr_dropped": -0.13, "rerr_forwarded": 0.15,
                    "rerr_received": 0.1, "rerr_sent": -0.06,
                    "route_all_dropped": -0.06, "route_all_forwarded": 0.18,
                    "route_shape": -0.06, "rrep_dropped": -0.13,
                    "rrep_forwarded": 0.15, "rrep_received": -0.06,
                    "rrep_sent": 0.34, "rreq_dropped": -0.13,
                    "rreq_sent": -0.07,
                },
                {
                    "data_received": -0.16, "data_sent": 0.1,
                    "hello_dropped": -0.13, "hello_forwarded": -0.13,
                    "hello_received": -0.13, "hello_sent": -0.13,
                    "mobility": 0.07, "rerr_dropped": -0.13,
                    "rerr_forwarded": 0.06, "route_all_received": 0.14,
                    "route_churn": -0.09, "route_shape": -0.11,
                    "rrep_dropped": -0.13, "rrep_forwarded": 0.13,
                    "rrep_received": 0.19, "rrep_sent": 0.07,
                    "rreq_dropped": -0.13, "rreq_forwarded": 0.19,
                    "rreq_received": 0.13, "rreq_sent": 0.2,
                },
            ),
        ),
        AnomalyType(
            name="impersonation",
            description=(
                "Forged control traffic in a victim's name "
                "(ImpersonationAttack): RERR receipts spike as forged "
                "errors tear routes down, while data still flows — the "
                "victim is framed, not silenced."
            ),
            signature={
                "route_error": 1.0,
                "route_churn": 0.3,
                "data_delivery": 0.25,
                "control_mix": 0.2,
            },
            variants=(
                {
                    "data_received": 0.19, "data_sent": 0.11,
                    "hello_dropped": -0.06, "hello_forwarded": -0.06,
                    "hello_received": 0.25, "mobility": 0.06,
                    "rerr_dropped": -0.06, "rerr_received": 0.25,
                    "rerr_sent": -0.09, "route_all_dropped": -0.14,
                    "route_all_forwarded": 0.05, "route_churn": -0.15,
                    "route_shape": -0.16, "rrep_dropped": -0.06,
                    "rrep_forwarded": 0.11, "rrep_received": -0.1,
                    "rrep_sent": 0.14, "rreq_dropped": -0.06,
                    "rreq_forwarded": -0.09, "rreq_sent": -0.14,
                },
                {
                    "data_received": 0.25, "hello_dropped": -0.13,
                    "hello_forwarded": -0.13, "hello_received": -0.13,
                    "hello_sent": -0.13, "mobility": -0.2,
                    "rerr_dropped": -0.13, "rerr_forwarded": 0.12,
                    "rerr_received": 0.37, "rerr_sent": 0.06,
                    "route_all_received": 0.15, "rrep_dropped": -0.13,
                    "rrep_received": 0.13, "rrep_sent": 0.16,
                    "rreq_dropped": -0.13, "rreq_forwarded": -0.1,
                },
            ),
        ),
        AnomalyType(
            name="route_instability",
            description=(
                "Topology thrash without an attack-shaped cause: route "
                "churn and shape dominate (high mobility, partition "
                "healing) while traffic groups stay quiet."
            ),
            signature={
                "route_churn": 1.0,
                "route_shape": 0.6,
                "mobility": 0.4,
                "data_delivery": -0.3,
                "rreq_storm": -0.3,
            },
            variants=(
                {
                    "route_churn": 0.45, "route_shape": 0.35,
                    "mobility": 0.35, "rreq_received": -0.2,
                    "route_all_received": -0.2, "data_received": -0.15,
                    "rrep_sent": -0.15, "rerr_received": -0.15,
                    "rreq_sent": -0.1, "data_sent": -0.1,
                },
            ),
        ),
    )
}


def group_shares(
    contributions: np.ndarray, groups: list[str] | tuple[str, ...]
) -> dict[str, float]:
    """Normalised per-group blame shares for one contribution vector.

    ``contributions`` holds one ``1 - calibrated`` blame value per
    sub-model; ``groups`` names each sub-model's group (same order).
    Groups differ wildly in size (24 RREQ features vs. 4 churn
    features), so each group is scored by its *mean* member blame, and
    the means are normalised to sum to 1 — a group is loud because its
    members are loud, not because it has many members.
    """
    contributions = np.asarray(contributions, dtype=float)
    if len(contributions) != len(groups):
        raise ValueError(
            f"{len(contributions)} contributions for {len(groups)} group labels"
        )
    sums: dict[str, float] = {g: 0.0 for g in GROUPS}
    counts: dict[str, int] = {g: 0 for g in GROUPS}
    for g, c in zip(groups, contributions):
        sums[g] = sums.get(g, 0.0) + float(c)
        counts[g] = counts.get(g, 0) + 1
    means = {g: (sums[g] / counts[g] if counts[g] else 0.0) for g in sums}
    total = sum(means.values())
    if total <= 0.0:
        return {g: 0.0 for g in means}
    return {g: m / total for g, m in means.items()}


def classify_shares(
    shares: Mapping[str, float],
    taxonomy: Mapping[str, AnomalyType] | None = None,
    min_match: float = MIN_MATCH,
) -> tuple[str, float]:
    """Best-matching anomaly type for one share vector.

    Returns ``(name, match)``; ``(UNKNOWN, best_match)`` when nothing
    clears ``min_match``.  Ties resolve to registry order — the
    classification is a pure function of its inputs.
    """
    taxonomy = ANOMALY_TYPES if taxonomy is None else taxonomy
    best_name, best_match = UNKNOWN, float("-inf")
    for atype in taxonomy.values():
        m = atype.match(shares)
        if m > best_match:
            best_name, best_match = atype.name, m
    if best_match < min_match:
        return UNKNOWN, max(best_match, 0.0)
    return best_name, best_match


def classify_activity(
    activity: Mapping[str, float],
    taxonomy: Mapping[str, AnomalyType] | None = None,
    min_match: float = ACTIVITY_MIN_MATCH,
) -> tuple[str, float]:
    """Best-matching anomaly type for one signed-activity vector.

    Returns ``(name, match)`` where the match is the winning variant's
    centred cosine; ``(UNKNOWN, best_match)`` when nothing clears
    ``min_match``.  Ties resolve to registry order.  Types with no
    declared variants score 0 — a shares-only type never wins here.
    """
    taxonomy = ANOMALY_TYPES if taxonomy is None else taxonomy
    best_name, best_match = UNKNOWN, float("-inf")
    for atype in taxonomy.values():
        m = atype.match_activity(activity)
        if m > best_match:
            best_name, best_match = atype.name, m
    if best_match < min_match:
        return UNKNOWN, max(best_match, 0.0)
    return best_name, best_match
