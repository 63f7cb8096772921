"""Typed alarms: attribution bit-identity, overhead and taxonomy accuracy.

The suite streams the attack taxonomy (flooding / blackhole / dropping /
impersonation × AODV / DSR) through an :class:`~repro.stream.OnlineDetector`
with attribution off and on, asserting that both produce
``np.array_equal`` scores and identical alarms before any number is
recorded.  Each attack cell's alarm verdicts vote a majority anomaly type;
the payload carries per-row and per-cell accuracy plus the confusion
matrix.

* :func:`test_live_suite` runs it: quick (AODV only, 12 nodes, 400 s) by
  default, so every push re-checks the identity contract; under
  ``REPRO_BENCH_FULL=1`` the full suite (20 nodes, 1000 s, both
  protocols), which also asserts macro cell-majority accuracy ≥
  :data:`ATTRIBUTION_ACCURACY_FLOOR`.  ``REPRO_BENCH_WRITE=1`` with the
  full suite regenerates ``BENCH_attribution.json``.
* The remaining tests re-assert the committed full-suite baseline with
  no simulation: the floor, every attack kind recognised as itself in
  at least one protocol, a diagonal-heavy confusion matrix, and the
  identity note on every entry.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.attacks import (
    BlackholeAttack,
    ImpersonationAttack,
    PacketDroppingAttack,
    UpdateStormAttack,
    periodic_sessions,
)
from repro.attribution import ANOMALY_TYPES, UNKNOWN
from repro.core.model import CrossFeatureModel
from repro.features import extract_features
from repro.simulation.scenario import ScenarioConfig, run_scenario
from repro.stream import OnlineDetector, WindowRow

from benchmarks.conftest import QUICK, REPO_ROOT, bench_entry, bench_payload, write_bench

BASELINE = REPO_ROOT / "BENCH_attribution.json"

ATTACK_KINDS = ("flooding", "blackhole", "dropping", "impersonation")

#: Minimum macro cell-majority classification accuracy the full suite
#: asserts: the majority verdict over each attack cell's alarms must
#: name the right class for at least 3 of the 4 attack kinds on average
#: across protocols.  The committed baseline sits well above this floor;
#: per-row accuracy (noisier, reported not asserted) rides the payload
#: for trend-watching.
ATTRIBUTION_ACCURACY_FLOOR = 0.75


def attribution_suite(quick: bool, seed: int = 41) -> dict:
    """Attribution overhead + attack-taxonomy accuracy, as a payload.

    For every attack kind × protocol cell it trains a per-protocol model
    on clean traces (two training seeds + one calibration seed) and
    streams the attacked trace twice.  Baseline = attribution off,
    optimized = on, so the recorded "speedup" is the verdict-annotation
    overhead (expected below 1).
    """
    protocols = ("aodv",) if quick else ("aodv", "dsr")
    n_nodes = 12 if quick else 20
    duration = 400.0 if quick else 1000.0
    warmup = 100.0
    method = "calibrated_probability"
    precedence = list(ANOMALY_TYPES) + [UNKNOWN]

    entries = []
    confusion: dict[str, dict[str, int]] = {a: {} for a in ATTACK_KINDS}
    cell_tally = {a: [0, 0] for a in ATTACK_KINDS}  # [correct, total]
    row_tally = {a: [0, 0] for a in ATTACK_KINDS}

    for protocol in protocols:
        def config(s: int) -> ScenarioConfig:
            return ScenarioConfig(
                protocol=protocol, n_nodes=n_nodes, duration=duration,
                max_connections=100, seed=s,
            )

        def dataset(s: int, attacks=None):
            trace = run_scenario(config(s), attacks=attacks or [])
            return extract_features(trace, monitor=0, warmup=warmup)

        train_a, train_b, cal = dataset(11), dataset(12), dataset(13)
        model = CrossFeatureModel()
        model.fit(
            np.vstack([train_a.X, train_b.X]),
            feature_names=train_a.feature_names,
        )
        model.calibrate(cal.X)
        # The 2nd percentile of calibration scores: alarms stay rare on
        # clean traffic while attack windows still trip in bulk.
        threshold = float(np.percentile(model.normality_score(cal.X, method), 2))
        sessions = periodic_sessions(0.25 * duration, 0.05 * duration, duration)
        period = config(seed).sampling_period
        attacker = n_nodes - 1
        make_attack = {
            "flooding": lambda: UpdateStormAttack(
                attacker=attacker, sessions=sessions, rate=25.0),
            "blackhole": lambda: BlackholeAttack(
                attacker=attacker, sessions=sessions),
            "dropping": lambda: PacketDroppingAttack(
                attacker=attacker, sessions=sessions, destination=0),
            "impersonation": lambda: ImpersonationAttack(
                attacker=attacker, victim=1, sessions=sessions, rate=4.0),
        }

        for kind in ATTACK_KINDS:
            ds = dataset(seed, attacks=[make_attack[kind]()])
            rows = [
                WindowRow(index=k, time=float(t), monitor=0, features=ds.X[k])
                for k, t in enumerate(ds.times)
            ]

            def stream(attribution: bool):
                online = OnlineDetector(
                    model, threshold, method=method, attribution=attribution)
                t0 = time.perf_counter()
                for row in rows:
                    online.consume(row)
                return online, time.perf_counter() - t0

            off, off_s = stream(False)
            on, on_s = stream(True)

            cell = f"{protocol}/{kind}"
            assert np.array_equal(np.asarray(on.scores), np.asarray(off.scores)), (
                f"{cell}: scores diverged with attribution on")
            assert [(a.index, a.time, a.score) for a in on.alarms] == \
                [(a.index, a.time, a.score) for a in off.alarms], (
                f"{cell}: alarms diverged with attribution on")
            assert all(a.verdict is not None for a in on.alarms), (
                f"{cell}: alarm missing its verdict")
            assert all(a.verdict is None for a in off.alarms), (
                f"{cell}: verdict leaked with attribution off")

            votes = [
                a.verdict.anomaly_type for a in on.alarms
                if any(s <= a.time <= e + period for s, e in sessions)
            ]
            counts: dict[str, int] = {}
            for v in votes:
                counts[v] = counts.get(v, 0) + 1
                row_tally[kind][1] += 1
                row_tally[kind][0] += v == kind
                confusion[kind][v] = confusion[kind].get(v, 0) + 1
            majority = None
            if counts:
                majority = min(
                    counts,
                    key=lambda n: (
                        -counts[n],
                        precedence.index(n) if n in precedence else len(precedence),
                    ),
                )
            cell_tally[kind][1] += 1
            cell_tally[kind][0] += majority == kind
            entries.append(bench_entry(
                f"attribution/{cell}",
                off_s,
                on_s,
                kind="attribution",
                windows=len(rows),
                alarms=len(on.alarms),
                attack_window_alarms=len(votes),
                majority_verdict=majority,
                row_accuracy=round(
                    counts.get(kind, 0) / len(votes), 3) if votes else None,
                identity="scores/alarms np.array_equal with attribution off and on",
            ))

    per_class_cell = {
        a: round(c / t, 3) if t else None for a, (c, t) in cell_tally.items()
    }
    per_class_row = {
        a: round(c / t, 3) if t else 0.0 for a, (c, t) in row_tally.items()
    }
    macro_cell = float(np.mean([v for v in per_class_cell.values() if v is not None]))
    macro_row = float(np.mean(list(per_class_row.values())))
    classification = {
        "accuracy_floor": ATTRIBUTION_ACCURACY_FLOOR,
        "macro_cell_accuracy": round(macro_cell, 3),
        "macro_row_accuracy": round(macro_row, 3),
        "per_class_cell_accuracy": per_class_cell,
        "per_class_row_accuracy": per_class_row,
        "confusion": {
            a: {k: v for k, v in sorted(confusion[a].items())}
            for a in ATTACK_KINDS
        },
    }
    return bench_payload(
        "attribution", entries, quick=quick, seed=seed, classification=classification
    )


def test_live_suite():
    payload = attribution_suite(QUICK)
    assert {e["name"] for e in payload["entries"]} == {
        f"attribution/{protocol}/{kind}"
        for protocol in (("aodv",) if QUICK else ("aodv", "dsr"))
        for kind in ATTACK_KINDS
    }
    if not QUICK:
        macro = payload["classification"]["macro_cell_accuracy"]
        assert macro >= ATTRIBUTION_ACCURACY_FLOOR, (
            f"macro cell-majority accuracy {macro:.3f} fell below the "
            f"{ATTRIBUTION_ACCURACY_FLOOR} floor"
        )
        write_bench(payload, "attribution")


@pytest.fixture(scope="module")
def payload():
    if not BASELINE.exists():
        pytest.fail(
            "BENCH_attribution.json is missing — regenerate it with "
            "'REPRO_BENCH_FULL=1 REPRO_BENCH_WRITE=1 python -m pytest "
            "benchmarks/test_attribution.py'"
        )
    return json.loads(BASELINE.read_text())


def test_baseline_is_the_full_suite(payload):
    assert payload["suite"] == "attribution"
    assert payload["quick"] is False, (
        "the committed baseline must come from the full run — quick mode "
        "skips the accuracy floor"
    )
    names = {e["name"] for e in payload["entries"]}
    assert names == {
        f"attribution/{protocol}/{kind}"
        for protocol in ("aodv", "dsr") for kind in ATTACK_KINDS
    }


def test_macro_accuracy_meets_floor(payload):
    classification = payload["classification"]
    assert classification["accuracy_floor"] == ATTRIBUTION_ACCURACY_FLOOR
    assert classification["macro_cell_accuracy"] >= ATTRIBUTION_ACCURACY_FLOOR


def test_every_attack_kind_is_recognised(payload):
    per_class = payload["classification"]["per_class_cell_accuracy"]
    for kind in ATTACK_KINDS:
        assert kind in ANOMALY_TYPES, f"{kind} fell out of the registry"
        assert per_class[kind] is not None and per_class[kind] > 0.0, (
            f"majority verdict never named {kind} in any protocol"
        )


def test_confusion_matrix_is_diagonal_heavy(payload):
    confusion = payload["classification"]["confusion"]
    for kind in ATTACK_KINDS:
        row = confusion[kind]
        assert row, f"no attack-window alarms recorded for {kind}"
        diagonal = row.get(kind, 0)
        assert diagonal == max(row.values()), (
            f"{kind} windows were most often called "
            f"{max(row, key=row.get)}, not {kind}"
        )


def test_entries_assert_identity_and_annotate_alarms(payload):
    for entry in payload["entries"]:
        assert "attribution off and on" in entry["identity"]
        assert entry["alarms"] >= entry["attack_window_alarms"]
        # The overhead ratio is real data, not a placeholder.
        assert entry["baseline_seconds"] > 0.0
        assert entry["optimized_seconds"] > 0.0
