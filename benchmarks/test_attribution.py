"""Typed-alarm regression gate over the committed attribution baseline.

``BENCH_attribution.json`` is produced by the *full*
``python -m repro bench --suite attribution`` run (all four attack
kinds × AODV/DSR at the 20-node/1000 s scale) with the bit-identity
contract asserted in-harness.  This module re-asserts the committed
numbers — no simulation, so it is cheap enough to gate every push:

* the macro cell-majority classification accuracy meets the floor the
  harness enforces (every committed baseline must keep meeting it);
* each attack kind is recognised as itself by majority vote in at
  least one protocol (no class silently degenerated to ``unknown``);
* every entry carries the identity note proving scores/alarms were
  compared with attribution off and on.

The live quick-scale identity run happens in CI right next to this
test (``python -m repro bench --quick --suite attribution``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.attribution import ANOMALY_TYPES
from repro.runtime import ATTRIBUTION_ACCURACY_FLOOR

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_attribution.json"

ATTACK_KINDS = ("flooding", "blackhole", "dropping", "impersonation")


@pytest.fixture(scope="module")
def payload():
    if not BASELINE.exists():
        pytest.fail(
            "BENCH_attribution.json is missing — regenerate it with "
            "'python -m repro bench --suite attribution --out-dir .'"
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
