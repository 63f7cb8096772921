"""The runtime event registry: one recorder, counters derived from one table."""

import ast
from pathlib import Path

import pytest

import repro
from repro.runtime.metrics import COUNTERS, EVENT_KINDS, RuntimeMetrics, TraceEvent


def counters(m):
    return {name: getattr(m, name) for name in COUNTERS}


class TestStageMetrics:
    def test_record_stage_accumulates(self):
        m = RuntimeMetrics()
        m.record("stage", "fit", 1.5)
        m.record("stage", "fit", 0.5)
        m.record("stage", "score", 0.25)
        assert m.stage_seconds == {"fit": 2.0, "score": 0.25}

    def test_stage_event_emitted(self):
        events = []
        m = RuntimeMetrics(on_event=events.append)
        m.record("stage", "simulate", 3.0)
        assert events[-1].kind == "stage"
        assert events[-1].label == "simulate"
        assert events[-1].seconds == 3.0

    def test_summary_includes_stages(self):
        m = RuntimeMetrics()
        m.record("stage", "extract", 1.0)
        assert "extract=1.0s" in m.summary()

    def test_reset_clears_stages(self):
        m = RuntimeMetrics()
        m.record("stage", "fit", 1.0)
        m.reset()
        assert m.stage_seconds == {}


#: A label every kind accepts (``fleet_batch`` labels carry a row count).
LABEL = {"fleet_batch": "3"}


class TestEventRegistry:
    @pytest.mark.parametrize("kind", list(EVENT_KINDS))
    def test_one_event_advances_only_its_own_counter(self, kind):
        events = []
        m = RuntimeMetrics(on_event=events.append)
        label = LABEL.get(kind, f"{kind}-label")
        m.record(kind, label, 1.25)
        expected = dict.fromkeys(COUNTERS, 0)
        if EVENT_KINDS[kind].counter is not None:
            expected[EVENT_KINDS[kind].counter] = 1
        assert counters(m) == expected
        assert events == [TraceEvent(kind, label, 1.25)]

    def test_accumulated_quantities(self):
        m = RuntimeMetrics()
        m.record("simulated", "train[1]", 2.0)
        m.record("fleet_batch", "3", 0.1)
        m.record("fleet_batch", "4", 0.1)
        assert m.trace_seconds == [("train[1]", 2.0)]
        assert m.fleet_windows == 7
        assert "7 fleet windows in 2 batches" in m.summary()

    def test_reset_zeroes_every_counter(self):
        m = RuntimeMetrics()
        for kind in EVENT_KINDS:
            m.record(kind, LABEL.get(kind, ""), 1.0)
        assert all(counters(m).values())
        m.reset()
        assert counters(m) == dict.fromkeys(COUNTERS, 0)
        assert (m.fleet_windows, m.trace_seconds, m.stage_seconds) == (0, [], {})

    def test_undeclared_kind_raises(self):
        m = RuntimeMetrics()
        with pytest.raises(ValueError, match="'cache_hits'"):
            m.record("cache_hits")
        assert counters(m) == dict.fromkeys(COUNTERS, 0)

    def test_summary_head_always_shows(self):
        assert RuntimeMetrics().summary() == (
            "0 simulated (0.0s trace wall-clock), cache 0 hit / 0 miss, 0 evicted"
        )

    def test_every_recorded_literal_is_a_declared_kind(self):
        """Kinds are strings, and some fire only under chaos: a typo at a
        ``.record(`` call site must fail here, not in a chaos run."""
        recorded = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "record"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    recorded.add((path.name, node.args[0].value))
        assert recorded, "no .record( call sites found"
        assert {kind for _, kind in recorded} <= set(EVENT_KINDS), sorted(
            (name, kind) for name, kind in recorded if kind not in EVENT_KINDS
        )
