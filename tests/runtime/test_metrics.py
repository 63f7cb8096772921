"""Unit tests for the runtime metrics' stage timings."""

from repro.runtime.metrics import RuntimeMetrics


class TestStageMetrics:
    def test_record_stage_accumulates(self):
        m = RuntimeMetrics()
        m.record_stage("fit", 1.5)
        m.record_stage("fit", 0.5)
        m.record_stage("score", 0.25)
        assert m.stage_seconds == {"fit": 2.0, "score": 0.25}

    def test_stage_event_emitted(self):
        events = []
        m = RuntimeMetrics(on_event=events.append)
        m.record_stage("simulate", 3.0)
        assert events[-1].kind == "stage"
        assert events[-1].label == "simulate"
        assert events[-1].seconds == 3.0

    def test_summary_includes_stages(self):
        m = RuntimeMetrics()
        m.record_stage("extract", 1.0)
        assert "extract=1.0s" in m.summary()

    def test_reset_clears_stages(self):
        m = RuntimeMetrics()
        m.record_stage("fit", 1.0)
        m.reset()
        assert m.stage_seconds == {}
