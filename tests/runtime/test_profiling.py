"""Unit tests for the profiling observability layer (top-N tables and
the :class:`Session` stage hook)."""

import cProfile

import pytest

from repro.runtime.profiling import StageProfiler, profile_top, render_profile
from repro.runtime.session import Session


def _busy(n=50_000):
    return sum(range(n))


def _profiled_rows(**kwargs):
    profiler = cProfile.Profile()
    profiler.enable()
    _busy()
    profiler.disable()
    return profile_top(profiler, **kwargs)


class TestProfileTop:
    def test_rows_sorted_by_cumulative(self):
        rows = _profiled_rows()
        assert rows, "profile produced no rows"
        cums = [r["cumulative_seconds"] for r in rows]
        assert cums == sorted(cums, reverse=True)

    def test_row_shape(self):
        rows = _profiled_rows()
        for row in rows:
            assert set(row) == {
                "function", "ncalls", "primitive_calls",
                "self_seconds", "cumulative_seconds",
            }
            assert row["ncalls"] >= row["primitive_calls"] >= 1

    def test_top_truncates(self):
        assert len(_profiled_rows(top=2)) <= 2


class TestRenderProfile:
    def test_render_is_aligned_text(self):
        rows = _profiled_rows()
        text = render_profile(rows)
        lines = text.splitlines()
        assert "function" in lines[0] and "cum(s)" in lines[0]
        # one header + one line per row
        assert len(lines) == 1 + len(rows)

    def test_render_json_round_trip(self):
        """Rows survive a JSON round trip (they ride JSON payloads)."""
        import json

        rows = _profiled_rows()
        assert json.loads(json.dumps(rows)) == rows


class TestStageProfiler:
    def test_stages_accumulate_by_name(self):
        prof = StageProfiler()
        with prof.stage("fit"):
            _busy()
        with prof.stage("fit"):
            _busy()
        with prof.stage("score"):
            _busy()
        assert prof.stages == ["fit", "score"]
        assert prof.table("fit")
        assert prof.table("missing") == []

    def test_render_all_stages(self):
        prof = StageProfiler()
        with prof.stage("simulate"):
            _busy()
        text = prof.render()
        assert "stage simulate:" in text

    def test_render_empty(self):
        assert StageProfiler().render() == "(no stages profiled)"


class TestSessionStageHook:
    def test_disabled_by_default(self, tmp_path):
        session = Session(cache_dir=tmp_path, profile_stages=False)
        assert session.profiler is None
        with session._stage("fit") as timer:
            _busy()
        assert timer.elapsed > 0
        assert session.metrics.stage_seconds["fit"] == timer.elapsed

    def test_enabled_collects_tables(self, tmp_path):
        session = Session(cache_dir=tmp_path, profile_stages=True)
        with session._stage("fit"):
            _busy()
        assert session.profiler is not None
        assert session.profiler.stages == ["fit"]
        assert "fit" in session.metrics.stage_seconds

    def test_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_STAGES", "1")
        assert Session(cache_dir=tmp_path).profiler is not None
        monkeypatch.setenv("REPRO_PROFILE_STAGES", "0")
        assert Session(cache_dir=tmp_path).profiler is None

    def test_stage_hook_fires_in_pipeline(self, tmp_path):
        """An end-to-end bundle() records simulate/extract stage tables."""
        from repro.eval.experiments import ExperimentPlan

        plan = ExperimentPlan(
            protocol="aodv",
            n_nodes=10,
            duration=10.0,
            max_connections=5,
            train_seeds=(1,),
            calibration_seed=2,
            normal_seeds=(3,),
            attack_seeds=(4,),
        )
        session = Session(cache_dir=tmp_path, profile_stages=True)
        session.bundle(plan)
        assert "simulate" in session.profiler.stages
        assert "extract" in session.profiler.stages
        assert render_profile(session.profiler.table("simulate"))
