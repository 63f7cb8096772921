"""Report-formatting tests."""

import numpy as np
import pytest

from repro.eval.experiments import DetectionResult, ExperimentPlan
from repro.eval.metrics import PrCurve
from repro.eval.report import format_detection_report, format_result_row, scenario_report
from repro.runtime import RuntimeMetrics, Session, TraceEvent


def fake_result(auc=0.42, optimal=(0.9, 0.95, 0.5)):
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([True, True, False, False])
    return DetectionResult(
        plan=ExperimentPlan(),
        classifier="c45",
        method="calibrated_probability",
        threshold=0.5,
        curve=PrCurve(np.array([0.5]), np.array([1.0]), np.array([1.0])),
        auc=auc,
        optimal=optimal,
        scores=scores,
        labels=labels,
    )


class TestFormatting:
    def test_row_contains_metrics(self):
        row = format_result_row("c45", fake_result())
        assert "c45" in row
        assert "0.420" in row
        assert "(0.90, 0.95)" in row

    def test_report_has_header_and_rows(self):
        report = format_detection_report(
            {"c45": fake_result(), "nbc": fake_result(auc=0.1)},
            title="Demo",
        )
        lines = report.splitlines()
        assert lines[0] == "Demo"
        assert "classifier" in lines[2]
        assert len(lines) == 5

    def test_report_without_title(self):
        report = format_detection_report({"c45": fake_result()})
        assert report.splitlines()[0].startswith("classifier")


SMALL_PLAN = ExperimentPlan(
    n_nodes=10, duration=250.0, max_connections=15,
    train_seeds=(1,), calibration_seed=2, normal_seeds=(3,),
    attack_seeds=(4,), warmup=50.0, periods=(5.0, 60.0),
)


class TestScenarioReport:
    def test_end_to_end_small(self):
        report = scenario_report(SMALL_PLAN, Session(), classifiers=("nbc",))
        assert "AODV/UDP" in report
        assert "nbc" in report

    def test_fits_are_timed_and_memoised_in_the_session(self):
        events: list[TraceEvent] = []
        session = Session(metrics=RuntimeMetrics(on_event=events.append))
        report = scenario_report(SMALL_PLAN, session, classifiers=("nbc",))
        assert session.metrics.stage_seconds.keys() >= {"fit", "score"}
        fits = [e for e in events if e.kind == "stage" and e.label == "fit"]
        assert len(fits) == 1

        result = session.detect(SMALL_PLAN, "nbc")
        assert [e for e in events if e.kind == "stage" and e.label == "fit"] == fits
        assert format_result_row("nbc", result) in report.splitlines()
