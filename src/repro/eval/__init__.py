"""Evaluation harness: the measurements behind the paper's figures.

* :mod:`repro.eval.metrics` — recall/precision curves over threshold
  sweeps, area-above-diagonal AUC and the closest-to-(1,1) optimal point
  (Figures 1-2);
* :mod:`repro.eval.timeseries` — averaged score-vs-time curves for normal
  and abnormal traces (Figures 3 and 5);
* :mod:`repro.eval.density` — score density distributions (Figures 4
  and 6);
* :mod:`repro.eval.experiments` — the test conditions and the pipeline
  stages :class:`repro.Session` runs: extract features, train a detector
  per scenario/classifier, and score evaluation traces.
"""

from repro.eval.density import score_density
from repro.eval.experiments import (
    DetectionResult,
    ExperimentPlan,
    TraceBundle,
)
from repro.eval.metrics import (
    PrCurve,
    area_above_diagonal,
    optimal_point,
    precision_recall_curve,
)
from repro.eval.timeseries import averaged_score_series

__all__ = [
    "DetectionResult",
    "ExperimentPlan",
    "PrCurve",
    "TraceBundle",
    "area_above_diagonal",
    "averaged_score_series",
    "optimal_point",
    "precision_recall_curve",
    "score_density",
]
