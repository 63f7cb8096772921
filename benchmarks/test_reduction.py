"""§6 future-work bench: model reduction via correlation / factor analysis.

"We are developing technologies to reduce computational cost, where fewer
number of models are involved ... based on both correlation analysis and
factor analysis."  This bench quantifies how far the 140-model ensemble
can shrink before detection quality degrades.
"""

import time
from dataclasses import replace

import pytest

from repro.core.model import CrossFeatureDetector
from repro.core.reduction import correlation_reduce, factor_reduce
from repro.eval.experiments import evaluate_detector
from repro.ml import CLASSIFIERS

from benchmarks.conftest import BENCH_PLAN, RUNTIME, print_header

PLAN = replace(BENCH_PLAN, protocol="aodv", transport="udp")


def evaluate_subset(bundle, subset):
    detector = CrossFeatureDetector(
        classifier_factory=CLASSIFIERS["c45"],
        method="calibrated_probability",
        feature_subset=subset,
    )
    t0 = time.perf_counter()
    detector.fit(bundle.train.X, calibration_X=bundle.calibration.X)
    train_time = time.perf_counter() - t0
    return evaluate_detector(detector, bundle, "c45").auc, train_time


def test_model_reduction(benchmark):
    bundle = RUNTIME.bundle(PLAN)

    def run_reductions():
        out = {}
        out["full (140)"] = evaluate_subset(bundle, None)
        corr_subset = correlation_reduce(bundle.train.X, threshold=0.98)
        out[f"correlation ({len(corr_subset)})"] = evaluate_subset(bundle, corr_subset)
        factor_subset = factor_reduce(bundle.train.X, n_features=40)
        out["factor (40)"] = evaluate_subset(bundle, factor_subset)
        return out

    results = benchmark.pedantic(run_reductions, rounds=1, iterations=1)

    print_header("§6 model reduction: AUC and training cost vs ensemble size")
    for name, (auc, train_time) in results.items():
        print(f"  {name:18s} auc={auc:7.3f} train={train_time:6.1f}s")

    full_auc, full_time = results["full (140)"]
    for name, (auc, train_time) in results.items():
        if name == "full (140)":
            continue
        # Reduced ensembles keep most of the detection quality ...
        assert auc > full_auc - 0.25, (name, auc, full_auc)
        # ... at lower training cost.
        assert train_time <= full_time * 1.1, (name, train_time, full_time)
