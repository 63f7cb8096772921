"""Per-feature blame from sub-model disagreement.

One cross-feature sub-model per feature predicts that feature from all
the others; when a window alarms, the sub-models whose calibrated
probability collapsed are the ones naming the culprit features.  The
*contribution* of sub-model ``m`` on a row is ``1 - calibrated[m]`` —
0 for a feature that looks perfectly normal, →1 as its sub-model's
probability falls to the floor.

Everything here is read-only over a fitted
:class:`~repro.core.model.CrossFeatureModel` and batched: one
``_sub_model_outputs`` pass covers every alarming row.  A
:class:`~repro.stream.fleet.FleetDetector` does not call
:func:`contribution_matrix` at all: it takes ``1 - calibrated`` from the
pass that scored the bucket, which gives the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import CrossFeatureModel

__all__ = [
    "contribution_matrix",
    "feature_labels",
    "target_indices",
    "top_contributors",
]


def contribution_matrix(model: CrossFeatureModel, X: np.ndarray) -> np.ndarray:
    """``(n_rows, n_sub_models)`` blame matrix for the rows of ``X``.

    Entry ``[r, m]`` is ``1 - calibrated[r, m]`` (raw ``1 - p_true``
    before :meth:`~repro.core.model.CrossFeatureModel.calibrate`), in
    ensemble (sub-model) order.  Rows are independent, so slicing the
    batch reproduces per-row calls bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    _, calibrated = model._calibrated_outputs(X)
    return 1.0 - calibrated


def feature_labels(model: CrossFeatureModel) -> list:
    """Each sub-model's labelled feature (name, or index when unnamed),
    in ensemble order — aligned with :func:`contribution_matrix` columns."""
    if model.feature_names_ is not None:
        return [model.feature_names_[t] for t in model.targets_]
    return [int(t) for t in model.targets_]


def target_indices(model: CrossFeatureModel) -> list[int]:
    """Each sub-model's labelled feature-vector column, ensemble order."""
    return [int(t) for t in model.targets_]


def top_contributors(
    contributions: np.ndarray,
    labels: list,
    targets: list[int],
    top_k: int = 6,
) -> tuple[tuple, tuple[int, ...], tuple[float, ...]]:
    """The ``top_k`` most-blamed features of one contribution vector.

    Returns ``(features, targets, contributions)`` tuples, highest blame
    first.  The sort is stable, so exact ties keep ensemble order — the
    same rule :meth:`CrossFeatureModel.explain` uses.
    """
    contributions = np.asarray(contributions, dtype=float)
    order = np.argsort(-contributions, kind="stable")[:top_k]
    return (
        tuple(labels[m] for m in order),
        tuple(targets[m] for m in order),
        tuple(float(contributions[m]) for m in order),
    )
