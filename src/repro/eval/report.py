"""Textual experiment reports — the paper's result tables as plain text.

Formats :class:`~repro.eval.experiments.DetectionResult` objects into the
report style used throughout the benchmarks (and by ``python -m repro
report``): one row per classifier with AUC, optimal operating point and
the calibrated-threshold operating point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.eval.experiments import DetectionResult, ExperimentPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.session import Session

_HEADER = f"{'classifier':12s} {'AUC':>7s} {'optimal (r, p)':>16s} {'@threshold (r, p)':>19s}"


def format_result_row(name: str, result: DetectionResult) -> str:
    """One report line for one classifier's result."""
    r_opt, p_opt, _ = result.optimal
    r_thr, p_thr = result.recall_precision_at_threshold()
    return (
        f"{name:12s} {result.auc:7.3f}   ({r_opt:4.2f}, {p_opt:4.2f})"
        f"      ({r_thr:4.2f}, {p_thr:4.2f})"
    )


def format_detection_report(
    results: Mapping[str, DetectionResult],
    title: str = "",
) -> str:
    """A full report block over several classifiers' results."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), len(_HEADER)))
    lines.append(_HEADER)
    for name, result in results.items():
        lines.append(format_result_row(name, result))
    return "\n".join(lines)


def scenario_report(
    plan: ExperimentPlan,
    session: "Session",
    classifiers: Sequence[str] = ("c45", "ripper", "nbc"),
    method: str = "calibrated_probability",
) -> str:
    """Run the detection experiment for each classifier and format it.

    Each classifier is one :meth:`~repro.runtime.Session.detect` call:
    the traces are simulated and extracted once for all of them, each
    fit and its scoring are timed as the session's ``fit`` and ``score``
    stages, and the results stay memoised in the session.
    """
    results = {
        name: session.detect(plan, classifier=name, method=method)
        for name in classifiers
    }
    title = (
        f"{plan.protocol.upper()}/{plan.transport.upper()}  "
        f"({plan.n_nodes} nodes, {plan.duration:.0f}s, attack={plan.attack_kind})"
    )
    return format_detection_report(results, title=title)
