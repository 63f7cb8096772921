"""Command-line interface: run scenarios and detection experiments.

Usage examples::

    # Simulate one scenario and print trace statistics
    python -m repro simulate --protocol aodv --transport udp --duration 600

    # Full detection experiment, 4 worker processes, persistent cache
    python -m repro detect --protocol aodv --transport udp \
        --classifier c45 --duration 1000 --jobs 4

    # Online detection: train offline, stream a live attack scenario
    python -m repro stream --protocol aodv --transport udp --duration 1000

    # Durable streaming: checkpoint as the run goes, resume after a kill
    python -m repro stream --checkpoint run.ckpt --checkpoint-every 8
    python -m repro stream --resume run.ckpt --checkpoint run.ckpt

    # Degraded input: quarantine bad rows instead of trusting them
    python -m repro fleet --row-policy quarantine --stall-timeout 30

    # Fleet detection: every non-attacker node monitored at once, all
    # windows closing on a tick scored in one batch, alarms fused k-of-n
    python -m repro fleet --protocol aodv --transport udp --quorum 2

    # The paper's §3 illustrative example (Tables 1-3)
    python -m repro illustrate

Simulation-heavy commands accept ``--jobs`` (parallel trace fan-out;
deterministic — any job count yields identical numbers), ``--cache-dir``
and ``--no-cache`` (the persistent artifact cache; a warm cache re-run
performs zero simulations).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.model import SCORING_METHODS
from repro.runtime.metrics import COUNTERS, EVENT_KINDS
from repro.stream.config import DEFAULT_QUORUM, validate_quorum


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _quorum(text: str) -> int | float:
    """argparse type: an int k-of-n quorum, or a fraction if it has a dot."""
    try:
        return validate_quorum(float(text) if "." in text else int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid quorum {text!r}: {exc}") from None


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=["aodv", "dsr", "olsr"], default="aodv")
    parser.add_argument("--transport", choices=["udp", "tcp"], default="udp")
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--duration", type=float, default=1000.0)
    parser.add_argument("--connections", type=int, default=100)


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_plan` reads: the scenario plus the attack."""
    _add_scenario_args(parser)
    parser.add_argument("--attack", choices=["mixed", "blackhole", "dropping"],
                        default="mixed")


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    """The detector-training flags of the detect, stream and fleet commands."""
    parser.add_argument("--classifier", choices=["c45", "ripper", "nbc"], default="c45")
    parser.add_argument("--method", choices=SCORING_METHODS,
                        default="calibrated_probability")


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for trace simulation "
             "(default: $REPRO_JOBS or 1; results are identical for any N)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact cache for this run",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trace wall-clock budget under --jobs > 1; a hung "
             "simulation is cancelled and retried (default: no timeout)",
    )
    parser.add_argument(
        "--task-retries", type=int, default=2, metavar="N",
        help="retry budget per trace before the run fails (default: 2)",
    )
    parser.add_argument(
        "--bench", default=None, metavar="FILE",
        help="after the run, dump runtime metrics (every event counter, "
             "stage timings, per-trace wall-clock) to FILE as JSON",
    )
    # Hidden chaos-testing hook: a deterministic fault-injection script,
    # e.g. --inject-faults crash:2,hang:0:1+2,cache-enospc:1
    # (see repro.runtime.faults.FaultPlan.parse).  CI uses it to exercise
    # every recovery path; it is not part of the supported interface.
    parser.add_argument("--inject-faults", default=None, help=argparse.SUPPRESS)


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    """The live-stream and durable-run flags shared by stream and fleet."""
    parser.add_argument("--normal", action="store_true",
                        help="stream an intrusion-free trace (alarm rate should "
                             "approach the calibrated false-alarm rate)")
    parser.add_argument("--stream-seed", type=int, default=None, metavar="SEED",
                        help="mobility seed of the streamed trace (default: the "
                             "plan's first attack seed, or first normal seed "
                             "with --normal)")
    parser.add_argument("--attribution", action="store_true",
                        help="classify each alarm: [ALARM] (and fleet [FUSED]) "
                             "lines gain type=<anomaly class> "
                             "features=<culprits> onset=<estimated start> "
                             "fragments (scores/alarms unchanged)")
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="snapshot the full streaming state to FILE during the run "
             "(atomic, fingerprinted; see repro.stream.durability)",
    )
    parser.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="checkpoint cadence in sampling ticks (default: 16)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="restore FILE before streaming and replay only the "
             "remainder; a corrupted checkpoint fails loudly",
    )
    parser.add_argument(
        "--row-policy", choices=["strict", "quarantine"], default=None,
        help="degraded-input policy: 'strict' trusts every row, "
             "'quarantine' routes late/duplicate/NaN/out-of-range rows "
             "to typed fault records instead of scoring them "
             "(default: strict)",
    )
    # Hidden stream-layer chaos hook, e.g.
    # --inject-stream-faults drop-row:s0/n1:3,crash-lane:s0/n2:6
    # (see repro.stream.faults.StreamFaultPlan.parse).
    parser.add_argument("--inject-stream-faults", default=None,
                        help=argparse.SUPPRESS)


def _progress_printer(event) -> None:
    """Live progress lines, fed by the metrics hook: the event kind's
    declared line, if it has one."""
    line = EVENT_KINDS[event.kind].line
    if line is not None:
        print(line.format(label=event.label, seconds=event.seconds))


def _scenario(args: argparse.Namespace):
    """The one scenario the simulate command runs."""
    from repro.simulation.scenario import ScenarioConfig

    return ScenarioConfig(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        seed=args.seed,
    )


def _plan(args: argparse.Namespace):
    """The test condition of the detect, stream, fleet and report commands."""
    from repro.eval.experiments import ExperimentPlan

    return ExperimentPlan(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        attack_kind=args.attack,
    )


def _build_session(args: argparse.Namespace):
    """A Session wired to the CLI's runtime flags + live progress."""
    from repro.runtime import FaultPlan, RuntimeMetrics, Session

    return Session(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        cache=not args.no_cache,
        metrics=RuntimeMetrics(on_event=_progress_printer),
        task_timeout=args.task_timeout,
        max_retries=args.task_retries,
        faults=FaultPlan.parse(args.inject_faults) if args.inject_faults else None,
    )


def _dump_metrics(session, args: argparse.Namespace) -> None:
    """Honour ``--bench FILE``: write every runtime counter and timing."""
    if not args.bench:
        return
    import json

    m = session.metrics
    payload = {name: getattr(m, name) for name in COUNTERS}
    payload.update(
        fleet_windows=m.fleet_windows,
        stage_seconds={k: round(v, 4) for k, v in m.stage_seconds.items()},
        trace_seconds=[(label, round(s, 4)) for label, s in m.trace_seconds],
        summary=m.summary(),
    )
    with open(args.bench, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"runtime metrics written to {args.bench}")


def cmd_simulate(args: argparse.Namespace, config, session) -> int:
    """Run one scenario and print trace statistics."""
    print(f"simulating {args.protocol}/{args.transport}: "
          f"{args.nodes} nodes, {args.duration:.0f}s ...")
    trace = session.trace(config)
    print(f"data packets originated : {trace.data_originated}")
    print(f"data packets delivered  : {trace.data_delivered}")
    print(f"delivery ratio          : {trace.delivery_ratio():.3f}")
    print(f"total trace events      : {trace.recorder.total_packets()}")
    print(f"sampling windows        : {len(trace.tick_times)}")
    print(f"runtime                 : {session.metrics.summary()}")
    _dump_metrics(session, args)
    return 0


def cmd_detect(args: argparse.Namespace, plan, session) -> int:
    """Run a full detection experiment and print its metrics."""
    print(f"running detection experiment: {args.protocol}/{args.transport}, "
          f"attack={args.attack}, classifier={args.classifier}, "
          f"jobs={session.jobs}")
    print("simulating traces (train x2, calibration, normal evals, attack evals) ...")
    session.bundle(plan)
    print(f"training {args.classifier} sub-models ...")
    result = session.detect(plan, classifier=args.classifier, method=args.method)
    recall, precision = result.recall_precision_at_threshold()
    print(f"AUC above diagonal      : {result.auc:.3f}  (max 0.5)")
    r, p, thr = result.optimal
    print(f"optimal operating point : recall {r:.2f}, precision {p:.2f} "
          f"(threshold {thr:.3f})")
    print(f"at calibrated threshold : recall {recall:.2f}, precision {precision:.2f} "
          f"(threshold {result.threshold:.3f})")
    print(f"runtime                 : {session.metrics.summary()}")
    _dump_metrics(session, args)
    return 0


def cmd_stream(args: argparse.Namespace, plan, session) -> int:
    """Train offline, then stream one live scenario through the detector."""
    kind = "normal (no attack)" if args.normal else f"attack={args.attack}"
    print(f"streaming online detection: {args.protocol}/{args.transport}, "
          f"{kind}, classifier={args.classifier}, jobs={session.jobs}")
    print("training detector on cached normal traces ...")
    session.fitted_detector(plan, classifier=args.classifier, method=args.method)
    print("streaming live scenario (alarms print as windows close) ...")
    result = session.stream_detect(
        plan,
        classifier=args.classifier,
        method=args.method,
        seed=args.stream_seed,
        attack=not args.normal,
        row_policy=args.row_policy,
        attribution=args.attribution,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        stream_faults=args.inject_stream_faults,
    )
    print(f"stream                  : {result.summary()}")
    print(f"calibrated threshold    : {result.threshold:.3f}  ({result.method})")
    if result.labels.any():
        recall, precision = result.recall_precision()
        print(f"vs ground truth         : recall {recall:.2f}, "
              f"precision {precision:.2f}")
    else:
        rate = len(result.alarms) / result.windows if result.windows else 0.0
        print(f"false-alarm rate        : {rate:.3f} "
              f"({len(result.alarms)}/{result.windows} windows)")
    print(f"runtime                 : {session.metrics.summary()}")
    _dump_metrics(session, args)
    return 0


def cmd_fleet(args: argparse.Namespace, plan, session) -> int:
    """Train offline, then stream every monitored node through one fleet."""
    if args.monitors is None:
        monitors = None
        n_monitors = plan.n_nodes - 1
    else:
        monitors = [n for n in range(plan.n_nodes) if n != plan.attacker]
        monitors = monitors[: args.monitors]
        n_monitors = len(monitors)
    kind = "normal (no attack)" if args.normal else f"attack={args.attack}"
    print(f"fleet detection: {args.protocol}/{args.transport}, {kind}, "
          f"{n_monitors} monitored nodes, quorum={args.quorum}, "
          f"classifier={args.classifier}, jobs={session.jobs}")
    print("training detector on cached normal traces ...")
    session.fitted_detector(plan, classifier=args.classifier, method=args.method)
    print("streaming live scenario (fused alarms print as windows close) ...")
    result = session.fleet_detect(
        plan,
        classifier=args.classifier,
        method=args.method,
        seeds=[args.stream_seed] if args.stream_seed is not None else None,
        attack=not args.normal,
        monitors=monitors,
        quorum=args.quorum,
        row_policy=args.row_policy,
        attribution=args.attribution,
        stall_timeout=args.stall_timeout,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        stream_faults=args.inject_stream_faults,
    )
    print(f"fleet                   : {result.summary()}")
    print(f"calibrated threshold    : {result.threshold:.3f}  ({result.method})")
    print(f"fused alarms            : {len(result.fused)} "
          f"(quorum {result.quorum} over {result.n_streams} streams)")
    if result.fault_records:
        print(f"quarantined rows        : {len(result.fault_records)}")
    if result.sealed:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(result.sealed.items()))
        print(f"sealed lanes            : {reasons}")
    print(f"runtime                 : {session.metrics.summary()}")
    _dump_metrics(session, args)
    return 0


def cmd_report(args: argparse.Namespace, plan, session) -> int:
    """Run all three classifiers on one condition and print the report."""
    from repro.eval.report import scenario_report

    print("simulating traces and training all classifiers "
          "(this takes a few minutes) ...")
    print(scenario_report(plan, session))
    print(f"runtime: {session.metrics.summary()}")
    _dump_metrics(session, args)
    return 0


def cmd_illustrate(args: argparse.Namespace) -> int:
    """Print the paper's two-node worked example (Table 3)."""
    from repro.core.illustrative import TwoNodeExample

    example = TwoNodeExample()
    print("Table 3 (two-node example): event, class, match count, probability")
    for score in example.all_event_scores():
        cls = "Normal  " if score.is_normal else "Abnormal"
        print(f"  {score.event}  {cls}  {score.avg_match_count:.2f}  "
              f"{score.avg_probability:.2f}")
    errors = example.classify_all(0.5)
    print(f"threshold 0.5: {errors}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-feature analysis for MANET routing anomaly detection "
                    "(ICDCS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one MANET scenario")
    _add_scenario_args(p_sim)
    p_sim.add_argument("--seed", type=int, default=1)
    _add_runtime_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate, build=_scenario)

    p_det = sub.add_parser("detect", help="run a full detection experiment")
    _add_plan_args(p_det)
    _add_runtime_args(p_det)
    _add_detector_args(p_det)
    p_det.set_defaults(func=cmd_detect, build=_plan)

    p_str = sub.add_parser(
        "stream", help="online detection over one live streamed scenario"
    )
    _add_plan_args(p_str)
    _add_runtime_args(p_str)
    _add_detector_args(p_str)
    _add_stream_args(p_str)
    p_str.set_defaults(func=cmd_stream, build=_plan)

    p_flt = sub.add_parser(
        "fleet", help="multiplexed online detection across every monitored node"
    )
    _add_plan_args(p_flt)
    _add_runtime_args(p_flt)
    _add_detector_args(p_flt)
    _add_stream_args(p_flt)
    p_flt.add_argument("--monitors", type=_positive_int, default=None, metavar="M",
                       help="monitor only the first M non-attacker nodes "
                            "(default: all of them)")
    p_flt.add_argument("--quorum", type=_quorum, default=DEFAULT_QUORUM, metavar="K",
                       help="fused-alarm vote: an integer is absolute k-of-n; "
                            "a fraction in (0,1] is a share of the streams "
                            "reporting on that tick (default: 1)")
    p_flt.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="seal a lane 'stalled' once its clock lags the "
                            "most advanced lane of its scenario by more than "
                            "this many simulation seconds (default: never)")
    p_flt.set_defaults(func=cmd_fleet, build=_plan)

    p_rep = sub.add_parser("report", help="compare all classifiers on one condition")
    _add_plan_args(p_rep)
    _add_runtime_args(p_rep)
    p_rep.set_defaults(func=cmd_report, build=_plan)

    p_ill = sub.add_parser("illustrate", help="print the paper's §3 example")
    p_ill.set_defaults(func=cmd_illustrate, build=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A value the scenario, plan or session constructors reject is a usage
    error, as argparse's own are: one line on stderr and exit status 2.
    Errors raised later in a run keep their traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.build is None:
        return args.func(args)
    try:
        target = args.build(args)
        session = _build_session(args)
    except ValueError as exc:
        parser.error(str(exc))
    return args.func(args, target, session)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
