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


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=["aodv", "dsr", "olsr"], default="aodv")
    parser.add_argument("--transport", choices=["udp", "tcp"], default="udp")
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--duration", type=float, default=1000.0)
    parser.add_argument("--connections", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)


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
        "--task-retries", type=int, default=None, metavar="N",
        help="retry budget per trace before the run fails (default: 2)",
    )
    parser.add_argument(
        "--bench", default=None, metavar="FILE",
        help="after the run, dump runtime metrics (stage timings, cache "
             "counters, per-trace wall-clock) to FILE as JSON",
    )
    # Hidden chaos-testing hook: a deterministic fault-injection script,
    # e.g. --inject-faults crash:2,hang:0:1+2,cache-enospc:1
    # (see repro.runtime.faults.FaultPlan.parse).  CI uses it to exercise
    # every recovery path; it is not part of the supported interface.
    parser.add_argument("--inject-faults", default=None, help=argparse.SUPPRESS)


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    """Durable-run flags shared by the stream and fleet commands."""
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="snapshot the full streaming state to FILE during the run "
             "(atomic, fingerprinted; see repro.stream.durability)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
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
    """Live per-trace progress lines, fed by the metrics hook."""
    if event.kind == "cache_hit":
        print(f"  [cache]  {event.label}")
    elif event.kind == "resumed":
        print(f"  [resume] {event.label}")
    elif event.kind == "simulated":
        print(f"  [sim]    {event.label}  ({event.seconds:.1f}s)")
    elif event.kind == "retry":
        print(f"  [retry]  {event.label}")
    elif event.kind == "timeout":
        print(f"  [timeout] {event.label}  (limit {event.seconds:.0f}s)")
    elif event.kind == "alarm":
        print(f"  [ALARM]  {event.label}")
    elif event.kind == "fused_alarm":
        print(f"  [FUSED]  {event.label}")
    elif event.kind == "stream_fault":
        print(f"  [FAULT]  {event.label}")
    elif event.kind == "lane_sealed":
        print(f"  [SEAL]   {event.label}")
    elif event.kind == "duplicate_seal":
        print(f"  [SEAL]   {event.label} (duplicate, no-op)")
    elif event.kind == "checkpoint":
        print(f"  [CKPT]   saved {event.label}")
    elif event.kind == "restore":
        print(f"  [CKPT]   restored {event.label}")
    elif event.kind in ("fallback", "respawn", "task_failed", "pool_failed",
                        "cache_write_failed", "cache_off"):
        print(f"  [runtime] {event.label}")


def _build_session(args: argparse.Namespace):
    """A Session wired to the CLI's runtime flags + live progress."""
    from repro.runtime import FaultPlan, RuntimeMetrics, Session

    faults = (
        FaultPlan.parse(args.inject_faults)
        if getattr(args, "inject_faults", None) else None
    )
    return Session(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        cache=not args.no_cache,
        metrics=RuntimeMetrics(on_event=_progress_printer),
        task_timeout=args.task_timeout,
        max_retries=args.task_retries,
        faults=faults,
    )


def _dump_metrics(session, args: argparse.Namespace) -> None:
    """Honour ``--bench FILE``: write the session's runtime metrics."""
    path = getattr(args, "bench", None)
    if not path:
        return
    import json

    m = session.metrics
    payload = {
        "stage_seconds": {k: round(v, 4) for k, v in m.stage_seconds.items()},
        "trace_seconds": [(label, round(s, 4)) for label, s in m.trace_seconds],
        "simulations": m.simulations,
        "cache_hits": m.cache_hits,
        "cache_misses": m.cache_misses,
        "retries": m.retries,
        "timeouts": m.timeouts,
        "summary": m.summary(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"runtime metrics written to {path}")


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one scenario and print trace statistics."""
    from repro.simulation.scenario import ScenarioConfig

    config = ScenarioConfig(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        seed=args.seed,
    )
    session = _build_session(args)
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


def cmd_detect(args: argparse.Namespace) -> int:
    """Run a full detection experiment and print its metrics."""
    from repro.eval.experiments import ExperimentPlan

    plan = ExperimentPlan(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        attack_kind=args.attack,
    )
    session = _build_session(args)
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


def cmd_stream(args: argparse.Namespace) -> int:
    """Train offline, then stream one live scenario through the detector."""
    from repro.eval.experiments import ExperimentPlan

    plan = ExperimentPlan(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        attack_kind=args.attack,
    )
    session = _build_session(args)
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


def cmd_fleet(args: argparse.Namespace) -> int:
    """Train offline, then stream every monitored node through one fleet."""
    from repro.eval.experiments import ExperimentPlan

    plan = ExperimentPlan(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        attack_kind=args.attack,
    )
    if args.monitors is None:
        monitors = None
        n_monitors = plan.n_nodes - 1
    else:
        if args.monitors < 1:
            print("--monitors must be >= 1", file=sys.stderr)
            return 2
        monitors = [n for n in range(plan.n_nodes) if n != plan.attacker]
        monitors = monitors[: args.monitors]
        n_monitors = len(monitors)
    quorum: int | float = (
        float(args.quorum) if "." in args.quorum else int(args.quorum)
    )
    session = _build_session(args)
    kind = "normal (no attack)" if args.normal else f"attack={args.attack}"
    print(f"fleet detection: {args.protocol}/{args.transport}, {kind}, "
          f"{n_monitors} monitored nodes, quorum={quorum}, "
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
        quorum=quorum,
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


def cmd_report(args: argparse.Namespace) -> int:
    """Run all three classifiers on one condition and print the report."""
    from repro.eval.experiments import ExperimentPlan
    from repro.eval.report import scenario_report

    plan = ExperimentPlan(
        protocol=args.protocol,
        transport=args.transport,
        n_nodes=args.nodes,
        duration=args.duration,
        max_connections=args.connections,
        attack_kind=args.attack,
    )
    session = _build_session(args)
    print("simulating traces and training all classifiers "
          "(this takes a few minutes) ...")
    print(scenario_report(plan, session=session))
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
    _add_runtime_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run a full detection experiment")
    _add_scenario_args(p_det)
    _add_runtime_args(p_det)
    p_det.add_argument("--classifier", choices=["c45", "ripper", "nbc"], default="c45")
    p_det.add_argument(
        "--method",
        choices=["match_count", "avg_probability", "calibrated_probability"],
        default="calibrated_probability",
    )
    p_det.add_argument("--attack", choices=["mixed", "blackhole", "dropping"],
                       default="mixed")
    p_det.set_defaults(func=cmd_detect)

    p_str = sub.add_parser(
        "stream", help="online detection over one live streamed scenario"
    )
    _add_scenario_args(p_str)
    _add_runtime_args(p_str)
    p_str.add_argument("--classifier", choices=["c45", "ripper", "nbc"], default="c45")
    p_str.add_argument(
        "--method",
        choices=["match_count", "avg_probability", "calibrated_probability"],
        default="calibrated_probability",
    )
    p_str.add_argument("--attack", choices=["mixed", "blackhole", "dropping"],
                       default="mixed")
    p_str.add_argument("--normal", action="store_true",
                       help="stream an intrusion-free trace (alarm rate should "
                            "approach the calibrated false-alarm rate)")
    p_str.add_argument("--stream-seed", type=int, default=None, metavar="SEED",
                       help="mobility seed of the streamed trace (default: the "
                            "plan's first attack seed, or first normal seed "
                            "with --normal)")
    p_str.add_argument("--attribution", action="store_true",
                       help="classify each alarm: [ALARM] lines gain "
                            "type=<anomaly class> features=<culprits> "
                            "onset=<estimated start> fragments "
                            "(scores/alarms unchanged)")
    _add_durability_args(p_str)
    p_str.set_defaults(func=cmd_stream)

    p_flt = sub.add_parser(
        "fleet", help="multiplexed online detection across every monitored node"
    )
    _add_scenario_args(p_flt)
    _add_runtime_args(p_flt)
    p_flt.add_argument("--classifier", choices=["c45", "ripper", "nbc"], default="c45")
    p_flt.add_argument(
        "--method",
        choices=["match_count", "avg_probability", "calibrated_probability"],
        default="calibrated_probability",
    )
    p_flt.add_argument("--attack", choices=["mixed", "blackhole", "dropping"],
                       default="mixed")
    p_flt.add_argument("--normal", action="store_true",
                       help="stream an intrusion-free trace")
    p_flt.add_argument("--stream-seed", type=int, default=None, metavar="SEED",
                       help="mobility seed of the streamed trace (default: the "
                            "plan's first attack seed, or first normal seed "
                            "with --normal)")
    p_flt.add_argument("--monitors", type=int, default=None, metavar="M",
                       help="monitor only the first M non-attacker nodes "
                            "(default: all of them)")
    p_flt.add_argument("--quorum", default="1", metavar="K",
                       help="fused-alarm vote: an integer is absolute k-of-n; "
                            "a fraction in (0,1] is a share of the streams "
                            "reporting on that tick (default: 1)")
    p_flt.add_argument("--attribution", action="store_true",
                       help="classify alarms per lane and fuse typed votes: "
                            "[ALARM]/[FUSED] lines gain type=... features=... "
                            "fragments (scores/alarms unchanged)")
    _add_durability_args(p_flt)
    p_flt.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="seal a lane 'stalled' once its clock lags the "
                            "most advanced lane of its scenario by more than "
                            "this many simulation seconds (default: never)")
    p_flt.set_defaults(func=cmd_fleet)

    p_rep = sub.add_parser("report", help="compare all classifiers on one condition")
    _add_scenario_args(p_rep)
    _add_runtime_args(p_rep)
    p_rep.add_argument("--attack", choices=["mixed", "blackhole", "dropping"],
                       default="mixed")
    p_rep.set_defaults(func=cmd_report)

    p_ill = sub.add_parser("illustrate", help="print the paper's §3 example")
    p_ill.set_defaults(func=cmd_illustrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
