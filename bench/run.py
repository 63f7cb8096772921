"""Run the repository benchmark.

Usage, from the repository root::

    python -m bench.run --workload paper-aodv --seed 0 --seconds 20 --trace 0
    python -m bench.run                        # all four workloads, seed 0
    python -m bench.run --workload fleet-batch --runs 10 --out A.jsonl
    python -m bench.run --workload stream-replay --trace   # per-layer run
    python -m bench.run --pin                  # rewrite bench/golden.json

A single-workload run measures one workload in this process: set-up,
then a closed loop of operations until ``--seconds`` of operation time
have passed, then the correctness checks (outside the timed region).
Its last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  Every
other mode starts each run in a fresh subprocess, one after another.

End-to-end times are reference-speed seconds (``bench/speed.py``): the
untraced run probes the host's speed while it measures and charges each
interval at that speed.  The plain wall-clock values are in the run
record (``--out``) under ``raw``.

The program under test is the ``repro`` package in ``src/`` next to this
directory; the run fails when it is missing.
"""

from __future__ import annotations

import time

#: Set-up is timed from here, before ``repro`` (and numpy) are imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
#: Artifact cache of the two online workloads (listed in .gitignore).
CACHE_DIR = Path(__file__).resolve().parent / ".cache"

#: Bench-side spans reported as a share of operation time.
SPAN_STAGES = (
    "simulate", "extract", "fit", "score", "simulate_aodv", "simulate_dsr",
    "consume", "replay_other", "batch_extract", "ingest", "seal",
)
SETUP_STAGES = ("setup_load", "setup_fit")
#: Set-ups behind each ``setup_s`` value, each in a fresh interpreter.
SETUP_SAMPLES = 3


def use_checkout_src() -> None:
    """Import ``repro`` from ``src/`` next to ``bench/``, or exit non-zero."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


@dataclass
class Measurement:
    """The timed loop's raw observations plus the checks made on them."""

    #: ``(start, end)`` ``perf_counter`` readings of every completed request.
    requests: list[tuple[float, float]] = field(default_factory=list)
    #: ``(start, end)`` of every completed operation.
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    #: Seconds of operation time, failed operations included.
    busy: float = 0.0
    items: int = 0
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counts: dict | None = None

    def record(self, t0: float, t1: float) -> None:
        """The callback a workload calls once per completed request."""
        self.requests.append((t0, t1))

    @property
    def latencies(self) -> list[float]:
        """Wall seconds of every completed request."""
        return [t1 - t0 for t0, t1 in self.requests]


def check_digests(digests: dict, golden: dict | None, required: bool) -> list[str]:
    """Compare digests with their pinned values.

    ``golden=None`` pins nothing.  With ``required``, a digest that has
    no pinned value is itself a problem (the reference op of a run must
    be fully pinned).
    """
    if golden is None:
        return []
    problems = []
    for key, value in digests.items():
        if key not in golden:
            if required:
                problems.append(f"{key}: no pinned value")
        elif golden[key] != value:
            problems.append(f"{key}: {value!r} differs from pinned {golden[key]!r}")
    return problems


def measure(workload, seconds: float, golden: dict | None = None,
            sampler=None, want_counts: bool = False) -> Measurement:
    """Closed loop: start op k+1 when op k returns, until ``seconds`` of
    operation time have passed.  A raising op is counted as failed, and
    as a problem (no op fails on the benchmark's workloads), and the loop
    goes on; checks run between ops, outside the timed region.

    Each op starts after a full garbage collection, so it does not pay
    for the previous op's (or the checks') garbage: on a fixed op this
    halves the op-to-op spread without moving the median."""
    m = Measurement()
    region = sampler if sampler is not None else nullcontext()
    k = 0
    while m.busy < seconds:
        gc.collect()
        t0 = time.perf_counter()
        try:
            with region:
                result = workload.op(k, m.record)
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            m.busy += time.perf_counter() - t0
            m.failed += 1
            m.problems.append(f"op {k} failed: {exc!r}")
            k += 1
            continue
        t1 = time.perf_counter()
        m.busy += t1 - t0
        m.op_spans.append((t0, t1))
        m.items += result.items
        m.ops += 1
        m.problems += workload.verify(result)
        digests = workload.digests(result)
        m.problems += check_digests(digests, golden, required=k == 0)
        m.digests.update(digests)
        if want_counts and m.counts is None:
            m.counts = workload.counts(result)
        # Free the op's outputs before the next op starts, so that the
        # peak RSS is one op's whatever the number of ops in the run.
        del result
        k += 1
    return m


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def times(m: Measurement, speed=None) -> tuple[list[float], float]:
    """Request latencies and completed-operation seconds: reference-speed
    seconds through ``speed`` (a :class:`bench.speed.SpeedProbe`), or wall
    seconds without one."""
    import numpy as np

    req, ops = np.asarray(m.requests), np.asarray(m.op_spans)
    if speed is None:
        return list(req[:, 1] - req[:, 0]), float((ops[:, 1] - ops[:, 0]).sum())
    return (list(speed.normalize(req[:, 0], req[:, 1])),
            float(speed.normalize(ops[:, 0], ops[:, 1]).sum()))


def end_to_end(m: Measurement, speed, setup_samples: list[float]) -> dict[str, float]:
    latencies, op_seconds = times(m, speed)
    return {
        "items_per_s": m.items / op_seconds,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, m: Measurement, sampler, setup_s: float) -> dict[str, float]:
    from bench.sampler import BUCKETS

    shares = sampler.shares()
    values = {f"self_pct.{name}": shares[name] for name in BUCKETS}
    values["span.ms_per_item"] = 1e3 * m.busy / m.items
    values["span.request_ms"] = 1e3 * statistics.fmean(m.latencies)
    values["span.setup_s"] = setup_s
    for stage in SPAN_STAGES:
        values[f"span_pct.{stage}"] = 100.0 * workload.spans.get(stage, 0.0) / m.busy
    for stage in SETUP_STAGES:
        values[f"span_pct.{stage}"] = 100.0 * workload.setup_spans.get(stage, 0.0) / setup_s
    values["ratio.sampler_overhead_pct"] = 100.0 * sampler.handler_s / m.busy
    values["count.samples"] = sampler.samples
    values.update(m.counts or {})
    return values


def timed_setup(workload) -> tuple[float, float]:
    """``perf_counter`` at the start and end of one warm
    ``workload.setup()``.  A set-up that missed the artifact cache has
    filled it and is timed again."""
    t0 = time.perf_counter()
    misses = workload.setup()
    t1 = time.perf_counter()
    return timed_setup(workload) if misses else (t0, t1)


def probe_setup(name: str, seed: int) -> dict:
    """One set-up in a fresh interpreter (``--setup-probe``): seconds from
    its start, imports included, to a ready workload, and cache misses."""
    cmd = [sys.executable, "-m", "bench.run", "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probe(name: str, seed: int) -> int:
    """``--setup-probe``: set ``name`` up in this fresh interpreter and
    print the seconds from its start, imports included, to a ready
    workload (reference-speed and wall) and the cache misses it saw."""
    from bench.speed import SpeedProbe

    with SpeedProbe() as speed:
        use_checkout_src()
        from bench.workloads import DEFAULT_CONFIGS, WORKLOADS

        misses = WORKLOADS[name](DEFAULT_CONFIGS[name], seed, CACHE_DIR).setup()
        ready = time.perf_counter()
    print(json.dumps({
        "setup_s": float(speed.normalize(_STARTED, ready)),
        "raw_setup_s": ready - _STARTED,
        "cache_misses": misses,
    }))
    return 0


def run_once(name: str, seed: int, seconds: float, trace: bool, *,
             config=None, golden: dict | None = None, cache_dir=CACHE_DIR,
             probes: bool = False) -> dict:
    """Measure one workload in this process and return its run record.

    An untraced run measures under a :class:`bench.speed.SpeedProbe` and
    reports reference-speed times; a traced run reports wall times.
    ``setup_s`` is the in-process warm set-up or, with ``probes``, the
    median of :data:`SETUP_SAMPLES` set-ups in fresh interpreters, so
    that imports count; the in-process set-up has warmed the cache.
    """
    from bench.sampler import Sampler
    from bench.speed import SpeedProbe
    from bench.workloads import DEFAULT_CONFIGS, WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name](config or DEFAULT_CONFIGS[name], seed, cache_dir)
    speed = None if trace else SpeedProbe()
    sampler = Sampler(SRC / "repro") if trace else None
    with speed or nullcontext():
        setup_t0, setup_t1 = timed_setup(workload)
        m = measure(workload, seconds, golden, sampler=sampler, want_counts=trace)
    setup_s = setup_t1 - setup_t0
    problems = check_digests(workload.setup_digests(), golden, required=True)
    problems += m.problems
    completed = bool(m.requests and m.op_spans)
    if not completed:
        problems.append("no operation completed")

    raw_setup = [setup_s]
    setup_samples = [setup_s if speed is None else float(speed.normalize(setup_t0, setup_t1))]
    if probes:
        found = [probe_setup(name, seed) for _ in range(SETUP_SAMPLES)]
        if any(p["cache_misses"] for p in found):
            problems.append("a set-up probe missed the artifact cache")
        setup_samples = [p["setup_s"] for p in found]
        raw_setup = [p["raw_setup_s"] for p in found]

    metrics, raw, tails = {}, {}, {}
    if completed:
        if trace:
            values = per_layer(workload, m, sampler, setup_s)
            entries = spec["per_layer"]
        else:
            values = end_to_end(m, speed, setup_samples)
            entries = spec["end_to_end"]
            latencies, _ = times(m, speed)
            # Tails too noisy on a shared host to carry a bound; kept for reading.
            tails = {f"p{q}": percentile(latencies, q) * 1e3 for q in (90, 95, 99)}
        for entry in entries:
            metrics[entry["name"]] = {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
        latencies, op_seconds = times(m)
        raw = {
            "items_per_s": m.items / op_seconds,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "setup_s": statistics.median(raw_setup),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "attempted": len(m.requests) + m.failed,
        "failed": m.failed,
        "metrics": metrics,
        "raw": raw,
        "requests": len(m.requests),
        "tail_ms": tails,
        "ops": m.ops,
        "setup_samples": setup_samples,
        "problems": problems,
        "digests": m.digests,
        "env": environment(),
    }


def pin() -> dict:
    """Recompute every pinned digest from the reference inputs (seed 0)."""
    from bench.workloads import DEFAULT_CONFIGS, WORKLOADS, OpResult

    golden = {"env": environment()}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_CONFIGS[name], 0, CACHE_DIR)
        workload.setup()
        digests = dict(workload.setup_digests())
        if name == "paper-aodv":
            from repro import Session

            session = Session(cache=False, jobs=1)
            for monitor in range(workload.config.n_nodes - 1):
                plan = workload.config.plan(monitor)
                result = session.detect(plan, "c45")
                raw = session.raw_traces(plan)
                traces = {"train": raw.train[0], "calibration": raw.calibration,
                          "attack": raw.abnormal_evals[0]}
                digests.update(workload.digests(OpResult(0, {
                    "plan": plan, "result": result, "traces": traces})))
        else:
            digests.update(workload.digests(workload.op(0, lambda t0, t1: None)))
        golden[name] = digests
        print(f"pinned {name}: {len(digests)} digests", flush=True)
    return golden


def report(record: dict, golden: dict | None) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"requests={record['requests']} ops={record['ops']} "
          f"failed={record['failed']} setup_samples={len(record['setup_samples'])}")
    for name, entry in record["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in record["raw"].items():
        print(f"{'wall-clock ' + name:40s} {value:>16.6g}")
    for key, value in sorted(record["digests"].items()):
        if golden is None or key not in golden:
            print(f"digest {key} {value}")
    for line in record["problems"]:
        print(f"PROBLEM {line}")


def spawn(names: list[str], seed: int, runs: int, seconds: float, trace: int,
          out: str | None) -> int:
    """Each run in a fresh subprocess, one after another."""
    records, status = [], 0
    for name in names:
        for i in range(runs):
            cmd = [sys.executable, "-m", "bench.run", "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds),
                   "--trace", str(trace)]
            if out:
                cmd += ["--out", out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            records.append({"workload": name, "seed": seed + i, **result})
    print(json.dumps({r["workload"] + f"@{r['seed']}": {
        k: r[k] for k in ("correct", "attempted", "failed", "metrics")
    } for r in records}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1, each in a fresh process")
    parser.add_argument("--out", help="append each run's full record to this JSON-lines file")
    parser.add_argument("--pin", action="store_true", help="rewrite bench/golden.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.setup_probe:
        if args.workload is None:
            parser.error("--setup-probe needs --workload")
        return setup_probe(args.workload, args.seed)
    use_checkout_src()
    from bench.workloads import WORKLOADS

    spec = load_spec()
    spec_names = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(spec_names)}")

    if args.pin:
        GOLDEN_PATH.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None or args.runs > 1:
        names = [args.workload] if args.workload else spec_names
        return spawn(names, args.seed, args.runs, seconds, args.trace, args.out)

    golden_file = load_golden()
    golden = golden_file.get(args.workload)
    if golden_file.get("env") not in (None, environment()):
        print(f"# golden.json was pinned under {golden_file['env']}, "
              f"this run is {environment()}", file=sys.stderr)
    record = run_once(args.workload, args.seed, seconds, bool(args.trace),
                      golden=golden, probes=not args.trace)
    record["run_wall_s"] = time.perf_counter() - _STARTED
    report(record, golden)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
