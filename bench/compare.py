"""Compare benchmark runs of two commits.

Usage, from the repository root::

    python -m bench.run --workload scale-200 --runs 10 --out A.jsonl   # parent
    python -m bench.run --workload scale-200 --runs 10 --out B.jsonl   # change
    python -m bench.compare A.jsonl B.jsonl
    python -m bench.compare A.jsonl              # one side: medians and spreads

The files hold the JSON-lines records ``--out`` appends.  For every
workload and end-to-end metric the report gives each side's median and
quartiles, the change, the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``regressed``: the change's median is worse by more than the bound;
* ``improved``: the median is better by more than the parent's own
  spread (quartile distance over median) and the change wins at least
  nine tenths of the runs paired by seed;
* ``unresolved``: either side's spread exceeds the bound, unless every
  run of the change beats every run of the parent;
* ``unchanged``: otherwise.

Per workload it also prints each side's failed and attempted requests;
a higher failed share on the change is itself a regression, and then no
metric of that workload reads ``improved``.

With one file it prints, per workload, each end-to-end metric's median,
quartiles and spread, the unbounded latency tails, and the same for the
plain wall-clock values the runs recorded next to their reference-speed
metrics.

Traced runs (``--trace 1``) add, per workload, each layer's self time
per work item on both sides, ranked by its share of the change in
operation time per item, and every ``count.*`` / ``ratio.*`` or digest
that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stats(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def group(records: list[dict], trace: int, measured: bool = True) -> dict[str, list[dict]]:
    """Records per workload; with ``measured``, only runs that have
    metrics (at least one request completed)."""
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("trace", 0) == trace and (rec.get("metrics") or not measured):
            out.setdefault(rec["workload"], []).append(rec)
    return out


def values(recs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in recs if metric in r["metrics"]]


def tails(recs: list[dict], q: str) -> list[float]:
    """A request-latency tail percentile (``p90``/``p95``/``p99``) per run."""
    return [r["tail_ms"][q] for r in recs]


def failed_share(recs: list[dict]) -> float:
    """Failed requests over attempted ones, summed over the runs."""
    return sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)


def verdict(a: list[dict], b: list[dict], metric: str, better: str, bound: float,
            more_failures: bool = False):
    """The choosing-metrics verdict for one workload and metric.  When
    more requests fail on side B (``more_failures``), it is never
    ``improved``."""
    va, vb = values(a, metric), values(b, metric)
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(va), statistics.median(vb)
    worse = sign * (med_b - med_a) / med_a
    b_beats_all = all(sign * (y - x) < 0 for x in va for y in vb)
    by_seed_a = {r["seed"]: r["metrics"][metric]["value"] for r in a}
    pairs = [(by_seed_a[r["seed"]], r["metrics"][metric]["value"])
             for r in b if r["seed"] in by_seed_a]
    if not pairs:
        pairs = list(zip(va, vb))
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    if max(spread(va), spread(vb)) > bound and not b_beats_all:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif -worse > spread(va) and wins >= 0.9 and not more_failures:
        label = "improved"
    else:
        label = "unchanged"
    return worse, label


def layer_costs(recs: list[dict]) -> dict[str, float]:
    """Median self milliseconds per work item of every sampled layer."""
    per_item = statistics.median(values(recs, "span.ms_per_item"))
    return {
        name[len("self_pct."):]: per_item * statistics.median(values(recs, name)) / 100.0
        for name in recs[0]["metrics"] if name.startswith("self_pct.")
    }


def summarize(records: list[dict], spec: dict) -> dict:
    """Medians and quartiles per workload and end-to-end metric."""
    summary = {}
    for name, recs in group(records, 0).items():
        summary[name] = {}
        for entry in spec["end_to_end"]:
            med, q1, q3 = stats(values(recs, entry["name"]))
            summary[name][entry["name"]] = {
                "median": med, "q1": q1, "q3": q3, "runs": len(recs),
                "unit": entry["unit"], "spread": (q3 - q1) / med if med else 0.0,
            }
        for q in ("p90", "p95", "p99"):
            med, q1, q3 = stats(tails(recs, q))
            summary[name][f"latency_{q}_ms"] = {
                "median": med, "q1": q1, "q3": q3, "runs": len(recs),
                "unit": "ms", "spread": (q3 - q1) / med,
            }
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        for metric in recs[0]["raw"]:
            med, q1, q3 = stats([r["raw"][metric] for r in recs])
            summary[name][f"wall-clock.{metric}"] = {
                "median": med, "q1": q1, "q3": q3, "runs": len(recs),
                "unit": units[metric], "spread": (q3 - q1) / med,
            }
        print(f"## {name}: {len(recs)} runs")
        for metric, s in summary[name].items():
            print(f"{metric:24s} median {s['median']:12.6g} q1 {s['q1']:12.6g} "
                  f"q3 {s['q3']:12.6g} spread {s['spread']:.3f} {s['unit']}")
    for name, recs in group(records, 1).items():
        print(f"## {name} traced: {len(recs)} runs, self ms per item")
        for layer, cost in sorted(layer_costs(recs).items(), key=lambda kv: -kv[1]):
            if cost:
                print(f"  {layer:30s} {cost:.6g}")
    return summary


def compare(a_records: list[dict], b_records: list[dict], spec: dict) -> int:
    """Print the two-sided report; return the number of regressions."""
    regressions = 0
    a_all, b_all = group(a_records, 0, measured=False), group(b_records, 0, measured=False)
    a_e2e, b_e2e = group(a_records, 0), group(b_records, 0)
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a_all or name not in b_all:
            continue
        a, b = a_all[name], b_all[name]
        print(f"## {name}: {len(a)} vs {len(b)} runs")
        more_failures = failed_share(b) > failed_share(a)
        label = "regressed" if more_failures else "unchanged"
        regressions += more_failures
        print(f"{'failed / attempted':20s} A {sum(r['failed'] for r in a)} / "
              f"{sum(r['attempted'] for r in a)}  B {sum(r['failed'] for r in b)} / "
              f"{sum(r['attempted'] for r in b)}  {label}")
        if name not in a_e2e or name not in b_e2e:
            print("no run with metrics on one side")
            continue
        a, b = a_e2e[name], b_e2e[name]
        print(f"{'metric':20s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} "
              f"{'worse':>8s} {'bound':>6s}  verdict")
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            worse, label = verdict(a, b, metric, entry["better"], entry["bound"],
                                   more_failures)
            regressions += label == "regressed"
            ma, qa1, qa3 = stats(values(a, metric))
            mb, qb1, qb3 = stats(values(b, metric))
            print(f"{metric:20s} {ma:10.5g} [{qa1:9.5g}, {qa3:9.5g}] "
                  f"{mb:10.5g} [{qb1:9.5g}, {qb3:9.5g}] {worse:+8.1%} "
                  f"{entry['bound']:6.2f}  {label}")
        for q in ("p90", "p95", "p99"):
            ma, qa1, qa3 = stats(tails(a_e2e[name], q))
            mb, qb1, qb3 = stats(tails(b_e2e[name], q))
            print(f"{'latency_' + q + '_ms':20s} {ma:10.5g} [{qa1:9.5g}, {qa3:9.5g}] "
                  f"{mb:10.5g} [{qb1:9.5g}, {qb3:9.5g}] {(mb - ma) / ma:+8.1%} "
                  f"{'-':>6s}  (no bound)")

    a_tr, b_tr = group(a_records, 1), group(b_records, 1)
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in a_tr or name not in b_tr:
            continue
        a, b = a_tr[name], b_tr[name]
        ca, cb = layer_costs(a), layer_costs(b)
        total = (statistics.median(values(b, "span.ms_per_item"))
                 - statistics.median(values(a, "span.ms_per_item")))
        print(f"## {name} traced: ms per item {total:+.6g}; layers by share of it")
        deltas = sorted(((cb[k] - ca[k], k) for k in ca), key=lambda d: -abs(d[0]))
        for delta, layer in deltas[:12]:
            if delta:
                share = delta / total if total else 0.0
                print(f"  {layer:30s} {ca[layer]:10.5g} -> {cb[layer]:10.5g} "
                      f"({delta:+.4g}, {share:+.0%} of the change)")
        for metric in a[0]["metrics"]:
            if metric.startswith(("count.", "ratio.")) and metric != "ratio.sampler_overhead_pct" \
                    and metric != "count.samples":
                va, vb = sorted(set(values(a, metric))), sorted(set(values(b, metric)))
                if va != vb:
                    print(f"  changed {metric}: {va} -> {vb}")
        da = {k: v for r in a for k, v in r.get("digests", {}).items()}
        db = {k: v for r in b for k, v in r.get("digests", {}).items()}
        for key in sorted(set(da) & set(db)):
            if da[key] != db[key]:
                print(f"  changed digest {key}: {da[key]} -> {db[key]}")

    for label, records in (("A", a_records), ("B", b_records)):
        plain, traced = group(records, 0), group(records, 1)
        for name in traced:
            if name in plain:
                untraced = 1e3 / statistics.median(r["raw"]["items_per_s"] for r in plain[name])
                ratio = statistics.median(values(traced[name], "span.ms_per_item")) / untraced
                print(f"# {label} {name}: traced / untraced time per item {ratio:.3f}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="JSON-lines records of the parent (or the only side)")
    parser.add_argument("b", nargs="?", help="JSON-lines records of the change")
    parser.add_argument("--json", help="with one side: write its summary to this file")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.b is None:
        records = load(args.a)
        summary = summarize(records, spec)
        if args.json:
            out = {
                "env": records[0]["env"],
                "seconds": records[0]["seconds"],
                "seeds": sorted({r["seed"] for r in records}),
                "workloads": summary,
            }
            Path(args.json).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        return 0
    return 1 if compare(load(args.a), load(args.b), spec) else 0


if __name__ == "__main__":
    sys.exit(main())
