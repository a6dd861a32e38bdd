#!/usr/bin/env python3
"""Compare two result sets written by bench/suite.py, metric by metric.

    python3 bench/compare.py bench/out/parent.json bench/out/change.json

Runs are paired by their order within each workload.  For every workload
and metric it prints each side's median and quartiles, how many pairs the
second side wins (ties count for neither), and a verdict:

- ``gain``: the second side wins at least 9/10 of the pairs and the medians
  differ by more than the first side's quartile distance.
- ``regression``: the second median is worse than the first by more than
  the metric's bound in BENCHMARK.json.
- ``unresolved``: a side's quartile distance exceeds the bound, and not
  every second run beats every first run.
- ``same``: none of these.

Metrics without a bound (per-layer, and those reported but not gated) get
``gain`` or ``-``.  Exits 1 when any metric is a regression or unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# Metrics a run reports without gating them (failed_frac, vector_p90_s,
# wall_s, the raw timings and host_speed): lower is better unless listed.
REPORTED = {"better": "lower"}
REPORTED_HIGHER = {"vectors_per_s_raw", "host_speed"}


def load_benchmark() -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json (end-to-end and per-layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_workload(result_set: dict) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for run in result_set["runs"]:
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def verdict(a: list[float], b: list[float], spec: dict) -> tuple[str, int, int]:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    if wins >= WIN_SHARE * len(pairs) and sign * (mb - ma) > qa3 - qa1:
        return "gain", wins, len(pairs)
    bound = spec.get("bound")
    if bound is None:
        return "-", wins, len(pairs)
    if sign * (ma - mb) > bound * abs(ma):
        return "regression", wins, len(pairs)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=Path, help="result set of the parent (or first) runs")
    ap.add_argument("second", type=Path, help="result set of the change (or second) runs")
    args = ap.parse_args(argv)
    specs = load_benchmark()
    first = by_workload(json.loads(args.first.read_text()))
    second = by_workload(json.loads(args.second.read_text()))

    bad = 0
    header = (
        f"{'metric':<32} {'first median [q1, q3]':>36} {'second median [q1, q3]':>36}"
        f" {'wins':>6} {'bound':>6}  verdict"
    )
    for workload in sorted(set(first) & set(second)):
        print(f"\n{workload}\n{header}")
        for name in first[workload]:
            a, b = first[workload][name], second[workload].get(name)
            if not b:
                continue
            spec = specs.get(name) or (
                {"better": "higher"} if name in REPORTED_HIGHER else REPORTED
            )
            v, wins, n = verdict(a, b, spec)
            bad += v in ("regression", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            bound = f"{spec['bound']:.2f}" if "bound" in spec else "-"
            print(
                f"{name:<32} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(69)
                + f" {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(37)
                + f" {wins:>2}/{n:<3} {bound:>6}  {v}"
            )
    print(f"\n{bad} metric(s) regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
