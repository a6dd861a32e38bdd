#!/usr/bin/env python3
"""Run benchmark workloads, each in a fresh process, and collect a result set.

    python3 bench/suite.py                 # the BENCHMARK.json workloads, once each
    python3 bench/suite.py --workloads paper-study,known-screen,derivative-power-2w
    python3 bench/suite.py --runs 10 --seed 100 --out bench/out/a.json
    python3 bench/suite.py --trace 1 --workloads paper-study

Run ``r`` of every workload uses seed ``--seed + r`` (without ``--seed``:
the workload's own seed, where the reference check applies).  The order of
the workloads alternates from run to run.  For each workload and metric it
prints the median, the quartiles and the spread (quartile distance over
median) next to the bound in BENCHMARK.json; ``!`` marks a spread above a
third of the bound.  ``--out`` writes the result set that bench/compare.py
reads: the environment record plus every run's seed, vector count and
metrics.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import by_workload, load_benchmark, quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail: "):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    run = dict(json.loads(lines[-2][len("detail: "):]), elapsed_s=elapsed, **result)
    run["metrics"].update(run.pop("reported"))
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(GATED), help="names known to run.py")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    names = args.workloads.split(",")

    runs = []
    for r in range(args.runs):
        seed = None if args.seed is None else args.seed + r
        for name in names if r % 2 == 0 else names[::-1]:
            run = run_once(name, seed, args.seconds, args.trace)
            runs.append(run)
            print(
                f"run {r} {name} seed={run['seed']} vectors={run['vectors']} "
                f"correct={run['correct']} failed={run['failed']}/{run['attempted']} "
                f"({run['elapsed_s']:.1f} s)",
                flush=True,
            )

    result_set = {
        "environment": runs[0]["environment"],
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }
    specs = load_benchmark()
    for workload, metrics in by_workload(result_set).items():
        own = [r for r in runs if r["workload"] == workload]
        print(
            f"\n{workload}: {len(own)} run(s), seeds {[r['seed'] for r in own]}, "
            f"vectors {[r['vectors'] for r in own]}"
        )
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            s = spread(values)
            mark = "!" if bound is not None and s > bound / 3 else " "
            unit = own[0]["metrics"][name]["unit"]
            print(
                f"  {name:<32} {med:14.6g} {unit:<6} [{q1:.6g}, {q3:.6g}]  "
                f"spread {s:7.4f}{mark}" + (f" bound {bound:.2f}" if bound is not None else "")
            )
    print(f"\nenvironment: {json.dumps(result_set['environment'])}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
