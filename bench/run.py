#!/usr/bin/env python3
"""smaselect benchmark: one workload in one fresh process.

Run from the repository root:

    python3 bench/run.py --workload paper-study --seed 7 --seconds 10 --trace 0

Workloads (defined in workloads.py): ``paper-study``, ``known-screen`` and
``derivative-power-2w``.  BENCHMARK.json gates the first two.
``derivative-power-2w`` runs the same way but is left out of the gated set:
its two worker threads need both vCPUs of a shared host at once, and the
host's slow spells on either one moved its median by up to 50% between runs
of the same code, more than the largest allowed bound.
The seed draws the data vectors; it defaults to the workload's own noise
seed, at which every selection is also compared with
``bench/reference/<workload>.json``.

``--trace 0`` measures the end-to-end metrics.  Set-up runs at least
``SETUP_REPS`` times and for at least ``SETUP_MIN_S`` seconds, and
``setup_s`` is the median; the last set-up then feeds data vectors one at a
time until ``--seconds`` have passed and at least ``MIN_VECTORS`` are done
(the paper's 100 replicates, and ten samples beyond p90).  ``wall_s`` is
the time to a finished study of the paper's size: ``setup_s`` plus
``MIN_VECTORS`` times the loop's mean time per vector.  Vector timings are
scaled to the host's reference speed by a kernel run between vectors
(``PROBE_SHARE`` of the timed work; see hostspeed.py); the raw ones are
reported as ``vector_p50_raw_s`` and so on, with the speed factor
``host_speed``.  Set-up times are raw.

``--trace 1`` measures the per-layer metrics.  It sets up once to warm up
(recording the tracemalloc peak of the family build), then sets up
untraced and traced, and runs a fixed ``trace_vectors`` vectors each
untraced and traced, so the counts repeat exactly and the traced/untraced
wall ratio is the tracing overhead.
Spans go to ``bench/out/trace-<workload>-seed<seed>.json``.

Every vector passes the correctness gate in ``workloads.py`` outside its
timing.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those BENCHMARK.json lists for the mode.  The line before it,
``detail: {...}``, adds the environment record, the vector count and the
metrics that are reported but not gated: ``failed_frac`` (zero when the
run is correct, so it cannot carry a relative bound), ``vector_p90_s``
(the host's swings move it by more than the largest allowed bound between
runs of the same code), ``wall_s`` (on known-screen it is mostly set-up,
whose raw time spread up to 0.2 between runs, and its parts ``setup_s`` and
the vector timings are gated themselves) and the raw timings.

``--record-reference`` rewrites the workload's reference file from the
current code at the default seed.
"""

import os

# Pinned before numpy loads, so the only threads are the program's workers.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "smaselect" / "__init__.py").is_file():
    sys.exit(f"run.py: no smaselect sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import smaselect  # noqa: E402
import workloads as W  # noqa: E402
from smaselect.errors import CalibrationWarning, TailTooDeepWarning  # noqa: E402
from hostspeed import REFERENCE_S, WINDOW_S, HostSpeed  # noqa: E402
from tracing import AllocProbe, Tracer, median  # noqa: E402

MIN_VECTORS = 100
SETUP_REPS = 3
SETUP_MIN_S = 3.0
PROBE_SHARE = 0.02  # of the timed work, spent timing the host-speed kernel
REFERENCE_DIR = BENCH / "reference"
OUT_DIR = BENCH / "out"
MAX_REPORTED_FAULTS = 10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
# The metrics of the last line; the rest are printed and kept in ``detail``.
GATED = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}


class Gate:
    """Counts attempted and failed vectors and keeps the first faults."""

    def __init__(self, ref: dict | None):
        self.ref = ref
        self.attempted = self.failed = 0
        self.faults: list[str] = []
        self.study_faults: list[str] = []

    def setup(self, ready: W.Ready) -> None:
        found = W.propagation_faults(ready)
        if not np.all(np.isfinite(W.thresholds(ready.family, ready.table))):
            found.append("non-finite known-noise threshold")
        if self.ref is not None:
            found += W.setup_reference_faults(ready, self.ref)
        self.study_faults += found

    def vector(self, ready: W.Ready, k: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            if not self.failed:
                traceback.print_exception(out, file=sys.stderr)
            found = [f"vector {k}: {type(out).__name__}: {out}"]
        else:
            found = W.vector_faults(ready, out)
            if self.ref is not None:
                found += W.reference_faults(ready, self.ref, k, out)
        if found:
            self.failed += 1
            self.faults += found

    @property
    def correct(self) -> bool:
        return not self.failed and not self.study_faults


def attempt(w, ready, y, k, call=W.plain):
    """One vector; an exception is a failed vector, not the end of the run."""
    try:
        return W.select(w, ready, y, k, call)
    except Exception as exc:
        return exc


def fresh_setup(w, call=W.plain):
    """Set-up from config, after releasing what the last one built."""
    gc.collect()
    t0 = perf_counter()
    ready = W.set_up(w, call)
    return ready, perf_counter() - t0


def loop_metrics(setup_s: float, times: list[float], suffix: str = "") -> dict:
    deciles = statistics.quantiles(times, n=10)
    return {
        f"vector_p50{suffix}_s": (statistics.median(times), "s"),
        f"vector_p90{suffix}_s": (deciles[8], "s"),
        f"vectors_per_s{suffix}": (len(times) / sum(times), "1/s"),
        f"wall{suffix}_s": (setup_s + MIN_VECTORS * statistics.fmean(times), "s"),
    }


def untraced(w: W.Workload, ys: np.ndarray, seconds: float, gate: Gate):
    """Vector timings scaled to the host's reference speed (see
    hostspeed.py), the raw ones reported with the suffix ``_raw``.  Set-up
    times stay raw: set-up is mostly LAPACK eigenvalue work, which the host's
    slow spells slow less than they slow the kernel, and scaling widened
    the spread of set-up times between runs."""
    setup_times = []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        ready = None
        ready, dt = fresh_setup(w)
        setup_times.append(dt)
    gate.setup(ready)
    setup_s = statistics.median(setup_times)

    speed = HostSpeed(PROBE_SHARE)
    raw: list[float] = []
    windows: list[int] = []
    start = perf_counter()
    while len(raw) < MIN_VECTORS or perf_counter() - start < seconds:
        k = len(raw) % w.pool
        t0 = perf_counter()
        out = attempt(w, ready, ys[k], k)
        t1 = perf_counter()
        raw.append(t1 - t0)
        windows.append(int((t1 - start) / WINDOW_S))
        speed.after(raw[-1], windows[-1])
        gate.vector(ready, k, out)
    times = [t * speed.factor(win) for t, win in zip(raw, windows)]

    metrics = {"setup_s": (setup_s, "s"), **loop_metrics(setup_s, times)}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics.update(loop_metrics(setup_s, raw, "_raw"))
    metrics["host_speed"] = (REFERENCE_S / speed.overall(), "ratio")
    return metrics, len(raw)


def traced(w: W.Workload, ys: np.ndarray, seed: int, gate: Gate):
    n = w.trace_vectors
    probe = AllocProbe("family.build")
    ready, _ = fresh_setup(w, probe.call)  # warm-up; tracemalloc only here
    ready = None
    ready, wall_plain = fresh_setup(w)
    ready = None
    gc.collect()

    tracer = Tracer()
    warned = clipped = 0

    def traced_call(name, fn, *args, vector=None):
        """Run ``fn`` in a root span; tally the warnings and clipped tails it leaves."""
        nonlocal warned, clipped
        before = len(caught)
        with tracer.span(name, vector=vector):
            out = fn(*args)
        warned += sum(
            issubclass(c.category, (CalibrationWarning, TailTooDeepWarning))
            for c in caught[before:]
        )
        table = out.table if isinstance(out, W.Ready) else getattr(out, "boot_table", None)
        if table is not None:
            clipped += len(table.tail_clipped)
        return out

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ready = traced_call("setup", W.set_up, w, tracer.call)
        gate.setup(ready)
        # Each vector runs untraced and traced back to back, in alternating
        # order, so drift in the host's speed hits both sides alike.
        for i in range(n):
            k = i % w.pool
            for trace_it in ((False, True) if i % 2 == 0 else (True, False)):
                if trace_it:
                    out = traced_call(
                        "vector", attempt, w, ready, ys[k], k, tracer.call, vector=i
                    )
                else:
                    t0 = perf_counter()
                    out = attempt(w, ready, ys[k], k)
                    wall_plain += perf_counter() - t0
                gate.vector(ready, k, out)
    loop_wall = sum(tracer.durations("vector"))
    wall_traced = sum(tracer.durations("setup")) + loop_wall
    calibrate = tracer.durations("bootstrap.calibrate")
    selector_calls = tracer.durations("selector.test_statistics") + tracer.durations(
        "selector.sma_select"
    )

    def total(name):
        return (sum(tracer.durations(name)), "s")

    def p50(name):
        return (median(tracer.durations(name)), "s")

    metrics = {
        "experiment.generate_scenario_s": total("experiment.generate_scenario"),
        "family.build_s": total("family.build"),
        "family.alloc_peak_mb": (probe.peak_bytes / 2**20, "MB"),
        "moments.all_pair_moments_s": total("moments.all_pair_moments"),
        "moments.pairs": (len(ready.table.moments), "count"),
        "calibration.sample_joint_draws_s": total("calibration.sample_joint_draws"),
        "calibration.draw_cells": (int(ready.draws.draws.size), "count"),
        "calibration.table_s": total("calibration.table"),
        "calibration.warnings": (warned, "count"),
        "calibration.tail_clipped": (clipped, "count"),
        "selector.oracle_s": total("selector.oracle"),
        "selector.payment_s": total("selector.payment"),
        "selector.test_statistics_p50_s": p50("selector.test_statistics"),
        "selector.sma_select_p50_s": p50("selector.sma_select"),
        "selector.calls": (len(selector_calls), "count"),
        "bootstrap.presmooth_p50_s": p50("bootstrap.presmooth"),
        "bootstrap.calibrate_p50_s": p50("bootstrap.calibrate"),
        "bootstrap.calibrate_busy_s": (sum(calibrate), "s"),
        "bootstrap.calls": (len(calibrate), "count"),
        "bootstrap.calibrate_share": (sum(calibrate) / loop_wall, "ratio"),
        "trace.overhead_frac": (wall_traced / wall_plain - 1.0, "ratio"),
    }
    tracer.write(
        OUT_DIR / f"trace-{w.name}-seed{seed}.json",
        {"workload": w.name, "seed": seed, "vectors": n},
    )
    width = max(map(len, tracer.self_times()))
    print("self time by span (traced pass):")
    for name, s in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<{width}}  {s:10.4f} s")
    return metrics, n


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def os_threads() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next(int(line.split()[1]) for line in status.splitlines() if line.startswith("Threads:"))


def environment(threads_after_import) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads_after_import": threads_after_import,
        "nproc": len(os.sched_getaffinity(0)),
    }


def record_reference(w: W.Workload) -> int:
    ready = W.set_up(w)
    ys = W.data_vectors(ready.scenario, w.default_seed, w.pool)
    outcomes = [W.select(w, ready, ys[k], k) for k in range(w.pool)]
    faults = W.propagation_faults(ready)
    for out in outcomes:
        faults += W.vector_faults(ready, out)
    if faults:
        print("\n".join(faults), file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{w.name}.json"
    path.write_text(json.dumps(W.reference_record(w, ready, outcomes)) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({w.pool} vectors)")
    return 0


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's noise seed")
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    threads_after_import = os_threads()
    args = parse(argv)
    if Path(smaselect.__file__).resolve().parent != SRC / "smaselect":
        sys.exit(f"run.py: imported smaselect from {smaselect.__file__}, not {SRC}")
    w = W.WORKLOADS[args.workload]
    warnings.simplefilter("ignore")  # the traced pass records them instead
    if args.record_reference:
        return record_reference(w)
    seed = w.default_seed if args.seed is None else args.seed

    ref = None
    if seed == w.default_seed:
        ref = json.loads((REFERENCE_DIR / f"{w.name}.json").read_text())
    gate = Gate(ref)
    ys = W.data_vectors(W.generate_scenario(w.config), seed, w.pool)  # before timing
    if args.trace:
        metrics, vectors = traced(w, ys, seed, gate)
    else:
        metrics, vectors = untraced(w, ys, args.seconds, gate)
    gate.study_faults += W.self_check_faults(w)

    faults = gate.study_faults + gate.faults
    for fault in faults[:MAX_REPORTED_FAULTS]:
        print(f"FAULT {fault}", file=sys.stderr)
    metrics["failed_frac"] = (gate.failed / gate.attempted, "ratio")
    print(f"{w.name}  seed={seed}  vectors={vectors}  trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6f} {unit}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {
        "workload": w.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "vectors": vectors,
        "faults": faults[:MAX_REPORTED_FAULTS],
        "reported": {k: v for k, v in as_json.items() if k not in GATED[args.trace]},
        "environment": environment(threads_after_import),
    }
    print("detail: " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {k: as_json[k] for k in GATED[args.trace]},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
