#!/usr/bin/env python3
"""The checks of CI's bench-smoke job, runnable locally.

    python3 scripts/ci_checks.py [NAME ...]

With no NAME, runs every check in CI's order and stops at the first that fails.  One NAME runs in
this process, several each in a process of their own, since some checks patch library functions,
read ``tracemalloc`` or count the draw helper's threads.  Needs smaselect installed, as CI installs
it (``pip install -e .``, which puts ``sma`` on the path).  Works in the repository root and writes
under ``sma_out/`` (the bench under ``bench/out/``); a check that reads another's files names it.
"""

import csv
import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from smaselect import calibrate, calibration, calibration_table, cli, power_loss_params, presmooth
from smaselect import propagation_failures, sample_draws
from smaselect.errors import ConfigInvalid
from smaselect.experiment import ExperimentConfig, Study, replicate, run_comparison
from smaselect.family import pair_order
from smaselect.io import load_table
from smaselect.moments import best_linear_coefficients, pair_traces, single_traces

ROOT = Path(__file__).resolve().parents[1]
NOISES = ("known", "bootstrap")
CHECKS = {}


def check(fn):
    """Register ``fn`` as the check named after it, run after those registered before it."""
    CHECKS[fn.__name__] = fn
    return fn


def sma(*argv, code=0) -> str:
    """Run the CLI, require exit code ``code`` and return its stderr (echoed)."""
    run = subprocess.run(["sma", *argv], stderr=subprocess.PIPE, text=True)
    sys.stderr.write(run.stderr)
    assert run.returncode == code, (argv, run.returncode)
    return run.stderr


def sma_each_noise(*argv):
    """Run the CLI once per noise, with ``{noise}`` in ``argv`` replaced by its name."""
    for noise in NOISES:
        sma(*(arg.format(noise=noise) for arg in argv))


def python(*argv) -> str:
    """Run a Python script, require exit code 0 and return its stdout (echoed)."""
    run = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True)
    print(run.stdout, end="")
    assert run.returncode == 0, argv
    return run.stdout


def bench(*argv):
    """Run the bench for a second: it exits 0, and its last line's JSON reads ``"correct": true``."""
    stdout = python("bench/run.py", *argv, "--seconds", "1")
    assert json.loads(stdout.splitlines()[-1])["correct"] is True, argv


def two_workers(out, file, *argv):
    """Run the CLI at one and two workers, into ``{out}-w1`` and ``{out}-w2``: both write the
    same ``file``."""
    for w in ("1", "2"):
        sma(*argv, "--workers", w, "--out", f"{out}-w{w}")
    assert Path(f"{out}-w1/{file}").read_bytes() == Path(f"{out}-w2/{file}").read_bytes(), (out, file)


def write_json(path, value):
    Path(path).write_text(json.dumps(value))


def grep(pattern, *paths) -> list[tuple[str, int, str]]:
    """Each ``(file, line number, line)`` that ``pattern`` matches in the files the glob ``paths``
    name, directories searched recursively, as ``grep -rn`` finds them."""
    named = [p for path in paths for p in sorted(Path().glob(path))]
    files = [f for p in named for f in (sorted(p.rglob("*")) if p.is_dir() else [p]) if f.is_file()]
    return [(str(f), i, line) for f in files
            for i, line in enumerate(f.read_text(errors="replace").splitlines(), 1)
            if re.search(pattern, line)]


def absent(pattern, *paths):
    assert not (found := grep(pattern, *paths)), found


def default_study(**fields):
    """Study, family and config of sma's default config (n = 200, with ``fields``), and data
    vector 0's residuals off the pilot."""
    study = Study.of(ExperimentConfig(n=200, **fields).validate())
    family, c = study.family, study.config
    return study, family, c, presmooth(family, study.data(0), c.m_dagger)


def same(table, want, *tag):
    """``table`` is ``want``, bit for bit: ranks, draws, clipped pairs, thresholds and dimensions."""
    assert table.ranks == want.ranks and (table.n_sim, table.seed) == (want.n_sim, want.seed), tag
    assert table.tail_clipped == want.tail_clipped, tag
    for key in ("critical", "pair_dims"):
        mine, theirs = getattr(table, key), getattr(want, key)
        assert mine.order is theirs.order and mine.array.tobytes() == theirs.array.tobytes(), (*tag, key)


def select_both(config, out, self_test=True, models=None):
    """For both noises on ``config``: the self-test in both modes unless not ``self_test``, and
    select, whose ``{out}-select-{noise}/selection.json`` records every canonical pair and every
    model (``models``, or those in the run's meta.json), and the smallest accepted model as m_hat."""
    for noise in NOISES:
        argv = ["--noise", noise, "--config", config]
        if self_test:
            sma("calibrate", "--self-test", *argv, "--out", f"{out}-{noise}")
            sma("calibrate", "--self-test", *argv, "--mode", "power", "--a", "1", "--out", f"{out}-{noise}-power")
        sma("select", *argv, "--out", f"{out}-select-{noise}")
        listed = models or json.load(open(f"{out}-select-{noise}/meta.json"))["config"]["models"]
        pairs = {f"{m}:{r}" for i, r in enumerate(listed) for m in listed[i + 1 :]}
        selection = json.load(open(f"{out}-select-{noise}/selection.json"))
        assert set(selection["stats"]) == pairs, noise
        assert sorted(map(int, selection["accepted"])) == sorted(listed), noise
        assert selection["m_hat"] == min(int(m) for m, ok in selection["accepted"].items() if ok), noise


# The checks that are one call: name -> (docstring, function, its arguments split at spaces).
CALLS = {
    "known_screen": ("Known-noise screen, checked against the recorded selections.",
                     bench, "--workload known-screen"),
    "known_screen_seed1": ("Known-noise screen at a seed the recorded selections do not hold (one-row "
                           "statistics pass, structural checks only).", bench, "--workload known-screen --seed 1"),
    "known_screen_trace": ("Known-noise screen traced per layer (times the window-eigenproblem pair "
                           "moments), checked against the recorded selections.",
                           bench, "--workload known-screen --trace 1"),
    "paper_study": ("Paper study, checked against the recorded selections and multiplier thresholds.",
                    bench, "--workload paper-study"),
    "paper_study_seed1": ("Paper study at a seed the recorded selections do not hold (per-reference tail "
                          "selection, structural checks only).", bench, "--workload paper-study --seed 1"),
    "paper_study_trace": ("Paper study traced per layer, checked against the recorded selections and "
                          "multiplier thresholds.", bench, "--workload paper-study --trace 1"),
    "derivative_power_2w": ("Derivative loss in power-loss mode (the workload's n_workers=2 is recorded but "
                            "sets no table's threads), checked against the recorded selections and multiplier "
                            "thresholds.", bench, "--workload derivative-power-2w"),
    "noise4_workers": ("The yardstick config (the paper config with noise x 4, whose selections spread over "
                       "5-12) writes the same results at one and two workers.",
                       two_workers, "sma_out/noise4 results.csv simulate --config configs/paper-noise4.json"),
    "power_self_test": ("CLI calibration self-test in power-loss mode (per-pair propagation check), known "
                        "noise and multiplier.", sma_each_noise,
                        "calibrate --self-test --noise {noise} --mode power --a 1 --out sma_out/{noise}-power"),
    "bounds_check": ("CLI Monte-Carlo falsification of the quadratic-form tail bounds exits 0 (no "
                     "violations).", sma, "bounds-check --out sma_out/bounds"),
    "quick_study": ("Quick paper study end to end (simulate, ratios, sweep, diagnose).",
                    python, "scripts/run_paper_sim.py --quick --workers 2 --out sma_out/quick"),
    "ratios": ("Ratios over three pilot dimensions on the quick config (one known table, one multiplier "
               "table per pilot).  Reads quick_study's config.",
               sma, "ratios --config sma_out/quick/config.json --out sma_out/quick-ratios --m-dagger-list 9,12,15"),
}
for name, (doc, fn, args) in CALLS.items():
    CHECKS[name] = partial(fn, *args.split())


@check
def self_test():
    """CLI calibration self-test on the default paper config, known noise and multiplier, each
    table recording an integer rank in [1, n_sim] per reference, loading back to the same dict,
    refused with a bogus mode, a string x_level or a dropped rank, failing the self-test (which
    streams the table's own draws from its noise scale) on the pair whose threshold is nudged by
    one ulp either way, and on reference 1 when its rank is raised by one with its thresholds
    rebuilt there from sample_draws' matrix; no rounding allowance (TAIL_ULPS) is left in src/, and
    the max-T rank builds no index array (no argpartition or argsort in calibration.py)."""
    sma_each_noise("calibrate", "--self-test", "--noise", "{noise}", "--out", "sma_out/{noise}")
    # The draws each table was built on: sma's default config, data vector 0.
    study, family, c, resid = default_study()
    scales = {"known": np.sqrt(study.scenario.sigma.variances), "bootstrap": resid}
    seeds = {"known": c.seeds.calibration, "bootstrap": c.seeds.bootstrap}
    for noise in NOISES:
        path = f"sma_out/{noise}/calibration.json"
        table = json.load(open(path))
        ranks = table["ranks"]
        assert ranks and all(type(k) is int and 1 <= k <= table["n_sim"] for k in ranks.values()), (noise, ranks)
        assert load_table(path).to_dict() == table, noise
        dropped = dict(list(ranks.items())[1:])
        for key, bad in (("mode", "bogus"), ("x_level", "2"), ("ranks", dropped)):
            write_json("sma_out/bad-table.json", table | {key: bad})
            try:
                load_table("sma_out/bad-table.json")
            except ConfigInvalid as exc:
                assert f"'{key}'" in str(exc), (noise, key, exc)
            else:
                raise AssertionError(f"{noise}: a table with a bad {key} loaded")
        saved = load_table(path)
        assert propagation_failures(family, scales[noise], saved) == [], noise
        pair = (7, 3)
        for direction in (math.inf, -math.inf):
            nudged = math.nextafter(saved.critical[pair], direction)
            mutant = dataclasses.replace(saved, critical={**saved.critical, pair: nudged})
            failures = propagation_failures(family, scales[noise], mutant)
            assert failures and all(f.startswith(f"pair {pair}:") for f in failures), failures
        # Every threshold rebuilt at reference 1's rank plus one still
        # meets the level, but that rank is not the smallest that does.
        k = saved.ranks[1] + 1
        draws = sample_draws(family, scales[noise], c.n_sim, seeds[noise])
        matrix, index = draws.draws, draws.order.index
        rebuilt = {
            p: float(np.sort(matrix[:, index[p]])[k - 1])
            + saved.alpha_plus * math.sqrt(saved.pair_dims[p])
            for p in draws.comparisons(1)
        }
        raised = dataclasses.replace(
            saved, ranks={**saved.ranks, 1: k}, critical={**saved.critical, **rebuilt}
        )
        failures = propagation_failures(family, scales[noise], raised)
        assert failures and all(f.startswith("reference 1's") for f in failures), failures
    absent("TAIL_ULPS", "src")
    absent("argpartition|argsort", "src/smaselect/calibration.py")


@check
def self_test_rss():
    """The calibration self-test streams its table's own draws, so on the paper config at n_sim =
    20,000 it passes for known noise and multiplier in both modes with a peak RSS of at most 66 MB
    (os.wait4 on the child; 61.7-62.0 MB with the window sums recursing in the step weights' own
    buffer, 67.3-67.7 MB with a second models x n_sim buffer; rebuilding the 666 x 20,000 draw
    matrix took 152-153 MB), and the CLI names no sample_draws."""
    write_json("sma_out/paper-20k.json", dict(json.load(open("configs/paper.json")), n_sim=20_000))
    for noise in NOISES:
        for mode in ("prob", "power"):
            argv = ["sma", "calibrate", "--self-test", "--noise", noise, "--mode", mode, "--a", "1",
                    "--config", "sma_out/paper-20k.json", "--out", f"sma_out/paper-20k-{noise}-{mode}"]
            child = subprocess.Popen(argv)
            _, status, usage = os.wait4(child.pid, 0)
            peak = usage.ru_maxrss / 1024  # kB on Linux
            print(f"{noise}, {mode}: exit {os.waitstatus_to_exitcode(status)}, peak RSS {peak:.1f} MB")
            assert os.waitstatus_to_exitcode(status) == 0, (noise, mode)
            assert peak <= 66, (noise, mode, peak)
    absent("sample_draws", "src/smaselect/cli.py")


@check
def table_memory():
    """A multiplier table on the paper config at n_sim = 20,000 holds no draw matrix and no second
    buffer of step weights (tracemalloc peak below 15 MB: 12.1 MB, and 18.0 MB with a second models
    x n_sim buffer, where the 666 x 20,000 matrix alone is 107 MB) and equals, bit for bit, the
    table built on sample_draws' matrix, at n_sim = 1000 and 20,000, at x = 0.5, 2 and 4 and in
    power-loss mode; each table's band misses (rank searches redone from the rank of x, the
    one-comparison last reference's included) are printed; on a random design with full-vector
    loss (no increments, so calibrate reads rows of the squared draws) the table equals the one on
    sample_draws' matrix at n_sim = 1000 in both modes, its tracemalloc peak printed; the per-pair
    running sums, their step layout and the by-length windows are gone from src/."""
    study, family, c, resid = default_study()
    tracemalloc.start()
    table = calibrate(family, resid, 20_000, c.seeds.bootstrap, c.x_level, c.alpha_plus)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"tracemalloc peak {peak / 1e6:.1f} MB")
    assert peak < 15e6, peak
    dims = pair_traces(family, resid * resid)
    power = power_loss_params(family.models, single_traces(family, resid * resid), 1.0)
    # Every partial selection but one per reference is a band miss's redo.
    partition, partitions = np.partition, [0]
    np.partition = lambda *a, **k: partitions.__setitem__(0, partitions[0] + 1) or partition(*a, **k)
    warnings.simplefilter("ignore")  # power-loss levels past log(n_sim) clip by design
    for n_sim in (c.n_sim, 20_000):
        draws = sample_draws(family, resid, n_sim, c.seeds.bootstrap)
        for mode, x, levels in [("probabilistic", x, x) for x in (0.5, 2.0, 4.0)] + [("power_loss", 0.0, power)]:
            partitions[0] = 0
            table = calibrate(family, resid, n_sim, c.seeds.bootstrap, x, c.alpha_plus, mode, power_a=1.0)
            print(f"n_sim {n_sim}, {mode}, x = {x}: {partitions[0] - len(table.ranks)} band misses")
            same(table, calibration_table(draws, dims, c.alpha_plus, levels), n_sim, mode, x)
    study, family, c, resid = default_study(random_design=True, weighting="full_vector")
    assert family.increments is None
    dims = pair_traces(family, resid * resid)
    power = power_loss_params(family.models, single_traces(family, resid * resid), 1.0)
    draws = sample_draws(family, resid, c.n_sim, c.seeds.bootstrap)
    for mode, levels in (("probabilistic", c.x_level), ("power_loss", power)):
        tracemalloc.start()
        table = calibrate(family, resid, c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus, mode, power_a=1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"random design, full-vector loss, n_sim {c.n_sim}, {mode}: tracemalloc peak {peak / 1e6:.2f} MB")
        same(table, calibration_table(draws, dims, c.alpha_plus, levels), "random design", mode)
    absent(r"_running_sums|_step_order|order\.windows", "src")


@check
def chunks():
    """The sampler draws each 512-row block's normals in 32-row chunks of one reused buffer per
    thread (the caller's, and the draw helper's when it joins a lone draw of several blocks), so
    the calibration self-test passes in both noises at n_sim = 1100 (three blocks, the helper's
    path; a short last block of 76 rows, 32 + 32 + 12), and one multiplier table on the default
    config, its layouts cached, peaks below 1.5 MB under tracemalloc (a 512 x n block of normals
    per stream block took 2.06 MB)."""
    write_json("sma_out/chunks.json", {"n": 200, "n_sim": 1100})
    sma_each_noise("calibrate", "--self-test", "--noise", "{noise}", "--config", "sma_out/chunks.json",
                   "--out", "sma_out/chunks-{noise}")
    study, family, c, resid = default_study()
    calibrate(family, resid, c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus)  # fills the layout caches
    tracemalloc.start()
    calibrate(family, resid, c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"tracemalloc peak {peak / 1e6:.2f} MB")
    assert peak < 1.5e6, peak


@check
def exceedance_counts():
    """Each reference's max-T rank is searched from the previous reference's rank, so a multiplier
    table on the paper config (data vectors 0-2, x = 2) counts family-wise exceedances fewer than
    195 times (a search from scratch per reference took 250-252) and equals, bit for bit, the table
    built on sample_draws' matrix."""
    study, family, c, _ = default_study()
    assert c.x_level == 2.0, c.x_level
    count, exceeding = [0], calibration._exceeding
    calibration._exceeding = lambda block, z: count.__setitem__(0, count[0] + 1) or exceeding(block, z)
    for v in range(3):
        resid = presmooth(family, study.data(v), c.m_dagger)
        count[0] = 0
        table = calibrate(family, resid, c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus)
        print(f"data vector {v}: {count[0]} exceedance counts")
        assert count[0] < 195, (v, count[0])
        draws = sample_draws(family, resid, c.n_sim, c.seeds.bootstrap)
        same(table, calibration_table(draws, pair_traces(family, resid * resid), c.alpha_plus, c.x_level), v)


@check
def one_pilot_basis():
    """On the paper config (an increments family) the traces read the one-row trace root and
    presmoothing the family's one pilot basis, so presmoothing and calibrating data vectors 0-2 make
    no np.linalg.qr call and one SVD of the pilot block, and each table equals, bit for bit, the
    table built on sample_draws' matrix with pair_traces' dimensions."""
    study = Study.of(ExperimentConfig.from_dict(json.load(open("configs/paper.json"))))
    family, c = study.family, study.config
    assert family.increments is not None and not family.pilots
    calls = dict.fromkeys(("qr", "svd"), 0)
    for name in calls:
        real = getattr(np.linalg, name)
        setattr(np.linalg, name, lambda *a, name=name, real=real, **k: calls.__setitem__(name, calls[name] + 1) or real(*a, **k))
    tables = []
    for v in range(3):
        resid = presmooth(family, study.data(v), c.m_dagger)
        tables.append((resid, calibrate(family, resid, c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus)))
    print(f"data vectors 0-2: {calls['qr']} QR and {calls['svd']} SVD calls")
    assert calls == {"qr": 0, "svd": 1}, calls
    for v, (resid, table) in enumerate(tables):
        draws = sample_draws(family, resid, c.n_sim, c.seeds.bootstrap)
        same(table, calibration_table(draws, pair_traces(family, resid * resid), c.alpha_plus, c.x_level), v)


@check
def workers():
    """A multiplier table is byte-identical at one and two workers; the library holds two thread
    pools, simulate's replicate pool, built once for every worker count, and calibration's one draw
    helper, whose one thread three lone tables start and which, after them and a two-worker
    simulate, is free and leaves no thread marked as inside calibrate; and writes the same
    quick-config results at one and two workers; the replicate body is the module-level
    experiment.replicate (no run_rep closure), whose partial pickles and reproduces the quick
    config's records."""
    two_workers("sma_out/bootstrap", "calibration.json", "calibrate", "--noise", "bootstrap")
    pools = sorted({file for file, _, _ in grep("ThreadPoolExecutor", "src/smaselect/*.py")})
    assert pools == ["src/smaselect/calibration.py", "src/smaselect/experiment.py"], pools
    assert len(grep(r"ThreadPoolExecutor\(", "src/smaselect/calibration.py")) == 1
    assert len(grep(r"ThreadPoolExecutor\(", "src/smaselect/experiment.py")) == 1
    study, family, c, _ = default_study()
    for v in range(3):
        calibrate(family, presmooth(family, study.data(v), c.m_dagger), c.n_sim, c.seeds.bootstrap, c.x_level, c.alpha_plus)
    helpers = [t.name for t in threading.enumerate() if t.name.startswith("smaselect-draw")]
    print(f"draw-helper threads: {helpers}")
    assert len(helpers) == 1, helpers
    argv = ["--config", "configs/quick.json", "--workers", "2", "--out", "sma_out/quick-helper-w2"]
    assert cli.main(["simulate", *argv]) == 0
    assert not calibration._TABLES, calibration._TABLES
    assert calibration._HELPER.submit(int).result(timeout=10) == 0
    absent("n_workers > 1", "src/smaselect/*.py")
    two_workers("sma_out/quick-pool", "results.csv", "simulate", "--config", "configs/quick.json")
    absent("def run_rep", "src/smaselect/*.py")
    cfg = ExperimentConfig.from_dict(json.load(open("configs/quick.json")))
    result, study = run_comparison(cfg), Study.of(cfg)
    target = study.family.weight_matrix @ best_linear_coefficients(study.family, study.scenario.f_true)
    body = partial(replicate, study, result.known_table, result.oracle_report.m_star, target)
    assert list(map(pickle.loads(pickle.dumps(body)), range(cfg.n_hist))) == result.records


@check
def diagnose():
    """CLI validity diagnostics on the default paper config (low-rank path); with noise 1e-150 a term
    overflows the floats and the run exits 5 without a traceback; no test oracle is defined in
    src/."""
    sma("diagnose", "--validate", "--out", "sma_out/diagnose")
    write_json("sma_out/tiny-noise.json", {
        "n": 40, "p_max": 12, "models": [1, 2, 3, 4, 5, 6], "m_dagger": 5, "n_sim": 200, "n_hist": 3,
        "noise_profile": {"kind": "constant", "sigma": 1e-150},
    })
    err = sma("diagnose", "--validate", "--config", "sma_out/tiny-noise.json", "--out", "sma_out/tiny-noise",
              code=5)
    assert re.search("^non-finite input: ", err, re.M) and "Traceback" not in err, err
    absent(r"def (tail_quantile|excess_risk_mc|risk_profile|aic_equivalence_check|check_ordering)", "src")


@check
def quick_records():
    """Quick paper study keeps simulate's oracle record, and meta.json holds only the config and
    versions.  Reads quick_study's output."""
    oracle = json.load(open("sma_out/quick/oracle.json"))
    m_oracle = {int(row["m_oracle"]) for row in csv.DictReader(open("sma_out/quick/results.csv"))}
    assert m_oracle == {oracle["m_star"]}, (m_oracle, oracle)
    meta = json.load(open("sma_out/quick/meta.json"))
    assert set(meta) == {"config", "versions"}, sorted(meta)


@check
def warning_format():
    """CLI warnings print as category and message, without a source path (level 8 asks past
    log(n_sim) on the quick config, so the table clips pairs by design), and the clipped pairs are
    exactly those whose reference takes rank n_sim.  Reads quick_study's config."""
    write_json("sma_out/quick-level-8.json", dict(json.load(open("sma_out/quick/config.json")), x_level=8))
    err = sma("calibrate", "--noise", "known", "--config", "sma_out/quick-level-8.json",
              "--out", "sma_out/known-warning")
    assert re.search("^TailTooDeepWarning: .*clipped", err, re.M) and not re.search(r"\.py:", err), err
    table = json.load(open("sma_out/known-warning/calibration.json"))
    top = {m_ref for m_ref, k in table["ranks"].items() if k == table["n_sim"]}
    at_top = [pair for pair in table["critical"] if pair.split(":")[1] in top]
    assert table["tail_clipped"], table["tail_clipped"]
    assert sorted(table["tail_clipped"]) == sorted(at_top), (table["tail_clipped"], at_top)


@check
def quick_power():
    """Quick config in power-loss mode through simulate (the one CLI path to the power-loss payment
    cap) writes every replicate and a finite payment and cap.  Reads quick_study's config."""
    sma("simulate", "--mode", "power", "--a", "1", "--config", "sma_out/quick/config.json",
        "--out", "sma_out/quick-power")
    n_hist = json.load(open("sma_out/quick/config.json"))["n_hist"]
    rows = list(csv.DictReader(open("sma_out/quick-power/results.csv")))
    assert len(rows) == n_hist, (len(rows), n_hist)
    oracle = json.load(open("sma_out/quick-power/oracle.json"))
    assert math.isfinite(oracle["z_bar"]) and math.isfinite(oracle["z_bar_theory"]), oracle


@check
def select():
    """CLI select starts from simulate's study (data vector 0 is rep 0 of the quick results.csv),
    and a one-model config selects and sweeps but refuses ratios.  Reads quick_study's output."""
    sma_each_noise("select", "--noise", "{noise}", "--config", "sma_out/quick/config.json",
                   "--out", "sma_out/quick-select-{noise}")
    rep0 = next(csv.DictReader(open("sma_out/quick/results.csv")))
    assert rep0["rep"] == "0", rep0
    for noise, column in (("known", "m_sma_known"), ("bootstrap", "m_sma_boot")):
        m_hat = json.load(open(f"sma_out/quick-select-{noise}/selection.json"))["m_hat"]
        assert m_hat == int(rep0[column]), (noise, m_hat, rep0)
    write_json("sma_out/one-model.json",
               {"n": 60, "p_max": 20, "models": [5], "m_dagger": 5, "n_sim": 200, "n_hist": 3})
    sma_each_noise("select", "--noise", "{noise}", "--config", "sma_out/one-model.json", "--out", "sma_out/one-model")
    sma("sweep", "--config", "sma_out/one-model.json", "--out", "sma_out/one-model", "--m-dagger-list", "3,5")
    sma("ratios", "--config", "sma_out/one-model.json", "--out", "sma_out/one-model-ratios", code=2)


@check
def degenerate():
    """Degenerate data (signal inside the pilot span, noise 1e-13) stop the multiplier path with a
    numeric failure, and the sweep records it per pilot."""
    write_json("sma_out/degenerate.json", {
        "n": 60, "p_max": 20, "models": list(range(1, 9)), "m_dagger": 5, "n_sim": 200, "n_hist": 3,
        "coefficient_rule": {"kind": "explicit", "values": [1.0, 0.5, -0.3]},
        "noise_profile": {"kind": "explicit", "values": [1e-13] * 60},
    })
    err = sma("select", "--noise", "bootstrap", "--config", "sma_out/degenerate.json",
              "--out", "sma_out/degenerate-select", code=3)
    assert "numeric failure: presmoothing left no residual signal" in err.splitlines(), err
    sma("sweep", "--config", "sma_out/degenerate.json", "--out", "sma_out/degenerate-sweep")
    assert re.search(",AllZeroResiduals$", Path("sma_out/degenerate-sweep/sweep.csv").read_text(), re.M)


@check
def derivative_workers():
    """Derivative-loss demo (configs/derivative.json) writes the same results at one and two
    workers, and no script defines a config of its own."""
    two_workers("sma_out/derivative", "results.csv", "simulate", "--config", "configs/derivative.json")
    absent('"seed[s]"', "scripts")  # [s]: the pattern does not match its own line


@check
def derivative_select():
    """CLI select on the derivative demo's config with both noise sources records every canonical
    pair and every model, and the smallest accepted model as m_hat."""
    config = "configs/derivative.json"
    select_both(config, "sma_out/derivative", self_test=False, models=json.load(open(config))["models"])


@check
def gram():
    """Gram route end to end (full-vector loss on a random design keeps no increments), calibration
    self-test in both modes and select with both noise sources records every canonical pair and
    every model, and the smallest accepted model as m_hat."""
    write_json("sma_out/gram.json", {"n": 200, "weighting": "full_vector", "random_design": True})
    assert Study.of(ExperimentConfig.from_dict(json.load(open("sma_out/gram.json")))).family.increments is None
    select_both("sma_out/gram.json", "sma_out/gram")


@check
def gaps():
    """Model list with gaps (a model step spans several coordinates, so a window's coordinate width
    differs from its step count), calibration self-test in both modes and select with both noise
    sources records every canonical pair and every model, and the smallest accepted model as m_hat,
    the known statistics bit-equal to the block kernel's row of data vector 0."""
    config = {"n": 120, "p_max": 40, "models": [1, 3, 6, 10, 15, 21], "m_dagger": 10, "n_sim": 600}
    write_json("sma_out/gaps.json", config)
    study = Study.of(ExperimentConfig.from_dict(config))
    assert study.family.increments is not None
    select_both("sma_out/gaps.json", "sma_out/gaps", models=config["models"])
    # The CLI's one-data-vector statistics equal, bit for bit, data
    # vector 0's row of the block kernel (B = 1, the by-length loop).
    family, order = study.family, pair_order(study.family.models)
    block = np.sqrt(family.pair_squares(family.reduce(study.data(0))[None], order)[:, 0])
    expected = {f"{m}:{r}": float(t) for (m, r), t in zip(order.pairs, block)}
    assert json.load(open("sma_out/gaps-select-known/selection.json"))["stats"] == expected


@check
def deleted_names():
    """No deleted noise constructor, family attribute or singular-Gram model attribute is left in
    src/, scripts/ or README."""
    # [t] and [q]: the pattern does not match its own line.
    absent(r"NoiseSpec\.(known|homogeneous)|rank_deficien[t]|def [q]\b|self\.model\b",
           "src", "scripts", "README.md")


def main(names) -> int:
    if unknown := [name for name in names if name not in CHECKS]:
        sys.exit(f"no check named {' '.join(unknown)}; the checks, in CI's order: {' '.join(CHECKS)}")
    os.chdir(ROOT)
    Path("sma_out").mkdir(exist_ok=True)
    if len(names) == 1:
        CHECKS[names[0]]()
        return 0
    for name in names or CHECKS:
        if code := subprocess.run([sys.executable, __file__, name]).returncode:
            print(f"{name} failed", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
