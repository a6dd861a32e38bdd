"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them inline) and enforces its stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from smaselect import (
    DesignMatrix,
    NoiseSpec,
    bootstrap_calibrate,
    build_projection_family,
    critical_values,
    oracle,
    payment_for_adaptation,
    presmooth,
    sample_joint_draws,
    validity_diagnostics,
)
from smaselect.calibration import power_loss_params
from smaselect.cli import bounds_check_grid, main as cli_main
from smaselect.experiment import fourier_values
from smaselect.family import pair_order
from smaselect.moments import all_pair_moments, pair_traces
from smaselect.rng import stream
from conftest import orthonormal_rows_design
from reference import prediction_weights
from reference import (
    aic_equivalence_check,
    column,
    joint_norms_from_noise,
    correction_rank,
    excess_risk_mc,
    multiplier_draws,
    pair_operator,
    pair_variance,
    sample_in_order,
    successors,
    tail_quantile,
)


def _report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {criterion:2d}] {status} ({elapsed:5.1f}s < {budget:.0f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion}: runtime {elapsed:.1f}s over budget"


def coordinate_design(p: int, n: int) -> DesignMatrix:
    return DesignMatrix(np.hstack([np.eye(p), np.zeros((p, n - p))]))


def test_criterion_01_exact_moment_identities(toy_family, toy_noise):
    start = time.perf_counter()
    ok = True
    worst = 0.0
    pm = pair_variance(toy_family, toy_noise, 3, 1)
    worst = max(worst, abs(pm.p_pair - 2.0) / 2.0, abs(pm.lambda_pair - 1.0))
    rng = np.random.default_rng(20_240_101)
    for _ in range(50):
        p = int(rng.integers(3, 9))
        n = int(rng.integers(p + 2, 40))
        design = orthonormal_rows_design(rng, p, n)
        k = int(rng.integers(2, min(p, 5) + 1))
        models = sorted(rng.choice(np.arange(1, p + 1), size=k, replace=False).tolist())
        family = build_projection_family(design, np.eye(design.p), models)
        sigma = float(rng.uniform(0.3, 3.0))
        noise = NoiseSpec.homogeneous(sigma, n)
        for m, m_ref in family.pairs():
            got = pair_variance(family, noise, m, m_ref)
            rel_p = abs(got.p_pair - sigma**2 * (m - m_ref)) / (sigma**2 * (m - m_ref))
            rel_l = abs(got.lambda_pair - sigma**2) / sigma**2
            worst = max(worst, rel_p, rel_l)
            ok = ok and rel_p <= 1e-10 and rel_l <= 1e-10
    _report(1, ok, f"moment identities, worst relative error {worst:.2e}", time.perf_counter() - start, 1.0)


def test_criterion_02_tail_function_oracle(toy_family, toy_noise):
    start = time.perf_counter()
    draws = sample_joint_draws(toy_family, toy_noise, 200_000, seed=555)
    errs = {t: abs(tail_quantile(draws, 3, 1, t) - math.sqrt(2 * t)) for t in (1.0, 2.0, 3.0)}
    ok = all(e <= 0.03 for e in errs.values())
    _report(2, ok, f"tail vs chi2 closed form, max abs error {max(errs.values()):.4f}", time.perf_counter() - start, 5.0)


def _harness_family(n=100, p=10):
    design = coordinate_design(p, n)
    return build_projection_family(design, np.eye(design.p), range(1, p + 1))


def _vectorized_select(family, table, stats_matrix, pair_cols):
    """Smallest accepted reference per row of a statistics matrix."""
    n_rep = stats_matrix.shape[0]
    models = list(family.models)
    accepted = np.ones((n_rep, len(models)), dtype=bool)
    for j, m_ref in enumerate(models):
        for m in successors(family, m_ref):
            col = pair_cols[(m, m_ref)]
            accepted[:, j] &= stats_matrix[:, col] <= table.threshold(m, m_ref)
    first = np.argmax(accepted, axis=1)
    return np.array(models)[first]


def test_criterion_03_propagation_frequency():
    start = time.perf_counter()
    family = _harness_family()
    noise = NoiseSpec.homogeneous(1.0, 100)
    cal = sample_joint_draws(family, noise, 20_000, seed=777)
    table = critical_values(cal, all_pair_moments(family, noise), x_level=2.0, alpha_plus=0.0)

    n_rep = 2000
    eps = stream(778, 0).standard_normal((n_rep, 100))
    pairs = [(m, 1) for m in successors(family, 1)]
    stats = joint_norms_from_noise(family, eps, pairs=pairs)
    thresholds = np.array([table.threshold(*p) for p in pairs])
    rejected = np.any(stats > thresholds[None, :], axis=1)
    freq = float(rejected.mean())
    target = math.exp(-2.0)
    bound = target + 3 * math.sqrt(target * (1 - target) / n_rep)
    _report(3, freq <= bound, f"smallest-model rejection {freq:.4f} <= {bound:.4f}", time.perf_counter() - start, 60.0)


def _harness_sparse():
    family = _harness_family()
    noise = NoiseSpec.homogeneous(1.0, 100)
    f_true = np.zeros(100)
    f_true[:3] = [4.0, 2.5, 1.5]
    return family, noise, f_true


def test_criterion_04_oracle_deviation_bound():
    start = time.perf_counter()
    family, noise, f_true = _harness_sparse()
    report = oracle(family, f_true, noise, alpha_plus=0.0)
    assert report.m_star == 3  # interior by construction

    cal = sample_joint_draws(family, noise, 20_000, seed=991)
    table = critical_values(cal, all_pair_moments(family, noise), x_level=2.0, alpha_plus=0.0)
    report = payment_for_adaptation(family, noise, report, table)
    z_bar = report.z_bar

    n_rep = 2000
    eps = stream(992, 0).standard_normal((n_rep, 100))
    ys = f_true[None, :] + eps
    pairs = family.pairs()
    pair_cols = {p: i for i, p in enumerate(pairs)}
    stats = joint_norms_from_noise(family, ys, pairs=pairs)
    m_hat = _vectorized_select(family, table, stats, pair_cols)

    dev = np.zeros(n_rep)
    for r in range(n_rep):
        if m_hat[r] > 3:
            dev[r] = stats[r, pair_cols[(m_hat[r], 3)]]
        elif m_hat[r] < 3:
            dev[r] = stats[r, pair_cols[(3, m_hat[r])]]
    freq = float(np.mean(dev > z_bar))
    target = 2 * math.exp(-2.0)
    bound = target + 3 * math.sqrt(target * (1 - target) / n_rep)
    _report(4, freq <= bound, f"deviation beyond payment {freq:.4f} <= {bound:.4f}", time.perf_counter() - start, 60.0)


def test_criterion_05_payment_cap():
    start = time.perf_counter()
    family, noise, f_true = _harness_sparse()
    moments = all_pair_moments(family, noise)
    cap = (1 + 0.0) * math.sqrt(3.0) + math.sqrt(2 * 1.0 * (2.0 + math.log(10))) + 0.05
    ok = True
    worst = 0.0
    for seed in (991, 1313, 1717):
        cal = sample_joint_draws(family, noise, 20_000, seed=seed)
        table = critical_values(cal, moments, x_level=2.0, alpha_plus=0.0)
        report = oracle(family, f_true, noise, alpha_plus=0.0)
        report = payment_for_adaptation(family, noise, report, table)
        worst = max(worst, report.z_bar)
        ok = ok and report.z_bar <= cap
    _report(5, ok, f"payment {worst:.4f} <= cap {cap:.4f} on every calibration", time.perf_counter() - start, 60.0)


def test_criterion_06_aic_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    agree = 0
    total = 200
    for _ in range(total):
        p = int(rng.integers(2, 8))
        n = int(rng.integers(p + 1, 30))
        design = DesignMatrix(rng.standard_normal((p, n)))
        k = int(rng.integers(2, min(p, 6) + 1))
        models = sorted(rng.choice(np.arange(1, p + 1), size=k, replace=False).tolist())
        family = build_projection_family(design, prediction_weights(design), models)
        y = rng.standard_normal(n)
        sigma = float(rng.uniform(0.2, 3.0))
        agree += aic_equivalence_check(family, sigma, y)
    _report(6, agree == total, f"penalized-fit equivalence on {agree}/{total} instances", time.perf_counter() - start, 10.0)


def _fidelity_setup():
    n, p = 400, 20
    grid = (np.arange(1, n + 1) - 0.5) / n
    design = DesignMatrix(fourier_values(grid, p) / math.sqrt(n))
    family = build_projection_family(design, np.eye(design.p), range(1, p + 1))
    noise = NoiseSpec.homogeneous(1.0, n)
    theta = 2.0 / np.arange(1, p + 1)
    f_true = design.entries.T @ theta  # exactly inside the pilot span
    return family, noise, f_true


def test_criterion_07_bootstrap_fidelity():
    start = time.perf_counter()
    family, noise, f_true = _fidelity_setup()
    y = f_true + stream(4040, 0).standard_normal(400)
    resid = presmooth(family, y, 20)

    diag = validity_diagnostics(family, noise, f_true, m_dagger=20, x_level=2.0)
    p_boot = pair_traces(family, resid**2)
    moments = all_pair_moments(family, noise)
    within = [
        abs(p_boot[pair] / moments[pair].p_pair - 1.0) <= diag.delta_p
        for pair in family.pairs()
    ]
    dims_ok = np.mean(within) >= 0.95

    table_known = critical_values(
        sample_joint_draws(family, noise, 1000, seed=4242), moments, 2.0, 1.0
    )
    table_boot = bootstrap_calibrate(family, resid, 2.0, 1.0, 1000, seed=4242)
    ratios = []
    for pair in family.pairs():
        if moments[pair].p_pair >= 3.0:
            ratios.append((table_boot.threshold(*pair) / table_known.threshold(*pair)) ** 2)
    ratios = np.array(ratios)
    band_ok = bool(np.all((ratios >= 0.64) & (ratios <= 1.56)))
    ok = dims_ok and band_ok
    _report(
        7,
        ok,
        f"dims within bound on {100 * np.mean(within):.0f}% of pairs; "
        f"ratio^2 range [{ratios.min():.3f}, {ratios.max():.3f}]",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_08_bootstrap_familywise_coverage():
    start = time.perf_counter()
    family, noise, f_true = _fidelity_setup()
    x = 2.0
    n_rep = 500
    pairs = [(m, 1) for m in successors(family, 1)]
    order = pair_order(family.models, pairs)
    ops = {pair: pair_operator(family, *pair) for pair in pairs}
    accepted = np.zeros(n_rep, dtype=bool)
    for rep in range(n_rep):
        eps = stream(8080, rep).standard_normal(400)
        resid = presmooth(family, f_true + eps, 20)
        draws = sample_in_order(family, resid, 1000, 8181, order, stream_tag=rep)
        k = correction_rank(draws, 1, x)
        ok = True
        for pair in pairs:
            z = np.sort(column(draws, *pair))[k - 1]
            if np.linalg.norm(ops[pair] @ eps) > z:
                ok = False
                break
        accepted[rep] = ok
    freq = float(accepted.mean())
    target = 1 - math.exp(-x)
    ok = abs(freq - target) <= 0.06
    _report(
        8,
        ok,
        f"true-noise family-wise acceptance {freq:.4f} vs {target:.4f} (tol 0.06)",
        time.perf_counter() - start,
        180.0,
    )


def test_criterion_09_qf_bound_grid():
    start = time.perf_counter()
    rows = bounds_check_grid()
    bad = [r for r in rows if not r["ok"]]
    _report(9, not bad, f"{len(rows)} MC grid cells, {len(bad)} violations", time.perf_counter() - start, 30.0)


def test_criterion_10_power_loss_budgets(toy_extended_family):
    start = time.perf_counter()
    noise = NoiseSpec.homogeneous(1.0, 8)
    dims = {m: float(m) for m in toy_extended_family.models}
    params = power_loss_params(toy_extended_family.models, dims, a=1.0)
    ok = True
    lines = []
    for m in toy_extended_family.models[1:]:
        x_m = params.x[m - 1]
        est = excess_risk_mc(toy_extended_family, noise, m, x_m, n_sim=100_000, seed=1000 + m)
        good = est.value <= params.alpha[m] + 3 * est.stderr
        ok = ok and good
        lines.append(f"m={m}: {est.value:.4f}<={params.alpha[m]:.4f}+3se")
    _report(10, ok, "; ".join(lines), time.perf_counter() - start, 60.0)


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    cfg = {
        "n": 48,
        "p_max": 16,
        "models": [1, 2, 3, 4, 5, 6],
        "m_dagger": 6,
        "n_sim": 300,
        "n_hist": 10,
        "noise_profile": {"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0},
        "coefficient_rule": {"kind": "paper4"},
        "seeds": {"data": 1, "noise": 2, "calibration": 3, "bootstrap": 4},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc1 = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "w1"), "--workers", "1"])
    rc8 = cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "w8"), "--workers", "8"])
    b1 = (tmp_path / "w1" / "results.csv").read_bytes()
    b8 = (tmp_path / "w8" / "results.csv").read_bytes()
    ok = rc1 == 0 and rc8 == 0 and b1 == b8
    _report(11, ok, f"results.csv byte-identical across 1 and 8 workers ({len(b1)} bytes)", time.perf_counter() - start, 120.0)


def test_criterion_12_scale_equivariance(toy_family):
    start = time.perf_counter()
    resid = np.array([0.8, -1.3, 0.6, 1.1])
    c = 7.25
    base_draws = multiplier_draws(toy_family, resid, 4000, seed=7777)
    scaled_draws = multiplier_draws(toy_family, c * resid, 4000, seed=7777)
    base = bootstrap_calibrate(toy_family, resid, 2.0, 0.0, 4000, seed=7777)
    scaled = bootstrap_calibrate(toy_family, c * resid, 2.0, 0.0, 4000, seed=7777)
    worst = 0.0
    for pair in toy_family.pairs():
        col_dev = np.max(
            np.abs(column(scaled_draws, *pair) - c * column(base_draws, *pair))
            / np.maximum(c * column(base_draws, *pair), 1e-300)
        )
        thr_dev = abs(scaled.threshold(*pair) - c * base.threshold(*pair)) / (
            c * base.threshold(*pair)
        )
        worst = max(worst, float(col_dev), float(thr_dev))
    _report(12, worst <= 1e-12, f"draws and thresholds scale exactly, worst rel dev {worst:.2e}", time.perf_counter() - start, 30.0)
