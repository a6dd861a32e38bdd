import inspect
import json
import math
import pickle
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from smaselect import (
    ConfigInvalid,
    DesignMatrix,
    NoiseSpec,
    SingularGramWarning,
    TailTooDeepWarning,
    build_projection_family,
)
from smaselect.bootstrap import bootstrap_calibrate
from smaselect.calibration import calibrate, critical_values, sample_joint_draws
from smaselect.experiment import (
    ExperimentConfig,
    Seeds,
    Study,
    fourier_derivative_values,
    fourier_values,
    generate_scenario,
    mdagger_sweep,
    meta_record,
    quantile_ratio_tables,
    ratios_csv,
    replicate,
    results_csv,
    run_comparison,
    scenario_family,
    sweep_csv,
)
from smaselect.moments import all_pair_moments, best_linear_coefficients
from smaselect.rng import stream
from reference import risk_profile


def small_config(**overrides):
    base = dict(
        n=48,
        p_max=16,
        models=(1, 2, 3, 4, 5, 6),
        m_dagger=6,
        x_level=2.0,
        alpha_plus=1.0,
        n_sim=400,
        n_hist=6,
        seeds=Seeds(data=1, noise=2, calibration=3, bootstrap=4),
        noise_profile={"kind": "constant", "sigma": 1.0},
        coefficient_rule={"kind": "explicit", "values": [1.0]},
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


def test_fourier_rows_orthonormal_on_grid():
    n, p = 64, 15
    x = (np.arange(1, n + 1) - 0.5) / n
    rows = fourier_values(x, p) / math.sqrt(n)
    np.testing.assert_allclose(rows @ rows.T, np.eye(p), atol=1e-12)


def test_fourier_derivative_matches_finite_differences():
    x = np.linspace(0.05, 0.95, 7)
    h = 1e-6
    vals_plus = fourier_values(x + h, 9)
    vals_minus = fourier_values(x - h, 9)
    numeric = (vals_plus - vals_minus) / (2 * h)
    np.testing.assert_allclose(fourier_derivative_values(x, 9), numeric, atol=1e-5)


def test_explicit_unit_coefficient_gives_constant_response():
    cfg = small_config()
    scenario = generate_scenario(cfg)
    np.testing.assert_allclose(scenario.f_true, 1.0, atol=1e-12)


def test_paper4_coefficient_rule_damps_high_terms():
    cfg = small_config(coefficient_rule={"kind": "paper4"})
    scenario = generate_scenario(cfg)
    gamma = stream(1, 0).standard_normal(16)
    np.testing.assert_allclose(scenario.coefficients[:10], gamma[:10], rtol=1e-15)
    assert scenario.coefficients[10] == pytest.approx(gamma[10] / 1.0)
    assert scenario.coefficients[11] == pytest.approx(gamma[11] / 4.0)
    assert scenario.coefficients[12] == pytest.approx(gamma[12] / 9.0)


def test_constant_profile_gives_identity_covariance():
    scenario = generate_scenario(small_config())
    np.testing.assert_allclose(scenario.sigma.variances, 1.0, rtol=1e-15)


def test_linear_profile_interpolates():
    cfg = small_config(noise_profile={"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0})
    scenario = generate_scenario(cfg)
    sd = np.sqrt(scenario.sigma.variances)
    np.testing.assert_allclose(sd, 0.5 + 1.5 * scenario.grid, rtol=1e-12)
    assert sd[0] < sd[-1]


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        small_config(m_dagger=7)  # above max(models)
    with pytest.raises(ConfigInvalid):
        small_config(models=(3, 2))
    with pytest.raises(ConfigInvalid):
        small_config(noise_profile={"kind": "constant", "sigma": -1.0})
    with pytest.raises(ConfigInvalid):
        small_config(mode="power_loss")  # missing exponent
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"n": 10, "bogus": 1})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict([1, 2])  # top level not a JSON object


@pytest.mark.parametrize(
    "fields",
    [
        {"noise_profile": {"kind": "constant", "sigma": "x"}},
        {"noise_profile": {"kind": "linear", "sigma_lo": "0.5", "sigma_hi": 2.0}},
        {"noise_profile": {"kind": "linear", "sigma_lo": 0.5, "sigma_hi": None}},
        {"noise_profile": {"kind": "explicit", "values": ["1.0"] * 10}},
        {"coefficient_rule": {"kind": "explicit", "values": [1.0, "two"]}},
        {"x_level": "2"},
        {"alpha_plus": [1.0]},
        {"x_level": float("nan")},
        {"mode": "power_loss", "power_a": "1"},
        {"n_sim": 100.5},
        {"n_hist": "4"},
        {"n_workers": True},
        {"models": [1, "2", 4]},
        {"seeds": {"data": "1"}},
        {"seeds": {"dta": 1}},
        {"random_design": "yes"},
        {"seeds": 5},
        {"seeds": None},
        {"seeds": [1, 2, 3, 4]},
        {"coefficient_rule": {"kind": "explicit", "values": [1.0] * 13}},  # p_max is 12
        {"seeds": {"calibration": 2**64}},  # would alias seed 0 in the 64-bit stream key
        {"seeds": {"noise": 2**64 + 1}},
    ],
)
def test_config_rejects_ill_typed_values(fields):
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict(dict({"n": 10, "p_max": 12, "m_dagger": 4,
                                         "models": [1, 2, 4]}, **fields))


def test_config_json_roundtrip():
    cfg = small_config()
    clone = ExperimentConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert meta_record(cfg)["versions"]["smaselect"]


def test_run_comparison_records_and_constant_oracle():
    result = run_comparison(small_config())
    assert len(result.records) == 6
    oracles = {r.m_oracle for r in result.records}
    assert oracles == {result.oracle_report.m_star}
    for r in result.records:
        assert r.loss_oracle >= 0 and r.loss_known >= 0 and r.loss_boot >= 0


def test_run_comparison_deterministic_across_workers():
    a = run_comparison(small_config(n_workers=1))
    b = run_comparison(small_config(n_workers=4))
    assert results_csv(a.records) == results_csv(b.records)


def test_random_design_full_vector_takes_the_general_kernel():
    # A random grid makes the design Gram non-diagonal, so under full-vector
    # loss the family keeps no increments: the one config route to the
    # pair kernel's general strategy.
    fields = dict(random_design=True, weighting="full_vector", n_hist=3)
    cfg = small_config(**fields)
    scenario = generate_scenario(cfg)
    grid = scenario.grid
    assert np.all(np.diff(grid) >= 0) and 0.0 <= grid[0] and grid[-1] <= 1.0
    assert scenario_family(cfg, scenario).increments is None
    two = run_comparison(small_config(**fields, n_workers=2))
    assert run_comparison(cfg).records == two.records


def shared(cfg):
    """The study, known-noise table and loss target, as ``run_comparison`` builds them."""
    study = Study.of(cfg)
    family = study.family
    target = family.weight_matrix @ best_linear_coefficients(family, study.scenario.f_true)
    return study, study.known(), target


@pytest.mark.parametrize(
    "mode", [{}, {"mode": "power_loss", "power_a": 1.0}], ids=["probabilistic", "power"]
)
def test_replicate_pickles_and_maps_to_run_comparison(mode):
    cfg = small_config(**mode)
    result = run_comparison(cfg)
    study, table, target = shared(cfg)
    body = partial(replicate, study, table, result.oracle_report.m_star, target)
    body = pickle.loads(pickle.dumps(body))
    assert list(map(body, range(cfg.n_hist))) == result.records


@pytest.mark.parametrize(
    "fields",
    [{}, {"weighting": "derivative"}, {"weighting": "full_vector", "random_design": True}],
    ids=["prediction", "derivative", "gram-route"],
)
def test_replicate_losses_equal_the_per_model_sums(fields):
    # One array sum over every model's estimate gives each model's loss bit
    # for bit: each row is summed alone, as a per-model sum sums it.
    cfg = small_config(**fields, coefficient_rule={"kind": "paper4"})
    study, table, target = shared(cfg)
    family = study.family
    assert (family.increments is None) == ("random_design" in fields)
    for rep in range(cfg.n_hist):
        rec = replicate(study, table, family.models[-1], target, rep)
        outputs = family.outputs(family.reduce(study.data(rep)))
        for m, loss in zip(
            (rec.m_oracle, rec.m_sma_known, rec.m_sma_boot),
            (rec.loss_oracle, rec.loss_known, rec.loss_boot),
        ):
            assert loss == float(np.sum((outputs[family.models.index(m)] - target) ** 2))


@pytest.mark.parametrize(
    "issue, category",
    [
        (lambda: Study.of(small_config(x_level=8.0)).known(), TailTooDeepWarning),
        (
            lambda: calibrate(Study.of(small_config()).family, np.ones(48), 400, 3, 8.0, 1.0),
            TailTooDeepWarning,
        ),
        # Nine trigonometric features on six points: the leading Grams past
        # six are singular.
        (lambda: Study.of(small_config(n=6, models=tuple(range(1, 10)))), SingularGramWarning),
        (
            lambda: build_projection_family(
                DesignMatrix(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
                np.eye(3),
                [2, 3],
            ),
            SingularGramWarning,
        ),
    ],
    ids=["study-tail", "calibrate-tail", "study-gram", "family-gram"],
)
def test_a_package_warning_names_the_callers_line(issue, category):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        issue()
    hits = [w for w in caught if issubclass(w.category, category)]
    assert hits and {w.filename for w in hits} == {__file__}


def test_a_pool_threads_warning_names_the_replicate_line():
    # Power-loss levels past log(n_sim) clip pairs in the known table (built
    # here) and in each replicate's multiplier table (built on a pool thread,
    # which has no frame outside the package and the pool's machinery): the
    # latter name experiment.replicate's line, never a file under concurrent/.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_comparison(small_config(mode="power_loss", power_a=1.0, n_workers=2))
    hits = [w for w in caught if issubclass(w.category, TailTooDeepWarning)]
    assert {w.filename for w in hits} == {__file__, inspect.getsourcefile(replicate)}
    lines, first = inspect.getsourcelines(replicate)
    pooled = [w.lineno for w in hits if w.filename != __file__]
    assert pooled and all(first <= line < first + len(lines) for line in pooled)
    assert not any("concurrent" in Path(w.filename).parts for w in hits)


def test_zero_noise_limit_selects_bias_optimal():
    # alpha_plus stays positive: an exact-zero allowance would flag the
    # ~1e-16 projector residue of the in-span response as bias.
    cfg = small_config(
        coefficient_rule={"kind": "explicit", "values": [1.0, 0.5, 0.3]},
        noise_profile={"kind": "explicit", "values": [1e-9] * 48},
        n_hist=3,
    )
    result = run_comparison(cfg)
    assert result.oracle_report.m_star == 3
    scenario = generate_scenario(cfg)
    family = scenario_family(cfg, scenario)
    profile = {r.m: r.bias2 for r in risk_profile(family, scenario.f_true, scenario.sigma)}
    for rec in result.records:
        assert rec.m_sma_known >= 3 and rec.m_sma_boot >= 3
        # Noise-free limit: losses reduce to the (vanishing) bias component.
        assert rec.loss_known <= profile[rec.m_sma_known] + 1e-12
        assert rec.loss_boot <= profile[rec.m_sma_boot] + 1e-12


def test_zero_signal_propagation_frequency():
    cfg = small_config(
        coefficient_rule={"kind": "explicit", "values": [0.0]},
        n_hist=60,
        n_sim=2000,
        alpha_plus=0.0,
    )
    result = run_comparison(cfg)
    assert result.oracle_report.m_star == 1
    freq = np.mean([r.m_sma_known > 1 for r in result.records])
    target = math.exp(-2.0)
    assert freq <= target + 3 * math.sqrt(target * (1 - target) / 60)


def test_loss_dominance_within_mc_slack():
    cfg = small_config(coefficient_rule={"kind": "paper4"}, n_hist=40, n_sim=600)
    result = run_comparison(cfg)
    lo = np.array([r.loss_oracle for r in result.records])
    lk = np.array([r.loss_known for r in result.records])
    lb = np.array([r.loss_boot for r in result.records])
    se_k = np.std(lk - lo, ddof=1) / math.sqrt(len(lo))
    se_b = np.std(lb - lo, ddof=1) / math.sqrt(len(lo))
    assert lo.mean() <= lk.mean() + 2 * se_k
    assert lo.mean() <= lb.mean() + 2 * se_b


def test_injected_true_residuals_reproduce_known_thresholds(toy_family, toy_noise):
    # Residuals equal to the noise standard deviations with shared seeds:
    # the two draw matrices coincide and every threshold ratio is one.
    sd = np.array([1.0, 0.5, 2.0, 0.25])
    noise = NoiseSpec(sd**2)
    draws = sample_joint_draws(toy_family, noise, 4000, seed=42)
    known = critical_values(draws, all_pair_moments(toy_family, noise), 2.0, 0.0)
    boot = bootstrap_calibrate(toy_family, sd, 2.0, 0.0, 4000, seed=42)
    for pair in toy_family.pairs():
        assert boot.threshold(*pair) == known.threshold(*pair)
    boot_b = bootstrap_calibrate(toy_family, sd, 2.0, 1.0, 4000, seed=42)
    known_b = critical_values(draws, all_pair_moments(toy_family, noise), 2.0, 1.0)
    for pair in toy_family.pairs():
        assert boot_b.threshold(*pair) == pytest.approx(known_b.threshold(*pair), rel=1e-12)


def test_quantile_ratio_table_shape_and_summary():
    cfg = small_config(coefficient_rule={"kind": "paper4"})
    table = quantile_ratio_tables(cfg, [cfg.m_dagger])[cfg.m_dagger]
    pairs = scenario_family(cfg, generate_scenario(cfg)).pairs()
    assert len(table.ratios) == len(pairs)
    assert table.summary["min"] <= table.summary["mean"] <= table.summary["max"]
    text = ratios_csv(table)
    assert text.startswith("m,m_ref,ratio_sq\n")
    # Rows follow the canonical pair order: by reference, then by larger model.
    rows = [tuple(map(int, line.split(",")[:2])) for line in text.splitlines()[1:]]
    assert rows == pairs


def test_mdagger_sweep_top_equals_default_path():
    cfg = small_config(coefficient_rule={"kind": "paper4"}, m_dagger=6)
    sweep = mdagger_sweep(cfg, [3, 6])
    assert set(sweep) == {3, 6}
    # Pilot equal to the configured default reproduces the default path.
    from smaselect.bootstrap import presmooth
    from smaselect.selector import sma_select, test_statistics as stats_fn

    scenario = generate_scenario(cfg)
    family = scenario_family(cfg, scenario)
    y = scenario.f_true + stream(2, 0).standard_normal(48) * np.sqrt(scenario.sigma.variances)
    table = bootstrap_calibrate(
        family, presmooth(family, y, 6), 2.0, 1.0, 400, seed=4
    )
    direct = sma_select(stats_fn(family, y), table).m_hat
    assert sweep[6] == {"m_hat": direct}


def test_mdagger_sweep_surfaces_degenerate_pilot():
    cfg = small_config(
        noise_profile={"kind": "explicit", "values": [1e-13] * 48},
        n_hist=1,
    )
    sweep = mdagger_sweep(cfg, [1, 6])
    assert sweep[1] == {
        "error": "AllZeroResiduals",
        "detail": sweep[1].get("detail"),
    }
    text = sweep_csv(sweep)
    assert "AllZeroResiduals" in text


def test_derivative_weighting_family_builds():
    cfg = small_config(weighting="derivative", coefficient_rule={"kind": "paper4"})
    scenario = generate_scenario(cfg)
    family = scenario_family(cfg, scenario)
    assert family.weight_matrix.shape[0] == 48
    result = run_comparison(small_config(weighting="derivative", n_hist=2))
    assert len(result.records) == 2


def test_default_config_matches_reference_simulation_settings():
    cfg = ExperimentConfig(n=200).validate()
    assert max(cfg.models) == 37 and cfg.models == tuple(range(1, 38))
    assert cfg.m_dagger == 20
    assert cfg.x_level == 2.0
    assert cfg.alpha_plus == 1.0
    assert cfg.n_sim == 1000
    assert cfg.n_hist == 100
    assert cfg.p_max == 200


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_committed_configs_resolve_and_vary_the_paper_config():
    configs = {path.stem: json.loads(path.read_text()) for path in CONFIGS.glob("*.json")}
    assert {"paper", "quick", "paper-noise4", "derivative"} <= configs.keys()
    for config in configs.values():
        ExperimentConfig.from_dict(config)
    paper = configs["paper"]
    for name, differing in (
        ("quick", {"n", "p_max", "models", "m_dagger", "n_sim", "n_hist"}),
        ("paper-noise4", {"noise_profile"}),
    ):
        assert list(configs[name]) == list(paper), name
        assert {key for key in paper if configs[name][key] != paper[key]} == differing, name


def test_mdagger_sweep_variance_shrinks_with_sample_size():
    def sweep_variance(n):
        cfg = ExperimentConfig(
            n=n,
            p_max=40,
            models=tuple(range(1, 13)),
            m_dagger=10,
            n_sim=400,
            n_hist=1,
            noise_profile={"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 1.5},
            coefficient_rule={"kind": "paper4"},
            seeds=Seeds(data=7, noise=2, calibration=3, bootstrap=4),
        ).validate()
        sweep = mdagger_sweep(cfg, [8, 9, 10, 11, 12])
        return float(np.var([v["m_hat"] for v in sweep.values()]))

    assert sweep_variance(200) <= sweep_variance(50)
