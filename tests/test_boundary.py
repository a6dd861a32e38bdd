"""Every entry point taking a length-n vector, a weighting or a level checks it.

Without the check a NaN in the response propagates: the oracle silently
returns the largest model, and risks, biases and diagnostics come out NaN.
"""

import ast
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import smaselect
from smaselect import cli
from smaselect import (
    AllZeroResiduals,
    BadExponent,
    CalibrationTable,
    ConfigInvalid,
    DesignMatrix,
    DimensionMismatch,
    JointDrawMatrix,
    MissingPair,
    NoiseSpec,
    NonFiniteInput,
    PairMoments,
    PairValues,
    QFParams,
    bootstrap_calibrate,
    build_projection_family,
    calibrate,
    critical_values,
    familywise_exceedance,
    norm_upper,
    oracle,
    presmooth,
    qf_lower,
    qf_upper,
    sample_draws,
    sample_joint_draws,
    sma_select,
    validity_diagnostics,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.calibration import calibration_table, power_loss_params, propagation_failures
from smaselect.experiment import ExperimentConfig, Study, generate_scenario, scenario_family
from smaselect.family import pair_order
from smaselect.moments import all_pair_moments, best_linear_coefficients
from smaselect.rng import stream
from smaselect.selector import OracleReport, payment_for_adaptation, payment_theory_cap
from reference import aic_equivalence_check, check_ordering, excess_risk_mc, risk_profile

NOISE = NoiseSpec(np.full(4, 1.0))

ENTRY_POINTS = {
    "test_statistics": lambda fam, v: pairwise_statistics(fam, v),
    "presmooth": lambda fam, v: presmooth(fam, v, 2),
    "calibrate": lambda fam, v: calibrate(fam, v, 10, 1, 2.0, 1.0),
    "sample_draws": lambda fam, v: sample_draws(fam, v, 10, seed=1),
    "bootstrap_calibrate": lambda fam, v: bootstrap_calibrate(fam, v, 2.0, 1.0, 10, seed=1),
    "aic_equivalence_check": lambda fam, v: aic_equivalence_check(fam, 1.0, v),
    "oracle": lambda fam, v: oracle(fam, v, NOISE, 1.0),
    "risk_profile": lambda fam, v: risk_profile(fam, v, NOISE),
    "best_linear_coefficients": lambda fam, v: best_linear_coefficients(fam, v),
    "validity_diagnostics": lambda fam, v: validity_diagnostics(fam, NOISE, v, 2, 2.0),
}

BAD_VECTORS = {
    "nan": (np.array([0.5, np.nan, 1.0, 0.3]), NonFiniteInput),
    "inf": (np.array([0.5, 1.0, -np.inf, 0.3]), NonFiniteInput),
    "short": (np.array([0.5, 1.0, 0.3]), DimensionMismatch),
    "matrix": (np.ones((2, 4)), DimensionMismatch),
    # numpy raises a bare ValueError for text, and for complex values warns
    # and drops the imaginary part.
    "text": (["0.5", "one", "1.0", "0.3"], DimensionMismatch),
    "complex": (np.array([0.5, 1.0 + 2.0j, 1.0, 0.3]), DimensionMismatch),
}


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_vector_entry_points_reject_bad_vectors(toy_family, entry, bad):
    vector, error = BAD_VECTORS[bad]
    with pytest.raises(error):
        ENTRY_POINTS[entry](toy_family, vector)


@pytest.mark.parametrize("entry", ["bootstrap_calibrate", "calibrate", "presmooth", "sample_draws"])
def test_all_zero_noise_scale_is_rejected(toy_family, entry):
    # A zero scale gives all-zero thresholds, under which the selector
    # falls through to the largest model, and an all-zero draw matrix.
    with pytest.raises(AllZeroResiduals):
        ENTRY_POINTS[entry](toy_family, np.zeros(4))


def test_readme_multiplier_route_rejects_data_in_the_pilot_span():
    # Residuals of such data are rounding error; a table calibrated on
    # them has thresholds of order 1e-15.
    family = Study.of(ExperimentConfig(n=200)).family
    y = family.design.leading_block(20).T @ stream(1, 0).standard_normal(20)
    with pytest.raises(AllZeroResiduals, match="no residual signal"):
        resid = presmooth(family, y, m_dagger=20)
        calibrate(family, resid, n_sim=200, seed=7, x_level=2.0, alpha_plus=1.0)


@pytest.mark.parametrize(
    "weighting",
    [
        np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]]),
        np.array([[np.inf, 0.0, 0.0]]),
    ],
    ids=["custom-nan", "functional-inf"],
)
def test_family_rejects_non_finite_weighting(toy_design, weighting):
    with pytest.raises(NonFiniteInput):
        build_projection_family(toy_design, weighting, [1, 2, 3])


@pytest.mark.parametrize(
    "weighting",
    [np.ones(3), np.ones((1, 3, 3)), np.ones((2, 4)), np.ones((2, 5)), [[1.0, 1.0]]],
    ids=["vector", "3-d", "p-plus-1-columns", "p-plus-2-columns", "short-row"],
)
def test_family_rejects_a_weighting_that_is_not_q_by_p(toy_design, weighting):
    with pytest.raises(DimensionMismatch):
        build_projection_family(toy_design, weighting, [1, 2, 3])


# One model-list rule (``family.model_sizes``) for the family, the power-loss
# levels and the config.  ``power_loss_params`` took unordered, repeated and
# zero sizes, and a config took model 0 until the family build refused it.
BAD_MODEL_LISTS = {
    "empty": [],
    "unordered": [2, 1, 3],
    "repeated": [1, 1, 2],
    "zero": [0, 1],
    "bool": [True, 2],
    "float": [1, 2.5, 3],
}


@pytest.mark.parametrize("models", BAD_MODEL_LISTS.values(), ids=BAD_MODEL_LISTS.keys())
def test_every_model_list_reads_one_rule(toy_design, models):
    with pytest.raises(DimensionMismatch, match="model sizes"):
        build_projection_family(toy_design, np.eye(toy_design.p), models)
    # Every size has a valid dimension, so only the list is at fault.
    with pytest.raises(DimensionMismatch, match="model sizes"):
        power_loss_params(models, {0: 0.5, 1: 1.0, 2: 1.0, 3: 4.0}, 1.0)
    with pytest.raises(ConfigInvalid, match="model sizes"):
        ExperimentConfig(n=40, p_max=12, models=tuple(models), m_dagger=1).validate()


# A lone integer is no model list: ``tuple(models)`` raised a bare TypeError.
NOT_A_LIST = {
    "config": (ConfigInvalid, lambda: ExperimentConfig(n=10, models=5).validate()),
    "power_loss_params": (DimensionMismatch, lambda: power_loss_params(3, {3: 1.0}, 1.0)),
}


@pytest.mark.parametrize("error, call", NOT_A_LIST.values(), ids=NOT_A_LIST.keys())
def test_a_model_list_that_is_not_a_list_is_refused(error, call):
    with pytest.raises(error, match="model sizes"):
        call()


def test_config_with_model_zero_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({"n": 40, "p_max": 12, "models": [0, 1, 2], "m_dagger": 2}))
    assert cli.main(["calibrate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# The array boundaries besides the length-n vectors: each converts through
# ``family.real_array``.  numpy raised a bare ValueError for text and, for
# complex values, warned and dropped the imaginary part (a draw matrix and
# pair values raised a bare TypeError).
ARRAY_BOUNDARIES = {
    "design": lambda fam, a: DesignMatrix(a),
    "weights": lambda fam, a: build_projection_family(fam.design, a, [1, 2, 3]),
    "NoiseSpec": lambda fam, a: NoiseSpec(a),
    "PairValues": lambda fam, a: PairValues(pair_order(fam.models), a),
    "JointDrawMatrix": lambda fam, a: JointDrawMatrix(a, pair_order(fam.models), seed=1),
}

BAD_ARRAYS = {
    "text": lambda shape: np.full(shape, "one"),
    "complex": lambda shape: np.full(shape, 1.0 + 2.0j),
}


@pytest.mark.parametrize("bad", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("entry", sorted(ARRAY_BOUNDARIES))
def test_array_boundaries_reject_text_and_complex(toy_family, entry, bad):
    shapes = {"design": (3, 4), "weights": (3, 3), "PairValues": (3,), "JointDrawMatrix": (2, 3)}
    with pytest.raises(DimensionMismatch, match="real numbers"):
        ARRAY_BOUNDARIES[entry](toy_family, BAD_ARRAYS[bad](shapes.get(entry, (4,))))


# Entry points that read a NoiseSpec's variances against the family.
NOISE_ENTRY_POINTS = {
    "sample_joint_draws": lambda fam, noise: sample_joint_draws(fam, noise, 10, seed=1),
    "excess_risk_mc": lambda fam, noise: excess_risk_mc(fam, noise, 2, 1.0, 10, seed=1),
    "oracle": lambda fam, noise: oracle(fam, np.ones(4), noise, 1.0),
    "all_pair_moments": lambda fam, noise: all_pair_moments(fam, noise),
    "validity_diagnostics": lambda fam, noise: validity_diagnostics(
        fam, noise, np.ones(4), 2, 2.0
    ),
    "check_ordering": lambda fam, noise: check_ordering(fam, noise),
}


@pytest.mark.parametrize("entry", sorted(NOISE_ENTRY_POINTS))
def test_noise_of_wrong_length_is_rejected(toy_family, entry):
    with pytest.raises(DimensionMismatch):
        NOISE_ENTRY_POINTS[entry](toy_family, NoiseSpec(np.full(5, 1.0)))


@pytest.mark.parametrize("entry", sorted(NOISE_ENTRY_POINTS))
def test_bare_array_for_noise_is_rejected(toy_family, entry):
    # An array could hold variances or scales; reading ``.variances`` off it
    # raised a raw AttributeError.
    with pytest.raises(DimensionMismatch, match="NoiseSpec"):
        NOISE_ENTRY_POINTS[entry](toy_family, np.ones(4))


def _table(x_level: float) -> CalibrationTable:
    """A probabilistic table at level ``x_level`` with allowance 1."""
    return CalibrationTable(
        x_level=x_level,
        alpha_plus=1.0,
        ranks={},
        critical={},
        pair_dims={},
        mode="probabilistic",
    )


def _calibrate(sc, fam, seed=1, n_sim=10, **kwargs):
    return calibrate(fam, np.sqrt(sc.sigma.variances), n_sim, seed, 2.0, 1.0, **kwargs)


def _draws(sc, fam):
    return sample_draws(fam, np.sqrt(sc.sigma.variances), 200, 1)


# Levels, allowances, scales, seeds, stream ids and counts outside their
# domain, on a derivative-loss family whose model 1 (the constant) has zero
# variance, so no power-loss level exists for it.  Each level raises the
# error ``calibrate`` raises for it.  A seed masked to 64 bits would alias
# another stream: 2**64 drew seed 0's matrix, -1 that of 2**64 - 1 and 1.5
# that of 1.  A draw count must be an integer >= 1: 2.5 and True raised a
# bare TypeError.  No table reads a worker count, but the two wrappers that
# still take one refuse one that is not an integer >= 1.
BAD_SCALARS = {
    "calibrate-power-model-1": (
        lambda sc, fam: _calibrate(sc, fam, mode="power_loss", power_a=1.0),
        DimensionMismatch,
    ),
    **{
        f"calibrate-seed-{name}": (
            lambda sc, fam, seed=seed: _calibrate(sc, fam, seed=seed),
            DimensionMismatch,
        )
        for name, seed in [("2**64", 2**64), ("negative", -1), ("float", 1.5), ("bool", True)]
    },
    "calibrate-stream-tag-2**32": (
        lambda sc, fam: _calibrate(sc, fam, stream_tag=2**32),
        DimensionMismatch,
    ),
    "stream-minor-bool": (lambda sc, fam: stream(1, 0, True), DimensionMismatch),
    **{
        f"calibrate-{name}": (
            lambda sc, fam, kwargs=kwargs: _calibrate(sc, fam, **kwargs),
            DimensionMismatch,
        )
        for name, kwargs in [
            ("n_sim-float", {"n_sim": 2.5}),
            ("n_sim-bool", {"n_sim": True}),
            ("n_sim-zero", {"n_sim": 0}),
        ]
    },
    **{
        f"bootstrap_calibrate-n_workers-{name}": (
            lambda sc, fam, n=n: bootstrap_calibrate(
                fam, np.sqrt(sc.sigma.variances), 2.0, 1.0, 10, 1, n_workers=n
            ),
            DimensionMismatch,
            "n_workers",
        )
        for name, n in [("zero", 0), ("negative", -3), ("float", 2.5), ("string", "2")]
    },
    "sample_joint_draws-n_workers-bool": (
        lambda sc, fam: sample_joint_draws(fam, sc.sigma, 10, 1, n_workers=True),
        DimensionMismatch,
        "n_workers",
    ),
    # A table checks its own levels, so these two raise where ``_table``
    # builds the table, before ``payment_theory_cap`` reads it.
    "payment_theory_cap-x-negative": (
        lambda sc, fam: payment_theory_cap(fam, sc.sigma, 3, _table(-5.0)),
        DimensionMismatch,
    ),
    "payment_theory_cap-x-nan": (
        lambda sc, fam: payment_theory_cap(fam, sc.sigma, 3, _table(math.nan)),
        NonFiniteInput,
    ),
    "validity_diagnostics-x-negative": (
        lambda sc, fam: validity_diagnostics(fam, sc.sigma, sc.f_true, 5, -1.0),
        DimensionMismatch,
    ),
    "validity_diagnostics-x-nan": (
        lambda sc, fam: validity_diagnostics(fam, sc.sigma, sc.f_true, 5, math.nan),
        NonFiniteInput,
    ),
    "oracle-alpha-negative": (
        lambda sc, fam: oracle(fam, sc.f_true, sc.sigma, alpha_plus=-1.0),
        DimensionMismatch,
    ),
    # Ill-typed levels, allowances, exponents, pilots and model sizes.  A
    # string level or allowance raised a bare TypeError (a UFuncTypeError in
    # ``calibration_table``), a float pilot a bare TypeError; a bool pilot
    # ran as pilot 1 and fractional model sizes were truncated.
    "calibrate-x_level-string": (
        lambda sc, fam: calibrate(fam, np.sqrt(sc.sigma.variances), 10, 1, "2", 1.0),
        DimensionMismatch,
        "real number",
    ),
    "calibrate-alpha_plus-none": (
        lambda sc, fam: calibrate(fam, np.sqrt(sc.sigma.variances), 10, 1, 2.0, None),
        DimensionMismatch,
        "alpha_plus",
    ),
    "calibration_table-alpha_plus-string": (
        lambda sc, fam: calibration_table(
            _draws(sc, fam), dict.fromkeys(fam.pairs(), 1.0), "1", 2.0
        ),
        DimensionMismatch,
        "alpha_plus",
    ),
    "oracle-alpha-string": (
        lambda sc, fam: oracle(fam, sc.f_true, sc.sigma, alpha_plus="1"),
        DimensionMismatch,
        "alpha_plus",
    ),
    "power_loss_params-a-string": (
        lambda sc, fam: power_loss_params(fam.models, dict.fromkeys(fam.models, 1.0), a="1"),
        BadExponent,
    ),
    **{
        f"presmooth-m_dagger-{name}": (
            lambda sc, fam, m=m: presmooth(fam, sc.f_true, m),
            DimensionMismatch,
            "pilot dimension",
        )
        for name, m in [("float", 5.0), ("bool", True)]
    },
    "build_projection_family-models-float": (
        lambda sc, fam: build_projection_family(fam.design, fam.weight_matrix, [1.5, 2.5]),
        DimensionMismatch,
        "integers",
    ),
    # The AIC check names a non-finite sigma where it enters, rather than
    # in the thresholds built from it.
    **{
        f"aic_equivalence_check-sigma-{name}": (
            lambda sc, fam, sigma=sigma: aic_equivalence_check(fam, sigma, sc.f_true),
            NonFiniteInput,
            "sigma",
        )
        for name, sigma in [("nan", math.nan), ("inf", math.inf)]
    },
    # A missing table raised a bare AttributeError where it was first read.
    "sma_select-table-none": (
        lambda sc, fam: sma_select(pairwise_statistics(fam, sc.f_true), None),
        DimensionMismatch,
        "table",
    ),
    "payment_for_adaptation-table-none": (
        lambda sc, fam: payment_for_adaptation(fam, sc.sigma, OracleReport(m_star=3), None),
        DimensionMismatch,
        "table",
    ),
    "propagation_failures-table-none": (
        lambda sc, fam: propagation_failures(fam, np.sqrt(sc.sigma.variances), None),
        DimensionMismatch,
        "table",
    ),
    # The self-test samples its table's draws as calibrate does, so it
    # refuses the scales calibrate refuses, and a loaded table that records
    # no seed to sample them from.
    **{
        f"propagation_failures-scale-{name}": (
            lambda sc, fam, scale=scale: propagation_failures(
                fam, scale(fam), _calibrate(sc, fam, n_sim=200)
            ),
            error,
            "noise scale",
        )
        for name, scale, error in [
            ("zero", lambda fam: np.zeros(fam.n), AllZeroResiduals),
            ("short", lambda fam: np.ones(fam.n - 1), DimensionMismatch),
            ("nan", lambda fam: np.full(fam.n, np.nan), NonFiniteInput),
        ]
    },
    "propagation_failures-seed-null": (
        lambda sc, fam: propagation_failures(
            fam,
            np.sqrt(sc.sigma.variances),
            CalibrationTable.from_dict(_calibrate(sc, fam, n_sim=200).to_dict() | {"seed": None}),
        ),
        DimensionMismatch,
        "seed",
    ),
    # The bounds returned NaN or 0.0 for a NaN level, raised a bare
    # TypeError for text and a bare ValueError for a negative trace; a text
    # noise scale ran as its float.
    "qf_upper-x-nan": (
        lambda sc, fam: qf_upper(QFParams(1.0, 1.0, 1.0, math.nan)),
        NonFiniteInput,
        "x",
    ),
    "qf_lower-x-nan": (lambda sc, fam: qf_lower(1.0, 1.0, math.nan), NonFiniteInput, "x"),
    "QFParams-p_trace-string": (
        lambda sc, fam: QFParams("1", 1.0, 1.0, 1.0),
        DimensionMismatch,
        "p_trace",
    ),
    "norm_upper-p_trace-negative": (
        lambda sc, fam: norm_upper(-1.0, 1.0, 1.0),
        DimensionMismatch,
        "p_trace",
    ),
    # A NaN threshold counted no exceedance, so a check on it passed; text
    # raised numpy's UFuncTypeError, a pair without a moment a bare KeyError.
    **{
        f"familywise_exceedance-thresholds-{name}": (
            lambda sc, fam, value=value: familywise_exceedance(
                d := _draws(sc, fam), 1, dict.fromkeys(d.comparisons(1), value)
            ),
            error,
            match,
        )
        for name, value, error, match in [
            ("nan", math.nan, NonFiniteInput, "thresholds"),
            ("string", "1", DimensionMismatch, "thresholds must be real numbers"),
        ]
    },
    "critical_values-moments-missing": (
        lambda sc, fam: critical_values(_draws(sc, fam), {}, 2.0),
        MissingPair,
        "no moment",
    ),
    # A number in place of a moment raised a bare AttributeError.
    "critical_values-moments-float": (
        lambda sc, fam: critical_values(_draws(sc, fam), dict.fromkeys(fam.pairs(), 1.0), 2.0),
        DimensionMismatch,
        "real numbers",
    ),
    # Model sizes are integers, not bools: a fractional size was truncated
    # and a bool read as model 1; an empty list raised a bare ValueError, a
    # model without a dimension a bare KeyError, and a text or bool
    # dimension was read as its float.
    **{
        f"power_loss_params-models-{name}": (
            lambda sc, fam, models=models: power_loss_params(models, {1: 1.0, 2: 2.0, 3: 3.0}, 1.0),
            DimensionMismatch,
            "model sizes",
        )
        for name, models in [("float", [1, 2.5, 3]), ("bool", [True, 2, 3]), ("empty", [])]
    },
    "power_loss_params-dimension-missing": (
        lambda sc, fam: power_loss_params([1, 2, 3], {1: 1.0, 2: 2.0}, 1.0),
        MissingPair,
        "model 3",
    ),
    **{
        f"power_loss_params-dimension-{name}": (
            lambda sc, fam, dim=dim: power_loss_params([1, 2, 3], {1: 1.0, 2: dim, 3: 3.0}, 1.0),
            DimensionMismatch,
            "dimension of model 2",
        )
        for name, dim in [("string", "2"), ("bool", True)]
    },
    **{
        f"sma_select-models-{name}": (
            lambda sc, fam, models=models: sma_select(
                pairwise_statistics(fam, sc.f_true), _table(2.0), models=models
            ),
            DimensionMismatch,
            "model sizes",
        )
        for name, models in [("float", [1, 2.5, 3]), ("bool", [True, 2, 3])]
    },
    # Moments took an infinite trace and a bool, and text raised a bare TypeError.
    **{
        f"PairMoments-{name}": (lambda sc, fam, args=args: PairMoments(*args), error, match)
        for name, args, error, match in [
            ("p_pair-inf", (math.inf, 1.0), NonFiniteInput, "p_pair"),
            ("lambda_pair-bool", (1.0, True), DimensionMismatch, "lambda_pair"),
            ("p_pair-string", ("1", 0.5), DimensionMismatch, "p_pair"),
        ]
    },
}


@pytest.fixture(scope="module")
def derivative_scenario():
    config = ExperimentConfig(
        n=60, p_max=20, models=tuple(range(1, 8)), m_dagger=5, weighting="derivative"
    ).validate()
    scenario = generate_scenario(config)
    return scenario, scenario_family(config, scenario)


def test_every_64_bit_seed_is_accepted(toy_family):
    def draws(seed):
        return sample_joint_draws(toy_family, NOISE, 10, seed).draws

    np.testing.assert_array_equal(draws(2**64 - 1), draws(np.uint64(2**64 - 1)))
    assert not np.array_equal(draws(2**64 - 1), draws(0))


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_out_of_domain_scalars_are_rejected(derivative_scenario, case):
    call, error, *match = BAD_SCALARS[case]
    with pytest.raises(error, match=match[0] if match else None):
        call(*derivative_scenario)


# Exported names with no case in a table of this module: records that only
# the library builds, and an alias of a name that has its cases.
UNCHECKED_EXPORTS = {
    "ModelFamily": "a record only build_projection_family builds",
    "SelectionResult": "a record only sma_select builds",
    "OracleReport": "a record only oracle builds",
    "ValidityDiagnostics": "a record only validity_diagnostics builds",
    "power_loss_critical_values": "an alias of critical_values",
}


def _exports() -> set[str]:
    """Every public name ``smaselect`` exports, less its exceptions and warnings."""
    return {
        name
        for name, value in vars(smaselect).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and not (isinstance(value, type) and issubclass(value, Exception))
    }


def test_every_export_has_a_boundary_case_or_a_reason():
    # A name counts as checked when a table above (a module-level dict)
    # names it, under the name this module imports it by.
    tree = ast.parse(Path(__file__).read_text())
    imported = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    checked = {
        imported.get(node.id, node.id)
        for table in tree.body
        if isinstance(table, ast.Assign) and isinstance(table.value, ast.Dict)
        for node in ast.walk(table.value)
        if isinstance(node, ast.Name)
    }
    assert sorted(_exports() - checked - UNCHECKED_EXPORTS.keys()) == []
    assert sorted(UNCHECKED_EXPORTS.keys() - _exports()) == []
