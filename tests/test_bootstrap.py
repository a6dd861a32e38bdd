import dataclasses
import math
import pickle

import numpy as np
import pytest

from smaselect import (
    AllZeroResiduals,
    DesignMatrix,
    NoiseSpec,
    NonFiniteInput,
    RequiresKnownTruth,
    bootstrap_calibrate,
    build_projection_family,
    presmooth,
    validity_diagnostics,
)
from smaselect.bootstrap import pilot_basis
from smaselect.calibration import _tail_rank, familywise_exceedance
from smaselect.experiment import fourier_values
from smaselect.moments import pair_traces, single_traces
from conftest import orthonormal_rows_design
from reference import (
    column,
    fresh_pilot_basis,
    multiplier_draws,
    pair_variance,
    projector_matrix,
    residuals_off,
    successors,
)


def test_presmooth_toy_coordinates(toy_family):
    res = presmooth(toy_family, [1.0, 2.0, 3.0, 4.0], 3)
    np.testing.assert_allclose(res, [0.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_presmooth_in_span_vanishes(toy_family):
    y = np.array([1.0, -2.0, 0.5, 0.0])
    proj = projector_matrix(pilot_basis(toy_family, 3))
    np.testing.assert_allclose(y - proj @ y, 0.0, atol=1e-12)
    with pytest.raises(AllZeroResiduals, match="no residual signal"):
        presmooth(toy_family, y, 3)


def test_presmooth_projector_idempotent():
    rng = np.random.default_rng(311)
    design = DesignMatrix(rng.standard_normal((8, 20)))
    family = build_projection_family(design, np.eye(design.p), [2, 5, 8])
    proj = projector_matrix(pilot_basis(family, 8))
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-10


def test_presmooth_residuals_orthogonal_to_span():
    rng = np.random.default_rng(313)
    design = DesignMatrix(rng.standard_normal((6, 30)))
    family = build_projection_family(design, np.eye(design.p), [3, 6])
    y = rng.standard_normal(30)
    res = presmooth(family, y, 6)
    gram_products = design.leading_block(6) @ res
    assert np.max(np.abs(gram_products)) <= 1e-10 * np.linalg.norm(y) * np.max(
        np.abs(design.entries)
    ) * 30


def test_bootstrap_draws_zero_residuals_is_fatal(toy_family):
    with pytest.raises(AllZeroResiduals):
        multiplier_draws(toy_family, np.zeros(4), 100, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bootstrap_rejects_non_finite_residuals(toy_family, bad):
    resid = np.array([0.5, bad, 2.0, 0.3])
    with pytest.raises(NonFiniteInput):
        bootstrap_calibrate(toy_family, resid, 2.0, 1.0, 100, seed=1)
    # Data carrying the value reach the check through presmoothing.
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
        bootstrap_calibrate(toy_family, presmooth(toy_family, resid, 2), 2.0, 1.0, 100, seed=1)


def test_presmooth_rejects_non_finite_data(toy_family):
    # Projecting inf would turn every residual into NaN, with a RuntimeWarning.
    with pytest.raises(NonFiniteInput):
        presmooth(toy_family, np.array([0.5, np.inf, 2.0, 0.3]), 2)


def test_bootstrap_draws_negligible_presmooth_is_fatal(toy_family):
    with pytest.raises(AllZeroResiduals):
        multiplier_draws(toy_family, presmooth(toy_family, [1.0, -2.0, 0.5, 0.0], 3), 100, seed=1)


def test_bootstrap_pair_column_coordinate_structure(toy_family):
    resid = np.array([0.5, -1.0, 2.0, 0.3])
    draws = multiplier_draws(toy_family, resid, 256, seed=317)
    from smaselect.rng import stream

    w = stream(317, 0, 0).standard_normal((256, 4))
    np.testing.assert_allclose(column(draws, 2, 1), np.abs(-1.0 * w[:, 1]), rtol=1e-12)


def test_bootstrap_mean_square_matches_weighted_dims(toy_family):
    resid = np.array([0.5, -1.0, 2.0, 0.3])
    draws = multiplier_draws(toy_family, resid, 100_000, seed=331)
    col2 = column(draws, 3, 1) ** 2
    se = np.std(col2, ddof=1) / math.sqrt(col2.shape[0])
    assert abs(col2.mean() - 5.0) <= 3 * se


def test_effective_dims_toy(toy_family):
    resid = np.array([0.5, -1.0, 2.0, 0.3])
    dims = pair_traces(toy_family, resid**2)
    assert dims[(2, 1)] == pytest.approx(1.0, rel=1e-12)
    assert dims[(3, 1)] == pytest.approx(5.0, rel=1e-12)


def test_effective_dims_reduce_to_known_noise():
    rng = np.random.default_rng(337)
    design = orthonormal_rows_design(rng, p=6, n=25)
    family = build_projection_family(design, np.eye(design.p), [1, 3, 6])
    sd = rng.uniform(0.5, 2.0, size=25)
    dims = pair_traces(family, sd**2)
    noise = NoiseSpec(sd**2)
    for pair, val in dims.items():
        assert val == pytest.approx(pair_variance(family, noise, *pair).p_pair, rel=1e-12)
    singles = single_traces(family, sd**2)
    assert singles[6] > singles[1] > 0


def test_effective_dims_match_constant_residual_projection(toy_family):
    dims = pair_traces(toy_family, np.full(4, 1.5) ** 2)
    for (m, m_ref), val in dims.items():
        assert val == pytest.approx(1.5**2 * (m - m_ref), rel=1e-12)


def test_scale_equivariance_exact(toy_family):
    resid = np.array([0.5, -1.0, 2.0, 0.3])
    c = 3.7
    base = bootstrap_calibrate(toy_family, resid, 2.0, 0.0, 4000, seed=347)
    scaled = bootstrap_calibrate(toy_family, c * resid, 2.0, 0.0, 4000, seed=347)
    assert scaled.ranks == base.ranks
    for pair in toy_family.pairs():
        assert scaled.threshold(*pair) == pytest.approx(
            c * base.threshold(*pair), rel=1e-12
        )
        assert math.sqrt(scaled.pair_dims[pair]) == pytest.approx(
            c * math.sqrt(base.pair_dims[pair]), rel=1e-12
        )


def test_bootstrap_in_sample_propagation(toy_family):
    resid = np.array([0.8, -1.3, 0.6, 1.1])
    n_sim = 20_000
    table = bootstrap_calibrate(toy_family, resid, 2.0, 0.0, n_sim, seed=349)
    draws = multiplier_draws(toy_family, resid, n_sim, seed=349)
    for m_ref in (1, 2):
        thresholds = {
            (m, m_ref): table.threshold(m, m_ref)
            for m in successors(toy_family, m_ref)
        }
        assert familywise_exceedance(draws, m_ref, thresholds) <= math.exp(-2.0)


def test_single_pair_family_needs_no_correction():
    design = DesignMatrix(np.hstack([np.eye(2), np.zeros((2, 2))]))
    family = build_projection_family(design, np.eye(design.p), [1, 2])
    table = bootstrap_calibrate(family, np.array([1.0, 0.5, 0.2, -0.4]), 2.0, 0.0, 2000, seed=353)
    assert table.ranks == {1: _tail_rank(2.0, 2000)}


def test_bootstrap_table_serialization(toy_family):
    resid = np.array([0.5, -1.0, 2.0, 0.3])
    table = bootstrap_calibrate(toy_family, resid, 2.0, 1.0, 2000, seed=359)
    d = table.to_dict()
    assert d["pair_dims"]["3:1"] == pytest.approx(5.0, rel=1e-12)


def test_validity_diagnostics_toy(toy_family, toy_noise):
    diag = validity_diagnostics(
        toy_family, toy_noise, np.array([0.0, 0.0, 0.0, 0.0]), m_dagger=3, x_level=2.0
    )
    # Whitened design columns are unit vectors; the pilot projector keeps
    # coordinates 1..3 so both noise distortions saturate at one.
    assert diag.delta_psi == pytest.approx(1.0, rel=1e-10)
    assert diag.delta_one == pytest.approx(1.0, rel=1e-10)
    assert diag.delta_eps == pytest.approx(1.0, rel=1e-10)
    assert diag.bias_sup == 0.0 and diag.bias_l2 == 0.0


def test_validity_diagnostics_span_bias_vanishes():
    rng = np.random.default_rng(367)
    design = orthonormal_rows_design(rng, p=8, n=40)
    family = build_projection_family(design, np.eye(design.p), [2, 4, 8])
    theta = rng.standard_normal(4)
    f = design.entries[:4].T @ theta
    diag = validity_diagnostics(family, NoiseSpec(np.full(40, 1.0)), f, 4, 2.0)
    assert diag.bias_sup <= 1e-10
    assert diag.bias_l2 <= 1e-10
    # Homogeneous case: per-coordinate distortion is the projector diagonal.
    from smaselect.bootstrap import pilot_basis

    basis = pilot_basis(family, 4)
    proj_diag = np.einsum("ij,ij->i", basis, basis)
    assert diag.delta_eps == pytest.approx(np.max(np.abs(proj_diag)), rel=1e-8)


def test_validity_diagnostics_applicability_ratio():
    rng = np.random.default_rng(373)
    design = orthonormal_rows_design(rng, p=37, n=200)
    family = build_projection_family(design, np.eye(design.p), list(range(1, 38)))
    diag = validity_diagnostics(
        family, NoiseSpec(np.full(200, 1.0)), np.zeros(200), 20, 2.0
    )
    assert diag.applicability_ratio == pytest.approx(37**2 * math.log(200) / 200, rel=1e-12)
    assert diag.applicability_ratio == pytest.approx(36.3, abs=0.05)
    assert not diag.asymptotic_regime_reached


def test_validity_diagnostics_requires_truth(toy_family):
    with pytest.raises(RequiresKnownTruth):
        validity_diagnostics(toy_family, NoiseSpec([1.0] * 4), None, 3, 2.0)


def test_one_pilot_svd_per_family_and_pilot_dimension(monkeypatch):
    # presmooth and the validity diagnostics read the family's one pilot
    # basis per m_dagger: one SVD of the pilot block, kept read-only, off
    # which the residuals are, bit for bit, those off a basis computed afresh.
    n = 40
    grid = (np.arange(n) + 0.5) / n
    design = DesignMatrix(fourier_values(grid, 12) / np.sqrt(n))
    family = build_projection_family(design, design.entries.T, range(1, 9))
    rng = np.random.default_rng(7)
    f_true = rng.standard_normal(6) @ design.entries[:6]
    sigma = NoiseSpec(rng.uniform(0.5, 2.0, n) ** 2)
    ys = f_true + rng.standard_normal((3, n)) * np.sqrt(sigma.variances)
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    residuals = [presmooth(family, y, 5) for y in ys]
    validity_diagnostics(family, sigma, f_true, 5, 2.0)
    assert len(calls) == 1
    basis = pilot_basis(family, 5)
    presmooth(family, ys[0], 6)
    presmooth(family, ys[1], 5)
    assert len(calls) == 2 and pilot_basis(family, 5) is basis and set(family.pilots) == {5, 6}
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    fresh = fresh_pilot_basis(family, 5)
    assert basis.shape == fresh.shape and basis.tobytes() == fresh.tobytes()
    for y, r in zip(ys, residuals):
        assert r.tobytes() == residuals_off(fresh, y).tobytes()
    # A family made from this one starts with no pilot basis of its own; a
    # pickled one carries its bases, read-only as well.
    assert dataclasses.replace(family, increments=None).pilots == {}
    copy = pickle.loads(pickle.dumps(family))
    calls.clear()
    assert not pilot_basis(copy, 5).flags.writeable and not calls
    assert pilot_basis(copy, 5).tobytes() == basis.tobytes()
