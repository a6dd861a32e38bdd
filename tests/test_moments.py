import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import (
    DesignMatrix,
    DimensionMismatch,
    NoiseSpec,
    NonFiniteInput,
    NotOrderedPair,
    build_projection_family,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.moments import single_variance
from conftest import orthonormal_rows_design
from reference import (
    check_ordering,
    pair_operator,
    pair_variance,
    risk_profile,
    risk_profile_csv_rows,
)


def test_toy_pair_variance(toy_family, toy_noise):
    pm = pair_variance(toy_family, toy_noise, 3, 1)
    assert pm.p_pair == pytest.approx(2.0, rel=1e-12)
    assert pm.lambda_pair == pytest.approx(1.0, rel=1e-12)
    pm21 = pair_variance(toy_family, toy_noise, 2, 1)
    assert pm21.p_pair == pytest.approx(1.0, rel=1e-12)
    assert pm21.lambda_pair == pytest.approx(1.0, rel=1e-12)


def test_toy_pair_variance_heteroscedastic(toy_family):
    # Direct matrix arithmetic oracle: V = K diag(1,4,9,1) K^T on coordinates 2,3.
    noise = NoiseSpec.known([1.0, 4.0, 9.0, 1.0])
    pm = pair_variance(toy_family, noise, 3, 1)
    k = pair_operator(toy_family, 3, 1)
    v = k @ np.diag([1.0, 4.0, 9.0, 1.0]) @ k.T
    assert pm.p_pair == pytest.approx(np.trace(v), rel=1e-12)
    assert pm.p_pair == pytest.approx(13.0, rel=1e-12)
    assert pm.lambda_pair == pytest.approx(np.linalg.eigvalsh(v)[-1], rel=1e-12)
    assert pm.lambda_pair == pytest.approx(9.0, rel=1e-12)


def test_pair_variance_rejects_unordered(toy_family, toy_noise):
    with pytest.raises(NotOrderedPair):
        pair_variance(toy_family, toy_noise, 1, 3)


def test_toy_pair_bias(toy_family):
    def bias(f, m, m_ref):
        return pairwise_statistics(toy_family, f)[(m, m_ref)]

    assert bias([5.0, 0.0, 0.0, 0.0], 2, 1) == pytest.approx(0.0, abs=1e-14)
    assert bias([0.0, 0.0, 3.0, 0.0], 3, 2) == pytest.approx(3.0, rel=1e-12)
    # sqrt(2^2 + 2^2) by direct arithmetic.
    assert bias([1.0, 2.0, 2.0, 7.0], 3, 1) == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_toy_risk_profile_pure_variance(toy_family, toy_noise):
    profile = risk_profile(toy_family, np.zeros(4), toy_noise)
    assert [r.risk for r in profile] == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)


def test_toy_risk_profile_sparse_signal(toy_family, toy_noise):
    f = np.array([0.0, 0.0, 3.0, 0.0])
    profile = risk_profile(toy_family, f, toy_noise)
    assert [r.risk for r in profile] == pytest.approx([10.0, 11.0, 3.0], rel=1e-12)
    rows = risk_profile_csv_rows(profile)
    assert rows[0][0] == 1 and len(rows[0]) == 4


def test_functional_variance_toy(toy_design, toy_noise):
    family = build_projection_family(
        toy_design, np.atleast_2d([1.0, 1.0, 1.0]), [1, 2, 3]
    )
    assert single_variance(family, toy_noise, 2).p_pair == pytest.approx(2.0, rel=1e-12)
    assert single_variance(family, toy_noise, 1).p_pair == pytest.approx(1.0, rel=1e-12)
    pm = pair_variance(family, toy_noise, 2, 1)
    assert pm.p_pair == pytest.approx(1.0, rel=1e-12)
    assert pm.lambda_pair == pytest.approx(pm.p_pair, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), sigma=st.floats(0.1, 5.0))
def test_projection_moment_identity(seed, sigma):
    # Homogeneous noise on an orthonormal-rows design: the pairwise trace is
    # sigma^2 (m - m_ref) and the operator norm is sigma^2, exactly.
    rng = np.random.default_rng(seed)
    design = orthonormal_rows_design(rng, p=7, n=18)
    family = build_projection_family(design, np.eye(design.p), [1, 3, 4, 7])
    noise = NoiseSpec.homogeneous(sigma, 18)
    for m, m_ref in family.pairs():
        pm = pair_variance(family, noise, m, m_ref)
        assert pm.p_pair == pytest.approx(sigma**2 * (m - m_ref), rel=1e-10)
        assert pm.lambda_pair == pytest.approx(sigma**2, rel=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rank_one_pairs_have_equal_trace_and_norm(seed):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(rng.standard_normal((4, 10)))
    family = build_projection_family(
        design, np.atleast_2d(rng.standard_normal(4)), [1, 2, 4]
    )
    noise = NoiseSpec.known(rng.uniform(0.5, 2.0, size=10))
    for m, m_ref in family.pairs():
        pm = pair_variance(family, noise, m, m_ref)
        assert pm.lambda_pair == pytest.approx(pm.p_pair, rel=1e-10, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bias_telescoping(seed):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(rng.standard_normal((6, 12)))
    family = build_projection_family(design, np.eye(design.p), [2, 4, 6])
    f = rng.standard_normal(12)
    fit2, fit4, fit6 = family.outputs(family.reduce(family.vector(f)))
    lhs = (fit6 - fit4) + (fit4 - fit2)
    rhs = fit6 - fit2
    scale = max(np.linalg.norm(rhs), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_variance_column_monotone_when_ordered(seed):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(rng.standard_normal((5, 14)))
    family = build_projection_family(design, np.eye(design.p), [1, 2, 3, 5])
    noise = NoiseSpec.known(rng.uniform(0.5, 3.0, size=14))
    if check_ordering(family, noise).ordered:
        profile = risk_profile(family, rng.standard_normal(14), noise)
        variances = [r.variance for r in profile]
        assert all(b >= a - 1e-10 for a, b in zip(variances, variances[1:]))


def test_noise_spec_validation():
    with pytest.raises(DimensionMismatch):
        NoiseSpec.known([1.0, -1.0])
    with pytest.raises(DimensionMismatch):
        NoiseSpec.known([1.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            NoiseSpec.known([1.0, bad])
    with pytest.raises(DimensionMismatch):
        NoiseSpec.known([[1.0, 1.0]])
    assert NoiseSpec.homogeneous(2.0, 3).variances.tolist() == [4.0, 4.0, 4.0]
