import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smaselect import (
    DesignMatrix,
    DimensionMismatch,
    NoiseSpec,
    NonFiniteInput,
    NotOrderedPair,
    build_projection_family,
    calibrate,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.family import pair_order
from smaselect.moments import all_pair_moments, pair_traces, single_traces, single_variance
from conftest import orthonormal_rows_design, small_families
from reference import (
    check_ordering,
    exact_pair_traces,
    pair_operator,
    pair_variance,
    qr_pair_traces,
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


def _relative_errors(values, exact) -> list[float]:
    """Relative error of each float trace against its exact value (an exact
    zero must be met exactly)."""
    return [
        float(abs(Fraction(x) - e) / e) if e else (0.0 if x == 0 else math.inf)
        for x, e in zip(values, exact)
    ]


def _trace_tolerance(family) -> float:
    """The stated relative tolerance of a trace on a family with increments:
    one unit roundoff per term of the sums a trace takes (the ``n`` products
    of a diagonal entry, the ``r`` coordinates and ``k`` model steps of a
    window), plus four for the products, the square root and its square.
    Every term is nonnegative, so the bound is relative to the trace itself."""
    return (family.n + family.basis.shape[1] + len(family.models) + 4) * 2.0**-53


def _check_trace_routes(family, scale) -> tuple[float, float]:
    """The worst relative errors of the one-row and the QR trace routes
    against exact pair and single traces under the variances ``scale**2``,
    after checking the one-row route against the stated tolerance and that
    ``calibrate``'s dimensions, ``pair_traces`` and ``all_pair_moments``'
    traces agree bit for bit."""
    v = scale * scale
    singles = [(m, 0) for m in family.models]
    traces = pair_traces(family, v)
    exact = exact_pair_traces(family, v) + exact_pair_traces(family, v, singles)
    row = _relative_errors([*traces.array, *single_traces(family, v).values()], exact)
    qr_traces = [*qr_pair_traces(family, v).array, *qr_pair_traces(family, v, singles).array]
    qr = _relative_errors(qr_traces, exact)
    assert max(row) <= _trace_tolerance(family), (max(row), family.models)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = calibrate(family, scale, 50, 3, 2.0, 1.0)
    moments = all_pair_moments(family, NoiseSpec.known(v))
    assert table.pair_dims.order is traces.order is pair_order(family.models)
    assert table.pair_dims.array.tobytes() == traces.array.tobytes()
    p_pair = np.array([moments[pair].p_pair for pair in traces.order.pairs])
    assert p_pair.tobytes() == traces.array.tobytes()
    return max(row), max(qr)


def test_one_row_traces_are_no_less_accurate_than_the_qr_route(toy_family, toy_extended_family):
    # On a family with increments a trace reads only diag(Q^T diag(v) Q), so
    # the trace root is one row; checked against exact rational traces on
    # every conftest family with increments, it meets the stated tolerance,
    # and its worst error is no larger than that of the traces over the rows
    # of the QR noise root it replaced.
    worst = {"row": 0.0, "qr": 0.0}

    def record(family, seed):
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, family.n)
        row, qr = _check_trace_routes(family, scale)
        worst["row"], worst["qr"] = max(worst["row"], row), max(worst["qr"], qr)

    record(toy_family, 1)
    record(toy_extended_family, 2)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(small_families(kinds=("prediction", "derivative")), st.integers(0, 2**32 - 1))
    def sweep(family, seed):
        assume(family.increments is not None)
        record(family, seed)

    sweep()
    assert 0.0 < worst["row"] <= worst["qr"], worst
