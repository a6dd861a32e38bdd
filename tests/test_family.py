import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import (
    DesignMatrix,
    DimensionMismatch,
    MissingPair,
    NoiseSpec,
    NonFiniteInput,
    NotOrderedPair,
    SingularGram,
    SingularGramWarning,
    build_projection_family,
    check_ordering,
)
from smaselect.family import PairValues, pair_order, pair_values
from conftest import orthonormal_rows_design
from reference import operator, pair_operator, prediction_weights


def test_toy_operator_is_coordinate_selector(toy_family):
    k2 = operator(toy_family, 2)
    expected = np.zeros((3, 4))
    expected[0, 0] = expected[1, 1] = 1.0
    np.testing.assert_allclose(k2, expected, atol=1e-14)


def test_toy_pair_operator(toy_family):
    k31 = pair_operator(toy_family, 3, 1)
    expected = np.zeros((3, 4))
    expected[1, 1] = expected[2, 2] = 1.0
    np.testing.assert_allclose(k31, expected, atol=1e-14)


def test_pair_operator_requires_order(toy_family):
    with pytest.raises(NotOrderedPair):
        pair_operator(toy_family, 1, 3)
    with pytest.raises(NotOrderedPair):
        pair_operator(toy_family, 2, 2)


def test_rank_deficient_design_uses_pseudo_inverse():
    # Duplicated feature row: the 2-model Gram is singular but usable.
    psi = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    design = DesignMatrix(psi)
    with pytest.warns(SingularGramWarning):
        family = build_projection_family(design, np.eye(design.p), [2, 3])
    assert 2 in family.rank_deficient

    # Fitted-value operator must agree with the rank-revealing projector.
    for m in family.models:
        block = psi[:m]
        s_block = operator(family, m)[:m]
        hat = block.T @ s_block
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        basis = vt[s > 1e-12 * s[0]]
        projector = basis.T @ basis
        np.testing.assert_allclose(hat, projector, atol=1e-10)


def test_all_zero_gram_is_fatal():
    design = DesignMatrix(np.vstack([np.zeros((1, 4)), np.eye(3, 4)[:2]]))
    with pytest.raises(SingularGram):
        build_projection_family(design, np.eye(design.p), [1, 2])


def test_model_list_validation(toy_design):
    w = np.eye(toy_design.p)
    with pytest.raises(DimensionMismatch):
        build_projection_family(toy_design, w, [])
    with pytest.raises(DimensionMismatch):
        build_projection_family(toy_design, w, [2, 2])
    with pytest.raises(DimensionMismatch):
        build_projection_family(toy_design, w, [1, 4])


def test_largest_model(toy_family):
    assert toy_family.largest == 3
    assert toy_family.predecessor(1) is None
    assert toy_family.predecessor(3) == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pair_operators_telescope(seed):
    rng = np.random.default_rng(seed)
    p, n = 5, 9
    design = DesignMatrix(rng.standard_normal((p, n)))
    family = build_projection_family(design, np.eye(design.p), [1, 3, 5])
    lhs = pair_operator(family, 5, 3) + pair_operator(family, 3, 1)
    rhs = pair_operator(family, 5, 1)
    scale = max(np.abs(rhs).max(), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)
    # K_{m,m} would be identically zero; pairs are strict by contract.
    assert (3, 3) not in dict.fromkeys(family.pairs())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_orthonormal_family_matches_normal_equations(seed):
    rng = np.random.default_rng(seed)
    design = orthonormal_rows_design(rng, p=6, n=20)
    family = build_projection_family(design, np.eye(design.p), [2, 4, 6])
    y = rng.standard_normal(20)
    for m in family.models:
        block = design.entries[:m]
        direct = np.linalg.solve(block @ block.T, block @ y)
        out = operator(family, m) @ y
        np.testing.assert_allclose(out[:m], direct, atol=1e-10)
        np.testing.assert_allclose(out[m:], 0.0, atol=1e-14)


def test_weighting_shapes(toy_design):
    w = prediction_weights(toy_design, sigma=2.0)
    # W^2 must reproduce the scaled Gram.
    np.testing.assert_allclose(
        w @ w, toy_design.entries @ toy_design.entries.T / 4.0, atol=1e-12
    )


def test_ordering_toy(toy_family, toy_noise):
    report = check_ordering(toy_family, toy_noise)
    assert report.ordered
    assert report.pair_ordered == {(2, 1): True, (3, 2): True}


def test_ordering_ignores_unused_high_variance_feature(toy_family):
    report = check_ordering(toy_family, NoiseSpec.known([1.0, 1.0, 1.0, 100.0]))
    assert report.ordered


def test_ordering_counterexample():
    # Model 1 averages two observations, the second of which is very noisy;
    # model 2 recovers coordinate 1 from the quiet observation alone, so the
    # variance gap has a negative eigenvalue.
    psi = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    family = build_projection_family(
        DesignMatrix(psi), np.eye(2), [1, 2]
    )
    noise = NoiseSpec.known([1.0, 100.0, 1.0])
    report = check_ordering(family, noise)
    assert not report.ordered

    # Independent eigen-solve oracle for the sign of the smallest eigenvalue.
    variances = np.array([1.0, 100.0, 1.0])
    v1 = (operator(family, 1) * variances) @ operator(family, 1).T
    v2 = (operator(family, 2) * variances) @ operator(family, 2).T
    assert np.linalg.eigvalsh(v2 - v1)[0] < 0


def test_design_rejects_nan():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            DesignMatrix(np.array([[1.0, bad]]))


def test_pair_values_at_reads_any_order():
    # Canonical values read in their own order (the array itself), in a
    # shuffled order and on a subset; a pair they lack is named.
    order = pair_order((1, 2, 4))
    values = pair_values(dict(zip(order.pairs[::-1], [3.0, 2.0, 1.0])))
    assert values.order is order
    assert values.at(order) is values.array
    assert values.at(pair_order((1, 2, 4), [(4, 2), (2, 1)])).tolist() == [3.0, 1.0]
    assert values.at(pair_order((1, 2, 4), [(4, 1)])).tolist() == [2.0]
    assert values.at(pair_order((1, 2, 4), [])).tolist() == []
    with pytest.raises(MissingPair, match=r"no threshold for pair \(2, 0\)"):
        values.at(pair_order((1, 2, 4), [(4, 1), (2, 0)]), "threshold")


def test_pair_values_copy_the_callers_array():
    # The caller's array stays writable, and later writes to it do not reach
    # the values; only the values' own array is read-only.
    order = pair_order((1, 2, 4))
    mine = np.array([1.0, 2.0, 3.0])
    values = PairValues(order, mine)
    assert mine.flags.writeable and not values.array.flags.writeable
    mine[:] = -1.0
    assert values.array.tolist() == [1.0, 2.0, 3.0] and values[(2, 1)] == 1.0
