import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import (
    DimensionMismatch,
    QFParams,
    norm_upper,
    qf_lower,
    qf_upper,
)


def test_qf_upper_identity_five():
    # Identity in dimension 5 at x = 1: 5 + 2 sqrt(5) + 2.
    val = qf_upper(QFParams(5.0, 5.0, 1.0, 1.0))
    assert val == pytest.approx(5 + 2 * math.sqrt(5) + 2, rel=1e-12)
    assert val == pytest.approx(11.4721, abs=1e-4)


def test_qf_upper_zero_level():
    assert qf_upper(QFParams(3.0, 2.0, 1.0, 0.0)) == pytest.approx(3.0)


def test_qf_upper_mc_chi2():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((100_000, 2))
    quad = (z**2).sum(axis=1)
    thr = qf_upper(QFParams(2.0, 2.0, 1.0, 2.0))
    freq = np.mean(quad > thr)
    assert freq <= math.exp(-2) + 3 * math.sqrt(math.exp(-2) / 100_000)


def test_norm_upper_values():
    assert norm_upper(2.0, 1.0, 2.0) == pytest.approx(math.sqrt(2) + 2.0, rel=1e-12)
    assert norm_upper(2.0, 1.0, 2.0) == pytest.approx(3.4142, abs=1e-4)
    assert norm_upper(5.0, 1.0, 0.0) == pytest.approx(math.sqrt(5.0))


def test_norm_upper_mc_chi2():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((100_000, 2))
    norms = np.linalg.norm(z, axis=1)
    freq = np.mean(norms > norm_upper(2.0, 1.0, 2.0))
    assert freq <= math.exp(-2) + 3 * math.sqrt(math.exp(-2) / 100_000)


def test_qf_lower_values():
    assert qf_lower(5.0, 5.0, 1.0) == pytest.approx(5 - 2 * math.sqrt(5), rel=1e-12)
    assert qf_lower(5.0, 5.0, 1.0) == pytest.approx(0.5279, abs=1e-4)
    assert qf_lower(5.0, 5.0, 0.0) == pytest.approx(5.0)
    assert qf_lower(1.0, 1.0, 9.0) == 0.0  # clamped


def test_qf_lower_mc_chi2():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((100_000, 5))
    quad = (z**2).sum(axis=1)
    freq = np.mean(quad < qf_lower(5.0, 5.0, 1.0))
    assert freq <= math.exp(-1) + 3 * math.sqrt(math.exp(-1) / 100_000)


def test_qf_params_invariant():
    with pytest.raises(DimensionMismatch):
        QFParams(p_trace=1.0, v2=5.0, lam=1.0, x=1.0)  # v2 > p * lam
    with pytest.raises(DimensionMismatch):
        QFParams(p_trace=-1.0, v2=0.0, lam=0.0, x=1.0)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(0.5, 50.0),
    lam=st.floats(0.1, 5.0),
    x=st.floats(0.0, 10.0),
)
def test_norm_bound_dominates_qf_bound_on_flat_spectrum(p, lam, x):
    # With v2 = lam * p the norm-scale bound is the weaker relaxation of the
    # quadratic-form bound: its square is always at least the qf threshold.
    qf = qf_upper(QFParams(p, lam * p, lam, x))
    assert norm_upper(p, lam, x) ** 2 >= qf - 1e-9


def test_mc_falsification_grid_small():
    # Smaller sibling of the acceptance harness: identity and tilted spectra.
    rng = np.random.default_rng(17)
    n_mc = 40_000
    for diag in (np.ones(1), np.ones(5), np.array([1.0, 0.5, 0.1])):
        z = rng.standard_normal((n_mc, diag.shape[0]))
        quad = (z**2 * diag).sum(axis=1)
        p, v2, lam = diag.sum(), (diag**2).sum(), diag.max()
        for x in (0.5, 2.0):
            slack = 3 * math.sqrt(math.exp(-x) / n_mc)
            assert np.mean(quad > qf_upper(QFParams(p, v2, lam, x))) <= math.exp(-x) + slack
            assert np.mean(quad < qf_lower(p, v2, x)) <= math.exp(-x) + slack
