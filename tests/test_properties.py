"""The paper's guarantees as properties of every table ``calibrate`` builds.

Families come from ``conftest.small_families``: trigonometric prediction and
derivative losses, Gaussian designs under the full-vector loss or a random
weighting, and rank-deficient designs.  Noise scales are a known one and the
presmoothing residuals of a data vector, as in multiplier calibration.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import calibrate, propagation_failures, sma_select
from smaselect import test_statistics as pairwise_statistics
from smaselect.bootstrap import presmooth, residual_scale
from smaselect.moments import single_traces
from conftest import small_families

N_SIM = 300


def _modes(family, scale) -> list[str]:
    """Both threshold modes, or the probabilistic one alone where power-loss
    levels are undefined: they need positive, nondecreasing single-model
    traces (a derivative loss gives the constant model none)."""
    dims = list(single_traces(family, scale * scale).values())
    power = min(dims) > 0 and dims == sorted(dims)
    return ["probabilistic", "power_loss"] if power else ["probabilistic"]


def _data(family, rng, scale) -> np.ndarray:
    """A data vector: a decaying signal in the design's span plus noise."""
    coefficients = rng.standard_normal(family.p) * 3.0 / np.arange(1, family.p + 1)
    return family.design.entries.T @ coefficients + scale * rng.standard_normal(family.n)


def _calibrate(family, scale, seed, x_level, alpha_plus, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return calibrate(family, scale, N_SIM, seed, x_level, alpha_plus, mode=mode, power_a=1.0)


@settings(max_examples=60, deadline=None)
@given(
    family=small_families(),
    seed=st.integers(0, 2**32 - 1),
    x_level=st.floats(0.25, 4.0),
    alpha_plus=st.floats(0.0, 2.0),
)
def test_every_calibrated_table_propagates_on_its_draws(family, seed, x_level, alpha_plus):
    rng = np.random.default_rng(seed)
    known = rng.uniform(0.5, 2.0, family.n)
    pilot = presmooth(family, _data(family, rng, known), family.models[0])
    for scale in (known, residual_scale(family, pilot)):
        for mode in _modes(family, scale):
            draws, table = _calibrate(family, scale, seed, x_level, alpha_plus, mode)
            assert propagation_failures(draws, table) == [], mode


@settings(max_examples=60, deadline=None)
@given(
    family=small_families(),
    seed=st.integers(0, 2**32 - 1),
    x_level=st.floats(0.25, 4.0),
    alpha_plus=st.floats(0.0, 2.0),
    more_level=st.floats(0.0, 2.0),
    more_allowance=st.floats(0.0, 2.0),
)
def test_selection_does_not_grow_with_level_or_allowance(
    family, seed, x_level, alpha_plus, more_level, more_allowance
):
    # The same seed gives the same draws, so only the level and the
    # allowance move the thresholds, and neither can lower one.
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 2.0, family.n)
    statistics = pairwise_statistics(family, _data(family, rng, scale))
    for mode in _modes(family, scale):

        def m_hat(x, a):
            return sma_select(statistics, _calibrate(family, scale, seed, x, a, mode)[1]).m_hat

        chosen = m_hat(x_level, alpha_plus)
        assert m_hat(x_level + more_level, alpha_plus) <= chosen, mode
        assert m_hat(x_level, alpha_plus + more_allowance) <= chosen, mode
