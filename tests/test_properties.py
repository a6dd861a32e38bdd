"""The paper's guarantees as properties of every table ``calibrate`` builds.

Families come from ``conftest.small_families``: trigonometric prediction and
derivative losses, Gaussian designs under the full-vector loss or a random
weighting, and rank-deficient designs.  Noise scales are a known one and the
presmoothing residuals of a data vector, as in multiplier calibration.
"""

import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import CalibrationTable, calibrate, propagation_failures, sma_select
from smaselect import test_statistics as pairwise_statistics
from smaselect.bootstrap import presmooth
from smaselect.experiment import MODES, WEIGHTINGS, ExperimentConfig, Seeds
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
    for scale in (known, pilot):
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


@settings(max_examples=40, deadline=None)
@given(
    family=small_families(),
    seed=st.integers(0, 2**32 - 1),
    x_level=st.floats(0.25, 4.0),
    alpha_plus=st.floats(0.0, 2.0),
    k=st.integers(-4, 4),
)
def test_thresholds_scale_exactly_with_the_noise(family, seed, x_level, alpha_plus, k):
    # Scaling by a power of two is exact in floating point: the draws and
    # the traces scale by exactly 2**k, so every threshold does too, while
    # the strict ranks, each reference's rank, the clipped pairs and the
    # power-loss levels (ratios of traces) stay put.
    scale = np.random.default_rng(seed).uniform(0.5, 2.0, family.n)
    for mode in _modes(family, scale):
        _, table = _calibrate(family, scale, seed, x_level, alpha_plus, mode)
        _, scaled = _calibrate(family, 2.0**k * scale, seed, x_level, alpha_plus, mode)
        np.testing.assert_array_equal(scaled.critical.array, 2.0**k * table.critical.array)
        assert scaled.ranks == table.ranks, mode
        assert scaled.tail_clipped == table.tail_clipped, mode
        assert scaled.per_model_levels == table.per_model_levels, mode


@settings(max_examples=40, deadline=None)
@given(
    family=small_families(),
    seed=st.integers(0, 2**32 - 1),
    x_level=st.floats(0.25, 4.0),
    alpha_plus=st.floats(0.0, 2.0),
)
def test_every_calibrated_table_survives_json(family, seed, x_level, alpha_plus):
    scale = np.random.default_rng(seed).uniform(0.5, 2.0, family.n)
    for mode in _modes(family, scale):
        table = _calibrate(family, scale, seed, x_level, alpha_plus, mode)[1]
        assert CalibrationTable.from_dict(json.loads(json.dumps(table.to_dict()))) == table


_positive = st.floats(0.01, 10.0)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any configuration ``validate`` accepts, over every field and kind."""
    n = draw(st.integers(1, 300))
    p_max = draw(st.integers(1, 60))
    models = draw(st.lists(st.integers(1, p_max), min_size=1, max_size=12, unique=True))
    models = sorted(models)
    mode = draw(st.sampled_from(MODES))
    rule = draw(
        st.just({"kind": "paper4"})
        | st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=p_max).map(
            lambda values: {"kind": "explicit", "values": values}
        )
    )
    profile = draw(
        st.builds(
            lambda lo, hi: {"kind": "linear", "sigma_lo": lo, "sigma_hi": hi}, _positive, _positive
        )
        | _positive.map(lambda sigma: {"kind": "constant", "sigma": sigma})
        | st.lists(_positive, min_size=n, max_size=n).map(
            lambda values: {"kind": "explicit", "values": values}
        )
    )
    return ExperimentConfig(
        n=n,
        p_max=p_max,
        coefficient_rule=rule,
        noise_profile=profile,
        models=tuple(models),
        m_dagger=draw(st.integers(1, models[-1])),
        x_level=draw(st.floats(0.0, 10.0)),
        alpha_plus=draw(st.floats(0.0, 10.0)),
        n_sim=draw(st.integers(1, 5000)),
        n_hist=draw(st.integers(1, 500)),
        seeds=Seeds(*(draw(st.integers(0, 2**64 - 1)) for _ in range(4))),
        weighting=draw(st.sampled_from(WEIGHTINGS)),
        random_design=draw(st.booleans()),
        n_workers=draw(st.integers(1, 8)),
        mode=mode,
        power_a=draw(_positive if mode == "power_loss" else st.none() | _positive),
    ).validate()


@settings(max_examples=100, deadline=None)
@given(config=valid_configs())
def test_every_valid_config_survives_json(config):
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
