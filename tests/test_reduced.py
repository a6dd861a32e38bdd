"""The reduced family representation against a dense oracle.

The oracle builds every estimator as the explicit ``q x n`` matrix
``K_m = W pad_p(G_m^+ Psi_m)`` and computes each quantity the direct way:
draws and statistics as norms of ``K`` products, variances as ``q x q``
matrices.  The family under test never forms those matrices on any
calibration, moment or selection path; both must agree at the stated
tolerances on every weighting kind, a rank-deficient design and a design
with fewer observations than features.  The families cover both norm
kernels: the increments kernel of a diagonal nested-basis Gram and the
general ``D_m`` kernel.  The low-rank validity diagnostics are checked the
same way, against their dense ``n x n`` form.
"""

import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import (
    DesignMatrix,
    NoiseSpec,
    NotOrderedPair,
    SingularGramWarning,
    build_projection_family,
    sample_joint_draws,
    validity_diagnostics,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.bootstrap import pilot_basis
from smaselect.calibration import _tail_rank
from smaselect.experiment import ExperimentConfig, Seeds, generate_scenario, scenario_family
from smaselect.family import _pinv_gram
from smaselect.moments import (
    _pair_moments,
    all_pair_moments,
    best_linear_coefficients,
    pair_traces,
    single_traces,
    single_variance,
)
from smaselect.rng import block_bounds, stream
from conftest import small_families
from reference import (
    PSD_TOL,
    check_ordering,
    dense_validity_diagnostics,
    excess_risk_mc,
    multiplier_draws,
    operator,
    pair_variance,
    prediction_weights,
    risk_profile,
    successors,
)

DRAW_RTOL = 1e-8
MOMENT_RTOL = 1e-12
VALUE_RTOL = 1e-10


def dense_operators(family) -> dict[int, np.ndarray]:
    """``K_m = W pad_p(G_m^+ Psi_m)`` as explicit ``q x n`` matrices."""
    psi = family.design.entries
    ops = {}
    for m in family.models:
        block = psi[:m]
        gram_inv, _ = _pinv_gram(block @ block.T, m)
        s_m = np.zeros((family.p, family.n))
        s_m[:m] = gram_inv @ block
        ops[m] = family.weight_matrix @ s_m
    return ops


def dense_norms(ops, noise, pairs) -> np.ndarray:
    out = {m: noise @ op.T for m, op in ops.items()}
    return np.column_stack([np.linalg.norm(out[m] - out[r], axis=1) for m, r in pairs])


def dense_draws(ops, scale, n_sim, seed, pairs, stream_tag=0) -> np.ndarray:
    """The draw matrix sampled block by block from the canonical streams."""
    n = scale.shape[0]
    rows = [
        stream(seed, stream_tag, b).standard_normal((stop - start, n)) * scale
        for b, start, stop in block_bounds(n_sim)
    ]
    return dense_norms(ops, np.vstack(rows), pairs)


def dense_variance(op, variances) -> np.ndarray:
    v = (op * variances) @ op.T
    return 0.5 * (v + v.T)


def assert_columns_close(actual, expected, rtol):
    """Each column within ``rtol`` of its own largest magnitude."""
    scale = np.maximum(np.abs(expected).max(axis=0), 1e-300)
    assert np.all(np.abs(actual - expected) <= rtol * scale)


def _random_design(seed, p, n):
    return DesignMatrix(np.random.default_rng(seed).standard_normal((p, n)))


def _duplicate_row_design():
    rng = np.random.default_rng(11)
    psi = rng.standard_normal((6, 14))
    psi[2] = psi[1]
    return DesignMatrix(psi)


def _paper_like(weighting):
    config = ExperimentConfig(
        n=40,
        p_max=14,
        models=tuple(range(1, 11)),
        m_dagger=6,
        n_sim=600,
        n_hist=1,
        weighting=weighting,
        noise_profile={"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0},
        seeds=Seeds(data=31, noise=32, calibration=33, bootstrap=34),
    ).validate()
    return scenario_family(config, generate_scenario(config))


FAMILIES = {
    "prediction": lambda: _paper_like("prediction"),
    "prediction_scheme": lambda: build_projection_family(
        d := _random_design(1, 7, 25), prediction_weights(d, sigma=1.5), [1, 3, 5, 7]
    ),
    "full_vector": lambda: build_projection_family(
        _random_design(2, 8, 25), np.eye(8), [1, 2, 4, 6]
    ),
    "derivative": lambda: _paper_like("derivative"),
    "subvector": lambda: build_projection_family(
        _random_design(3, 8, 25), np.eye(8)[[0, 2, 5]], [1, 3, 5, 7]
    ),
    "linear_functional": lambda: build_projection_family(
        _random_design(4, 6, 25),
        np.atleast_2d([1.0, -0.5, 0.25, 0.0, 2.0, 1.0]),
        [1, 2, 4, 6],
    ),
    "duplicate_row": lambda: build_projection_family(
        _duplicate_row_design(), np.eye(6), [1, 2, 3, 4, 6]
    ),
    "n_below_m": lambda: build_projection_family(
        _random_design(5, 10, 6), np.eye(10), [2, 4, 5, 8, 10]
    ),
}


# Families whose nested-basis Gram ``A^T A`` is diagonal take the increments
# kernel; the others, among them a subvector loss on a random design and the
# rank-deficient and n < p designs, take the general one.
INCREMENTS = {"derivative", "prediction", "prediction_scheme"}


@pytest.fixture(params=sorted(FAMILIES))
def case(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = FAMILIES[request.param]()
    rng = np.random.default_rng(len(request.param))
    variances = rng.uniform(0.25, 4.0, family.n)
    return family, dense_operators(family), variances, rng


def test_expected_shapes_are_covered():
    # Each rank-deficient model is named by its warning.
    with pytest.warns(SingularGramWarning) as deficient_warnings:
        deficient = FAMILIES["duplicate_row"]()
    with pytest.warns(SingularGramWarning) as wide_warnings:
        wide = FAMILIES["n_below_m"]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        derivative = FAMILIES["derivative"]()
    named = lambda record: [str(w.message).partition(": rank-deficient")[0] for w in record]
    assert named(deficient_warnings) == ["model 3", "model 4", "model 6"]
    assert named(wide_warnings) == ["model 8", "model 10"]
    assert deficient.increments is None and wide.increments is None
    assert wide.basis.shape == (6, 6)  # r = min(M, n) = n
    assert np.all(derivative.weight_matrix[:, 0] == 0.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernel_strategy_follows_structure(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = FAMILIES[name]()
    assert (family.increments is not None) == (name in INCREMENTS)


def test_general_kernel_matches_increments_on_paper_family():
    config = ExperimentConfig(n=200, seeds=Seeds(data=1001)).validate()
    scenario = generate_scenario(config)
    family = scenario_family(config, scenario)
    general = dataclasses.replace(family, increments=None)
    assert family.increments is not None
    variances = scenario.sigma.variances

    fast = sample_joint_draws(family, scenario.sigma, 1000, seed=3).draws
    slow = sample_joint_draws(general, scenario.sigma, 1000, seed=3).draws
    np.testing.assert_allclose(fast, slow, rtol=VALUE_RTOL, atol=0.0)
    y = scenario.f_true + np.sqrt(variances) * np.random.default_rng(5).standard_normal(200)
    for a, b in [
        (pairwise_statistics(family, y), pairwise_statistics(general, y)),
        (pair_traces(family, variances), pair_traces(general, variances)),
    ]:
        np.testing.assert_allclose(list(a.values()), list(b.values()), rtol=VALUE_RTOL, atol=0.0)


def test_materialized_operators_match(case):
    family, ops, _, _ = case
    for m in family.models:
        scale = max(np.abs(ops[m]).max(), 1.0)
        np.testing.assert_allclose(operator(family, m), ops[m], rtol=0, atol=1e-10 * scale)


def test_known_noise_draws_match(case):
    family, ops, variances, _ = case
    pairs = family.pairs()
    draws = sample_joint_draws(family, NoiseSpec(variances), 700, seed=41)
    expected = dense_draws(ops, np.sqrt(variances), 700, 41, pairs)
    assert_columns_close(draws.draws, expected, DRAW_RTOL)


def test_multiplier_draws_and_dims_match(case):
    family, ops, _, rng = case
    residuals = rng.standard_normal(family.n)
    residuals[0] = 0.0  # a vanishing residual leaves S singular
    pairs = family.pairs()
    draws = multiplier_draws(family, residuals, 600, seed=43, stream_tag=5)
    expected = dense_draws(ops, residuals, 600, 43, pairs, stream_tag=5)
    assert_columns_close(draws.draws, expected, DRAW_RTOL)

    w2 = residuals**2
    dims = pair_traces(family, w2)
    singles = single_traces(family, w2)
    for m, m_ref in pairs:
        diff = ops[m] - ops[m_ref]
        dense = float(np.einsum("qi,qi,i->", diff, diff, w2))
        assert dims[(m, m_ref)] == pytest.approx(dense, rel=MOMENT_RTOL, abs=1e-14)
    for m in family.models:
        dense = float(np.einsum("qi,qi,i->", ops[m], ops[m], w2))
        assert singles[m] == pytest.approx(dense, rel=MOMENT_RTOL, abs=1e-14)


def test_moments_match(case):
    family, ops, variances, _ = case
    noise = NoiseSpec(variances)
    moments = all_pair_moments(family, noise)
    assert list(moments) == family.pairs()
    checks = [(moments[(m, r)], ops[m] - ops[r]) for m, r in family.pairs()]
    checks += [(single_variance(family, noise, m), ops[m]) for m in family.models]
    for mom, op in checks:
        v = dense_variance(op, variances)
        trace = float(np.trace(v))
        top = max(float(np.linalg.eigvalsh(v)[-1]), 0.0)
        tol = MOMENT_RTOL * max(trace, 1e-300)
        assert abs(mom.p_pair - trace) <= tol
        assert abs(mom.lambda_pair - top) <= tol


def _load(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = FAMILIES[name]()
    return family, NoiseSpec(np.random.default_rng(7).uniform(0.25, 4.0, family.n))


@pytest.mark.parametrize("name", ["derivative", "prediction", "subvector"])
def test_pair_moments_do_not_depend_on_the_batch(name):
    # The window route (increments) and the Gram route (subvector) give a pair
    # the same bits whether it is solved alone or with every other pair.
    family, noise = _load(name)
    batch = all_pair_moments(family, noise)
    for m, m_ref in family.pairs():
        assert pair_variance(family, noise, m, m_ref) == batch[(m, m_ref)]
    singles = _pair_moments(family, noise, [(m, 0) for m in family.models])
    for m in family.models:
        assert single_variance(family, noise, m) == singles[(m, 0)]


@pytest.mark.parametrize("name", ["prediction_scheme", "subvector"])
def test_pair_variance_rejects_pairs_outside_the_order(name):
    # models [1, 3, 5, 7]: reference 2 is no model, and (3, 5) runs backwards.
    family, noise = _load(name)
    assert (family.increments is not None) == (name in INCREMENTS)
    for m, m_ref in [(5, 2), (3, 5), (3, 3)]:
        with pytest.raises(NotOrderedPair):
            pair_variance(family, noise, m, m_ref)


def _spy_eigvalsh(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


@pytest.mark.parametrize("name", ["prediction", "prediction_scheme"])
def test_window_route_solves_window_sized_blocks(name, monkeypatch):
    # "prediction" has models 1..10 (adjacent windows of one coordinate);
    # "prediction_scheme" has models [1, 3, 5, 7] (windows of two or more).
    family, noise = _load(name)
    assert family.increments is not None
    shapes = _spy_eigvalsh(monkeypatch)
    for m_ref, m in zip(family.models, family.models[1:]):
        shapes.clear()
        pair_variance(family, noise, m, m_ref)
        assert shapes == [(1, m - m_ref, m - m_ref)]
    shapes.clear()
    all_pair_moments(family, noise)
    widths = collections.Counter(m - m_ref for m, m_ref in family.pairs())
    assert {s[1]: s[0] for s in shapes} == widths
    assert all(s[1] == s[2] for s in shapes) and len(shapes) == len(widths)
    if name == "prediction":
        assert (family.models[-1] - 1, 1, 1) in shapes


def test_general_family_keeps_the_gram_route(monkeypatch):
    family, noise = _load("subvector")
    assert family.increments is None
    shapes = _spy_eigvalsh(monkeypatch)
    all_pair_moments(family, noise)
    side = min(family.reduced.shape[1], family.basis.shape[1])
    assert len(shapes) == len(family.models) - 1  # one solve per reference
    assert all(s[1:] == (side, side) for s in shapes)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), family=small_families(kinds=("prediction", "derivative")))
def test_window_moments_match_dense_on_trigonometric_families(seed, family):
    assert family.increments is not None
    variances = np.random.default_rng(seed).uniform(0.1, 5.0, family.n)
    ops = dense_operators(family)
    for (m, m_ref), mom in all_pair_moments(family, NoiseSpec(variances)).items():
        v = dense_variance(ops[m] - ops[m_ref], variances)
        top = max(float(np.linalg.eigvalsh(v)[-1]), 0.0)
        assert abs(mom.lambda_pair - top) <= MOMENT_RTOL * max(float(np.trace(v)), 1e-300)


def test_statistics_match(case):
    family, ops, _, rng = case
    y = rng.standard_normal(family.n) * 3.0
    stats = pairwise_statistics(family, y)
    pairs = family.pairs()
    expected = dense_norms(ops, y[None], pairs)[0]
    actual = np.array([stats[p] for p in pairs])
    assert np.all(np.abs(actual - expected) <= VALUE_RTOL * max(expected.max(), 1e-300))


def test_risk_profile_matches(case):
    family, ops, variances, rng = case
    f = rng.standard_normal(family.n)
    target = family.weight_matrix @ best_linear_coefficients(family, f)
    for point in risk_profile(family, f, NoiseSpec(variances)):
        op = ops[point.m]
        bias2 = float(np.sum((op @ f - target) ** 2))
        var = float(np.sum(op * op * variances))
        assert point.bias2 == pytest.approx(bias2, rel=VALUE_RTOL, abs=1e-12)
        assert point.variance == pytest.approx(var, rel=MOMENT_RTOL)


def test_check_ordering_matches(case):
    family, ops, variances, _ = case
    report = check_ordering(family, NoiseSpec(variances))
    for m_ref, m in zip(family.models, family.models[1:]):
        v_lo = dense_variance(ops[m_ref], variances)
        v_hi = dense_variance(ops[m], variances)
        low = float(np.linalg.eigvalsh(v_hi - v_lo)[0])
        scale = float(np.linalg.eigvalsh(v_hi)[-1])
        assert report.pair_ordered[(m, m_ref)] == (low >= -PSD_TOL * max(scale, 1e-300))
        assert report.min_eigenvalues[(m, m_ref)] == pytest.approx(low, abs=1e-10 * scale)


def test_excess_risk_matches(case):
    family, ops, variances, _ = case
    noise = NoiseSpec(variances)
    m = family.models[2]
    m_prev = family.predecessor(m)
    pairs = [(mp, m_prev) for mp in successors(family, m_prev)]
    est = excess_risk_mc(family, noise, m, x_candidate=1.5, n_sim=700, seed=47)

    scale = np.sqrt(variances)
    rows = np.vstack(
        [
            stream(47, 0, b).standard_normal((stop - start, family.n)) * scale
            for b, start, stop in block_bounds(700)
        ]
    )
    norms = dense_norms(ops, rows, pairs)
    own2 = np.sum((rows @ ops[m].T) ** 2, axis=1)
    z = np.sort(norms, axis=0)[_tail_rank(1.5, 700) - 1]
    fired = np.any(norms > z[None, :], axis=1)
    p_m = float(np.sum(ops[m] * ops[m] * variances))
    integrand = np.maximum(own2 / p_m, 1.0) * fired
    assert est.value == pytest.approx(float(integrand.mean()), rel=VALUE_RTOL)
    stderr = float(integrand.std(ddof=1) / math.sqrt(700))
    assert est.stderr == pytest.approx(stderr, rel=1e-8)


def test_paper_family_build_allocates_little():
    # The paper config: n = 200, 37 nested models.  The reduced family holds
    # a 200 x 37 basis and two 37 x 37 x 37 maps, well under a megabyte.
    config = ExperimentConfig(n=200, seeds=Seeds(data=1001)).validate()
    scenario = generate_scenario(config)
    tracemalloc.start()
    try:
        family = scenario_family(config, scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.basis.shape == (200, 37)
    assert peak < 20 * 2**20, f"family build peaked at {peak / 2**20:.1f} MB"


def _diagnostics_cases():
    """Families for the low-rank diagnostics, with noise, truth and pilot size."""
    config = ExperimentConfig(n=200, seeds=Seeds(data=1001)).validate()
    scenario = generate_scenario(config)
    paper = scenario_family(config, scenario)
    toy_design = DesignMatrix(np.hstack([np.eye(3), np.zeros((3, 1))]))
    toy = build_projection_family(toy_design, np.eye(3), [1, 2, 3])
    rng = np.random.default_rng(19)
    random = build_projection_family(_random_design(6, 8, 30), np.eye(8), [2, 4, 8])
    # Rows 6 and 7 coincide: the 9-row pilot block has rank 8, the models stay full rank.
    psi = rng.standard_normal((10, 14))
    psi[7] = psi[6]
    truncated = build_projection_family(DesignMatrix(psi), np.eye(10), [1, 2, 4])
    return {
        "paper": (paper, scenario.sigma, scenario.f_true, config.m_dagger),
        "toy_2k_above_n": (
            toy, NoiseSpec([1.0, 4.0, 0.25, 2.0]), np.array([0.3, -1.0, 2.0, 0.7]), 3
        ),
        "random_heteroscedastic": (
            random, NoiseSpec(rng.uniform(0.2, 5.0, 30)), rng.standard_normal(30), 5
        ),
        "truncated_pilot": (
            truncated, NoiseSpec(rng.uniform(0.2, 5.0, 14)), rng.standard_normal(14), 9
        ),
    }


@pytest.mark.parametrize(
    "name", ["paper", "toy_2k_above_n", "random_heteroscedastic", "truncated_pilot"]
)
def test_validity_diagnostics_match_dense(name):
    family, noise, f_true, m_dagger = _diagnostics_cases()[name]
    k = pilot_basis(family, m_dagger).shape[1]
    if name == "toy_2k_above_n":
        assert 2 * k > family.n
    if name == "truncated_pilot":
        assert k < m_dagger
    low_rank = dataclasses.asdict(validity_diagnostics(family, noise, f_true, m_dagger, 2.0))
    dense = dataclasses.asdict(dense_validity_diagnostics(family, noise, f_true, m_dagger, 2.0))
    assert low_rank.keys() == dense.keys() and len(dense) == 16
    for field, value in dense.items():
        assert low_rank[field] == pytest.approx(value, rel=1e-12, abs=0.0), field


def test_validity_diagnostics_allocate_little():
    # The paper config at n = 2000: the dense n x n form peaks at ~184 MB.
    config = ExperimentConfig(n=2000, seeds=Seeds(data=1001)).validate()
    scenario = generate_scenario(config)
    family = scenario_family(config, scenario)
    tracemalloc.start()
    try:
        validity_diagnostics(family, scenario.sigma, scenario.f_true, config.m_dagger, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"diagnostics peaked at {peak / 2**20:.1f} MB"
