"""The pair kernel, written in place, against the running-buffer kernel.

``ModelFamily.pair_squares`` writes its squares straight into the caller's
array.  For a block of rows, window sums are built by window length and
scattered to their rows, and the sampler hands it each row block of the
column-major draw matrix.  One data vector (a 1-D ``xi``) is gathered by
``PairOrder.hankel_steps`` into the Hankel matrix of its zero-padded model
steps, summed cumulatively along its rows and gathered by
``PairOrder.hankel``; on the general ``D_m`` route it takes its row of the
block.  ``reference.pair_squares`` is the kernel these replaced: a
``M x M x B`` running buffer gathered into a fresh array.  All three add
every window's steps left to right from its first step, so the results
must be equal bit for bit, on increments and general ``D_m`` families, for
any pair list, any row count and one data vector.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smaselect.family as family_module
from smaselect import (
    CalibrationTable,
    DesignMatrix,
    NonFiniteInput,
    build_projection_family,
    calibrate,
    sample_joint_draws,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.calibration import _sample_scaled_norms
from smaselect.errors import DimensionMismatch
from smaselect.experiment import ExperimentConfig, Seeds, generate_scenario, scenario_family
from smaselect.family import pair_order
from smaselect.moments import single_traces
from smaselect.rng import BLOCK_ROWS, block_bounds, stream
from smaselect.selector import payment_theory_cap
import reference
from reference import excess_risk_mc

ROWS = (1, "r", 511, 512, 513, 1000)


def _paper_like():
    config = ExperimentConfig(
        n=60,
        p_max=20,
        models=tuple(range(1, 13)),
        m_dagger=6,
        n_sim=600,
        n_hist=1,
        noise_profile={"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0},
        seeds=Seeds(data=41, noise=42, calibration=43, bootstrap=44),
    ).validate()
    scenario = generate_scenario(config)
    return scenario_family(config, scenario), scenario


def _design(seed, p, n):
    return DesignMatrix(np.random.default_rng(seed).standard_normal((p, n)))


FAMILIES = {
    # Increments, one model step per coordinate.
    "increments": lambda: _paper_like()[0],
    # Increments with gaps: a model step sums several coordinates.
    "increments_gaps": lambda: build_projection_family(
        d := _design(7, 12, 40), reference.prediction_weights(d, sigma=1.3), [2, 3, 6, 7, 11, 12]
    ),
    # The general D_m kernel on a loss whose nested Gram is not diagonal.
    "general": lambda: build_projection_family(
        _design(8, 10, 40), np.eye(10)[[0, 3, 4, 8]], [1, 2, 4, 5, 8, 10]
    ),
    # The general kernel on the paper-like family.
    "general_paper": lambda: dataclasses.replace(_paper_like()[0], increments=None),
}

# One model: no pair to compare, so the canonical layout is empty.
ONE_MODEL = {
    "increments_one_model": lambda: build_projection_family(
        d := _design(9, 6, 20), reference.prediction_weights(d), [4]
    ),
    "general_one_model": lambda: build_projection_family(
        _design(10, 6, 20), np.eye(6)[[0, 2]] + 0.5, [4]
    ),
}
WITH_ONE_MODEL = {**FAMILIES, **ONE_MODEL}


def _pair_lists(family, rng):
    canonical = family.pairs()
    singles = [(m, 0) for m in family.models]
    subset = [canonical[i] for i in rng.permutation(len(canonical))[: len(canonical) // 3]]
    mixed = canonical + singles
    return {
        "canonical": canonical,
        "shuffled_subset": subset,
        "singles": singles,
        "mixed_shuffled": [mixed[i] for i in rng.permutation(len(mixed))],
    }


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_canonical_pairs_in_any_sequence_skip_regrouping(name, monkeypatch):
    # A tuple (or list) equal to the canonical pairs reads the layout built
    # once per model tuple; only another order is laid out, once, and the
    # kernels read the layout they are given.
    family = FAMILIES[name]()
    canonical = pair_order(family.models).pairs
    calls = []
    real = family_module._layout

    def spy(models, pairs):
        calls.append(pairs)
        return real(models, pairs)

    monkeypatch.setattr(family_module, "_layout", spy)
    xi = family.reduce(np.ones((2, family.n)))
    weights = np.ones((family.largest, 2))
    for pairs in (canonical, tuple(family.pairs()), family.pairs()):
        order = pair_order(family.models, pairs)
        family.pair_windows(weights, order)
        family.pair_squares(xi, order)
    pairwise_statistics(family, np.ones(family.n))
    assert calls == []
    order = pair_order(family.models, list(canonical[::-1]))
    family.pair_windows(weights, order)
    family.pair_squares(xi, order)
    assert calls == [canonical[::-1]]


def test_each_entry_point_lays_out_its_pair_list_once(monkeypatch):
    # A list becomes a layout where it enters; the sampler's row blocks,
    # the traces and the moments read that layout instead of building it
    # again, so an excess-risk run over several row blocks lays out once.
    family, scenario = _paper_like()
    sigma = scenario.sigma
    pair_order(family.models)  # the canonical layout, built once per model tuple
    table = CalibrationTable(
        x_level=2.0,
        alpha_plus=1.0,
        ranks={},
        critical={},
        pair_dims={},
        mode="probabilistic",
    )
    calls = []
    real = family_module._layout

    def spy(models, pairs):
        calls.append(pairs)
        return real(models, pairs)

    monkeypatch.setattr(family_module, "_layout", spy)
    for entry in (
        lambda: excess_risk_mc(family, sigma, 5, 2.0, 3 * BLOCK_ROWS, seed=1),
        lambda: single_traces(family, sigma.variances),
        lambda: payment_theory_cap(family, sigma, 5, table),
    ):
        calls.clear()
        entry()
        assert len(calls) == 1


def _plain(index) -> list:
    """A slice or an index array of a layout as a list."""
    return list(range(index.start, index.stop)) if isinstance(index, slice) else index.tolist()


@st.composite
def models_and_pairs(draw):
    """Increasing models with gaps and a pair list over them: the canonical
    pairs as a list or tuple, or a shuffled subset, with or without
    ``(m, 0)`` pairs, in which one pair may appear twice."""
    models = tuple(sorted(draw(st.sets(st.integers(1, 16), min_size=1, max_size=8))))
    canonical = [(m, m_ref) for i, m_ref in enumerate(models) for m in models[i + 1 :]]
    kind = draw(st.sampled_from(["list", "tuple", "shuffled"]))
    if kind != "shuffled":
        return models, canonical if kind == "list" else tuple(canonical)
    pool = canonical + ([(m, 0) for m in models] if draw(st.booleans()) else [])
    pairs = draw(st.permutations(pool))[: draw(st.integers(0, len(pool)))]
    if pairs and draw(st.integers(0, 3)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    return models, pairs


@settings(max_examples=200, deadline=None)
@given(case=models_and_pairs(), seed=st.integers(0, 2**32 - 1))
def test_pair_order_matches_the_pair_by_pair_layout(case, seed):
    models, pairs = case
    if len(set(pairs)) < len(pairs):
        with pytest.raises(DimensionMismatch, match="more than once"):
            pair_order(models, pairs)
        return
    order = pair_order(models, pairs)
    expected = reference.pair_layout(models, list(pairs))
    assert order.pairs == tuple(pairs)
    assert order.index == expected["index"]
    groups = [(m_ref, ref, _plain(rows), _plain(cols)) for m_ref, ref, rows, cols in order.groups]
    assert groups == expected["groups"]
    assert order.first.tolist() == expected["first"]
    assert order.last.tolist() == expected["last"]
    assert [(_plain(f), _plain(rows)) for f, rows in order.windows] == expected["windows"]
    assert order.hankel_steps.tolist() == expected["hankel_steps"]
    assert order.hankel.tolist() == expected["hankel"]
    assert not order.hankel_steps.flags.writeable and not order.hankel.flags.writeable
    assert order.starts.tolist() == expected["starts"]
    assert order.step_starts.tolist() == [0, *models[:-1]]
    assert not order.step_starts.flags.writeable
    if tuple(pairs) == pair_order(models).pairs:
        assert order is pair_order(models)

    # The kernel on this list gives the canonical columns (and each model
    # alone for (m, 0)), on the window and the Gram routes, for blocks of
    # one and three rows and for one data vector (the window route's Hankel
    # gather), which equals its row of the block.
    rng = np.random.default_rng(seed)
    design = DesignMatrix(rng.standard_normal((models[-1], models[-1] + 3)))
    family = build_projection_family(design, reference.prediction_weights(design), models)
    assert family.increments is not None
    canonical = pair_order(models).pairs
    layouts = [pair_order(models), pair_order(models, [(m, 0) for m in models])]
    rows = [canonical.index(p) if p[1] else len(canonical) + models.index(p[0]) for p in pairs]
    for b in (1, 3):
        xi = family.reduce(rng.standard_normal((b, family.n)))
        for route in (family, dataclasses.replace(family, increments=None)):
            whole = np.vstack([route.pair_squares(xi, layout) for layout in layouts])
            got = route.pair_squares(xi, order)
            assert np.array_equal(got, whole[rows].reshape(len(rows), b))
            if b == 1:
                vector = route.pair_squares(xi[0], order)
                assert vector.shape == (len(rows),)
                assert np.array_equal(vector, got[:, 0])


@pytest.mark.parametrize("name", sorted(WITH_ONE_MODEL))
def test_family_takes_the_kernel_its_name_says(name):
    assert (WITH_ONE_MODEL[name]().increments is not None) == name.startswith("increments")


@pytest.mark.parametrize("name", sorted(WITH_ONE_MODEL))
def test_pair_squares_equal_running_buffer_kernel(name):
    family = WITH_ONE_MODEL[name]()
    rng = np.random.default_rng(3)
    r = family.basis.shape[1]
    for label, pairs in _pair_lists(family, rng).items():
        order = pair_order(family.models, pairs)
        for rows in ROWS:
            b = r if rows == "r" else rows
            xi = rng.standard_normal((b, r)) * rng.uniform(0.1, 10.0, r)
            got = family.pair_squares(xi, order)
            assert got.shape == (len(pairs), b)
            assert np.array_equal(got, reference.pair_squares(family, xi, pairs)), (label, b)
        # One data vector: a 1-D result, bit-equal to the block's B = 1 row.
        xi = rng.standard_normal(r) * rng.uniform(0.1, 10.0, r)
        got = family.pair_squares(xi, order)
        assert got.shape == (len(pairs),)
        assert np.array_equal(got, family.pair_squares(xi[None], order)[:, 0]), label
        assert np.array_equal(got, reference.pair_squares(family, xi[None], pairs)[:, 0]), label


@pytest.mark.parametrize("name", sorted(WITH_ONE_MODEL))
def test_pair_squares_fill_a_strided_out(name):
    # 37 rows, and one row, which takes the by-length loop as any block
    # does; then one data vector into a strided column.  An empty pair
    # list has nothing to write, so its result shares no memory.
    family = WITH_ONE_MODEL[name]()
    rng = np.random.default_rng(4)
    for b in (37, 1):
        xi = family.reduce(rng.standard_normal((b, family.n)))
        for pairs in _pair_lists(family, rng).values():
            expected = reference.pair_squares(family, xi, pairs)
            order = pair_order(family.models, pairs)
            # A block of columns of a column-major draw buffer, as the sampler passes.
            buf = np.full((len(pairs), 50), np.nan)
            returned = family.pair_squares(xi, order, out=buf[:, 5 : 5 + b])
            assert np.shares_memory(returned, buf) or not pairs
            assert np.array_equal(buf[:, 5 : 5 + b], expected)
            assert np.isnan(buf[:, :5]).all() and np.isnan(buf[:, 5 + b :]).all()
            # A transposed (Fortran-ordered) view.
            rows_first = np.full((b, len(pairs)), np.nan)
            family.pair_squares(xi, order, out=rows_first.T)
            assert np.array_equal(rows_first.T, expected)
            if b == 1:
                returned = family.pair_squares(xi[0], order, out=buf[:, 7])
                assert np.shares_memory(returned, buf) or not pairs
                assert np.array_equal(buf[:, 7], expected[:, 0])


def test_paper_config_statistics_equal_running_buffer_kernel():
    # The paper's n = 200, 37-model family has 36 window lengths, against at
    # most 11 in FAMILIES: each data vector takes the one-row Hankel gather.
    config = ExperimentConfig(n=200).validate()
    scenario = generate_scenario(config)
    family = scenario_family(config, scenario)
    assert len(family.models) == 37 and family.increments is not None
    pairs = family.pairs()
    sd = np.sqrt(scenario.sigma.variances)
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = scenario.f_true + sd * rng.standard_normal(family.n)
        expected = np.sqrt(reference.pair_squares(family, family.reduce(y)[None], pairs))[:, 0]
        assert np.array_equal(pairwise_statistics(family, y).array, expected)


def _reference_draws(family, scale, n_sim, seed, pairs, stream_tag=0):
    """Draws block by block from the streams, through the running-buffer kernel."""
    out = np.empty((n_sim, len(pairs)))
    for b, start, stop in block_bounds(n_sim):
        z = stream(seed, stream_tag, b).standard_normal((stop - start, family.n))
        squares = reference.pair_squares(family, family.reduce(z * scale), pairs)
        out[start:stop] = np.sqrt(squares).T
    return out


@pytest.mark.parametrize("name", ["increments", "general_paper"])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_draws_equal_running_buffer_kernel(name, n_workers):
    # The wrapper checks n_workers and samples on one thread: its draws
    # are the same bits whatever worker count it is handed.
    family = FAMILIES[name]()
    _, scenario = _paper_like()
    scale = np.sqrt(scenario.sigma.variances)
    pairs = family.pairs()
    # Three blocks, the last a short one.
    n_sim = 1100
    draws = sample_joint_draws(family, scenario.sigma, n_sim, seed=9, n_workers=n_workers)
    assert np.array_equal(draws.draws, _reference_draws(family, scale, n_sim, 9, pairs))

    rng = np.random.default_rng(5)
    subset = _pair_lists(family, rng)["mixed_shuffled"]
    order = pair_order(family.models, subset)
    multiplier = _sample_scaled_norms(family, scale, 700, 11, order, stream_tag=3)
    assert list(multiplier.order.index) == subset
    assert np.array_equal(
        multiplier.draws, _reference_draws(family, scale, 700, 11, subset, stream_tag=3)
    )


@pytest.mark.parametrize("name", ["increments", "general"])
def test_sampler_grouping_equals_grouping_from_columns(name):
    # The sampler hands the draw matrix the order it sampled in; its
    # references, their comparisons and their columns are those of the
    # pair-by-pair layout of the columns' pairs.
    family = FAMILIES[name]()
    rng = np.random.default_rng(6)
    scale = np.full(family.n, 0.7)
    for pairs in _pair_lists(family, rng).values():
        draws = _sample_scaled_norms(family, scale, 40, 2, pair_order(family.models, pairs))
        assert draws.order.pairs == tuple(pairs)
        if pairs == family.pairs():
            assert draws.order is pair_order(family.models)
        groups = reference.pair_layout(family.models, pairs)["groups"]
        assert draws.references() == [m_ref for m_ref, *_ in groups]
        for m_ref, _, _, cols in groups:
            assert draws.comparisons(m_ref) == [pairs[c] for c in cols]
            assert [draws.order.index[pairs[c]] for c in cols] == cols


@pytest.mark.parametrize("name", ["increments", "general"])
def test_overflowing_squares_raise_non_finite(name):
    # A finite scale whose squares overflow: the in-place squares are inf
    # (or NaN from inf - inf), and calibrate refuses the draw matrix.
    family = FAMILIES[name]()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
        calibrate(family, np.full(family.n, 1e200), 600, 1, 2.0, 1.0)
