"""The pair kernel, written in place, against the running-buffer kernel.

``ModelFamily.pair_squares`` writes its squares straight into the caller's
array.  For a block of rows, window sums are built by one suffix recursion
over the model steps (``window_blocks``) and copied to their rows, one
block per reference; the sampler writes each row block of its buffer
through it, or through ``step_squares`` on a family with increments, and
the tests' draws come from ``reference.sample_in_order``, which draws each
block's normals whole.  One data vector (a 1-D ``xi``) is gathered by
``PairOrder.hankel_steps`` into the reversed Hankel matrix of its
zero-padded model steps, summed cumulatively along its rows and gathered by
``PairOrder.hankel``; on the general ``D_m`` route it takes its row of the
block.  ``reference.pair_squares`` is a ``M x M x B`` running table
gathered into a fresh array.  All three add every window's steps right to
left, from its last step down to its first, so the results must be equal
bit for bit, on increments and general ``D_m`` families, for any pair list,
any row count and one data vector.
"""

import dataclasses
from fractions import Fraction
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smaselect.family as family_module
import smaselect.moments as moments_module
from smaselect import (
    CalibrationTable,
    DesignMatrix,
    NonFiniteInput,
    TailTooDeepWarning,
    build_projection_family,
    calibrate,
    presmooth,
    propagation_failures,
    sample_draws,
    sample_joint_draws,
)
from smaselect import test_statistics as pairwise_statistics
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
    steps = np.ones((len(family.models), 2))
    for pairs in (canonical, tuple(family.pairs()), family.pairs()):
        order = pair_order(family.models, pairs)
        family.pair_windows(steps, order)
        family.pair_squares(xi, order)
    pairwise_statistics(family, np.ones(family.n))
    assert calls == []
    order = pair_order(family.models, list(canonical[::-1]))
    family.pair_windows(steps, order)
    family.pair_squares(xi, order)
    assert calls == [canonical[::-1]]


def test_each_entry_point_lays_out_its_pair_list_once(monkeypatch):
    # A list becomes a layout where it enters; the sampler's row blocks,
    # the traces and the moments read that layout instead of building it
    # again, so an excess-risk run over several row blocks lays out once.
    # calibrate reads the canonical layout alone, its step weights included,
    # and the (m, 0) singles of single_traces and of power-loss calibrate
    # are laid out once per model tuple: a repeat call lays out none.  The
    # other entry points' lists depend on a model, and take one per call.
    family, scenario = _paper_like()
    sigma = scenario.sigma
    sd = np.sqrt(sigma.variances)
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
    entries = {  # entry point: its layouts on a fresh model tuple, then on a repeat call
        "excess_risk_mc": (
            lambda: excess_risk_mc(family, sigma, 5, 2.0, 3 * BLOCK_ROWS, seed=1),
            1,
            1,
        ),
        "payment_theory_cap": (lambda: payment_theory_cap(family, sigma, 5, table), 1, 1),
        "single_traces": (lambda: single_traces(family, sigma.variances), 1, 0),
        "calibrate": (lambda: calibrate(family, sd, 3 * BLOCK_ROWS, 1, 2.0, 1.0), 0, 0),
        "calibrate_power": (  # the singles
            lambda: calibrate(family, sd, 3 * BLOCK_ROWS, 1, 2.0, 1.0, "power_loss", 1.0),
            1,
            0,
        ),
    }
    for name, (entry, fresh, repeat) in entries.items():
        # As on a fresh model tuple: no list is cached yet but the canonical one.
        moments_module._single_order.cache_clear()
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            entry()
            assert len(calls) == len(set(calls)) == fresh, name
            calls.clear()
            entry()
        assert len(calls) == repeat, name


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


@settings(max_examples=150, deadline=None)
@given(case=models_and_pairs(), seed=st.integers(0, 2**32 - 1), b=st.integers(1, 4))
def test_window_routes_agree_and_keep_each_sums_precision(case, seed, b):
    # The block kernel, the one-vector route and the blocks window_blocks
    # streams to calibrate's table agree bit for bit on any pair order over
    # models with gaps, and a window of w steps is within (w - 1) 2^-53 of
    # the exact sum of its steps, relatively: the bound of a running sum of
    # nonnegative terms, whatever the direction it adds them in.
    models, pairs = case
    if len(set(pairs)) < len(pairs):
        return
    order = pair_order(models, pairs)
    rng = np.random.default_rng(seed)
    design = DesignMatrix(rng.standard_normal((models[-1], models[-1] + 3)))
    family = build_projection_family(design, reference.prediction_weights(design), models)
    r = family.basis.shape[1]
    xi = rng.standard_normal((b, r)) * np.exp(rng.uniform(-4.0, 4.0, r))
    block = family.pair_squares(xi, order)
    for row in range(b):
        assert np.array_equal(family.pair_squares(xi[row], order), block[:, row])
    steps = family.step_squares(xi, order)
    before = steps.copy()
    family.pair_windows(steps, order)
    assert steps.tobytes() == before.tobytes()  # the public method leaves its argument as it was
    streamed = np.full_like(block, np.nan)
    for (*_, cols), rows in family.window_blocks(steps.copy(), order):  # it consumes its steps
        streamed[cols] = rows
    assert np.array_equal(streamed, block)
    for i, (lo, hi) in enumerate(zip(order.first.tolist(), order.last.tolist())):
        for row in range(b):
            exact = sum(map(Fraction, steps[lo : hi + 1, row].tolist()))
            error = abs(Fraction(block[i, row]) - exact)
            assert error <= (hi - lo) * Fraction(1, 2**53) * exact, (pairs[i], row)


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
    # 37 rows, and one row, which takes the suffix recursion as any block
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
    # most 11 in FAMILIES: each data vector takes the reversed Hankel gather.
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


def _same_columns(oracle, draws):
    """Every column of ``oracle`` but a model alone's equals ``draws``' column of its pair."""
    for pair, col in oracle.order.index.items():
        if pair[1]:  # the library samples no model alone
            column = draws.draws[:, draws.order.index[pair]]
            assert np.array_equal(oracle.draws[:, col], column), pair


@pytest.mark.parametrize("name", ["increments", "general_paper"])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_draws_equal_running_buffer_kernel(name, n_workers):
    # The wrapper checks n_workers and samples on one thread: its draws
    # are the same bits whatever worker count it is handed.
    family = FAMILIES[name]()
    _, scenario = _paper_like()
    scale = np.sqrt(scenario.sigma.variances)
    # Three blocks, the last a short one.
    n_sim = 1100
    draws = sample_joint_draws(family, scenario.sigma, n_sim, seed=9, n_workers=n_workers)
    want = reference.sample_in_order(family, scale, n_sim, 9, pair_order(family.models))
    assert np.array_equal(draws.draws, want.draws)

    rng = np.random.default_rng(5)
    subset = _pair_lists(family, rng)["mixed_shuffled"]
    order = pair_order(family.models, subset)
    multiplier = reference.sample_in_order(family, scale, 700, 11, order, stream_tag=3)
    assert list(multiplier.order.index) == subset
    _same_columns(multiplier, sample_draws(family, scale, 700, 11, stream_tag=3))


@pytest.mark.parametrize("n_sim", [1, 63, 64, 65, 511, 512, 513, 577, 1100])
@pytest.mark.parametrize("name", ["increments", "general_paper"])
def test_chunked_normals_equal_whole_block_draws(name, n_sim):
    # The sampler draws and reduces each block's normals in chunks of 64
    # rows; a lone last row joins the chunk before it (65, 577), since one
    # row would be reduced by a matrix-vector product.  Every count on
    # either side of a chunk or block boundary, a 12-row chunk (1100) and a
    # one-row block (1, 513): the draws are the whole-block oracle's bits,
    # in the canonical order and, pair for pair, in a shuffled one, and
    # calibrate's table is the one built on the oracle's draws.
    family = FAMILIES[name]()
    _, scenario = _paper_like()
    sd = np.sqrt(scenario.sigma.variances)
    y = scenario.f_true + sd * np.random.default_rng(8).standard_normal(family.n)
    scales = {"known": sd, "residual": presmooth(family, y, 6)}
    subset = _pair_lists(family, np.random.default_rng(5))["mixed_shuffled"]
    for (kind, scale), stream_tag in itertools.product(scales.items(), [0, 3]):
        want = reference.sample_in_order(
            family, scale, n_sim, 9, pair_order(family.models), stream_tag
        )
        draws = sample_draws(family, scale, n_sim, 9, stream_tag)
        assert np.array_equal(draws.draws, want.draws), (kind, stream_tag)
        shuffled = reference.sample_in_order(
            family, scale, n_sim, 9, pair_order(family.models, subset), stream_tag
        )
        _same_columns(shuffled, draws)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailTooDeepWarning)
            table = calibrate(family, scale, n_sim, 9, 2.0, 1.0, stream_tag=stream_tag)
            want = reference.matrix_table(
                family, scale, n_sim, 9, 2.0, 1.0, "probabilistic", stream_tag
            )
        assert reference.same_table(table, want), (kind, stream_tag)


def test_sampler_memory_does_not_scale_with_block_rows_times_n():
    # At n = 2,000 one 512-row block of normals is 8.2 MB; the sampler holds
    # a 65-row chunk of them (1.04 MB) and a 512 x r block of their reduced
    # coordinates, so its working memory stays near 1.2 MB.
    family = _study_family(n=2000, p_max=10, models=tuple(range(1, 11)), m_dagger=5)
    scale = np.full(family.n, 0.7)
    sample_draws(family, scale, 1000, 5)  # the pair layout is cached, as in any later call
    tracemalloc.start()
    try:
        draws = sample_draws(family, scale, 1000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - draws.draws.nbytes < 2e6, peak


@pytest.mark.parametrize("name", ["increments", "general"])
def test_sampler_grouping_equals_grouping_from_columns(name):
    # The sampler hands the draw matrix the order it sampled in; its
    # references, their comparisons and their columns are those of the
    # pair-by-pair layout of the columns' pairs.
    family = FAMILIES[name]()
    rng = np.random.default_rng(6)
    scale = np.full(family.n, 0.7)
    for pairs in _pair_lists(family, rng).values():
        draws = reference.sample_in_order(family, scale, 40, 2, pair_order(family.models, pairs))
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
    # A finite scale whose squares overflow: the variances are inf, and
    # calibrate refuses them before drawing.
    family = FAMILIES[name]()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NonFiniteInput, match="noise variances"
    ):
        calibrate(family, np.full(family.n, 1e200), 600, 1, 2.0, 1.0)


@pytest.mark.parametrize("name", ["increments", "general_paper"])
def test_overflowing_draws_raise_non_finite(name):
    # Finite variances, 1e308, whose squared draws overflow: the streamed
    # per-reference check (increments) and the draw matrix's (the general
    # kernel) refuse them with one message.  The "general" family's draws
    # stay below its scale, so no finite variance overflows them.
    family = FAMILIES[name]()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NonFiniteInput, match="draw matrix contains NaN or infinite values"
    ):
        calibrate(family, np.full(family.n, 1e154), 600, 1, 2.0, 1.0)


def test_overflowing_running_sums_raise_non_finite():
    # Finite step weights whose running sums overflow: the streamed table
    # checks the steps once and each reference's last row, its largest sums.
    family, scale = FAMILIES["increments"](), np.full(60, 3e153)
    order = pair_order(family.models)
    with np.errstate(over="ignore", invalid="ignore"):
        # The step weights of the stream's whole-block normals.
        normals = [stream(1, 0, b).standard_normal((hi - lo, 60)) for b, lo, hi in block_bounds(600)]
        steps = np.hstack([family.step_squares(family.reduce(z * scale), order) for z in normals])
        assert np.isfinite(steps).all() and not np.isfinite(steps.sum(axis=0)).all()
        with pytest.raises(NonFiniteInput, match="draw matrix contains NaN or infinite values"):
            calibrate(family, scale, 600, 1, 2.0, 1.0)


def _study_family(**fields):
    config = ExperimentConfig(**fields).validate()
    return scenario_family(config, generate_scenario(config))


def _random_design(weighting, models):
    return _study_family(
        n=120, p_max=40, models=models, m_dagger=10, random_design=True, weighting=weighting
    )


TABLE_FAMILIES = {
    **WITH_ONE_MODEL,
    "paper_gaps": lambda: _study_family(n=200, models=(1, 3, 6, 10, 15, 21)),
    "derivative": lambda: _study_family(
        n=150, p_max=60, models=tuple(range(2, 16)), m_dagger=12, weighting="derivative"
    ),
    # A random design keeps no increments under full-vector or derivative loss.
    "random_full_vector": lambda: _random_design("full_vector", tuple(range(1, 16))),
    "random_derivative": lambda: _random_design("derivative", tuple(range(2, 16))),
}


@pytest.mark.parametrize("n_sim", [1, 700, 1000])
@pytest.mark.parametrize("name", sorted(TABLE_FAMILIES))
def test_calibrate_equals_the_table_on_sample_draws(name, n_sim):
    # calibrate streams a family with increments reference by reference
    # from its step weights, and passes _table rows of the squared draws
    # otherwise; the table must be the one built on the rooted draw matrix,
    # bit for bit, and pass the self-test on its own stream.  One block (1
    # row), and blocks that do not fill 512 rows (700, 1000).
    family = TABLE_FAMILIES[name]()
    scale = np.random.default_rng(n_sim).uniform(0.5, 2.0, family.n)
    dims = list(single_traces(family, scale * scale).values())
    modes = ["probabilistic"] + (["power_loss"] if min(dims) > 0 and dims == sorted(dims) else [])
    for mode, stream_tag in itertools.product(modes, [0, 3, 2**32 - 1]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailTooDeepWarning)
            table = calibrate(family, scale, n_sim, 17, 2.0, 1.0, mode, 1.0, stream_tag)
            want = reference.matrix_table(family, scale, n_sim, 17, 2.0, 1.0, mode, stream_tag)
        assert reference.same_table(table, want), (mode, stream_tag)
        assert propagation_failures(family, scale, table, stream_tag) == [], (mode, stream_tag)
