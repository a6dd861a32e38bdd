import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from smaselect import (
    CalibrationTable,
    DesignMatrix,
    JointDrawMatrix,
    MissingPair,
    NoiseSpec,
    NonFiniteInput,
    NotOrderedPair,
    PairValues,
    TailTooDeepWarning,
    build_projection_family,
    calibrate,
    critical_values,
    familywise_exceedance,
    power_loss_critical_values,
    power_loss_params,
    propagation_failures,
    sample_draws,
    sample_joint_draws,
)
from smaselect import calibration
from smaselect.bootstrap import presmooth
from smaselect.calibration import (
    PowerLossParams,
    _exceeding,
    _max_t,
    _tail_rank,
    calibration_table,
)
from smaselect.errors import BadExponent, ConfigInvalid, DimensionMismatch
from smaselect.experiment import ExperimentConfig, Study
from smaselect.family import pair_order
from smaselect.io import load_table
from smaselect.moments import all_pair_moments, pair_traces, single_traces
from reference import (
    column,
    corrected_ranks,
    correction_rank,
    excess_risk_mc,
    joint_norms_from_noise,
    matrix_propagation_failures,
    multiplier_draws,
    pair_norms,
    pair_variance,
    successors,
    tail_quantile,
)


def toy_moments(family, sigma):
    return all_pair_moments(family, sigma)


def bisection_correction(draws, m_ref, x_level, resolution=1e-4):
    """Reference oracle: the float bisection the exact correction replaced.

    Finds, to ``resolution`` in the level, the smallest shift whose shared
    tail values bring the family-wise exceedance down to ``e^-x``.
    """
    pairs = draws.comparisons(m_ref)
    if len(pairs) == 1:
        return 0.0
    sub = draws.draws[:, [draws.order.index[p] for p in pairs]]
    sorted_cols = np.sort(sub, axis=0)
    target = math.exp(-x_level)

    def fwe(q):
        z = sorted_cols[_tail_rank(x_level + q, draws.n_sim) - 1]
        return float(np.mean(np.any(sub > z[None, :], axis=1)))

    if fwe(0.0) <= target:
        return 0.0
    lo, hi = 0.0, math.log(len(pairs)) + 1.0
    assert fwe(hi) <= target
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if fwe(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def assert_matches_bisection(draws, x_level, resolution=1e-4):
    """Exact corrected rank vs the bisection oracle on every reference."""
    n = draws.n_sim
    ranks = corrected_ranks(draws, x_level)
    assert list(ranks) == draws.references()
    for m_ref, k in ranks.items():
        q_bisect = bisection_correction(draws, m_ref, x_level, resolution)
        # The bisection shift selects rank k, and is 0.0 exactly when x's own
        # rank is kept; a shift one resolution step smaller selects a lower rank.
        assert _tail_rank(x_level + q_bisect, n) == k, m_ref
        assert (q_bisect == 0.0) == (k == _tail_rank(x_level, n)), m_ref
        assert q_bisect == 0.0 or _tail_rank(x_level + max(q_bisect - resolution, 0.0), n) < k


def test_zero_noise_hook_gives_zero_draws(toy_family):
    # Forced zero noise realization: every pairwise magnitude vanishes.
    norms = joint_norms_from_noise(toy_family, np.zeros((1, 4)))
    np.testing.assert_array_equal(norms, 0.0)


def test_pair_column_matches_coordinates(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 64, seed=5)
    # Reproduce the noise and check the (3,1) column is sqrt(e2^2 + e3^2).
    from smaselect.rng import stream

    eps = stream(5, 0, 0).standard_normal((64, 4))
    expected = np.sqrt(eps[:, 1] ** 2 + eps[:, 2] ** 2)
    np.testing.assert_allclose(column(draws, 3, 1), expected, rtol=1e-12)


def test_joint_draw_mean_square(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 100_000, seed=17)
    col = column(draws, 3, 1)
    mean_sq = np.mean(col**2)
    se = np.std(col**2, ddof=1) / np.sqrt(col.shape[0])
    assert abs(mean_sq - 2.0) <= 3 * se


def test_tail_quantile_chi2_pair(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 50_000, seed=23)
    for t in (1.0, 2.0, 3.0):
        # chi2 with 2 df: the tail of the norm is exp(-z^2/2).
        assert tail_quantile(draws, 3, 1, t) == pytest.approx(math.sqrt(2 * t), abs=0.05)


def test_tail_quantile_half_normal_pair(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 50_000, seed=29)
    t = -math.log(0.05)
    oracle = spstats.norm.isf(0.05 / 2)  # 1.95996...
    assert tail_quantile(draws, 2, 1, t) == pytest.approx(oracle, abs=0.05)
    assert oracle == pytest.approx(1.9600, abs=1e-4)


def test_tail_quantile_too_deep_clips_to_max(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 200, seed=31)
    with pytest.warns(TailTooDeepWarning):
        val = tail_quantile(draws, 3, 1, 50.0)
    assert val == column(draws, 3, 1).max()


def test_tail_quantile_rank_zero_boundary(toy_family, toy_noise):
    # Degenerate full-mass request: clipped to the max draw with a warning.
    draws = sample_joint_draws(toy_family, toy_noise, 200, seed=37)
    with pytest.warns(TailTooDeepWarning):
        val = tail_quantile(draws, 3, 1, 0.0)
    assert val == column(draws, 3, 1).max()


def test_tail_rank_is_the_smallest_meeting_its_level(toy_family, toy_noise):
    # Levels log(n / j) put (1 - e^-t) n on an integer, where the float
    # product can round onto the neighbouring rank either way.  The rank is
    # the smallest whose exceedance bound (n - k) / n, computed as the
    # self-test computes it, is at most e^-t.
    for n in (300, 500, 2000):
        for j in range(1, n):
            for t in (math.log(n / j), -math.log(j / n)):
                k, level = _tail_rank(t, n), math.exp(-t)
                assert (n - k) / n <= level < (n - k + 1) / n, (n, j, t)
    # Power-loss levels 3 log(5/2) and 3 log(6/5) at a = 0.5 put reference 1's
    # level at 32/500 of the sample; its table passes its own exact self-test.
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=1)
    params = power_loss_params([1, 2, 3], {1: 2.0, 2: 5.0, 3: 6.0}, a=0.5)
    assert math.exp(-params.x[1]) * 500 == pytest.approx(32.0)
    table = power_loss_critical_values(draws, toy_moments(toy_family, toy_noise), params, 1.0)
    assert propagation_failures(toy_family, np.sqrt(toy_noise.variances), table) == []


def test_tail_quantile_monotone_in_t(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 5000, seed=41)
    for pair in toy_family.pairs():
        grid = [0.1, 0.5, 1.0, 2.0, 3.0, 5.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = [tail_quantile(draws, *pair, t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_multiplicity_single_comparison_is_zero(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 4000, seed=43)
    assert correction_rank(draws, 2, 2.0) == _tail_rank(2.0, draws.n_sim)


def test_multiplicity_toy_bracket(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 60_000, seed=47)
    k = correction_rank(draws, 1, 2.0)
    # In-sample Bonferroni: the rank of the level x + log K already meets the target.
    n = draws.n_sim
    assert _tail_rank(2.0, n) <= k <= _tail_rank(2.0 + math.log(len(draws.comparisons(1))), n)


def test_exact_correction_matches_bisection_toy(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 20_000, seed=48)
    for x in (0.5, 2.0, 4.0):
        assert_matches_bisection(draws, x)


def test_exact_correction_matches_bisection_multi_reference(toy_extended_family):
    noise = NoiseSpec.homogeneous(1.0, 8)
    draws = sample_joint_draws(toy_extended_family, noise, 5000, seed=49)
    assert len(draws.references()) == 5
    for x in (1.0, 2.0, 3.0):
        assert_matches_bisection(draws, x)


PAPER_CONFIG = json.loads((Path(__file__).resolve().parents[1] / "configs" / "paper.json").read_text())


def test_exact_rank_equals_bisection_rank_paper_config():
    study = Study.of(ExperimentConfig.from_dict(PAPER_CONFIG))
    cfg, family = study.config, study.family
    known = sample_joint_draws(family, study.scenario.sigma, cfg.n_sim, cfg.seeds.calibration)
    assert len(known.references()) == 36
    for x in (0.5, 1.0, 2.0, 3.0, 4.0):
        assert_matches_bisection(known, x)
    for rep in range(3):
        y = study.data(rep)
        resid = presmooth(family, y, cfg.m_dagger)
        boot = multiplier_draws(
            family, resid, cfg.n_sim, cfg.seeds.bootstrap, stream_tag=rep
        )
        assert_matches_bisection(boot, cfg.x_level)


def two_pair_draws(values, pairs=((2, 1), (3, 1))):
    """A draw matrix over models 1..3 with one column per pair of ``pairs``."""
    return JointDrawMatrix(values, pair_order((1, 2, 3), pairs), seed=0)


def test_multiplicity_duplicate_columns_need_no_correction():
    # Perfectly correlated comparisons: the union equals a single event.
    rng = np.random.default_rng(53)
    col = np.abs(rng.standard_normal(20_000))
    draws = two_pair_draws(np.column_stack([col, col]))
    assert correction_rank(draws, 1, 2.0) == _tail_rank(2.0, 20_000)


def test_multiplicity_all_zero_column_needs_no_correction():
    # A column that never exceeds its (zero) tail value adds nothing to the union.
    rng = np.random.default_rng(54)
    col = np.abs(rng.standard_normal(20_000))
    block = np.vstack([np.zeros(20_000), col])
    # Even from rank 1, the max-T rank is the other column's own rank of x.
    k, tail = _max_t(block, 1, 2.0, 10_001)  # searched from the tail's middle rank
    np.testing.assert_array_equal(tail[0], 0)
    assert k == _tail_rank(2.0, 20_000)
    assert correction_rank(two_pair_draws(block.T), 1, 2.0) == _tail_rank(2.0, 20_000)


def test_strict_ranks_count_smaller_draws(monkeypatch):
    # Strict ranks [[2, 0, 2, 1], [1, 1, 0, 1]]: tied draws share their run's
    # first rank, so the realizations' largest ranks are [2, 1, 2, 1], and
    # the family-wise exceedance is 1 at rank 1, 1/2 at rank 2 and 0 at rank 3.
    block = np.array([[0.5, 0.1, 0.5, 0.3], [2.0, 2.0, 1.0, 2.0]])
    for x, want in ((0.0, 1), (0.6, 2), (math.log(5.0), 3)):
        assert _max_t(block, 1, x, 3)[0] == want
    # Every start rank and level agrees with the definition: the smallest
    # rank k >= k_x at which no more than e^-x of the realizations has a
    # draw strictly above its row's rank-k value.  The search may start at
    # any rank of the tail and ends at the same rank and rank-k draws, those
    # of the full-sort oracle.
    ordered = np.sort(block, axis=1)
    fwe = [np.mean(np.any(block > ordered[:, [k - 1]], axis=0)) for k in range(1, 5)]
    draws, dims = two_pair_draws(block.T), {(2, 1): 1.0, (3, 1): 1.0}
    for k_x in range(1, 5):
        for x in (0.0, 0.6, math.log(5.0), 8.0):
            want = next(k for k in range(k_x, 5) if fwe[k - 1] <= math.exp(-x))
            assert full_sort_oracle(draws, dims, 0.0, x, k_x)[1] == {1: want}
            for near in range(k_x, 5):
                k, z = _max_t(block, k_x, x, near)
                assert k == want
                assert z.tobytes() == ordered[:, k - 1].tobytes()
    # From rank 2 up, rank 2 meets the level and its draws are returned.
    k, z = _max_t(block, 2, 0.6, 3)
    assert k == 2
    np.testing.assert_array_equal(z, [0.3, 2.0])
    # No realization lies above its rank-k_x values (every column all zero):
    # that free count of zero already meets the level, so the rank stays k_x
    # and no count is taken at all.
    widths = []
    monkeypatch.setattr(
        calibration, "_exceeding", lambda b, z: widths.append(b.shape[1]) or _exceeding(b, z)
    )
    for k_x in range(1, 5):
        for near in range(k_x, 5):
            k, z = _max_t(np.zeros((2, 4)), k_x, 8.0, near)
            assert k == k_x
            np.testing.assert_array_equal(z, np.zeros(2))
    assert widths == []


def test_max_t_single_comparison_keeps_rank_of_x():
    # One comparison needs no multiplicity correction: at the rank of x, at
    # most n - k_x <= n e^-x realizations lie above it, so the search, from
    # any start, returns that rank and its draw, the rank-n clip of a level no
    # rank meets (x = 8) included, on draws and on their squares.
    for row in (np.array([[3.0, 1.0, 2.0, 0.0]]), np.array([[2.0, 1.0, 2.0, 1.0, 0.0, 2.0]])):
        n, ordered = row.shape[1], np.sort(row[0])
        for x in (0.0, 0.2, 0.5, 0.7, 1.0, 1.5, 8.0):
            k_x = _tail_rank(x, n)
            for near, squared in itertools.product(range(k_x, n + 1), (False, True)):
                k, z = _max_t(row * row if squared else row, k_x, x, near, squared)
                assert k == k_x, (x, near, squared)
                assert z.tobytes() == ordered[k_x - 1 : k_x].tobytes(), (x, near, squared)


def _search_fault():
    """The first search by ``calibration._first_passing`` -- every size 1..140,
    every answer ``0..size`` (``size`` when no index passes) and every start --
    that returns another index, probes outside ``[0, size)`` or probes more
    than ``2 ceil(log2 size) + 1`` times; ``None`` when every search is right."""
    for size in range(1, 141):
        bound = 2 * math.ceil(math.log2(size)) + 1
        for answer in range(size + 1):
            for start in range(size):
                probes = []
                got = calibration._first_passing(
                    lambda j: probes.append(j) or j >= answer, size, start
                )
                inside = 0 <= min(probes) and max(probes) < size
                if got != answer or len(probes) > bound or not inside:
                    return size, answer, start, got, probes
    return None


def test_search_from_any_start_finds_the_first_passing_index(monkeypatch):
    assert _search_fault() is None
    # A search that trusts a passing start without walking down is caught,
    # and so is the max-T rank it gives (the strict-ranks block: rank 2 at
    # x = 0.6, the search started at rank 4).
    block = np.array([[0.5, 0.1, 0.5, 0.3], [2.0, 2.0, 1.0, 2.0]])
    assert _max_t(block, 1, 0.6, 4)[0] == 2
    real = calibration._first_passing
    monkeypatch.setattr(
        calibration,
        "_first_passing",
        lambda passes, size, start: start if passes(start) else real(passes, size, start),
    )
    assert _search_fault() is not None
    assert _max_t(block, 1, 0.6, 4)[0] == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_draw_matrix_rejects_non_finite(bad):
    values = np.ones((3, 2))
    values[1, 0] = bad
    with pytest.raises(NonFiniteInput):
        two_pair_draws(values)


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.nan, NonFiniteInput),
        (np.inf, NonFiniteInput),
        (-np.inf, NonFiniteInput),
        (-1e-300, DimensionMismatch),
    ],
    ids=["nan", "inf", "-inf", "negative"],
)
@pytest.mark.parametrize("layout", ["C", "F"])
def test_draw_matrix_rejects_each_bad_value(bad, error, layout):
    # Column-major ("F") is how the sampler builds the matrix.
    values = np.ones((3, 2), order=layout)
    values[2, 1] = bad
    with pytest.raises(error):
        two_pair_draws(values)


def test_draw_matrix_accepts_zeros_of_either_sign():
    values = np.array([[0.0, -0.0], [1.0, 2.0]])
    draws = two_pair_draws(values)
    assert draws.draws is values


def test_draw_matrix_converts_its_input_before_checking_it(toy_family, toy_noise):
    # A nested list or an integer array becomes a float matrix, as a
    # design's entries do, and is then checked like any other.
    nested = two_pair_draws([[1, 2], [3, 4]])
    assert nested.draws.dtype == np.float64
    np.testing.assert_array_equal(nested.draws, [[1.0, 2.0], [3.0, 4.0]])
    assert two_pair_draws(np.array([[1, 2], [3, 4]])).draws.dtype == np.float64
    with pytest.raises(DimensionMismatch):
        two_pair_draws([[1.0, -2.0]])
    with pytest.raises(DimensionMismatch):
        two_pair_draws([1.0, 2.0])
    # A float view, the sampler's column-major one included, is not copied.
    view = np.ones((2, 5)).T
    assert two_pair_draws(view).draws is view
    assert sample_joint_draws(toy_family, toy_noise, 600, seed=3).draws.flags.f_contiguous


def _two_columns(pairs):
    # Column 1 is 100x column 0, so a table that ignored it would show.
    return two_pair_draws(np.outer(np.arange(1.0, 4.0), [1.0, 100.0]), pairs)


def test_draw_matrix_rejects_a_repeated_pair():
    # Two columns can no longer name one pair's column twice; the pair list
    # that would put one pair on both columns is refused.
    with pytest.raises(DimensionMismatch, match=r"\(2, 1\)"):
        _two_columns([(2, 1), (2, 1)])
    with pytest.raises(DimensionMismatch):
        _two_columns([(2, 1), (3, 1), (2, 1)])


def test_draw_matrix_rejects_a_reversed_pair():
    with pytest.raises(NotOrderedPair):
        _two_columns([(2, 1), (1, 3)])


def test_draw_matrix_rejects_a_column_outside_the_matrix():
    # The order's pair count must equal the column count: a third pair has
    # no column, and a single pair leaves a column without a pair.
    for pairs in ([(2, 1), (3, 1), (3, 2)], [(2, 1)], []):
        with pytest.raises(DimensionMismatch):
            _two_columns(pairs)
    with pytest.raises(DimensionMismatch):
        two_pair_draws(np.ones(2), [(2, 1), (3, 1)])


def full_sort_oracle(draws, pair_dims, alpha_plus, levels, k_x=None):
    """Reference oracle: the full sort and dense strict ranks the partial
    selection replaced, driving the same exact max-T correction.

    Returns the sorted columns, each reference's rank (in probabilistic
    mode the max-T corrected rank of the level, the smallest at or above
    ``k_x``, by default the level's own rank; in power-loss mode the rank
    of the reference's level) and the table's critical values and clipped
    pairs, those whose reference takes rank ``n_sim``.
    """
    cols = np.ascontiguousarray(draws.draws.T)
    order = np.argsort(cols, axis=1)
    sorted_draws = np.take_along_axis(cols, order, axis=1)
    new_run = np.ones(cols.shape, dtype=bool)
    np.not_equal(sorted_draws[:, 1:], sorted_draws[:, :-1], out=new_run[:, 1:])
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(draws.n_sim), 0), axis=1)
    ranks = np.empty(cols.shape, dtype=int)
    np.put_along_axis(ranks, order, run_start, axis=1)

    n, power = draws.n_sim, isinstance(levels, PowerLossParams)
    rank = {}
    for m_ref in sorted({r for _, r in draws.order.index}):
        if power:
            rank[m_ref] = _tail_rank(levels.x[m_ref], n)
            continue
        pairs = [p for p in draws.order.index if p[1] == m_ref]
        k = _tail_rank(levels, n) if k_x is None else k_x
        row_max = ranks[[draws.order.index[p] for p in pairs]].max(axis=0)
        reached = np.cumsum(np.bincount(row_max, minlength=n + 1)[::-1])[::-1]
        rank[m_ref] = k + int(np.argmax(reached[k:] / n <= math.exp(-levels)))
    critical, clipped = {}, []
    for (m, m_ref), col in sorted(draws.order.index.items(), key=lambda kv: kv[1]):
        if rank[m_ref] == n:
            clipped.append((m, m_ref))
        z = float(sorted_draws[col, rank[m_ref] - 1])
        critical[(m, m_ref)] = z + alpha_plus * math.sqrt(pair_dims[(m, m_ref)])
    return sorted_draws, rank, critical, tuple(clipped)


@st.composite
def draw_matrices(draw):
    """Random draw matrices with ties, all-zero columns and, from pair
    subsets, references with a single comparison."""
    n_sim = draw(st.sampled_from([1, 7, 600, 1000]))
    n_models = draw(st.integers(2, 6))
    canonical = [(m, r) for r in range(1, n_models) for m in range(r + 1, n_models + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(canonical), max_size=len(canonical)))
    pairs = [p for p, k in zip(canonical, keep) if k] or canonical[-1:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few distinct values make ties common; a continuous law makes them rare.
    if draw(st.booleans()):
        values = rng.integers(0, draw(st.integers(1, 6)), (n_sim, len(pairs))).astype(float)
    else:
        values = np.abs(rng.standard_normal((n_sim, len(pairs))))
    for col in range(len(pairs)):
        if draw(st.integers(0, 4)) == 0:
            values[:, col] = 0.0
    return JointDrawMatrix(values, pair_order(tuple(range(1, n_models + 1)), pairs), seed=0)


def _table(draws, levels):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dims = {p: float(p[0] - p[1]) for p in draws.order.pairs}
        return calibration_table(draws, dims, 1.0, levels)


@pytest.mark.parametrize(
    "levels",
    [2.0, 7.0, PowerLossParams(a=1.0, alpha={}, x={1: 0.5, 2: 7.0, 3: 2.0, 4: 3.0, 5: 1.0})],
    ids=["x2", "x7-clipped", "power"],
)
def test_table_ignores_the_pair_layout(levels):
    # Pairs listed by larger model first spread every reference's columns
    # over the matrix, so each group is an index array, not a slice.
    models = (1, 2, 3, 4, 5, 6)
    scattered = pair_order(models, [(m, r) for m in models for r in models if r < m])
    canonical = pair_order(models)
    assert not any(isinstance(cols, slice) for _, _, _, cols in scattered.groups[:-1])
    rng = np.random.default_rng(62)
    # Twelve distinct values make ties common; one column is all zeros.
    values = rng.integers(0, 12, (600, len(canonical.pairs))).astype(float)
    values[:, canonical.index[(4, 2)]] = 0.0
    by_canonical = _table(JointDrawMatrix(values, canonical, seed=0), levels)
    cols = [canonical.index[p] for p in scattered.pairs]
    by_scattered = _table(JointDrawMatrix(values[:, cols], scattered, seed=0), levels)
    assert by_scattered.critical == by_canonical.critical
    assert by_scattered.ranks == by_canonical.ranks
    assert set(by_scattered.tail_clipped) == set(by_canonical.tail_clipped)
    if levels == 2.0:
        assert max(by_canonical.ranks.values()) > _tail_rank(2.0, 600)
    else:
        assert by_canonical.tail_clipped


def test_tail_clipped_names_the_pairs_at_rank_n_sim_in_critical_order():
    # Power-loss levels past log(600) = 6.4 put references 2 and 4 at rank
    # n_sim; in a layout listing pairs by larger model first, the clipped
    # pairs are those against 2 or 4, in critical's order, not the canonical.
    models = (1, 2, 3, 4, 5, 6)
    order = pair_order(models, [(m, r) for m in models for r in models if r < m])
    values = np.abs(np.random.default_rng(64).standard_normal((600, len(order.pairs))))
    params = PowerLossParams(a=1.0, alpha={}, x={1: 0.5, 2: 7.0, 3: 2.0, 4: 9.0, 5: 1.0})
    table = _table(JointDrawMatrix(values, order, seed=0), params)
    assert {m_ref for m_ref, k in table.ranks.items() if k == 600} == {2, 4}
    want = tuple(pair for pair in order.pairs if pair[1] in (2, 4))
    assert table.tail_clipped == want
    canonical = tuple(pair for pair in pair_order(models).pairs if pair[1] in (2, 4))
    assert tuple(table.critical) == order.pairs and want != canonical
    # A table with no reference at rank n_sim clips nothing.
    assert _table(JointDrawMatrix(values, order, seed=0), 2.0).tail_clipped == ()


@pytest.mark.parametrize("layout", ["F", "C"])
@pytest.mark.parametrize("mode", ["probabilistic", "power_loss"])
def test_table_builds_nothing_the_size_of_the_draws(mode, layout):
    # The paper config's shape: 37 models, 666 pairs, 1000 draws; "F" is
    # the sampler's column-major layout.  The table reads one reference's
    # columns at a time, so its peak allocation is a small share of the draws.
    order = pair_order(tuple(range(1, 38)))
    values = np.abs(np.random.default_rng(63).standard_normal((1000, len(order.pairs))))
    draws = JointDrawMatrix(np.asarray(values, order=layout), order, seed=0)
    dims = PairValues(order, np.ones(len(order.pairs)))
    levels = 2.0
    if mode == "power_loss":
        levels = PowerLossParams(a=1.0, alpha={}, x=dict.fromkeys(range(1, 37), 2.0))
    tracemalloc.start()
    try:
        calibration_table(draws, dims, 1.0, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws.draws.nbytes / 4


@pytest.mark.parametrize("n_sim", [1000, 20_000])
def test_calibrate_builds_no_draw_matrix(n_sim):
    # A multiplier table on the paper config (37 models, 666 pairs) keeps
    # models x n_sim step weights and one reference's rows at a time, so its
    # peak allocation stays below half of the pairs x n_sim draw matrix.
    study = Study.of(ExperimentConfig(n=200))
    family = study.family
    resid = presmooth(family, study.data(0), 20)
    tracemalloc.start()
    try:
        calibrate(family, resid, n_sim, 4004, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(family.pairs()) * n_sim * 8 / 2


@settings(max_examples=150, deadline=None)
@given(
    draws=draw_matrices(),
    x=st.floats(0.0, 8.0),
    power_levels=st.lists(st.floats(0.0, 8.0), min_size=5, max_size=5),
    alpha_plus=st.sampled_from([0.0, 1.0]),
    t=st.floats(0.0, 8.0),
    start=st.integers(0, 2**16),
)
def test_partial_selection_matches_full_sort(draws, x, power_levels, alpha_plus, t, start):
    n = draws.n_sim
    pair_dims = {p: float(p[0] - p[1]) for p in draws.order.index}
    sorted_draws, rank, critical, clipped = full_sort_oracle(draws, pair_dims, alpha_plus, x)
    # Each reference's one step, from every rank of x a table could take,
    # its search started at the tail's middle or at any offset into the tail.
    for k_x in sorted({1, _tail_rank(x, n), n}):
        _, want, _, _ = full_sort_oracle(draws, pair_dims, alpha_plus, x, k_x)
        for m_ref, _, _, cols in draws.order.groups:
            for near in (k_x + (n - k_x + 1) // 2, k_x + start % (n - k_x + 1)):
                k, z = _max_t(draws.draws.T[cols], k_x, x, near)
                assert k == want[m_ref]
                assert z.tobytes() == sorted_draws[cols, k - 1].tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = calibration_table(draws, pair_dims, alpha_plus, x)
    assert table.ranks == rank
    assert table.critical == critical
    assert table.tail_clipped == clipped

    params = PowerLossParams(a=1.0, alpha={}, x=dict(zip(range(1, 6), power_levels)))
    _, rank, critical, clipped = full_sort_oracle(draws, pair_dims, alpha_plus, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = calibration_table(draws, pair_dims, alpha_plus, params)
    assert table.ranks == rank
    assert table.critical == critical
    assert table.tail_clipped == clipped

    # One pair's tail value, and the warning when its rank clips to the maximum.
    pair = min(draws.order.index)
    k = _tail_rank(t, n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert tail_quantile(draws, *pair, t) == sorted_draws[draws.order.index[pair], k - 1]
    clip_warnings = [w for w in caught if issubclass(w.category, TailTooDeepWarning)]
    assert len(clip_warnings) == (k == n)


def _band_step(block, k_x, x, near, squared):
    """``_max_t``'s rank and draws, and the ranks (0-based) it partitioned at."""
    partitions, partition = [], np.partition
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            np, "partition", lambda a, kth, **kw: partitions.append(kth) or partition(a, kth, **kw)
        )
        k, z = _max_t(block, k_x, x, near, squared)
    return k, z, partitions


def test_band_miss_redoes_the_step_from_the_rank_of_x():
    # Three comparisons' max-T rank at x = 2 lies far below the sample's top
    # rank: a search from there misses its band of ceil(55 / 8) = 7 ranks,
    # and the step is redone from the rank of x, on draws and on their squares.
    rng = np.random.default_rng(40)
    squares = rng.standard_normal((3, 400)) ** 2
    draws = np.sqrt(squares)
    k_x, level = _tail_rank(2.0, 400), math.exp(-2.0)
    ordered = np.sort(draws, axis=1)
    fwe = [np.mean(np.any(draws > ordered[:, [k - 1]], axis=0)) for k in range(1, 401)]
    want = next(k for k in range(k_x, 401) if fwe[k - 1] <= level)
    assert (k_x, want) == (346, 382)
    for block, squared in ((draws, False), (squares, True)):
        k, z, partitions = _band_step(block, k_x, 2.0, 400, squared)
        assert partitions == [400 - 7 - 1, k_x - 1]
        assert k == want
        assert z.tobytes() == ordered[:, k - 1].tobytes()
        # Started at the answer, the band holds it: one partition.
        k, z, partitions = _band_step(block, k_x, 2.0, want, squared)
        assert (k, partitions) == (want, [want - 7 - 1])
        assert z.tobytes() == ordered[:, k - 1].tobytes()


def test_band_miss_ends_at_the_rank_of_x_when_its_free_count_meets_the_level(monkeypatch):
    # Three comparisons that rise together (each twice the last) exceed
    # together: 400 - 346 = 54 <= 400 e^-2 realizations lie above the rank of
    # x = 2.  A search from the top rank misses its band (rank 393 already
    # meets the level), is redone from the rank of x, and ends there on the
    # free count of the realizations above it: no count is taken, on draws and
    # on their squares, and the rank and draws are the full sort's.
    u = np.abs(np.random.default_rng(42).standard_normal(400))
    order = pair_order((1, 2, 3, 4), [(2, 1), (3, 1), (4, 1)])
    draws = JointDrawMatrix(np.column_stack([u, 2 * u, 4 * u]), order, seed=0)
    pair_dims = dict.fromkeys(draws.order.pairs, 1.0)
    sorted_draws, want, _, _ = full_sort_oracle(draws, pair_dims, 0.0, 2.0)
    k_x = _tail_rank(2.0, 400)
    assert (k_x, want[1]) == (346, 346)
    counts = []
    monkeypatch.setattr(
        calibration, "_exceeding", lambda b, z: counts.append(z) or _exceeding(b, z)
    )
    block = draws.draws.T
    for values, squared in ((block, False), (block * block, True)):
        k, z, partitions = _band_step(values, k_x, 2.0, 400, squared)
        assert (k, partitions) == (k_x, [400 - 7 - 1, k_x - 1])
        assert z.tobytes() == sorted_draws[:, k_x - 1].tobytes()
    assert counts == []


def test_largest_reference_searches_one_band_at_the_rank_of_x(monkeypatch):
    # The paper config at x = 2 on 1000 draws: the rank of x is 865.  The
    # table walks the references largest first, and the first, with one
    # comparison, starts its search at the rank of x: its band starts there
    # too, so it partitions once, at that rank, and keeps it.  Every later
    # reference starts at the rank before it, and the ranks keep the
    # canonical order of the references.
    study = Study.of(ExperimentConfig(n=200))
    family, c = study.family, study.config
    resid = presmooth(family, study.data(0), c.m_dagger)
    steps = []

    def step(block, k_x, x, near, squared=False):
        k, z, partitions = _band_step(block, k_x, x, near, squared)
        steps.append((len(block), k_x, near, partitions, k))
        return k, z

    monkeypatch.setattr(calibration, "_max_t", step)
    table = calibrate(family, resid, 1000, c.seeds.bootstrap, 2.0, c.alpha_plus)
    assert [s[0] for s in steps] == list(range(1, 37))
    assert steps[0][1:] == (865, 865, [864], 865)
    assert table.ranks[family.models[-2]] == 865
    assert [s[2] for s in steps[1:]] == [s[4] for s in steps[:-1]]
    assert list(table.ranks) == list(family.models[:-1])


@settings(max_examples=100, deadline=None)
@given(draws=draw_matrices(), x=st.floats(0.0, 8.0), start=st.integers(0, 2**16))
def test_band_search_matches_full_sort_from_any_near(draws, x, start):
    # The band below any start rank gives the full sort's rank and draws, on
    # draws and on their squares, and the step is redone from the rank of x
    # exactly when the band's lowest rank lo > k_x already meets the level.
    n, k_x = draws.n_sim, _tail_rank(x, draws.n_sim)
    near = k_x + start % (n - k_x + 1)
    lo = max(k_x, near - math.ceil((n - k_x + 1) / 8))
    pair_dims = {p: 1.0 for p in draws.order.pairs}
    for values, squared in ((draws.draws, False), (draws.draws * draws.draws, True)):
        rooted = JointDrawMatrix(np.sqrt(values) if squared else values, draws.order, seed=0)
        sorted_draws, want, _, _ = full_sort_oracle(rooted, pair_dims, 0.0, x)
        for m_ref, _, _, cols in draws.order.groups:
            k, z, partitions = _band_step(values.T[cols], k_x, x, near, squared)
            assert k == want[m_ref]
            assert z.tobytes() == sorted_draws[cols, k - 1].tobytes()
            assert partitions == ([lo - 1] if k > lo or lo == k_x else [lo - 1, k_x - 1])


def test_pair_norms_on_shuffled_subset(toy_extended_family):
    family = toy_extended_family
    rng = np.random.default_rng(5)
    xi = family.reduce(rng.standard_normal((9, family.n)))
    pairs = family.pairs()
    canonical = pair_norms(family, xi, pair_order(family.models))
    subset = [int(i) for i in rng.permutation(len(pairs))[:11]]
    norms = pair_norms(family, xi, pair_order(family.models, [pairs[i] for i in subset]))
    np.testing.assert_array_equal(norms, canonical[:, subset])
    # Any list equal to the canonical one reads the layout built once.
    assert pair_order(family.models, list(pairs)) is pair_order(family.models)


def test_pair_norms_reject_reversed_pair(toy_extended_family):
    # Both kernels take a layout, and a pair list whose larger model comes
    # second has none.
    xi = toy_extended_family.reduce(np.ones((2, toy_extended_family.n)))
    general = dataclasses.replace(toy_extended_family, increments=None)
    for family in (toy_extended_family, general):
        with pytest.raises(NotOrderedPair):
            pair_norms(family, xi, pair_order(family.models, [(2, 1), (1, 3)]))


def test_multiplicity_nonincreasing_when_comparisons_removed(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 30_000, seed=59)
    k_full = correction_rank(draws, 1, 2.0)
    k_single = correction_rank(draws.restricted([(2, 1)]), 1, 2.0)
    assert k_single <= k_full


def test_multiplicity_requires_comparisons(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 100, seed=61)
    with pytest.raises(NotOrderedPair):
        correction_rank(draws, 3, 2.0)


def test_critical_values_toy(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 60_000, seed=67)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(draws, moments, x_level=2.0, alpha_plus=1.0)
    z31 = table.threshold(3, 1) - math.sqrt(2.0)
    # chi2_2 closed form at the bracketing levels x and x + log 2.
    assert math.sqrt(2 * 2.0) - 0.05 <= z31 <= math.sqrt(2 * (2 + math.log(2))) + 0.05
    n = draws.n_sim
    assert _tail_rank(2.0, n) <= table.ranks[1] <= _tail_rank(2.0 + math.log(2) + 0.1, n)
    # Theoretical cap from the closed-form threshold bound.
    cap = 2 * math.sqrt(2.0) + math.sqrt(2 * 1.0 * (2.0 + math.log(3)))
    assert cap == pytest.approx(5.3178, abs=1e-4)
    assert table.threshold(3, 1) <= cap


def test_critical_values_alpha_zero_equals_tail(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 20_000, seed=71)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(draws, moments, x_level=2.0, alpha_plus=0.0)
    for m, m_ref in toy_family.pairs():
        z = np.sort(column(draws, m, m_ref))[table.ranks[m_ref] - 1]
        allowance = table.alpha_plus * math.sqrt(table.pair_dims[(m, m_ref)])
        assert table.threshold(m, m_ref) == z + allowance


def test_table_threshold_floor(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 5000, seed=73)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(draws, moments, x_level=1.0, alpha_plus=1.5)
    for pair, crit in table.critical.items():
        assert crit >= 1.5 * math.sqrt(table.pair_dims[pair]) >= 0


def test_in_sample_propagation_exact(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 25_000, seed=79)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(draws, moments, x_level=2.0, alpha_plus=0.0)
    for m_ref in (1, 2):
        thresholds = {
            (m, m_ref): table.threshold(m, m_ref)
            for m in successors(toy_family, m_ref)
        }
        assert familywise_exceedance(draws, m_ref, thresholds) <= math.exp(-2.0)


def test_missing_pair_is_named(toy_extended_family):
    # The self-test and the exceedance name the pair that the table or the
    # thresholds lack, for the critical values and for the dimensions.  The
    # self-test reads every pair of the family; the matrix oracle reads the
    # draws it is given, here restricted to the table's pairs.
    draws = sample_joint_draws(toy_extended_family, NoiseSpec.homogeneous(1.0, 8), 200, seed=3)
    dims = {(2, 1): 1.0, (3, 1): 2.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = calibration_table(draws.restricted(dims), dims, 1.0, 2.0)
    assert matrix_propagation_failures(draws.restricted(dims), table) == []
    with pytest.raises(MissingPair, match=r"no critical value for pair \(4, 1\)"):
        propagation_failures(toy_extended_family, np.ones(8), table)
    # Both also name a reference without a rank, and the oracle refuses
    # draws of another n_sim than the table was calibrated on (the
    # self-test samples at the table's own n_sim).
    with pytest.raises(MissingPair, match="no rank for reference 1"):
        matrix_propagation_failures(draws.restricted(dims), dataclasses.replace(table, ranks={}))
    full = dataclasses.replace(table, critical=dict.fromkeys(draws.order.index, 5.0))
    ranked_one = dataclasses.replace(full, pair_dims=full.critical)  # only reference 1 ranked
    with pytest.raises(MissingPair, match="no rank for reference 5"):  # largest reference first
        propagation_failures(toy_extended_family, np.ones(8), ranked_one)
    fewer = JointDrawMatrix(draws.restricted(dims).draws[:100], table.critical.order, 3)
    with pytest.raises(DimensionMismatch, match="100 rows"):
        matrix_propagation_failures(fewer, table)
    with pytest.raises(MissingPair, match=r"no dimension for pair \(4, 1\)"):
        propagation_failures(toy_extended_family, np.ones(8), full)
    with pytest.raises(MissingPair, match=r"no threshold for pair \(3, 1\)"):
        familywise_exceedance(draws, 1, {(2, 1): 1.0})
    # A power-loss table loaded without a reference's level names it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        power = calibrate(
            toy_extended_family, np.ones(8), 200, 3, 2.0, 1.0, mode="power_loss", power_a=1.0
        )
    d = power.to_dict()
    del d["per_model_levels"]["2"]
    with pytest.raises(MissingPair, match="no power-loss level for reference 2"):
        propagation_failures(toy_extended_family, np.ones(8), CalibrationTable.from_dict(d))


def test_fresh_draw_propagation(toy_family, toy_noise):
    n_cal, n_fresh = 40_000, 40_000
    cal = sample_joint_draws(toy_family, toy_noise, n_cal, seed=83)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(cal, moments, x_level=2.0, alpha_plus=0.0)
    fresh = sample_joint_draws(toy_family, toy_noise, n_fresh, seed=89)
    target = math.exp(-2.0)
    for m_ref in (1, 2):
        thresholds = {
            (m, m_ref): table.threshold(m, m_ref)
            for m in successors(toy_family, m_ref)
        }
        fwe = familywise_exceedance(fresh, m_ref, thresholds)
        assert fwe <= target + 3 * math.sqrt(target / n_fresh)


def test_rank_one_tail_upper_bound(toy_design, toy_noise):
    # Rank-one pairs: the tail value is bounded by v sqrt(2 t).
    family = build_projection_family(
        toy_design, np.atleast_2d([1.0, 1.0, 1.0]), [1, 2, 3]
    )
    draws = sample_joint_draws(family, toy_noise, 50_000, seed=97)
    for m, m_ref in family.pairs():
        v = math.sqrt(pair_variance(family, toy_noise, m, m_ref).p_pair)
        for t in (0.5, 1.0, 2.0, 3.0):
            assert tail_quantile(draws, m, m_ref, t) <= v * math.sqrt(2 * t) + 0.05


def test_power_loss_params_paper_values():
    params = power_loss_params([1, 2, 3], {1: 1.0, 2: 2.0, 3: 3.0}, a=1.0)
    assert params.alpha[2] == pytest.approx(math.sqrt(3) * 2 ** (-2), rel=1e-12)
    assert params.alpha[2] == pytest.approx(0.4330, abs=1e-4)
    assert params.x[1] == pytest.approx(4 * math.log(2), rel=1e-12)
    assert params.x[1] == pytest.approx(2.7726, abs=1e-4)
    alphas = [params.alpha[m] for m in (1, 2, 3)]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    xs = [params.x[m] for m in (1, 2)]
    assert all(b >= a for a, b in zip(xs, xs[1:]))


def test_power_loss_params_constant_dims():
    params = power_loss_params([1, 2, 3], {1: 2.0, 2: 2.0, 3: 2.0}, a=1.0)
    assert all(v == 0.0 for v in params.x.values())
    assert all(v == pytest.approx(math.sqrt(3)) for v in params.alpha.values())


def test_power_loss_params_rejects_bad_exponent():
    with pytest.raises(BadExponent):
        power_loss_params([1, 2], {1: 1.0, 2: 2.0}, a=0.0)
    with pytest.raises(DimensionMismatch):
        power_loss_params([1, 2], {1: 2.0, 2: 1.0}, a=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(BadExponent):
            power_loss_params([1, 2], {1: 1.0, 2: 2.0}, a=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("model", [1, 3])
def test_power_loss_params_rejects_non_finite_dimensions(model, bad):
    # NaN passed both the positivity and the monotone check and gave NaN
    # levels and budgets; a last +inf gave an infinite level and a zero
    # budget, and a first one failed the monotone check as a mismatch.
    dims = {1: 1.0, 2: 2.0, 3: 4.0}
    dims[model] = bad
    with pytest.raises(NonFiniteInput):
        power_loss_params([1, 2, 3], dims, a=1.0)


def test_power_table_matches_probabilistic_at_zero(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 10_000, seed=101)
    moments = toy_moments(toy_family, toy_noise)
    params = power_loss_params([1, 2, 3], {1: 2.0, 2: 2.0, 3: 2.0}, a=1.0)
    with pytest.warns(TailTooDeepWarning):
        power = power_loss_critical_values(draws, moments, params, alpha_plus=1.0)
    with pytest.warns(TailTooDeepWarning):
        prob = critical_values(draws, moments, x_level=0.0, alpha_plus=1.0)
    assert power.critical == prob.critical
    # The degenerate zero level clips to the max draw on every pair.
    assert set(power.tail_clipped) == set(toy_family.pairs())


def test_power_loss_pair_threshold_structure(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 40_000, seed=103)
    moments = toy_moments(toy_family, toy_noise)
    params = power_loss_params([1, 2, 3], {1: 1.0, 2: 2.0, 3: 3.0}, a=1.0)
    table = power_loss_critical_values(draws, moments, params, alpha_plus=1.0)
    z = tail_quantile(draws, 3, 2, params.x[2])
    assert table.threshold(3, 2) == pytest.approx(z + 1.0, rel=1e-12)


def test_excess_risk_indicator_never_fires(toy_family, toy_noise):
    est = excess_risk_mc(toy_family, toy_noise, 2, x_candidate=60.0, n_sim=5000, seed=107)
    assert est.value == 0.0


def test_excess_risk_zero_level_closed_form(toy_family, toy_noise):
    # At a zero level the indicator is identically one; for the 2-model the
    # integrand mean is E[max(chi2_2/2, 1)] = 1 + exp(-1).
    est = excess_risk_mc(toy_family, toy_noise, 2, x_candidate=0.0, n_sim=200_000, seed=109)
    assert est.value >= 1.0
    assert est.value == pytest.approx(1 + math.exp(-1), abs=4 * est.stderr + 1e-3)


def test_excess_risk_meets_power_budget(toy_extended_family):
    noise = NoiseSpec.homogeneous(1.0, 8)
    dims = {m: float(m) for m in toy_extended_family.models}
    params = power_loss_params(toy_extended_family.models, dims, a=1.0)
    est = excess_risk_mc(
        toy_extended_family, noise, 2, x_candidate=params.x[1], n_sim=100_000, seed=113
    )
    assert est.value <= params.alpha[2] + 3 * est.stderr


def test_excess_risk_requires_predecessor(toy_family, toy_noise):
    with pytest.raises(NotOrderedPair):
        excess_risk_mc(toy_family, toy_noise, 1, 1.0, 100, seed=127)


@pytest.mark.parametrize("level", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["tail_quantile", "excess_risk_mc"])
def test_non_finite_tail_level_is_rejected(toy_family, toy_noise, entry, level):
    # The level is checked before its rank is computed: ceil of a NaN rank
    # would raise a bare ValueError.
    draws = sample_joint_draws(toy_family, toy_noise, 100, seed=1)
    calls = {
        "tail_quantile": lambda: tail_quantile(draws, 2, 1, level),
        "excess_risk_mc": lambda: excess_risk_mc(toy_family, toy_noise, 2, level, 100, seed=1),
    }
    with pytest.raises(NonFiniteInput):
        calls[entry]()


def test_excess_risk_rejects_empty_sample(toy_family, toy_noise):
    # The shared draw kernel checks n_sim; an empty sample used to reach an
    # order statistic and raise a bare IndexError.
    with pytest.raises(DimensionMismatch):
        excess_risk_mc(toy_family, toy_noise, 2, 1.0, 0, seed=127)


@pytest.mark.parametrize("mode", ["probabilistic", "power_loss"])
def test_calibrate_known_scale_matches_two_step_path(toy_extended_family, mode):
    family = toy_extended_family
    noise = NoiseSpec.known(np.linspace(0.5, 2.0, 8) ** 2)
    moments = all_pair_moments(family, noise)
    # The power-loss levels of the larger models lie beyond the sample on
    # both paths; the clipped pairs are compared below.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailTooDeepWarning)
        table = calibrate(family, np.sqrt(noise.variances), 3000, 41, 2.0, 1.0, mode, power_a=1.0)
        draws = sample_draws(family, np.sqrt(noise.variances), 3000, 41)
        reference = sample_joint_draws(family, noise, 3000, seed=41)
        if mode == "power_loss":
            dims = single_traces(family, noise.variances)
            params = power_loss_params(family.models, dims, 1.0)
            want = power_loss_critical_values(reference, moments, params, 1.0)
        else:
            want = critical_values(reference, moments, 2.0, 1.0)
    assert np.array_equal(draws.draws, reference.draws)
    assert table.mode == want.mode and table.ranks == want.ranks
    assert table.tail_clipped == want.tail_clipped
    for pair, value in want.critical.items():
        assert table.critical[pair] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "scale, kwargs, error",
    [
        (np.ones(3), {}, DimensionMismatch),
        (np.array([1.0, np.nan, 1.0, 1.0]), {}, NonFiniteInput),
        (np.ones(4), {"mode": "bogus"}, DimensionMismatch),
        (np.ones(4), {"mode": "power_loss"}, DimensionMismatch),
        (np.ones(4), {"n_sim": 0}, DimensionMismatch),
        (np.ones(4), {"x_level": np.nan}, NonFiniteInput),
        (np.ones(4), {"x_level": np.inf}, NonFiniteInput),
        (np.ones(4), {"x_level": -0.5}, DimensionMismatch),
    ],
)
def test_calibrate_rejects_bad_input(toy_family, scale, kwargs, error):
    args = {"n_sim": 100, "seed": 1, "x_level": 2.0, "alpha_plus": 1.0} | kwargs
    with pytest.raises(error):
        calibrate(toy_family, scale, **args)


def test_table_json_roundtrip(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 2000, seed=131)
    moments = toy_moments(toy_family, toy_noise)
    table = critical_values(draws, moments, x_level=2.0, alpha_plus=1.0)
    clone = CalibrationTable.from_dict(table.to_dict())
    assert clone.critical == table.critical
    assert clone.ranks == table.ranks
    assert clone.tail_clipped == table.tail_clipped
    assert clone.pair_dims == table.pair_dims
    assert clone.mode == table.mode


@pytest.mark.parametrize(
    "key, bad",
    [
        ("mode", "bogus"),
        ("mode", None),
        ("seed", "abc"),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", True),
        ("power_a", "x"),
        ("power_a", math.nan),
        ("n_sim", "400"),
        ("n_sim", 0),
        ("x_level", "2"),
        ("x_level", True),
        ("alpha_plus", "1"),
        ("alpha_plus", False),
    ],
)
def test_table_load_refuses_bad_metadata(toy_family, toy_noise, key, bad):
    # A bogus mode would read as probabilistic in ``level`` but as power
    # loss in ``propagation_failures``, and the level "2" loaded as 2.0 and
    # true as 1.0; each bad key is named, not passed on.
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=131)
    d = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0).to_dict()
    with pytest.raises(ConfigInvalid, match=key):
        CalibrationTable.from_dict(d | {key: bad})


def test_table_load_takes_null_metadata(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=131)
    d = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0).to_dict()
    assert CalibrationTable.from_dict(d | {"seed": None, "power_a": None}).seed is None


def _power_table(family, noise, n_sim, seed) -> CalibrationTable:
    """A power-loss table (a = 1) under ``noise``: one that carries levels."""
    scale = np.sqrt(noise.variances)
    return calibrate(family, scale, n_sim, seed, 2.0, 1.0, "power_loss", 1.0)


@pytest.mark.parametrize("key", ["critical", "pair_dims", "per_model_levels"])
def test_table_load_refuses_values_that_are_not_numbers(toy_family, toy_noise, key):
    # Every threshold, dimension and level must be a real number: the string
    # "2" loaded as 2.0 and true as 1.0.  NaN and infinities are numbers,
    # refused by the constructor (test_table_load_rejects_non_finite).
    d = _power_table(toy_family, toy_noise, 500, 131).to_dict()
    assert set(d["per_model_levels"]) == {"1", "2"}
    CalibrationTable.from_dict(d)
    for bad in ("2", True, False, None):
        with pytest.raises(ConfigInvalid, match=key):
            CalibrationTable.from_dict(d | {key: d[key] | {next(iter(d[key])): bad}})


def test_one_noise_root_per_variance_vector(toy_family, toy_noise, monkeypatch):
    # The noise root R_v, one QR of the scaled basis, is made only where its
    # rows are read: all_pair_moments makes one for its top eigenvalues (its
    # traces share it on a Gram-route family), calibrate on a family with
    # increments none and no QR at all in either mode (its traces read the
    # one-row trace root), and calibrate on a Gram-route family one per
    # table, which its single-model and pair traces share.
    calls, qrs = [], []
    noise_root, qr = type(toy_family).noise_root, np.linalg.qr
    monkeypatch.setattr(
        type(toy_family), "noise_root", lambda self, v: calls.append(1) or noise_root(self, v)
    )
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(1) or qr(*a, **k))
    gram = dataclasses.replace(toy_family, increments=None)
    def count(call) -> tuple[int, int]:
        calls.clear()
        qrs.clear()
        call()
        return len(calls), len(qrs)

    for family in (toy_family, gram):
        assert count(lambda: all_pair_moments(family, toy_noise)) == (1, 1), family.increments
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (family, per_table), mode in itertools.product(
            [(toy_family, 0), (gram, 1)], ["probabilistic", "power_loss"]
        ):
            table = lambda: calibrate(family, np.ones(4), 100, 1, 2.0, 1.0, mode, 1.0)
            assert count(table) == (per_table, per_table), (family.increments, mode)


def test_traces_and_table_dimensions_are_pair_values(toy_family, toy_noise):
    traces = pair_traces(toy_family, toy_noise.variances)
    assert isinstance(traces, PairValues) and list(traces) == toy_family.pairs()
    # Any other pair list keeps its own order.
    backwards = pair_traces(toy_family, toy_noise.variances, toy_family.pairs()[::-1])
    assert list(backwards) == toy_family.pairs()[::-1] and backwards == traces
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=5)
    table = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0)
    from_dict = dataclasses.replace(table, pair_dims=dict(table.pair_dims))
    for t in (table, from_dict, CalibrationTable.from_dict(table.to_dict())):
        assert isinstance(t.pair_dims, PairValues) and t.pair_dims == traces


@pytest.mark.parametrize("field", ["critical", "pair_dims", "ranks"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_table_load_rejects_non_finite(toy_family, toy_noise, tmp_path, field, bad):
    # A NaN threshold would make every comparison against it a rejection.
    # A rank must be an integer in 1..n_sim: anything else is a mismatch.
    draws = sample_joint_draws(toy_family, toy_noise, 2000, seed=131)
    table = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0)
    cases = [(bad, NonFiniteInput)]
    if field == "ranks":
        cases = [(v, DimensionMismatch) for v in (bad, 0, table.n_sim + 1, 2.5, True)]
    path = tmp_path / "calibration.json"
    for value, error in cases:
        d = table.to_dict()
        d[field][next(iter(d[field]))] = value
        path.write_text(json.dumps(d))
        with pytest.raises(error):
            load_table(path)


def test_table_rejects_negative_dimensions_and_bad_allowance(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 2000, seed=131)
    table = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0)
    zero = table.to_dict() | {"critical": dict.fromkeys(table.to_dict()["critical"], 0.0)}
    scale = np.sqrt(toy_noise.variances)
    assert propagation_failures(toy_family, scale, CalibrationTable.from_dict(zero))
    # Negative dimensions would make every tail NaN, so the self-test would
    # see no exceedance at all; a NaN allowance would do the same.
    corrupt = zero | {"pair_dims": dict.fromkeys(zero["pair_dims"], -4.0)}
    with pytest.raises(DimensionMismatch, match="pair_dims"):
        CalibrationTable.from_dict(corrupt)
    bad_allowances = [(-1.0, DimensionMismatch), (math.nan, NonFiniteInput), (math.inf, NonFiniteInput)]
    for bad, error in bad_allowances:
        with pytest.raises(error, match="alpha_plus"):
            CalibrationTable.from_dict(zero | {"alpha_plus": bad})
    # Every table is calibrated at a level, so a level must be finite and >= 0.
    power = _power_table(toy_family, toy_noise, 2000, 131).to_dict()
    bad_levels = [
        (zero, {"x_level": math.nan}, NonFiniteInput),
        (zero, {"x_level": math.inf}, NonFiniteInput),
        (zero, {"x_level": -3.0}, DimensionMismatch),
        (power, {"per_model_levels": {"1": 2.0, "2": math.nan}}, NonFiniteInput),
    ]
    for base, bad, error in bad_levels:
        with pytest.raises(error, match=next(iter(bad))):
            CalibrationTable.from_dict(base | bad)
    # A malformed table names its bad or missing key; one written with level
    # shifts (``corrections``) in place of ranks names ``ranks``, and so do
    # ranks that lack a reference (whose clipped pairs went unlisted) or name
    # a model that is no reference.
    shifts = {k: v for k, v in zero.items() if k != "ranks"} | {"corrections": {"1": 0.0}}
    assert set(zero["ranks"]) == {"1", "2"}
    malformed = [
        ({"x_level": 2.0}, "alpha_plus"),
        (zero | {"critical": {"2-1": 1.0}}, "2-1"),
        ([], "x_level"),
        (shifts, "ranks"),
        (zero | {"ranks": {"2": zero["ranks"]["2"]}}, "ranks"),
        (zero | {"ranks": zero["ranks"] | {"99": 1}}, "ranks"),
    ]
    for d, key in malformed:
        with pytest.raises(ConfigInvalid, match=key):
            CalibrationTable.from_dict(d)


@pytest.mark.parametrize("key", ["power_a", "per_model_levels"])
def test_probabilistic_table_refuses_power_loss_keys(toy_family, toy_noise, tmp_path, key):
    # ``level`` never reads these in probabilistic mode, so a table that
    # carries them is refused rather than written back unread.
    power = _power_table(toy_family, toy_noise, 500, 131).to_dict()
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=131)
    d = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0).to_dict()
    assert key not in d
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(d | {key: power[key]}))
    with pytest.raises(DimensionMismatch, match=key):
        load_table(path)


def test_reversed_pair_in_table_input_is_refused(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 500, seed=131)
    d = critical_values(draws, toy_moments(toy_family, toy_noise), 2.0, 1.0).to_dict()
    for field in ("critical", "pair_dims"):
        with pytest.raises(NotOrderedPair, match=r"\(1, 3\)"):
            CalibrationTable.from_dict(d | {field: {"1:3": 1.0} | d[field]})
    with pytest.raises(NotOrderedPair):
        calibration_table(draws, {(2, 1): 1.0, (3, 1): 1.0, (2, 3): 1.0}, 1.0, 2.0)


@settings(max_examples=10, deadline=None)
@given(x=st.floats(0.5, 4.0))
def test_correction_monotone_in_level(x):
    design = DesignMatrix(np.hstack([np.eye(3), np.zeros((3, 1))]))
    family = build_projection_family(design, np.eye(design.p), [1, 2, 3])
    noise = NoiseSpec.homogeneous(1.0, 4)
    draws = sample_joint_draws(family, noise, 8000, seed=137)
    k_lo = correction_rank(draws, 1, x)
    k_hi = correction_rank(draws, 1, x + 0.5)
    # The corrected rank is nondecreasing in x by tail monotonicity.
    assert k_hi >= k_lo
