import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaselect import (
    CalibrationTable,
    DesignMatrix,
    DimensionMismatch,
    MissingPair,
    NoiseSpec,
    NonFiniteInput,
    NotOrderedPair,
    PairValues,
    RequiresKnownTruth,
    build_projection_family,
    calibrate,
    critical_values,
    oracle,
    payment_for_adaptation,
    sample_draws,
    sample_joint_draws,
    sma_select,
)
from smaselect import test_statistics as pairwise_statistics
from smaselect.experiment import ExperimentConfig, Seeds, generate_scenario, scenario_family
from smaselect.family import pair_order, pair_values
from smaselect.moments import all_pair_moments
from smaselect.selector import payment_theory_cap
from conftest import small_families
from reference import (
    aic_equivalence_check,
    column,
    oracle_index,
    pair_norms,
    prediction_weights,
    sma_select_loop,
    threshold_table,
)


def test_statistics_toy_zero_coordinates(toy_family):
    stats = pairwise_statistics(toy_family, [5.0, 0.0, 0.0, 9.0])
    assert stats[(2, 1)] == pytest.approx(0.0, abs=1e-14)
    assert stats[(3, 1)] == pytest.approx(0.0, abs=1e-14)


def test_statistics_toy_norm(toy_family):
    stats = pairwise_statistics(toy_family, [1.0, -3.0, 4.0, 0.0])
    assert stats[(3, 1)] == pytest.approx(5.0, rel=1e-12)
    # Strict pairs only: no self-comparison columns.
    assert all(m > m_ref for m, m_ref in stats)


def test_statistics_reject_non_finite_data(toy_family):
    with pytest.raises(NonFiniteInput):
        pairwise_statistics(toy_family, [0.1, np.nan, 0.0, 0.2])


def test_sma_rejects_non_finite_statistic(toy_family):
    # A NaN statistic fails every comparison it enters; without the check
    # the selector would silently fall back to the largest model.
    stats = {pair: 0.0 for pair in toy_family.pairs()}
    stats[(2, 1)] = float("nan")
    table = threshold_table({pair: 1.0 for pair in stats})
    with pytest.raises(NonFiniteInput):
        sma_select(stats, table)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_table_rejects_non_finite_threshold(toy_family, bad):
    # A NaN threshold rejects every comparison it enters, so the selector
    # would silently skip model 1 and return model 2.
    critical = {pair: 1.0 for pair in toy_family.pairs()}
    critical[(2, 1)] = bad
    with pytest.raises(NonFiniteInput):
        threshold_table(critical)


def test_sma_all_zero_statistics_selects_smallest(toy_family):
    stats = {pair: 0.0 for pair in toy_family.pairs()}
    table = threshold_table({pair: 1.0 for pair in toy_family.pairs()})
    assert sma_select(stats, table).m_hat == 1


def test_sma_vacuous_top(toy_family):
    stats = {pair: 5.0 for pair in toy_family.pairs()}
    table = threshold_table({pair: 0.0 for pair in toy_family.pairs()})
    result = sma_select(stats, table)
    assert result.m_hat == 3
    assert result.accepted == {1: False, 2: False, 3: True}


def test_sma_interior_choice(toy_family):
    stats = {(2, 1): 10.0, (3, 1): 0.5, (3, 2): 0.5}
    table = threshold_table({(2, 1): 1.0, (3, 1): 1.0, (3, 2): 1.0})
    result = sma_select(stats, table)
    assert result.m_hat == 2
    assert result.accepted == {1: False, 2: True, 3: True}


def test_sma_missing_pair(toy_family):
    stats = {(2, 1): 1.0, (3, 1): 1.0, (3, 2): 1.0}
    table = threshold_table({(2, 1): 1.0, (3, 2): 1.0})
    with pytest.raises(MissingPair):
        sma_select(stats, table)


def test_sma_missing_statistic():
    # Statistics of a 3-model family that lack (3, 1) and (3, 2).
    table = threshold_table({(2, 1): 1.0, (3, 1): 1.0, (3, 2): 1.0})
    with pytest.raises(MissingPair):
        sma_select({(2, 1): 0.5}, table, models=[1, 2, 3])


def test_reversed_pair_in_a_mapping_is_refused(toy_family):
    # A pair whose larger model comes second has no layout, at every
    # mapping boundary: the selector's statistics and a table's thresholds.
    valid = dict.fromkeys(toy_family.pairs(), 1.0)
    reversed_pair = {(1, 3): 1.0} | {pair: 1.0 for pair in valid if pair != (3, 1)}
    with pytest.raises(NotOrderedPair, match=r"\(1, 3\)"):
        threshold_table(reversed_pair)
    with pytest.raises(NotOrderedPair, match=r"\(1, 3\)"):
        sma_select(reversed_pair, threshold_table(valid))
    with pytest.raises(NotOrderedPair):
        threshold_table({(1, 3): 1.0})


def test_sma_inferred_models_of_a_subset_layout():
    # Statistics laid out over models 1..4 that name only 2..4: the inferred
    # model set is the one the pairs name, not the layout's.
    stats = PairValues(pair_order((1, 2, 3, 4), [(4, 3), (3, 2), (4, 2)]), [0.5, 2.0, 0.5])
    table = threshold_table({(3, 2): 1.0, (4, 2): 1.0, (4, 3): 1.0})
    result = sma_select(stats, table)
    assert result.m_hat == 3
    assert result.accepted == {2: False, 3: True, 4: True}
    assert _selection(sma_select, stats, table, None) == _selection(
        sma_select_loop, stats, table, None
    )


def test_sma_empty_model_list_is_named():
    # The statistics are not empty; the model list is.
    table = threshold_table({(2, 1): 1.0})
    with pytest.raises(DimensionMismatch, match="the model list is empty"):
        sma_select({(2, 1): 0.5}, table, models=[])
    with pytest.raises(DimensionMismatch, match="the statistics name no model"):
        sma_select({}, table)


@pytest.mark.parametrize("size", [True, 1.0])
def test_a_size_equal_to_a_cached_integer_is_still_refused(size):
    # The model order is cached per list; an equal bool or float must not
    # read the entry its integer left.
    stats = {(2, 1): 0.5, (3, 1): 0.5, (3, 2): 0.5}
    table = threshold_table(dict.fromkeys(stats, 1.0))
    assert sma_select(stats, table, models=[1, 2, 3]).models == (1, 2, 3)
    with pytest.raises(DimensionMismatch, match="model sizes must be integers"):
        sma_select(stats, table, models=[size, 2, 3])


def test_sma_explicit_models_for_singleton():
    result = sma_select({}, threshold_table({}), models=[4])
    assert result.m_hat == 4


def test_sma_result_json(toy_family):
    stats = {(2, 1): 0.0, (3, 1): 0.0, (3, 2): 0.0}
    table = threshold_table({pair: 1.0 for pair in stats})
    d = sma_select(stats, table).to_dict()
    assert d["m_hat"] == 1
    assert d["accepted"] == {"1": True, "2": True, "3": True}
    assert set(d["stats"]) == {"2:1", "3:1", "3:2"}


def _selection(select, statistics, table, models):
    """What a selector returns, or the error it raises, as comparable values."""
    try:
        result = select(statistics, table, models)
    except (DimensionMismatch, MissingPair, NonFiniteInput) as exc:
        return type(exc), str(exc)
    return result.m_hat, result.accepted, result.to_dict()


# Few distinct values, so statistics often equal their thresholds exactly.
LEVELS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


def _as_form(draw, values: dict, form: str):
    """``values`` as a dict in shuffled key order or as a ``PairValues``
    built from shuffled pairs (canonical again when none is missing)."""
    pairs = draw(st.permutations(list(values)))
    if form == "dict":
        return {pair: values[pair] for pair in pairs}
    return pair_values({pair: values[pair] for pair in pairs})


@st.composite
def selection_inputs(draw):
    models = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=9, unique=True)))
    pairs = pair_order(tuple(models)).pairs
    critical = {pair: draw(st.one_of(LEVELS, st.floats(0.0, 3.0))) for pair in pairs}
    stats = {
        pair: draw(st.one_of(st.just(critical[pair]), LEVELS, st.floats(0.0, 4.0)))
        for pair in pairs
    }
    faults = ["nan", "inf", "no statistic", "no threshold"]
    fault = draw(st.sampled_from([None] * len(faults) + faults))
    if fault and pairs:
        pair = draw(st.sampled_from(pairs))
        if fault in ("nan", "inf"):
            stats[pair] = float(fault)
        else:
            del (stats if fault == "no statistic" else critical)[pair]
    choice = draw(st.sampled_from(["inferred", "explicit", "subset"]))
    if choice == "inferred":
        chosen = None
    elif choice == "explicit":
        chosen = list(models)
    else:
        chosen = draw(st.lists(st.sampled_from(models), min_size=1, unique=True))
    shuffled = None
    if chosen is not None:
        shuffled = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(chosen)))))
    statistics = _as_form(draw, stats, draw(st.sampled_from(["dict", "array"])))
    table = threshold_table(_as_form(draw, critical, draw(st.sampled_from(["dict", "array"]))))
    return statistics, table, chosen, shuffled


@settings(max_examples=150, deadline=None)
@given(inputs=selection_inputs())
def test_sma_select_matches_the_loop_selector(inputs):
    """The array selector against the loop over references: same index,
    acceptance and record, or the same error, on model lists with gaps,
    exact ties, shuffled dicts, array-backed inputs, explicit, inferred and
    partial model lists, and non-finite or missing entries.  An explicit
    list selects alike as given, as a sorted tuple, as a shuffled list with
    repeats, as an ``int64`` array and, when it names every model of the
    statistics, as ``None``.  The examples run in one process and their model
    sets differ, so a memo of model sets that let two of them alias (say,
    by their length) gives some example another set's selection."""
    statistics, table, models, shuffled = inputs
    expected = _selection(sma_select_loop, statistics, table, models)
    forms = [models]
    if models is not None:
        forms += [tuple(sorted(models)), shuffled, np.array(shuffled, dtype=np.int64)]
        if set(models) == {m for pair in statistics for m in pair}:
            forms.append(None)
    for form in forms:
        assert _selection(sma_select, statistics, table, form) == expected, form


@settings(max_examples=60, deadline=None)
@given(family=small_families(), seed=st.integers(0, 2**32 - 1))
def test_flags_backed_result_matches_the_loop_selector(family, seed):
    """On a family's own statistics, against thresholds of half, all or
    twice each statistic (so exact ties occur), the selector's lazily built
    ``accepted`` and record equal the loop's, and ``m_hat``, read first,
    is the smallest accepted model without building ``accepted``."""
    rng = np.random.default_rng(seed)
    statistics = pairwise_statistics(family, rng.standard_normal(family.n))
    factors = rng.choice([0.5, 1.0, 2.0], len(statistics))
    table = threshold_table(PairValues(statistics.order, statistics.array * factors))
    result = sma_select(statistics, table)
    expected = sma_select_loop(statistics, table, family.models)
    assert result.m_hat == min(m for m, ok in expected.accepted.items() if ok)
    assert "accepted" not in vars(result)
    assert result.accepted == expected.accepted
    assert result.to_dict() == expected.to_dict()


def test_statistics_are_read_only_and_equal_the_dict(toy_extended_family):
    family = toy_extended_family
    y = np.random.default_rng(7).standard_normal(family.n)
    pairs = family.pairs()
    stats = pairwise_statistics(family, y)
    # The dict the selector's statistics used to be.
    norms = pair_norms(family, family.reduce(y)[None], pair_order(family.models))
    old = dict(zip(pairs, norms[0].tolist()))
    assert stats == old and old == stats
    assert list(stats) == pairs
    assert list(stats.items()) == list(old.items())
    assert list(stats.values()) == list(old.values())
    assert all(type(stats[pair]) is float for pair in pairs)
    with pytest.raises(TypeError):
        stats[pairs[0]] = 0.0
    with pytest.raises(ValueError):
        stats.array[0] = 0.0
    copy = dict(stats)
    copy[pairs[0]] = -1.0
    assert stats[pairs[0]] == old[pairs[0]]
    result = sma_select(stats, threshold_table(dict.fromkeys(pairs, 1.0)))
    assert result.statistics is stats


def test_table_critical_is_read_only_and_equals_the_dict(toy_extended_family):
    family = toy_extended_family
    table = calibrate(family, np.full(family.n, 0.8), 2000, 5, 2.0, 1.0)
    draws = sample_draws(family, np.full(family.n, 0.8), 2000, 5)
    # The dict the table used to hold: each pair's draw of its reference's
    # rank, plus the bias allowance, bit for bit.
    old = {
        pair: np.sort(column(draws, *pair))[table.ranks[pair[1]] - 1]
        + table.alpha_plus * math.sqrt(table.pair_dims[pair])
        for pair in draws.order.index
    }
    hand_set = threshold_table(old)
    loaded = CalibrationTable.from_dict(table.to_dict())
    for critical in (table.critical, hand_set.critical, loaded.critical):
        assert critical == old and old == critical
        assert list(critical) == family.pairs()
        with pytest.raises(TypeError):
            critical[(2, 1)] = 0.0
    assert hand_set.critical.array is not table.critical.array
    assert loaded.to_dict() == table.to_dict()


@settings(max_examples=30, deadline=None)
@given(bump=st.floats(0.0, 5.0), seed=st.integers(0, 1000))
def test_acceptance_monotone_in_thresholds(bump, seed):
    rng = np.random.default_rng(seed)
    pairs = [(2, 1), (3, 1), (3, 2)]
    stats = {pair: float(rng.uniform(0, 3)) for pair in pairs}
    base = {pair: float(rng.uniform(0, 3)) for pair in pairs}
    raised = {pair: v + bump for pair, v in base.items()}
    m_base = sma_select(stats, threshold_table(base)).m_hat
    m_raised = sma_select(stats, threshold_table(raised)).m_hat
    assert m_raised <= m_base


def test_selected_index_nonincreasing_in_level(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 30_000, seed=211)
    moments = all_pair_moments(toy_family, toy_noise)
    stats = pairwise_statistics(toy_family, [0.5, 1.4, -1.2, 0.3])
    chosen = []
    for x in (0.25, 0.5, 1.0, 2.0, 4.0):
        table = critical_values(draws, moments, x_level=x, alpha_plus=0.0)
        chosen.append(sma_select(stats, table).m_hat)
    assert all(b <= a for a, b in zip(chosen, chosen[1:]))


def test_oracle_zero_signal_both_modes(toy_family, toy_noise):
    for mode in ("probabilistic", "power_loss"):
        rep = oracle(toy_family, np.zeros(4), toy_noise, alpha_plus=1.0, mode=mode)
        assert rep.m_star == 1


def test_oracle_sparse_signal(toy_family, toy_noise):
    rep = oracle(toy_family, [0.0, 0.0, 3.0, 0.0], toy_noise, alpha_plus=1.0)
    assert rep.m_star == 3


def test_oracle_small_bias_accepted(toy_family, toy_noise):
    rep = oracle(toy_family, [0.0, 0.5, 0.0, 0.0], toy_noise, alpha_plus=1.0)
    assert rep.m_star == 1


def test_oracle_power_mode_checks_pairs_above(toy_family, toy_noise):
    # Bias only between models 2 and 3: the probabilistic and power-mode
    # benchmarks agree here, both rejecting references 1 and 2.
    rep = oracle(toy_family, [0.0, 0.0, 3.0, 0.0], toy_noise, alpha_plus=1.0, mode="power_loss")
    assert rep.m_star == 3


def test_oracle_alpha_zero_is_exact_sparsity(toy_family, toy_noise):
    rep = oracle(toy_family, [7.0, 2.0, 0.0, 0.0], toy_noise, alpha_plus=0.0)
    assert rep.m_star == 2


# Desk-scale paper and derivative-loss scenarios (the benchmark's self-check sizes).
ORACLE_CONFIGS = {
    "paper-small": ExperimentConfig(
        n=80, p_max=40, models=tuple(range(1, 13)), m_dagger=8
    ).validate(),
    "derivative-small": ExperimentConfig(
        n=80, p_max=30, models=tuple(range(2, 9)), m_dagger=6,
        noise_profile={"kind": "linear", "sigma_lo": 0.25, "sigma_hi": 1.0},
        weighting="derivative",
    ).validate(),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_oracle_matches_definition_loop(name):
    """``oracle`` (the selector on bias statistics) against the direct loop
    over its definition, for every data seed, allowance and mode."""
    modes_differ = []
    for seed in (0, 1, 2, 3):
        config = replace(ORACLE_CONFIGS[name], seeds=Seeds(data=seed))
        scenario = generate_scenario(config)
        family = scenario_family(config, scenario)
        for alpha_plus in (0.0, 0.5, 1.0, 2.0):
            m_star = {}
            for mode in ("probabilistic", "power_loss"):
                m_star[mode] = oracle(
                    family, scenario.f_true, scenario.sigma, alpha_plus, mode=mode
                ).m_star
                assert m_star[mode] == oracle_index(
                    family, scenario.f_true, scenario.sigma, alpha_plus, mode
                ), (seed, alpha_plus, mode)
            assert m_star["probabilistic"] <= m_star["power_loss"]
            modes_differ.append(m_star["probabilistic"] != m_star["power_loss"])
    if name == "paper-small":
        # Seeds 1 and 2 carry a larger reference that fails against a model
        # above it, which only the power-loss oracle sees.
        assert any(modes_differ)


def test_oracle_requires_truth(toy_family):
    with pytest.raises(RequiresKnownTruth):
        oracle(toy_family, None, NoiseSpec([1.0] * 4), 1.0)


def test_payment_zero_for_smallest_oracle(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 10_000, seed=223)
    table = critical_values(draws, all_pair_moments(toy_family, toy_noise), 2.0, 1.0)
    rep = oracle(toy_family, np.zeros(4), toy_noise, alpha_plus=1.0)
    rep = payment_for_adaptation(toy_family, toy_noise, rep, table)
    assert rep.z_bar == 0.0


def test_payment_theory_cap_values(toy_family, toy_noise):
    # The cap reads its level and allowance off the table: the common level
    # in probabilistic mode, and in power-loss mode the calibrated level of
    # the benchmark's predecessor (4 log 3 for model 2 on the toy family's
    # dimensions 1, 2, 3), or 0 for the first model.
    scale = np.sqrt(toy_noise.variances)
    table = calibrate(toy_family, scale, 1000, 229, 2.0, 1.0)
    cap = payment_theory_cap(toy_family, toy_noise, 3, table)
    expected = 2 * math.sqrt(3) + math.sqrt(2 * (2 + math.log(3)))
    assert cap == pytest.approx(expected, rel=1e-12)
    assert cap == pytest.approx(5.9535, abs=1e-4)

    power_table = calibrate(toy_family, scale, 1000, 229, 2.0, 1.0, mode="power_loss", power_a=1.0)
    assert power_table.level(2) == pytest.approx(4 * math.log(3), rel=1e-12)
    power = payment_theory_cap(toy_family, toy_noise, 3, power_table)
    expected_power = math.sqrt(3) + math.sqrt(2 * (4 * math.log(3) + math.log(3)))
    assert power == pytest.approx(expected_power, rel=1e-12)
    assert power == pytest.approx(5.0466, abs=2e-4)
    first = payment_theory_cap(toy_family, toy_noise, 1, power_table)
    assert first == pytest.approx(1 + math.sqrt(2 * math.log(3)), rel=1e-12)


def test_payment_within_cap(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 40_000, seed=227)
    table = critical_values(draws, all_pair_moments(toy_family, toy_noise), 2.0, 1.0)
    f = np.array([0.0, 0.0, 3.0, 0.0])
    rep = oracle(toy_family, f, toy_noise, alpha_plus=1.0)
    rep = payment_for_adaptation(toy_family, toy_noise, rep, table)
    assert rep.m_star == 3
    assert rep.z_bar == max(table.threshold(3, 1), table.threshold(3, 2))
    assert rep.z_bar <= rep.z_bar_theory


def test_aic_equivalence_toy(toy_family):
    assert aic_equivalence_check(toy_family, 1.0, [1.0, 2.0, 3.0, 4.0]) is True
    assert aic_equivalence_check(toy_family, 1.0, np.zeros(4)) is True


def test_aic_equivalence_random_instances():
    rng = np.random.default_rng(229)
    for _ in range(20):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(p + 1, 25))
        design = DesignMatrix(rng.standard_normal((p, n)))
        k = int(rng.integers(2, min(p, 6) + 1))
        models = sorted(rng.choice(np.arange(1, p + 1), size=k, replace=False).tolist())
        family = build_projection_family(design, prediction_weights(design), models)
        y = rng.standard_normal(n)
        sigma = float(rng.uniform(0.2, 3.0))
        assert aic_equivalence_check(family, sigma, y) is True
