"""Smallest-accepted selection and its oracle diagnostics.

A reference model is accepted when every comparison against a larger model
stays below its calibrated threshold; the selector returns the smallest
accepted reference.  Validation-mode helpers compute the risk-optimal
benchmark index and the adaptation payment implied by a threshold table.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .calibration import MODES, CalibrationTable, _check_table
from .errors import DimensionMismatch, NonFiniteInput, RequiresKnownTruth
from .family import ModelFamily, PairValues, noise_variances, pair_order, pair_values
from .moments import NoiseSpec, pair_traces, single_variance
from .rng import _check_level


def test_statistics(family: ModelFamily, y) -> PairValues:
    """Difference-statistic magnitudes for every ordered pair, read-only, in
    the family's canonical pair order."""
    order = pair_order(family.models)
    squares = family.pair_squares(family.reduce(family.vector(y)), order)
    return PairValues(order, np.sqrt(squares, out=squares), _owned=True)


@dataclass(frozen=True, eq=False)
class SelectionResult:
    m_hat: int
    flags: np.ndarray  # flags[i]: is models[i] accepted
    models: tuple[int, ...]
    statistics: PairValues
    table_mode: str

    @cached_property
    def accepted(self) -> dict[int, bool]:  # the flags as a dict, built on first read
        return dict(zip(self.models, self.flags.tolist()))

    def to_dict(self) -> dict:
        return {
            "m_hat": self.m_hat,
            "accepted": {str(m): bool(v) for m, v in sorted(self.accepted.items())},
            "stats": {f"{m}:{mr}": t for (m, mr), t in sorted(self.statistics.items())},
            "table_mode": self.table_mode,
        }


def sma_select(
    statistics: Mapping[tuple[int, int], float],
    table: CalibrationTable,
    models=None,
) -> SelectionResult:
    """Smallest reference accepted against all larger models.

    Reference ``m_ref`` is accepted when ``statistics[(m, m_ref)] <=
    table.critical[(m, m_ref)]`` for every larger model ``m``: one
    comparison over the canonical pairs of ``models`` and one reduction per
    reference.  The largest model has nothing to be tested against and is
    accepted vacuously, so a selection always exists.  ``models`` (any
    order, repeats allowed; derived once per distinct sequence) may be
    passed explicitly for degenerate families whose statistics are empty;
    by default it is every model the statistics name.  Every statistic
    must be finite, and every pair of ``models`` needs a statistic and a
    critical value.  A table that is not a ``CalibrationTable`` raises
    ``DimensionMismatch``.
    """
    models, flags, statistics = _accepted(statistics, _check_table(table).critical, models)
    return SelectionResult(models[flags.argmax()], flags, models, statistics, table.mode)


def _accepted(statistics, thresholds: Mapping[tuple[int, int], float], models):
    """The sorted models, their accept flags and the statistics as
    ``PairValues``: ``sma_select``'s rule against any finite thresholds."""
    named = {m for pair in statistics for m in pair} if models is None else models
    order = _model_order(tuple(named))
    if not order.models:
        what = "the statistics name no model" if models is None else "the model list is empty"
        raise DimensionMismatch(f"cannot select: {what}")
    statistics = pair_values(statistics)
    if not np.isfinite(statistics.array).all():
        raise NonFiniteInput("test statistics contain NaN or infinite values")
    ok = statistics.at(order, "statistic") <= pair_values(thresholds).at(order, "critical value")
    flags = np.ones(len(order.models), dtype=bool)
    if ok.size:
        flags[:-1] = np.logical_and.reduceat(ok, order.starts)
    return order.models, flags, statistics


@lru_cache(maxsize=16)
def _model_order(models: tuple):
    """The canonical ``PairOrder`` of a model list's sorted distinct sizes."""
    return pair_order(tuple(sorted({int(m) for m in models})))


@dataclass(frozen=True)
class OracleReport:
    """Risk-side benchmark: best index, payment, and its closed-form cap."""

    m_star: int
    z_bar: float | None = None
    z_bar_theory: float | None = None


def oracle(
    family: ModelFamily,
    f_true,
    sigma: NoiseSpec,
    alpha_plus: float,
    mode: str = "probabilistic",
) -> OracleReport:
    """Smallest reference whose bias is dominated by the variance allowance.

    The smallest-accepted rule with the pair biases as statistics and
    ``alpha_plus * sqrt(dim)`` as thresholds.  In probabilistic mode only
    comparisons against the reference matter; in power-loss mode every
    larger reference must be accepted too, so all larger models are
    unbiased benchmarks as well.
    """
    if f_true is None:
        raise RequiresKnownTruth("oracle needs the true response")
    if mode not in MODES:
        raise DimensionMismatch(f"unknown oracle mode {mode!r}")
    _check_level(alpha_plus, "alpha_plus")
    bias = test_statistics(family, f_true)
    dims = pair_traces(family, noise_variances(sigma))
    allowance = PairValues(dims.order, alpha_plus * np.sqrt(dims.array))
    _, flags, _ = _accepted(bias, allowance, family.models)
    if mode == "power_loss":
        flags = np.logical_and.accumulate(flags[::-1])[::-1]  # and every larger reference
    return OracleReport(m_star=family.models[flags.argmax()])


def payment_theory_cap(
    family: ModelFamily, sigma: NoiseSpec, m_star: int, table: CalibrationTable
) -> float:
    """Closed-form cap on the adaptation payment for Gaussian noise, at the
    table's level of ``m_star``'s predecessor (its ``x_level`` for the first
    model) plus ``log(#models)``, with the table's allowance ``alpha_plus``."""
    ref = family.predecessor(m_star)
    level = table.x_level if ref is None else table.level(ref)
    mom = single_variance(family, sigma, m_star)
    spread = math.sqrt(2.0 * mom.lambda_pair * (level + math.log(len(family.models))))
    if table.mode == "power_loss":
        return table.alpha_plus * math.sqrt(mom.p_pair) + spread
    return (1.0 + table.alpha_plus) * math.sqrt(mom.p_pair) + spread


def payment_for_adaptation(
    family: ModelFamily,
    sigma: NoiseSpec,
    report: OracleReport,
    table: CalibrationTable,
) -> OracleReport:
    """Fill in the adaptation payment and its theoretical cap.

    The payment maximizes the thresholds of the benchmark index against all
    smaller models (zero when the benchmark is the smallest model).  A table
    that is not a ``CalibrationTable`` raises ``DimensionMismatch``.
    """
    _check_table(table)
    m_star = report.m_star
    z_bar = max((table.threshold(m_star, m) for m in family.models if m < m_star), default=0.0)
    return replace(
        report, z_bar=z_bar, z_bar_theory=payment_theory_cap(family, sigma, m_star, table)
    )

