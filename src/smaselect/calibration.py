"""Monte-Carlo calibration of the pairwise acceptance thresholds.

The joint law of all pairwise noise magnitudes is sampled once; empirical
tail quantiles, per-reference multiplicity corrections, and the final
critical values are all read off the same draw matrix, so the family-wise
propagation guarantee holds exactly in-sample.

One table builder serves both threshold modes and both noise sources: the
probabilistic mode with a common level plus an exact multiplicity
correction, and the power-loss mode where each reference model carries its
own level chosen to control an excess-risk functional rather than a
rejection probability.  ``calibrate`` takes both noise sources the same
way, as a per-coordinate noise scale: the known standard deviations or
the presmoothing residuals.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroResiduals,
    BadExponent,
    CalibrationWarning,
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    NotOrderedPair,
    TailTooDeepWarning,
)
from .family import ModelFamily, PairOrder, PairValues, noise_variances, pair_order, pair_values
from .moments import NoiseSpec, PairMoments, _pair_traces, pair_traces, single_traces
from .rng import block_bounds, is_integer, stream

# Tails thinner than this many sample points trigger a thin-tail warning.
MIN_TAIL_POINTS = 10

# The bits of +inf as an unsigned 64-bit integer (see ``JointDrawMatrix``).
_INF_BITS = np.float64(np.inf).view(np.uint64)


@dataclass
class JointDrawMatrix:
    """Simulated pairwise noise magnitudes, one row per noise realization.

    Column ``i`` holds the magnitude of the difference statistic for pair
    ``order.pairs[i]``; all columns of a row come from the same
    realization, preserving the joint law.  ``order`` is the pair layout
    the draws were sampled in (the family's canonical ``PairOrder`` unless
    a sampler was given another): ``order.index`` maps pairs to columns and
    ``order.groups`` holds each reference's columns.  Nothing is sorted:
    order statistics and strict ranks are selected on demand.
    """

    draws: np.ndarray
    order: PairOrder = field(repr=False)
    seed: int

    def __post_init__(self):
        # A float array view passes through uncopied (the sampler's
        # column-major one included); anything else is converted first.
        draws = self.draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[1] != len(self.order.pairs):
            raise DimensionMismatch("draw matrix needs one column per pair of its order")
        # One pass over the draws: read as unsigned integers, every
        # nonnegative finite double lies below the bits of +inf, and +inf,
        # NaN and every value with the sign bit set lie at or above them.
        # Only a matrix that fails this is scanned again, to tell the
        # cases apart (-0.0 passes both checks).
        if draws.view(np.uint64).max(initial=0) >= _INF_BITS:
            if not np.isfinite(draws).all():
                raise NonFiniteInput("draw matrix contains NaN or infinite values")
            if (draws < 0).any():
                raise DimensionMismatch("draws must be nonnegative magnitudes")

    @property
    def n_sim(self) -> int:
        return self.draws.shape[0]

    def column(self, m: int, m_ref: int) -> np.ndarray:
        try:
            return self.draws[:, self.order.index[(m, m_ref)]]
        except KeyError:
            raise MissingPair(f"pair ({m}, {m_ref}) not present in draws") from None

    def references(self) -> list[int]:
        """Reference models that have at least one comparison column."""
        return [m_ref for m_ref, *_ in self.order.groups]

    def comparisons(self, m_ref: int) -> list[tuple[int, int]]:
        return [pair for pair in self.order.pairs if pair[1] == m_ref]

    def upper_tail(self, k: int, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Ascending order statistics of ranks ``k..n_sim`` of each column
        ``cols`` (a slice or an index array; every column by default), and
        every draw's strict rank (count of strictly smaller draws, so ties
        share their run's first rank) floored at ``k - 1``; one row per column.

        A strict rank reaches ``k`` exactly when the draw exceeds the rank-``k``
        value, so such draws all lie in the tail: one partial selection per
        column, and only the tail is sorted.  Every temporary is the size of
        the columns asked for: a table asks for one reference's at a time.
        """
        block = np.ascontiguousarray(self.draws.T[cols])
        rows = np.arange(block.shape[0])[:, None]
        # Flat indices into ``block``, so each gather is one fancy index.
        top = np.argpartition(block, k - 1, axis=1)[:, k - 1 :] + rows * self.n_sim
        order = np.argsort(block.ravel()[top], axis=1)
        top = top.ravel()[order + rows * top.shape[1]]
        tail = block.ravel()[top]
        new_run = np.ones(tail.shape, dtype=bool)
        np.not_equal(tail[:, 1:], tail[:, :-1], out=new_run[:, 1:])
        position = np.arange(k - 1, self.n_sim, dtype=np.int32)
        run_start = np.maximum.accumulate(np.where(new_run, position, 0), axis=1)
        ranks = np.full(block.shape, k - 1, dtype=np.int32)
        ranks.ravel()[top] = run_start
        return tail, ranks

    def restricted(self, pairs) -> "JointDrawMatrix":
        """View on a subset of pairs (shared rows, their own order)."""
        order = pair_order(self.order.models, pairs)
        cols = [self.order.index[p] for p in order.pairs]
        return JointDrawMatrix(self.draws[:, cols].copy(), order, self.seed)


def _sample_scaled_norms(
    family: ModelFamily,
    scale: np.ndarray,
    n_sim: int,
    seed: int,
    order: PairOrder,
    n_workers: int,
    stream_tag: int = 0,
) -> JointDrawMatrix:
    """Draw matrix for noise ``scale * N(0, I_n)`` rows over the pairs of ``order``.

    Shared core of the known-noise and residual-multiplier paths and of
    ``excess_risk_mc``: they differ only in the per-coordinate scale vector
    and the pair layout.  Row block ``b`` always reads stream
    ``(seed, stream_tag, b)``, so the result is bit-identical for any
    worker count.
    """
    if not all(is_integer(n) and n >= 1 for n in (n_sim, n_workers)):
        raise DimensionMismatch(
            f"n_sim and n_workers must be integers >= 1, got {n_sim!r}, {n_workers!r}"
        )
    scale = family.vector(scale, "noise scale")
    # Column-major, so each column's order statistics read contiguous memory.
    # The kernel writes each block's squares straight into its columns, and
    # one in-place square root turns them into magnitudes.
    columns = np.empty((len(order.pairs), n_sim))

    def fill(block):
        b, start, stop = block
        z = stream(seed, stream_tag, b).standard_normal((stop - start, family.n))
        xi = family.reduce(np.multiply(z, scale, out=z))
        family.pair_squares(xi, order, out=columns[:, start:stop])

    blocks = block_bounds(n_sim)
    if n_workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    np.sqrt(columns, out=columns)
    return JointDrawMatrix(columns.T, order, seed)


def sample_joint_draws(
    family: ModelFamily,
    sigma: NoiseSpec,
    n_sim: int,
    seed: int,
    n_workers: int = 1,
) -> JointDrawMatrix:
    """Simulate the joint law of all pairwise noise magnitudes.

    Row ``r`` holds the magnitudes of every difference statistic under one
    realization of centered Gaussian noise with the known covariance;
    deterministic given ``seed``, bit-identical for any ``n_workers``.
    """
    scale = np.sqrt(noise_variances(sigma))
    return _sample_scaled_norms(family, scale, n_sim, seed, pair_order(family.models), n_workers)


def _check_level(value: float, what: str) -> float:
    """``value`` itself if finite and >= 0: the one check of a level or allowance.
    Non-finite raises ``NonFiniteInput``, negative ``DimensionMismatch``."""
    if not math.isfinite(value):
        raise NonFiniteInput(f"{what} must be finite, got {value}")
    if value < 0:
        raise DimensionMismatch(f"{what} must be >= 0")
    return value


def _tail_rank(t: float, n: int) -> tuple[int, bool]:
    """Rank (1-based) of the empirical tail value at level ``e^-t``; flags clipping.

    The rank is the upper order statistic ceil((1 - e^-t) n): the smallest
    sample value whose strict empirical exceedance is at most ``e^-t``.
    Degenerate ranks (t = 0, full mass) and tails deeper than the sample
    both clip to the maximum draw (rank n) and are flagged.
    """
    tail = math.exp(-_check_level(t, "tail level"))
    k = math.ceil((1.0 - tail) * n)
    if k < 1:
        return n, True
    return min(k, n), tail < 1.0 / n


def _order_statistic(values: np.ndarray, k: int) -> np.ndarray:
    """Rank-``k`` (1-based) value along the last axis, by one partial selection."""
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def _quantile_at(col: np.ndarray, t: float) -> tuple[float, bool]:
    """Empirical tail value of a column (any order) at level ``e^-t``; flags
    out-of-sample requests."""
    k, clipped = _tail_rank(t, col.shape[0])
    return float(_order_statistic(col, k)), clipped


def tail_quantile(draws: JointDrawMatrix, m: int, m_ref: int, t: float) -> float:
    """Empirical tail function of one pair at exceedance level ``e^-t``."""
    value, clipped = _quantile_at(draws.column(m, m_ref), t)
    if clipped:
        warnings.warn(
            TailTooDeepWarning(
                f"pair ({m}, {m_ref}): tail level exp(-{t:g}) outside the "
                f"{draws.n_sim}-sample; returning the maximum draw"
            ),
            stacklevel=2,
        )
    elif math.exp(-t) * draws.n_sim < MIN_TAIL_POINTS:
        warnings.warn(
            CalibrationWarning(
                f"pair ({m}, {m_ref}): fewer than {MIN_TAIL_POINTS} tail points "
                f"support the requested level"
            ),
            stacklevel=2,
        )
    return value


def familywise_exceedance(
    draws: JointDrawMatrix, m_ref: int, thresholds: dict[tuple[int, int], float]
) -> float:
    """Fraction of rows where any comparison against ``m_ref`` exceeds its threshold.

    Exceedance is strict, mirroring the selector's rejection rule; for
    continuous draws this matches the non-strict convention almost surely.
    A comparison without a threshold raises ``MissingPair``.
    """
    cols = next((cols for ref, _, _, cols in draws.order.groups if ref == m_ref), None)
    if cols is None:
        raise NotOrderedPair(f"no comparisons available for reference {m_ref}")
    try:
        z = np.array([thresholds[p] for p in draws.comparisons(m_ref)])
    except KeyError as missing:
        raise MissingPair(f"no threshold for pair {missing.args[0]}") from None
    return float(np.mean(np.any(draws.draws[:, cols] > z, axis=1)))


def _max_t_rank(ranks: np.ndarray, k_x: int, x_level: float) -> int:
    """Smallest shared rank ``>= k_x`` at which the family-wise exceedance is at most ``e^-x``.

    ``ranks`` holds the strict ranks of one reference's comparisons (one
    row per comparison), exact at and above ``k_x``.  Every comparison
    takes the same order statistic ``k`` of its column, and a draw strictly
    exceeds the rank-``k`` value exactly when its strict rank is at least
    ``k``.  So a row is rejected at rank ``k`` exactly when its largest
    strict rank reaches ``k``, and the answer is one quantile of the
    row-max ranks: the Westfall-Young max-T adjustment, read off the
    calibration draws themselves.  A single comparison needs no shift.
    """
    if ranks.shape[0] == 1:
        return k_x
    n = ranks.shape[1]
    # reached[k] = number of rows whose largest strict rank is >= k; the
    # last entry (k = n) is always zero.
    reached = np.cumsum(np.bincount(ranks.max(axis=0), minlength=n + 1)[::-1])[::-1]
    meets = reached[k_x:] / n <= math.exp(-x_level)
    return k_x + int(np.argmax(meets))


def _lowest_float(start: float, holds) -> float:
    """Smallest float at which the nondecreasing predicate ``holds`` is true.

    ``start`` should be close to the answer: the walks move one ulp at a
    time, covering the rounding of the closed form it came from.
    """
    while not holds(start):
        start = math.nextafter(start, math.inf)
    while holds(math.nextafter(start, -math.inf)):
        start = math.nextafter(start, -math.inf)
    return start


def _shift_to_rank(x_level: float, k: int, n: int) -> float:
    """Smallest float ``q`` for which the level ``x_level + q`` has rank ``k``.

    Exactly 0.0 when ``x_level`` itself has rank ``k``.  Otherwise rank
    ``k`` starts just above the level ``-log(1 - (k - 1) / n)``: find the
    lowest float level of that rank, then the smallest shift that rounds
    to it when added to ``x_level`` (half an ulp of the level below it).
    ``_quantile_at(column, x_level + q)`` then returns the rank-``k`` value.
    """
    if _tail_rank(x_level, n)[0] == k:
        return 0.0
    level = _lowest_float(-math.log1p(-(k - 1) / n), lambda t: _tail_rank(t, n)[0] >= k)
    half_ulp = (level - math.nextafter(level, -math.inf)) / 2
    return _lowest_float(
        level - x_level - half_ulp, lambda q: _tail_rank(x_level + q, n)[0] >= k
    )


@dataclass(frozen=True)
class CalibrationTable:
    """Acceptance thresholds for every ordered pair.

    ``critical[(m, m_ref)]`` is compared against the observed difference
    statistic, and ``pair_dims[(m, m_ref)]`` is the effective dimension
    entering the bias allowance ``alpha_plus * sqrt(dim)``.  Both are
    stored as read-only ``PairValues`` (through ``pair_values``), and
    ``dict(table.critical)`` is a mutable copy.  A NaN threshold would
    reject every comparison it enters, and a negative dimension or a NaN
    allowance would make the self-test's tails NaN, hiding every
    exceedance.  So non-finite thresholds, dimensions, corrections or
    ``alpha_plus`` raise ``NonFiniteInput`` on construction, and negative
    dimensions or ``alpha_plus`` ``DimensionMismatch``; ``x_level`` may be
    NaN, as fixed thresholds carry no level.  ``level(m_ref)`` is the level
    a reference was calibrated at; a power-loss table records ``x_level``
    0.0, the level of its first model, which has no predecessor.
    """

    x_level: float
    alpha_plus: float
    corrections: dict[int, float]
    critical: Mapping[tuple[int, int], float]
    pair_dims: Mapping[tuple[int, int], float]
    mode: str
    moments: dict[tuple[int, int], PairMoments] | None = None
    power_a: float | None = None
    per_model_levels: dict[int, float] | None = None
    tail_clipped: tuple[tuple[int, int], ...] = ()
    n_sim: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_level(self.alpha_plus, "alpha_plus")
        for name in ("critical", "pair_dims"):
            values = pair_values(getattr(self, name))
            object.__setattr__(self, name, values)
            if not np.isfinite(values.array).all():
                raise NonFiniteInput(f"calibration table has non-finite {name} values")
        if not all(map(math.isfinite, self.corrections.values())):
            raise NonFiniteInput("calibration table has non-finite corrections values")
        _check_level(float(self.pair_dims.array.min(initial=0.0)), "every pair_dims value")

    def level(self, m_ref: int) -> float:
        """Tail level the thresholds against reference ``m_ref`` were
        calibrated at: ``x_level`` in probabilistic mode, the reference's
        entry of ``per_model_levels`` in power-loss mode (``MissingPair``
        when it has none)."""
        if self.mode != "power_loss":
            return self.x_level
        level = (self.per_model_levels or {}).get(m_ref)
        if level is None:
            raise MissingPair(f"no power-loss level for reference {m_ref}")
        return level

    def threshold(self, m: int, m_ref: int) -> float:
        try:
            return self.critical[(m, m_ref)]
        except KeyError:
            raise MissingPair(f"no critical value for pair ({m}, {m_ref})") from None

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "x_level": self.x_level,
            "alpha_plus": self.alpha_plus,
            "corrections": {str(k): v for k, v in sorted(self.corrections.items())},
            "critical": {f"{m}:{mr}": v for (m, mr), v in sorted(self.critical.items())},
            "pair_dims": {f"{m}:{mr}": v for (m, mr), v in sorted(self.pair_dims.items())},
            "tail_clipped": [f"{m}:{mr}" for (m, mr) in self.tail_clipped],
            "n_sim": self.n_sim,
            "seed": self.seed,
        }
        if self.power_a is not None:
            d["power_a"] = self.power_a
        if self.per_model_levels is not None:
            d["per_model_levels"] = {str(k): v for k, v in sorted(self.per_model_levels.items())}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationTable":
        """Inverse of ``to_dict``."""

        def pair(key: str) -> tuple[int, int]:
            m, mr = key.split(":")
            return int(m), int(mr)

        return cls(
            x_level=float(d["x_level"]),
            alpha_plus=float(d["alpha_plus"]),
            corrections={int(k): float(v) for k, v in d["corrections"].items()},
            critical={pair(k): float(v) for k, v in d["critical"].items()},
            pair_dims={pair(k): float(v) for k, v in d["pair_dims"].items()},
            mode=d["mode"],
            power_a=d.get("power_a"),
            per_model_levels={int(k): float(v) for k, v in d["per_model_levels"].items()}
            if d.get("per_model_levels")
            else None,
            tail_clipped=tuple(pair(k) for k in d.get("tail_clipped", [])),
            n_sim=d.get("n_sim"),
            seed=d.get("seed"),
        )


@dataclass(frozen=True)
class PowerLossParams:
    """Per-model excess-risk budgets and per-reference levels."""

    a: float
    alpha: dict[int, float]
    x: dict[int, float]


def power_loss_params(models, p_singles, a: float) -> PowerLossParams:
    """Budgets ``alpha_m`` and levels ``x_ref`` from single-model dimensions.

    For each model ``m`` with predecessor ``ref``, the level attached to
    ``ref`` is ``2 (1 + a) log(p_m / p_min)`` and the budget for ``m`` is
    ``sqrt(3) (p_m / p_min)^(-1-a)``; the level indexing follows the
    next-smaller-model convention.  A NaN or infinite dimension raises
    ``NonFiniteInput``; one that is not > 0 or not nondecreasing,
    ``DimensionMismatch``.
    """
    if not (math.isfinite(a) and a > 0):
        raise BadExponent("power-loss exponent a must be a finite number > 0")
    models = [int(m) for m in models]
    dims = {m: float(p_singles[m]) for m in models}
    vals = [dims[m] for m in models]
    if not all(map(math.isfinite, vals)):
        raise NonFiniteInput("single-model dimensions must be finite")
    if min(vals) <= 0:
        raise DimensionMismatch("single-model dimensions must be > 0")
    if any(b < a_ for a_, b in zip(vals, vals[1:])):
        raise DimensionMismatch("single-model dimensions must be nondecreasing")
    p0 = dims[models[0]]
    alpha = {m: math.sqrt(3.0) * (dims[m] / p0) ** (-1.0 - a) for m in models}
    x = {
        ref: 2.0 * (1.0 + a) * math.log(dims[m] / p0)
        for ref, m in zip(models, models[1:])
    }
    return PowerLossParams(a=a, alpha=alpha, x=x)


def calibration_table(
    draws: JointDrawMatrix,
    pair_dims: Mapping[tuple[int, int], float],
    alpha_plus: float,
    levels: float | PowerLossParams,
    moments: dict[tuple[int, int], PairMoments] | None = None,
) -> CalibrationTable:
    """Thresholds ``z + alpha_plus * sqrt(dim)`` for every pair in ``draws``.

    ``levels`` is either the probabilistic level ``x``, shifted per
    reference by its exact multiplicity correction (the smallest shift
    whose family-wise exceedance on these draws is at most ``e^-x``; 0.0
    when none is needed, always so for a single comparison; never above
    ``log(#comparisons)``, the in-sample Bonferroni shift), or power-loss
    parameters, whose per-reference levels are used unshifted.  ``z`` is
    the pair's empirical tail value at its reference's level, and
    ``pair_dims`` the effective dimensions of the bias allowance.  Both
    modes read one reference's columns at a time, so nothing the size of
    the draws is built besides the draws themselves.
    """
    n = draws.n_sim
    power = isinstance(levels, PowerLossParams)
    corrections = dict.fromkeys(draws.references(), 0.0)
    ref_clipped: dict[int, bool] = {}
    z = np.empty(len(draws.order.pairs))
    if power:
        for m_ref, _, _, cols in draws.order.groups:
            if m_ref not in levels.x:
                raise MissingPair(f"power-loss level missing for reference {m_ref}")
            k, ref_clipped[m_ref] = _tail_rank(levels.x[m_ref], n)
            z[cols] = _order_statistic(draws.draws.T[cols], k)
    else:
        # One partial selection per reference at the rank of x: no corrected rank is lower.
        k_x = _tail_rank(levels, n)[0]
        for m_ref, _, _, cols in draws.order.groups:
            tail, ranks = draws.upper_tail(k_x, cols)
            q = _shift_to_rank(levels, _max_t_rank(ranks, k_x, levels), n)
            k, ref_clipped[m_ref] = _tail_rank(levels + q, n)
            z[cols] = tail[:, k - k_x]
            corrections[m_ref] = q

    dims = pair_values(pair_dims)
    allowance = alpha_plus * np.sqrt(dims.at(draws.order, "dimension"))
    critical = PairValues(draws.order, z + allowance)
    clipped = [pair for pair in draws.order.pairs if ref_clipped[pair[1]]]
    if clipped:
        warnings.warn(
            TailTooDeepWarning(
                f"{len(clipped)} pair(s) clipped to the maximum draw: "
                + ", ".join(f"({m},{mr})" for m, mr in clipped[:5])
                + ("..." if len(clipped) > 5 else "")
            ),
            stacklevel=3,
        )
    return CalibrationTable(
        x_level=0.0 if power else levels,
        alpha_plus=alpha_plus,
        corrections=corrections,
        critical=critical,
        pair_dims=dims,
        mode="power_loss" if power else "probabilistic",
        moments=dict(moments) if moments is not None else None,
        power_a=levels.a if power else None,
        per_model_levels=dict(levels.x) if power else None,
        tail_clipped=tuple(clipped),
        n_sim=draws.n_sim,
        seed=draws.seed,
    )


def critical_values(
    draws: JointDrawMatrix,
    moments: dict[tuple[int, int], PairMoments],
    x_level: float | PowerLossParams,
    alpha_plus: float = 0.0,
) -> CalibrationTable:
    """``calibration_table`` with the pair moments' traces as dimensions.

    ``x_level`` is the probabilistic level or power-loss parameters, as in
    ``calibration_table``; ``power_loss_critical_values`` is the same call.
    """
    pair_dims = PairValues(draws.order, [moments[pair].p_pair for pair in draws.order.pairs])
    return calibration_table(draws, pair_dims, alpha_plus, x_level, moments)


power_loss_critical_values = critical_values


def calibrate(
    family: ModelFamily,
    scale,
    n_sim: int,
    seed: int,
    x_level: float,
    alpha_plus: float,
    mode: str = "probabilistic",
    power_a: float | None = None,
    n_workers: int = 1,
    stream_tag: int = 0,
) -> tuple[JointDrawMatrix, CalibrationTable]:
    """Draws under noise ``scale * N(0, I_n)`` and the table built on them,
    both over every pair of the family, in its canonical order.

    The one path from a per-coordinate noise scale to thresholds: known
    noise passes its standard deviations, multiplier calibration its
    presmoothing residuals.  A scale that is zero everywhere raises
    ``AllZeroResiduals``.  The bias allowance uses the pair variance
    traces under the variances ``scale**2``; in power-loss mode the
    per-reference levels come from the single-model traces of the same
    variances.  Draws on a subset of pairs are ``draws.restricted(pairs)``.
    """
    scale = family.vector(scale, "noise scale")
    if not scale.any():
        raise AllZeroResiduals("noise scale is zero everywhere; calibration is degenerate")
    variances = scale * scale
    if mode == "probabilistic":
        levels = x_level
    elif mode == "power_loss":
        if power_a is None:
            raise DimensionMismatch("power-loss mode needs the exponent a")
        levels = power_loss_params(family.models, single_traces(family, variances), power_a)
    else:
        raise DimensionMismatch(f"unknown calibration mode {mode!r}")
    order = pair_order(family.models)
    draws = _sample_scaled_norms(family, scale, n_sim, seed, order, n_workers, stream_tag)
    return draws, calibration_table(draws, pair_traces(family, variances), alpha_plus, levels)


# Rounding allowance of ``propagation_failures``, in ulps of the critical
# value: adding and then subtracting the bias allowance can round a tail
# value below the order statistic it came from, which would count that draw
# as strictly exceeding.
TAIL_ULPS = 4


def propagation_failures(draws: JointDrawMatrix, table: CalibrationTable) -> list[str]:
    """In-sample exceedance of a table's own thresholds on its draws.

    Each pair's tail value is its critical value minus the bias allowance
    (plus ``TAIL_ULPS`` ulps).  Probabilistic mode: family-wise exceedance
    per reference at most exp(-x).  Power-loss mode: per-pair exceedance at
    most exp(-level) of the pair's reference.  Returns one line per failure;
    a pair of the draws that the table lacks raises ``MissingPair``.
    """
    critical = table.critical.at(draws.order, "critical value")
    dims = table.pair_dims.at(draws.order, "dimension")
    tails = critical - table.alpha_plus * np.sqrt(dims) + TAIL_ULPS * np.spacing(critical)
    exceeds = draws.draws > tails
    failures = []
    for m_ref, _, _, cols in draws.order.groups:
        target = math.exp(-_check_level(table.level(m_ref), "level"))
        if table.mode == "probabilistic":
            fwe = float(np.mean(np.any(exceeds[:, cols], axis=1)))
            if fwe > target + 1e-12:
                failures.append(f"reference {m_ref}: exceedance {fwe:.4f} > {target:.4f}")
        else:
            for pair, exc in zip(draws.comparisons(m_ref), exceeds[:, cols].mean(axis=0).tolist()):
                if exc > target + 1e-12:
                    failures.append(f"pair {pair}: exceedance {exc:.4f} > {target:.4f}")
    return failures


@dataclass(frozen=True)
class ExcessRiskEstimate:
    value: float
    stderr: float
    n_sim: int


def excess_risk_mc(
    family: ModelFamily,
    sigma: NoiseSpec,
    m: int,
    x_candidate: float,
    n_sim: int,
    seed: int,
) -> ExcessRiskEstimate:
    """Monte-Carlo excess-risk functional for model ``m`` at a trial level.

    Averages ``max(|xi_m|^2 / p_m, 1)`` over the event that any comparison
    against the predecessor of ``m`` exceeds its tail value at
    ``x_candidate``; the tail values come from the same simulated rows.
    A level at or below zero means a full-mass threshold: the indicator is
    identically one.
    """
    m_prev = family.predecessor(m)
    if m_prev is None:
        raise NotOrderedPair(f"model {m} has no predecessor in the family")
    variances = noise_variances(sigma)
    scale = np.sqrt(variances)
    pairs = [(mp, m_prev) for mp in family.successors(m_prev)]
    order = pair_order(family.models, pairs + [(m, 0)])
    draws = _sample_scaled_norms(family, scale, n_sim, seed, order, 1)
    compared, own_norm2 = draws.draws[:, :-1], draws.draws[:, -1] ** 2

    p_m = _pair_traces(family, variances, order)[(m, 0)]
    if x_candidate <= 0:
        fired = np.ones(n_sim, dtype=bool)
    else:
        z = _order_statistic(compared.T, _tail_rank(x_candidate, n_sim)[0])
        fired = np.any(compared > z[None, :], axis=1)
    integrand = np.maximum(own_norm2 / p_m, 1.0) * fired
    value = float(integrand.mean())
    stderr = float(integrand.std(ddof=1) / math.sqrt(n_sim)) if n_sim > 1 else float("inf")
    return ExcessRiskEstimate(value=value, stderr=stderr, n_sim=n_sim)
