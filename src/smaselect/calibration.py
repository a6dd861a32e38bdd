"""Monte-Carlo calibration of the pairwise acceptance thresholds.

The joint law of all pairwise noise magnitudes is sampled once; empirical
tail quantiles, each reference's multiplicity-corrected rank, and the final
critical values are all read off the same draw matrix, so the family-wise
propagation guarantee holds exactly in-sample.

One table builder serves both threshold modes and both noise sources: the
probabilistic mode with a common level whose rank each reference raises by
an exact multiplicity correction, and the power-loss mode where each
reference model carries its own level chosen to control an excess-risk
functional rather than a rejection probability.  ``calibrate`` takes both
noise sources the same way, as a per-coordinate noise scale: the known
standard deviations or the presmoothing residuals.
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
    ConfigInvalid,
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    NotOrderedPair,
    TailTooDeepWarning,
)
from .family import ModelFamily, PairOrder, PairValues, noise_variances, pair_order, pair_values
from .moments import NoiseSpec, PairMoments, _pair_traces, _single_traces
from .rng import block_bounds, is_integer, is_number, is_real, is_seed, stream

MODES = ("probabilistic", "power_loss")

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
        cols = next((cols for ref, _, _, cols in self.order.groups if ref == m_ref), [])
        return [self.order.pairs[c] for c in np.arange(len(self.order.pairs))[cols].tolist()]

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


def _tail_rank(t: float, n: int) -> int:
    """Rank (1-based) of the empirical tail value at level ``e^-t``.

    The rank is the upper order statistic ceil((1 - e^-t) n): the smallest
    sample value whose strict empirical exceedance is at most ``e^-t``, so
    rank ``k`` answers every level in ``(-log(1 - (k-1)/n), -log(1 - k/n)]``.
    Degenerate ranks (t = 0, full mass) and tails deeper than the sample
    both clip to the maximum draw, rank n.
    """
    k = math.ceil((1.0 - math.exp(-_check_level(t, "tail level"))) * n)
    return n if k < 1 else min(k, n)


def _order_statistic(values: np.ndarray, k: int) -> np.ndarray:
    """Rank-``k`` (1-based) value along the last axis, by one partial selection."""
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def tail_quantile(draws: JointDrawMatrix, m: int, m_ref: int, t: float) -> float:
    """Empirical tail function of one pair at exceedance level ``e^-t``."""
    col = draws.column(m, m_ref)
    k = _tail_rank(t, draws.n_sim)
    if k == draws.n_sim:
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
    return float(_order_statistic(col, k))


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


def _max_t(block: np.ndarray, k_x: int, x_level: float) -> tuple[int, np.ndarray]:
    """Max-T rank ``k`` of one reference and the sorted ranks ``k_x..n`` of each
    row of ``block``, its comparisons' draws.  ``k`` is the smallest rank ``>= k_x``
    whose family-wise exceedance is at most ``e^-x`` (``k_x`` for one comparison).
    A draw exceeds the rank-``k`` value exactly when its strict rank (ties share
    their run's first rank) reaches ``k``, so only the tail is selected and sorted,
    and ``k`` is a quantile of each realization's largest strict rank (max-T)."""
    block = np.ascontiguousarray(block)
    g, n = block.shape
    rows = np.arange(g)[:, None]
    # Flat indices into ``block``, so each gather is one fancy index.
    top = np.argpartition(block, k_x - 1, axis=1)[:, k_x - 1 :] + rows * n
    order = np.argsort(block.ravel()[top], axis=1)
    top = top.ravel()[order + rows * top.shape[1]]
    tail = block.ravel()[top]
    if g == 1:
        return k_x, tail
    new_run = np.ones(tail.shape, dtype=bool)
    np.not_equal(tail[:, 1:], tail[:, :-1], out=new_run[:, 1:])
    position = np.arange(k_x - 1, n, dtype=np.int32)
    run_start = np.maximum.accumulate(np.where(new_run, position, 0), axis=1)
    ranks = np.full(block.shape, k_x - 1, dtype=np.int32)
    ranks.ravel()[top] = run_start
    # reached[k]: realizations whose largest strict rank is >= k (none at k = n).
    reached = np.cumsum(np.bincount(ranks.max(axis=0), minlength=n + 1)[::-1])[::-1]
    return k_x + int(np.argmax(reached[k_x:] / n <= math.exp(-x_level))), tail


@dataclass(frozen=True)
class CalibrationTable:
    """Acceptance thresholds for every ordered pair.

    ``critical[(m, m_ref)]`` is compared against the observed difference
    statistic, and ``pair_dims[(m, m_ref)]`` is the effective dimension
    entering the bias allowance ``alpha_plus * sqrt(dim)``.  Both are
    stored as read-only ``PairValues`` (through ``pair_values``), and
    ``dict(table.critical)`` is a mutable copy.  ``ranks[m_ref]`` is the
    order statistic (1-based) of the ``n_sim`` draws that every threshold
    against ``m_ref`` took.  A NaN threshold would reject every comparison
    it enters, and a negative dimension or a NaN allowance would make the
    self-test's tails NaN, hiding every exceedance.  So non-finite
    thresholds, dimensions, levels or ``alpha_plus`` raise
    ``NonFiniteInput`` on construction, and negative dimensions, levels or
    ``alpha_plus``, or a rank outside the integers ``1..n_sim``,
    ``DimensionMismatch``.  ``level(m_ref)`` is the level a reference was
    calibrated at; a power-loss table records ``x_level`` 0.0, the level
    of its first model, which has no predecessor.
    """

    x_level: float
    alpha_plus: float
    ranks: dict[int, int]
    critical: Mapping[tuple[int, int], float]
    pair_dims: Mapping[tuple[int, int], float]
    mode: str
    moments: dict[tuple[int, int], PairMoments] | None = None
    power_a: float | None = None
    per_model_levels: dict[int, float] | None = None
    n_sim: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_level(self.alpha_plus, "alpha_plus")
        _check_level(self.x_level, "x_level")
        for level in (self.per_model_levels or {}).values():
            _check_level(level, "every per_model_levels value")
        for name in ("critical", "pair_dims"):
            values = pair_values(getattr(self, name))
            object.__setattr__(self, name, values)
            if not np.isfinite(values.array).all():
                raise NonFiniteInput(f"calibration table has non-finite {name} values")
        n = self.n_sim if is_integer(self.n_sim) else 0
        if not all(is_integer(k) and 1 <= k <= n for k in self.ranks.values()):
            raise DimensionMismatch(f"calibration table ranks must be integers in 1..{self.n_sim}")
        _check_level(float(self.pair_dims.array.min(initial=0.0)), "every pair_dims value")

    @property
    def tail_clipped(self) -> tuple[tuple[int, int], ...]:
        """Pairs whose reference takes rank ``n_sim``, the sample maximum."""
        if self.n_sim not in self.ranks.values():
            return ()
        clipped = np.zeros(len(self.critical), dtype=bool)
        for m_ref, _, _, cols in self.critical.order.groups:
            clipped[cols] = self.ranks.get(m_ref) == self.n_sim
        return tuple(pair for pair, top in zip(self.critical, clipped.tolist()) if top)

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
            "ranks": {str(m_ref): k for m_ref, k in sorted(self.ranks.items())},
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
        """Inverse of ``to_dict``.  A missing key, a value of the wrong type
        or range (NaN and infinities are numbers, left to the constructor),
        or ranks not keyed by ``critical``'s references raise ``ConfigInvalid``."""

        def read(key: str, ok=is_real, what="a real number", keys=None):
            """``d[key]``, or its entries re-keyed by ``keys``, each value checked by ``ok``."""
            value = d.get(key) if isinstance(d, Mapping) else None
            try:
                entries = {keys(k): v for k, v in value.items()} if keys else {key: value}
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigInvalid(f"calibration table: bad or missing {key!r}: {exc}") from None
            if bad := [v for v in entries.values() if not ok(v)]:
                raise ConfigInvalid(f"calibration table: {key!r}: {bad[0]!r} is not {what}")
            return entries if keys else value

        def pair(key: str) -> tuple[int, int]:
            m, mr = map(int, key.split(":"))
            return m, mr

        table = cls(
            x_level=float(read("x_level")),
            alpha_plus=float(read("alpha_plus")),
            ranks=read("ranks", lambda k: True, keys=int),  # the constructor checks each rank
            critical=read("critical", keys=pair),
            pair_dims=read("pair_dims", keys=pair),
            mode=read("mode", MODES.__contains__, f"one of {MODES}"),
            power_a=read("power_a", lambda a: a is None or is_number(a), "null or finite"),
            per_model_levels=read("per_model_levels", keys=int)
            if d.get("per_model_levels")
            else None,
            n_sim=read("n_sim", lambda n: n is None or is_integer(n) and n > 0, "null or >= 1"),
            seed=read("seed", lambda s: s is None or is_seed(s), "null or a 64-bit seed"),
        )
        if sorted(table.ranks) != (references := sorted({m_ref for _, m_ref in table.critical})):
            raise ConfigInvalid(f"calibration table: 'ranks' must name the references {references}")
        return table


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

    ``z`` is the pair's draw of its reference's rank.  ``levels`` is either
    the probabilistic level ``x``, each reference taking its exact
    multiplicity-corrected rank (the smallest whose family-wise exceedance
    on these draws is at most ``e^-x``; the rank of ``x`` for a single
    comparison; never above that of ``x + log(#comparisons)``, the in-sample
    Bonferroni level), or power-loss parameters, each reference taking the
    rank of its own level.  ``pair_dims`` are the bias allowance's
    dimensions.  Both modes read one reference's columns at a time, so
    nothing the size of the draws is built besides the draws themselves.
    """
    n = draws.n_sim
    power = isinstance(levels, PowerLossParams)
    # One partial selection per reference at the rank of x: no corrected rank is lower.
    k_x = None if power else _tail_rank(levels, n)
    ranks: dict[int, int] = {}
    z = np.empty(len(draws.order.pairs))
    for m_ref, _, _, cols in draws.order.groups:
        if power:
            if m_ref not in levels.x:
                raise MissingPair(f"power-loss level missing for reference {m_ref}")
            k = _tail_rank(levels.x[m_ref], n)
            z[cols] = _order_statistic(draws.draws.T[cols], k)
        else:
            k, tail = _max_t(draws.draws.T[cols], k_x, levels)
            z[cols] = tail[:, k - k_x]
        ranks[m_ref] = k

    dims = pair_values(pair_dims)
    allowance = alpha_plus * np.sqrt(dims.at(draws.order, "dimension"))
    table = CalibrationTable(
        x_level=0.0 if power else levels,
        alpha_plus=alpha_plus,
        ranks=ranks,
        critical=PairValues(draws.order, z + allowance),
        pair_dims=dims,
        mode="power_loss" if power else "probabilistic",
        moments=dict(moments) if moments is not None else None,
        power_a=levels.a if power else None,
        per_model_levels=dict(levels.x) if power else None,
        n_sim=n,
        seed=draws.seed,
    )
    clipped = table.tail_clipped
    if clipped:
        warnings.warn(
            TailTooDeepWarning(
                f"{len(clipped)} pair(s) clipped to the maximum draw: "
                + ", ".join(f"({m},{mr})" for m, mr in clipped[:5])
                + ("..." if len(clipped) > 5 else "")
            ),
            stacklevel=3,
        )
    return table


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
    root = family.noise_root(scale * scale)
    if mode not in MODES:
        raise DimensionMismatch(f"unknown calibration mode {mode!r}")
    levels = x_level
    if mode == "power_loss":
        if power_a is None:
            raise DimensionMismatch("power-loss mode needs the exponent a")
        levels = power_loss_params(family.models, _single_traces(family, root), power_a)
    order = pair_order(family.models)
    draws = _sample_scaled_norms(family, scale, n_sim, seed, order, n_workers, stream_tag)
    return draws, calibration_table(draws, _pair_traces(family, root, order), alpha_plus, levels)


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
        target = math.exp(-table.level(m_ref))
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

    p_m = _pair_traces(family, family.noise_root(variances), order)[(m, 0)]
    if x_candidate <= 0:
        fired = np.ones(n_sim, dtype=bool)
    else:
        z = _order_statistic(compared.T, _tail_rank(x_candidate, n_sim))
        fired = np.any(compared > z[None, :], axis=1)
    integrand = np.maximum(own_norm2 / p_m, 1.0) * fired
    value = float(integrand.mean())
    stderr = float(integrand.std(ddof=1) / math.sqrt(n_sim)) if n_sim > 1 else float("inf")
    return ExcessRiskEstimate(value=value, stderr=stderr, n_sim=n_sim)
