"""Monte-Carlo calibration of the pairwise acceptance thresholds.

The joint law of all pairwise noise magnitudes is sampled once; empirical
tail quantiles, each reference's multiplicity-corrected rank, and the final
critical values are all read off the same draws, one reference's at a time,
so the family-wise propagation guarantee holds exactly in-sample.

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
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AllZeroResiduals,
    BadExponent,
    ConfigInvalid,
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    NotOrderedPair,
    TailTooDeepWarning,
    warn,
)
from .family import ModelFamily, PairOrder, PairValues, model_sizes, noise_variances, pair_order
from .family import pair_values, real_array
from .moments import NoiseSpec, PairMoments, _pair_traces, _single_traces
from .rng import _check_level, block_bounds, is_integer, is_number, is_real, is_seed, stream

MODES = ("probabilistic", "power_loss")

_CHUNK_ROWS = 64  # rows of normals drawn at a time (see ``draw_blocks``); not in the output format

# The bits of +inf as an unsigned 64-bit integer (see ``JointDrawMatrix``).
_INF_BITS = np.float64(np.inf).view(np.uint64)


@dataclass
class JointDrawMatrix:
    """Simulated pairwise noise magnitudes, one row per noise realization.

    Column ``i`` holds the magnitude of the difference statistic for pair
    ``order.pairs[i]``; all columns of a row come from the same
    realization, preserving the joint law.  ``order`` is the pair layout
    of the columns (``sample_draws`` gives the family's canonical
    ``PairOrder``): ``order.index`` maps pairs to columns and
    ``order.groups`` holds each reference's columns.  Nothing is sorted:
    order statistics are selected on demand.
    """

    draws: np.ndarray
    order: PairOrder = field(repr=False)
    seed: int

    def __post_init__(self):
        # A float array view passes through uncopied (the sampler's
        # column-major one included); anything else is converted first.
        draws = self.draws = real_array(self.draws, "draws")
        if draws.ndim != 2 or draws.shape[1] != len(self.order.pairs):
            raise DimensionMismatch("draw matrix needs one column per pair of its order")
        _check_draws(draws)

    @property
    def n_sim(self) -> int:
        return self.draws.shape[0]

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


def _check_draws(draws: np.ndarray) -> None:
    """Refuse draws that are not nonnegative finite magnitudes."""
    # One pass over the draws: read as unsigned integers, every
    # nonnegative finite double lies below the bits of +inf, and +inf,
    # NaN and every value with the sign bit set lie at or above them.
    # Only draws that fail this are scanned again, to tell the cases
    # apart (-0.0 passes both checks).
    if draws.view(np.uint64).max(initial=0) >= _INF_BITS:
        if not np.isfinite(draws).all():
            raise NonFiniteInput("draw matrix contains NaN or infinite values")
        if (draws < 0).any():
            raise DimensionMismatch("draws must be nonnegative magnitudes")


def sample_draws(
    family: ModelFamily, scale, n_sim: int, seed: int, stream_tag: int = 0
) -> JointDrawMatrix:
    """Draw matrix for noise ``scale * N(0, I_n)`` rows over every pair of
    the family, in its canonical order: ``draw_blocks`` rooted into one
    pairs x ``n_sim`` array, the draws ``calibrate`` reads with the same arguments."""
    order, blocks = draw_blocks(family, scale, n_sim, seed, stream_tag)
    # Column-major, so each column's order statistics read contiguous memory.
    rows = np.empty((len(order.pairs), n_sim))
    for (*_, cols), block in blocks:
        np.sqrt(block, out=rows[cols])
    return JointDrawMatrix(rows.T, order, seed)


def _check_workers(n_workers) -> None:
    """Refuse a worker count that is not an integer >= 1; a table takes one thread."""
    if not (is_integer(n_workers) and n_workers >= 1):
        raise DimensionMismatch(f"n_workers must be an integer >= 1, got {n_workers!r}")


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
    deterministic given ``seed``.  ``n_workers`` is checked, otherwise unused.
    """
    scale = np.sqrt(noise_variances(sigma))
    _check_workers(n_workers)
    return sample_draws(family, scale, n_sim, seed)


def _tail_rank(t: float, n: int) -> int:
    """Rank (1-based) of the empirical tail value at level ``e^-t``.

    The smallest rank ``k`` whose exceedance bound ``(n - k) / n``, computed
    as the self-test computes it, is at most ``e^-t``: the upper order
    statistic ceil((1 - e^-t) n), which the float product can round past.
    Rank ``k`` answers every level in ``(-log(1 - (k-1)/n), -log(1 - k/n)]``.
    Degenerate ranks (t = 0, full mass) and tails deeper than the sample
    both clip to the maximum draw, rank n.
    """
    level = math.exp(-_check_level(t, "tail level"))
    return bisect_left(range(n + 1), True, key=lambda k: (n - k) / n <= level) or n


def _order_statistic(values: np.ndarray, k: int) -> np.ndarray:
    """Rank-``k`` (1-based) value along the last axis, by one partial selection."""
    return np.partition(values, k - 1, axis=-1)[..., k - 1].copy()  # frees the partitioned copy


def _exceeding(block: np.ndarray, z: np.ndarray) -> int:
    """Realizations (columns) of ``block`` with a draw strictly above their row's ``z``."""
    return np.count_nonzero((block > z[:, None]).any(axis=0))


def familywise_exceedance(
    draws: JointDrawMatrix, m_ref: int, thresholds: dict[tuple[int, int], float]
) -> float:
    """Fraction of rows where any comparison against ``m_ref`` exceeds its threshold.

    Exceedance is strict, mirroring the selector's rejection rule; for
    continuous draws this matches the non-strict convention almost surely.  A missing
    threshold raises ``MissingPair``, a non-finite one ``NonFiniteInput``, text
    ``DimensionMismatch``.
    """
    cols = next((cols for ref, _, _, cols in draws.order.groups if ref == m_ref), None)
    if cols is None:
        raise NotOrderedPair(f"no comparisons available for reference {m_ref}")
    try:
        z = real_array([thresholds[p] for p in draws.comparisons(m_ref)], "thresholds")
    except KeyError as missing:
        raise MissingPair(f"no threshold for pair {missing.args[0]}") from None
    if not np.isfinite(z).all():
        raise NonFiniteInput("thresholds contain NaN or infinite values")
    return _exceeding(draws.draws[:, cols].T, z) / draws.n_sim


def _first_passing(passes, size: int, start: int) -> int:
    """Smallest ``j`` in ``[0, size)`` with ``passes(j)`` (``size`` for none), ``passes``
    being false then true: doubling strides out from ``start`` bracket the change,
    then a bisection finds it, in at most ``2 ceil(log2 size) + 1`` probes."""
    lo, hi, step = -1, size, 1  # passes(-1) is false and passes(size) true
    if passes(start):
        hi = start
        while (j := hi - step) > lo and passes(j):
            hi, step = j, 2 * step
        lo = max(j, lo)
    else:
        lo = start
        while (j := lo + step) < hi and not passes(j):
            lo, step = j, 2 * step
        hi = min(j, hi)
    return bisect_left(range(hi), True, lo=lo + 1, key=passes)


def _max_t(block: np.ndarray, k_x: int, x_level: float, near: int, squared=False):
    """Max-T rank ``k`` of one reference and each row's draw of rank ``k``, the rows of
    ``block`` being its comparisons' draws (their squares if ``squared``).  ``k`` is the
    smallest rank from ``k_x``, the rank of x, whose family-wise exceedance is at most ``e^-x``,
    searched from rank ``near`` in the band of ranks ``lo..n``, ``lo = max(k_x, near -
    ceil((n - k_x + 1) / 8))``: only those are selected, sorted, rooted and counted, over the
    realizations above rank ``lo``, whose number is the count at ``lo`` (on squares, a bound
    above it).  The count only falls as the rank rises, so the band gives the same ``k`` unless
    rank ``lo > k_x`` already meets the level; the step is then redone from ``k_x``, and ends
    there uncounted when that number at ``k_x`` already meets the level."""
    n, level = block.shape[1], math.exp(-x_level)
    for lo in dict.fromkeys((max(k_x, near + (k_x - n - 1) // 8), k_x)):
        tail = np.sort(np.partition(block, lo - 1, axis=1)[:, lo - 1 :], axis=1)
        # Realizations exceeding at rank lo; on squares, plus some that never exceed.
        top = block.take(np.flatnonzero((block > tail[:, :1]).any(axis=0)), axis=1)
        if (met := top.shape[1] / n <= level) and lo > k_x:
            continue  # rank lo already meets the level
        if squared:
            np.sqrt(tail, out=tail)
            np.sqrt(top, out=top)
        passes = lambda j: _exceeding(top, tail.T[j]) / n <= level
        j = 0 if met else _first_passing(passes, len(tail.T), near - lo)
        if j or lo == k_x:
            return lo + j, tail[:, j]


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
    it enters, and a negative dimension has no allowance.  So non-finite
    thresholds, dimensions, levels or ``alpha_plus`` raise
    ``NonFiniteInput`` on construction, and negative dimensions, levels or
    ``alpha_plus``, or a rank outside the integers ``1..n_sim``,
    ``DimensionMismatch``.  ``level(m_ref)`` is the level a reference was
    calibrated at; a power-loss table records ``x_level`` 0.0, the level
    of its first model, which has no predecessor.  A probabilistic table
    refuses ``power_a`` and ``per_model_levels``, which it never reads.
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
        if self.mode == "probabilistic":
            for key in ("power_a", "per_model_levels"):
                if getattr(self, key) is not None:
                    raise DimensionMismatch(f"a probabilistic table takes no {key}")
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
        top = {m_ref for m_ref, k in self.ranks.items() if k == self.n_sim}
        return tuple(pair for pair in self.critical if pair[1] in top) if top else ()

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


def _check_table(table) -> CalibrationTable:
    """``table`` itself if a ``CalibrationTable``; anything else raises ``DimensionMismatch``."""
    if not isinstance(table, CalibrationTable):
        raise DimensionMismatch(f"table must be a CalibrationTable, got {table!r}")
    return table


@dataclass(frozen=True)
class PowerLossParams:
    """Per-model excess-risk budgets and per-reference levels."""

    a: float
    alpha: dict[int, float]
    x: dict[int, float]


def power_loss_params(models, p_singles: Mapping[int, float], a: float) -> PowerLossParams:
    """Budgets ``alpha_m`` and levels ``x_ref`` from single-model dimensions.

    For each model ``m`` with predecessor ``ref``, the level attached to
    ``ref`` is ``2 (1 + a) log(p_m / p_min)`` and the budget for ``m`` is
    ``sqrt(3) (p_m / p_min)^(-1-a)``; the level indexing follows the
    next-smaller-model convention.  ``models`` is an ordered model list
    (``family.model_sizes``) and dimensions levels (``rng._check_level``), > 0 and
    nondecreasing: a missing one raises ``MissingPair``, a NaN or infinite one
    ``NonFiniteInput`` and any other fault ``DimensionMismatch``.
    """
    if not (is_number(a) and a > 0):
        raise BadExponent("power-loss exponent a must be a finite number > 0")
    models = model_sizes(models)
    if missing := [m for m in models if m not in p_singles]:
        raise MissingPair(f"no dimension for model {missing[0]}")
    dims = [float(_check_level(p_singles[m], f"dimension of model {m}")) for m in models]
    if min(dims) <= 0 or any(q < p for p, q in zip(dims, dims[1:])):
        raise DimensionMismatch("single-model dimensions must be > 0 and nondecreasing")
    alpha = {m: math.sqrt(3.0) * (p / dims[0]) ** (-1.0 - a) for m, p in zip(models, dims)}
    x = {ref: 2.0 * (1.0 + a) * math.log(p / dims[0]) for ref, p in zip(models, dims[1:])}
    return PowerLossParams(a=a, alpha=alpha, x=x)


def calibration_table(
    draws: JointDrawMatrix,
    pair_dims: Mapping[tuple[int, int], float],
    alpha_plus: float,
    levels: float | PowerLossParams,
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
    blocks = _row_blocks(draws.draws.T, draws.order)
    return _table(draws.order, draws.n_sim, draws.seed, blocks, pair_dims, alpha_plus, levels)


def _row_blocks(rows: np.ndarray, order: PairOrder):
    """Each group of ``order`` with its rows of ``rows`` (one per pair), largest reference first."""
    return ((group, rows[group[3]]) for group in reversed(order.groups))


def _table(order, n, seed, blocks, pair_dims, alpha_plus, levels, squared=False):
    """``calibration_table`` on ``n`` realizations of the pairs of ``order``:
    ``blocks`` yields each group of ``order``, largest reference first, with its draws (their
    squares if ``squared``), one row per comparison, not read after the next is asked for."""
    _check_level(alpha_plus, "alpha_plus")
    power = isinstance(levels, PowerLossParams)
    # The rank of x: no corrected rank is lower.  The first search starts
    # there, and each later one at the rank before it.
    k_x = k = None if power else _tail_rank(levels, n)
    ranks = dict.fromkeys(m_ref for m_ref, *_ in order.groups)
    z = np.empty(len(order.pairs))
    for (m_ref, _, _, cols), block in blocks:
        if squared:  # a streamed block's largest sums, its last row (dense squares were checked)
            _check_draws(block[-1])
        if power:
            if m_ref not in levels.x:
                raise MissingPair(f"power-loss level missing for reference {m_ref}")
            k = _tail_rank(levels.x[m_ref], n)
            z[cols] = _order_statistic(block, k)
        else:
            k, z[cols] = _max_t(block, k_x, levels, k, squared)
        ranks[m_ref] = k
    if power and squared:
        np.sqrt(z, out=z)

    dims = pair_values(pair_dims)
    allowance = alpha_plus * np.sqrt(dims.at(order, "dimension"))
    table = CalibrationTable(
        x_level=0.0 if power else levels,
        alpha_plus=alpha_plus,
        ranks=ranks,
        critical=PairValues(order, z + allowance),
        pair_dims=dims,
        mode="power_loss" if power else "probabilistic",
        power_a=levels.a if power else None,
        per_model_levels=dict(levels.x) if power else None,
        n_sim=n,
        seed=seed,
    )
    if clipped := table.tail_clipped:
        shown = ", ".join(f"({m},{mr})" for m, mr in clipped[:5]) + ("..." if clipped[5:] else "")
        message = f"{len(clipped)} pair(s) clipped to the maximum draw: {shown}"
        warn(TailTooDeepWarning(message))
    return table


def critical_values(
    draws: JointDrawMatrix,
    moments: dict[tuple[int, int], PairMoments],
    x_level: float | PowerLossParams,
    alpha_plus: float = 0.0,
) -> CalibrationTable:
    """``calibration_table`` with the pair moments attached and their traces as dimensions.

    ``x_level`` is the probabilistic level or power-loss parameters, as in
    ``calibration_table``; ``power_loss_critical_values`` is the same call.
    A pair of ``draws`` without a moment raises ``MissingPair``.
    """
    try:
        dims = [getattr(moments[pair], "p_pair", None) for pair in draws.order.pairs]
    except KeyError as missing:
        raise MissingPair(f"no moment for pair {missing.args[0]}") from None
    pair_dims = PairValues(draws.order, dims)
    return replace(calibration_table(draws, pair_dims, alpha_plus, x_level), moments=dict(moments))


power_loss_critical_values = critical_values


def draw_blocks(family: ModelFamily, scale, n_sim: int, seed: int, stream_tag: int = 0):
    """The canonical ``PairOrder`` and, largest reference first, each group with the squares of
    its pairs under noise ``scale * N(0, I_n)`` (a row each, read before the next group), row
    block ``b`` from stream ``(seed, stream_tag, b)``: known and multiplier noise differ only in
    ``scale``.  With ``increments`` the family's ``window_blocks`` sum, in place, the models x
    ``n_sim`` step weights ``step_squares`` writes, holding no pairs x ``n_sim`` array; else
    ``pair_squares`` writes every pair's row.  Either is checked in one pass.  A block's normals
    are drawn and reduced ``_CHUNK_ROWS`` rows at a time (a generator fills its output in
    sequence) into one reused ``BLOCK_ROWS x r`` block that the kernel reads whole: the working
    set is an ``n``-wide chunk of ``_CHUNK_ROWS + 1`` rows plus that block, and only
    ``BLOCK_ROWS`` is part of the output format.  A scale zero everywhere raises
    ``AllZeroResiduals``."""
    scale = family.vector(scale, "noise scale")
    if not scale.any():
        raise AllZeroResiduals("noise scale is zero everywhere; calibration is degenerate")
    if not (is_integer(n_sim) and n_sim >= 1):
        raise DimensionMismatch(f"n_sim must be an integer >= 1, got {n_sim!r}")
    order = pair_order(family.models)
    steps = family.increments is not None
    kernel = family.step_squares if steps else family.pair_squares
    squares = np.empty((len(family.models) if steps else len(order.pairs), n_sim))
    blocks = block_bounds(n_sim)
    chunk = np.empty((_CHUNK_ROWS + 1, family.n))
    xi = np.empty((blocks[0][2], family.basis.shape[1]))  # the first block is the longest
    for b, start, stop in blocks:
        gen = stream(seed, stream_tag, b)
        # The last chunk takes a lone last row: numpy reduces one row by a
        # matrix-vector product, whose bits differ from the matrix product's.
        bounds = [*range(0, max(stop - start - 1, 1), _CHUNK_ROWS), stop - start]
        for lo, hi in zip(bounds, bounds[1:]):
            z = gen.standard_normal(out=chunk[: hi - lo])
            family.reduce(np.multiply(z, scale, out=z), out=xi[lo:hi])
        kernel(xi[: stop - start], order, out=squares[:, start:stop])
    _check_draws(squares)
    return order, family.window_blocks(squares, order) if steps else _row_blocks(squares, order)


def calibrate(
    family: ModelFamily,
    scale,
    n_sim: int,
    seed: int,
    x_level: float,
    alpha_plus: float,
    mode: str = "probabilistic",
    power_a: float | None = None,
    stream_tag: int = 0,
) -> CalibrationTable:
    """The table on ``draw_blocks``: the one path from a per-coordinate noise scale to
    thresholds.  Known noise passes its standard deviations, multiplier calibration its
    presmoothing residuals.  The bias allowance uses the pair variance traces under the
    variances ``scale**2``; in power-loss mode the per-reference levels come from the
    single-model traces of the same variances."""
    scale = family.vector(scale, "noise scale")
    root = family.trace_root(scale * scale)
    if mode not in MODES:
        raise DimensionMismatch(f"unknown calibration mode {mode!r}")
    order, blocks = draw_blocks(family, scale, n_sim, seed, stream_tag)  # AllZeroResiduals first
    levels = x_level
    if mode == "power_loss":
        if power_a is None:
            raise DimensionMismatch("power-loss mode needs the exponent a")
        levels = power_loss_params(family.models, _single_traces(family, root), power_a)
    dims = _pair_traces(family, root, order)
    return _table(order, n_sim, seed, blocks, dims, alpha_plus, levels, squared=True)


def propagation_failures(
    family: ModelFamily, scale, table: CalibrationTable, stream_tag: int = 0
) -> list[str]:
    """Exact in-sample check of a table on its ``draw_blocks``, rooted, one line per failure.

    Each threshold must equal its pair's draw at the reference's rank (as
    ``calibration_table`` selects it) plus ``alpha_plus * sqrt(dim)`` bit for
    bit, and the draws strictly above that rank must meet the level with no
    slack: family-wise per reference in probabilistic mode, per pair in
    power-loss mode.  The rank must be the one the builder takes: in
    probabilistic mode the smallest at or above the level's own rank that
    meets it (the draws above the rank below must not), in power-loss mode
    the level's own rank.  A pair the table lacks or a reference without a
    rank raises ``MissingPair``; a table that is not a ``CalibrationTable``,
    or records no seed, ``DimensionMismatch``.
    """
    _check_table(table)
    n = table.n_sim
    order, blocks = draw_blocks(family, scale, n, table.seed, stream_tag)
    critical = table.critical.at(order, "critical value")
    allowance = table.alpha_plus * np.sqrt(table.pair_dims.at(order, "dimension"))
    failures = []
    for (m_ref, _, _, cols), squares in blocks:
        if m_ref not in table.ranks:
            raise MissingPair(f"no rank for reference {m_ref}")
        k, level = table.ranks[m_ref], table.level(m_ref)
        k_level, target = _tail_rank(level, n), math.exp(-level)
        block = np.sqrt(squares)  # compare draws, not squares: below 2^-511 squaring loses bits
        z = _order_statistic(block, k)
        pairs = order.pairs[cols]  # canonical groups are slices
        expected = (z + allowance[cols]).tolist()
        for pair, threshold, rebuilt in zip(pairs, critical[cols].tolist(), expected):
            if threshold != rebuilt:
                failures.append(f"pair {pair}: threshold {threshold!r} is not {rebuilt!r}, "
                                f"reference {m_ref}'s rank-{k} draw plus the allowance")
        if table.mode == "probabilistic":
            if k < k_level or k > k_level and (
                _exceeding(block, _order_statistic(block, k - 1)) / n <= target
            ):
                failures.append(f"reference {m_ref}'s rank {k} is not the smallest from "
                                f"rank {k_level} whose exceedance is at most {target:.4f}")
            counts = {f"reference {m_ref}": _exceeding(block, z)}
        else:
            if k != k_level:
                failures.append(f"reference {m_ref}'s rank {k} is not {k_level}, "
                                f"the rank of its level {level!r}")
            per_pair = np.count_nonzero(block > z[:, None], axis=1).tolist()
            counts = {f"pair {pair}": c for pair, c in zip(pairs, per_pair)}
        failures += [f"{what}: exceedance {c / n:.4f} > {target:.4f}"
                     for what, c in counts.items() if c / n > target]
    return failures
