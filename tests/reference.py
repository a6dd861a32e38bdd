"""Reference routes the tests compare the library against.

The library holds every estimator in reduced coordinates and every
diagnostic in low-rank form, reads multiplicity-corrected ranks off its
one calibration path and draws off its one sampler.  The helpers here
give the tests the dense ``q x n`` operators, the dense ``n x n`` validity
diagnostics, the prediction loss as a ``p x p`` root, the oracle index as
a direct loop over its definition, the smallest-accepted rule as a loop
over references, tables of hand-set thresholds, the pair layout worked
out pair by pair, one pair's draw column, each reference's larger models,
the variance traces over the QR noise root and in exact rational
arithmetic, the pilot basis computed afresh, and single-purpose views of
those paths (draws in any pair order from the streams' whole-block
normals, a table built on those draws and its self-test on a draw
matrix), without the library carrying them.  The
paper's side results that ``sma`` never runs live here too, as oracles:
one pair's empirical tail function, the variance-ordering check, the
bias/variance risk profile, the Monte-Carlo excess-risk functional and
the AIC equivalence.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from smaselect import (
    CalibrationTable,
    JointDrawMatrix,
    NotOrderedPair,
    PairValues,
    SelectionResult,
    ValidityDiagnostics,
    calibrate,
    power_loss_params,
    sample_draws,
)
from smaselect.bootstrap import pilot_basis
from smaselect.calibration import (
    _check_table,
    _exceeding,
    _order_statistic,
    _row_blocks,
    _tail_rank,
    calibration_table,
)
from smaselect.errors import (
    CalibrationWarning,
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    RequiresKnownTruth,
    SingularGram,
    TailTooDeepWarning,
)
from smaselect.family import GRAM_CUTOFF, _pinv_gram, noise_variances, pair_order, pair_values
from smaselect.moments import (
    _pair_moments,
    _pair_traces,
    best_linear_coefficients,
    pair_traces,
    single_traces,
)
from smaselect.rng import block_bounds, is_integer, stream
from smaselect.selector import _accepted


def operator(family, m: int) -> np.ndarray:
    """``K_m = W[:, :M] C_m Q^T`` (``q x n``) from the reduced family."""
    return _materialize(family, family.coefficients[family.models.index(m)])


def pair_operator(family, m: int, m_ref: int) -> np.ndarray:
    """``K_m - K_ref`` for ``m > m_ref``."""
    if m <= m_ref:
        raise NotOrderedPair(f"need m > m_ref, got ({m}, {m_ref})")
    coef = family.coefficients[family.models.index(m)] - family.coefficients[family.models.index(m_ref)]
    return _materialize(family, coef)


def _materialize(family, coef: np.ndarray) -> np.ndarray:
    return family.weight_matrix[:, : family.largest] @ coef @ family.basis.T


def prediction_weights(design, sigma: float = 1.0) -> np.ndarray:
    """The prediction loss as a ``p x p`` weight matrix: the symmetric PSD
    ``W`` with ``W^2 = sigma^-2 Psi Psi^T``."""
    vals, vecs = np.linalg.eigh(design.entries @ design.entries.T / sigma**2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def pair_norms(family, xi: np.ndarray, order) -> np.ndarray:
    """Pair magnitudes ``|(K_m - K_ref) y|`` (``B x pairs``) for each row of
    ``xi = Q^T y``: the square root of the block kernel, transposed; row
    ``b`` is the oracle of ``test_statistics`` on the data vector of row ``b``."""
    squares = family.pair_squares(xi, order)
    return np.sqrt(squares, out=squares).T


def joint_norms_from_noise(family, noise, pairs=None) -> np.ndarray:
    """Pairwise difference magnitudes ``|(K_m - K_ref) e|`` for explicit noise rows."""
    noise = np.atleast_2d(np.asarray(noise, dtype=float))
    if noise.shape[1] != family.n:
        raise DimensionMismatch("noise rows must have length n")
    return pair_norms(family, family.reduce(noise), pair_order(family.models, pairs))


def pair_windows(family, weights: np.ndarray, pairs) -> np.ndarray:
    """The window sums of ``ModelFamily.pair_squares`` on the weights of
    each coordinate, through a running table: ``running[s, e]`` is steps ``e`` down to ``s`` added right to
    left, one vectorised addition per model across every end, and each pair
    gathers its ``(first, last)`` entry."""
    steps = np.add.reduceat(weights, (0,) + family.models[:-1], axis=0)
    k = len(steps)
    running = np.empty((k,) + steps.shape)
    running[range(k), range(k)] = steps
    for s in range(k - 2, -1, -1):
        np.add(running[s + 1, s + 1 :], steps[s], out=running[s, s + 1 :])
    first = [0 if m_ref == 0 else family.models.index(m_ref) + 1 for _, m_ref in pairs]
    last = [family.models.index(m) for m, _ in pairs]
    if any(f > l for f, l in zip(first, last)):
        raise NotOrderedPair("every pair (m, m_ref) needs m > m_ref")
    return running[first, last]


def pair_layout(models, pairs) -> dict:
    """The layout ``pair_order`` builds, worked out pair by pair with plain
    lists: each pair's column and model steps, the references in the order
    they first appear with their larger models' positions and their
    columns, the padded step each cell of the ``k x k`` grid of window sums
    by last step and length adds last (the steps padded with ``k - 1``
    zeros in front), and each pair's cell in that grid, row-major."""
    models = list(models)
    first = [0 if m_ref == 0 else models.index(m_ref) + 1 for _, m_ref in pairs]
    last = [models.index(m) for m, _ in pairs]
    groups = []
    for m_ref in dict.fromkeys(m_ref for _, m_ref in pairs):
        cols = [i for i, (_, r) in enumerate(pairs) if r == m_ref]
        positions = [models.index(pairs[i][0]) for i in cols]
        groups.append((m_ref, None if m_ref == 0 else models.index(m_ref), positions, cols))
    k = len(models)
    return {
        "index": {pair: i for i, pair in enumerate(pairs)},
        "groups": groups,
        "first": first,
        "last": last,
        "hankel_steps": [[k - 1 + e - d for d in range(k)] for e in range(k)],
        "hankel": [l * k + (l - f) for f, l in zip(first, last)],
        "starts": [cols[0] for *_, cols in groups],
    }


def pair_squares(family, xi: np.ndarray, pairs) -> np.ndarray:
    """``ModelFamily.pair_squares`` into fresh arrays: the windows above with
    ``increments``, else every ``D_m xi`` and one difference per reference."""
    pairs = list(pairs)
    if family.increments is not None:
        return pair_windows(family, (xi * xi * family.increments).T, pairs)
    flat = family.reduced.reshape(-1, family.reduced.shape[-1])
    estimates = (flat @ xi.T).reshape(len(family.models), -1, xi.shape[0])
    out = np.empty((len(pairs), xi.shape[0]))
    for _, ref, positions, cols in pair_order(family.models, pairs).groups:
        diff = estimates[positions]
        if ref is not None:
            diff = diff - estimates[ref]
        out[cols] = np.einsum("kfb,kfb->kb", diff, diff)
    return out


def qr_pair_traces(family, variances, pairs=None) -> PairValues:
    """Variance traces over the rows of the noise root ``R_v`` (one QR of the
    scaled basis) on every family: the trace route the one-row trace root
    replaced on a family with increments."""
    order = pair_order(family.models, pairs)
    return _pair_traces(family, family.noise_root(variances), order)


def exact_pair_traces(family, variances, pairs=None) -> list[Fraction]:
    """Variance traces of a family with increments in exact rational arithmetic
    on the floats the family holds: ``sum g_j (Q^T diag(v) Q)_jj`` over each
    pair's coordinate window ``[m_ref, m)``, in the order of ``pair_order``."""
    g = [Fraction(x) for x in family.increments.tolist()]
    v = [Fraction(x) for x in family.vector(variances).tolist()]
    diagonal = [
        sum((vi * Fraction(q) ** 2 for vi, q in zip(v, column)), Fraction(0))
        for column in family.basis.T.tolist()
    ]
    weighted = [gj * dj for gj, dj in zip(g, diagonal)]
    order = pair_order(family.models, pairs)
    return [sum(weighted[m_ref:m], Fraction(0)) for m, m_ref in order.pairs]


def fresh_pilot_basis(family, m_dagger: int) -> np.ndarray:
    """``pilot_basis`` computed afresh, with nothing kept: the right singular
    vectors of the leading pilot block above the relative cutoff."""
    _, svals, vt = np.linalg.svd(family.design.leading_block(m_dagger), full_matrices=False)
    return vt[svals > GRAM_CUTOFF * svals[0]].T


def residuals_off(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``presmooth``'s two projection passes of ``y`` off the span of ``basis``."""
    residuals = y - basis @ (basis.T @ y)
    return residuals - basis @ (basis.T @ residuals)


def projector_matrix(basis) -> np.ndarray:
    """The pilot projector ``B B^T`` of a ``pilot_basis``, as an ``n x n`` matrix."""
    return basis @ basis.T


def risk_profile_csv_rows(profile) -> list[tuple]:
    """Rows for CSV export: (m, bias2, variance, risk)."""
    return [(r.m, r.bias2, r.variance, r.risk) for r in profile]


def pair_variance(family, sigma, m: int, m_ref: int):
    """Variance trace and operator norm (``PairMoments``) of one pair's
    difference estimator, through the library's batched moments."""
    return _pair_moments(family, sigma, [(m, m_ref)])[(m, m_ref)]


def multiplier_draws(family, residuals, n_sim, seed, stream_tag=0):
    """The draws a multiplier table on the residual scale reads: ``sample_draws``,
    on a scale that ``calibrate``'s checks accept."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        calibrate(family, residuals, n_sim, seed, 2.0, 0.0, stream_tag=stream_tag)
    return sample_draws(family, residuals, n_sim, seed, stream_tag)


def sample_in_order(family, scale, n_sim, seed, order, stream_tag=0):
    """Draws over the pairs of any ``PairOrder``, such as one holding a model
    alone, in that order's layout: per row block, the stream's normals drawn
    whole and put through the running-table ``pair_squares`` above, apart
    from the library's chunked sampler and in-place window sums."""
    if not (is_integer(n_sim) and n_sim >= 1):
        raise DimensionMismatch(f"n_sim must be an integer >= 1, got {n_sim!r}")
    scale = family.vector(scale, "noise scale")
    draws = np.empty((n_sim, len(order.pairs)))
    for b, start, stop in block_bounds(n_sim):
        z = stream(seed, stream_tag, b).standard_normal((stop - start, family.n))
        squares = pair_squares(family, family.reduce(z * scale), order.pairs)
        draws[start:stop] = np.sqrt(squares).T
    return JointDrawMatrix(draws, order, seed)


def matrix_table(family, scale, n_sim, seed, x_level, alpha_plus, mode, stream_tag=0):
    """``calibrate``'s table (power-loss exponent 1) built on the canonical
    draw matrix of ``sample_in_order``, with the dimensions and levels taken
    from the public trace routes."""
    variances = np.asarray(scale) * scale
    levels = x_level
    if mode == "power_loss":
        levels = power_loss_params(family.models, single_traces(family, variances), 1.0)
    draws = sample_in_order(family, scale, n_sim, seed, pair_order(family.models), stream_tag)
    return calibration_table(draws, pair_traces(family, variances), alpha_plus, levels)


def matrix_propagation_failures(draws, table) -> list[str]:
    """``propagation_failures`` on a draw matrix in any pair order, read through
    ``JointDrawMatrix`` rather than ``calibration.draw_blocks``: the same exact
    check, in the same walk (largest reference first), so the two return the
    same lines on the same draws.  Draws of another ``n_sim`` than the table
    was calibrated on raise ``DimensionMismatch``."""
    _check_table(table)
    n = draws.n_sim
    if n != table.n_sim:
        raise DimensionMismatch(f"draws have {n} rows, the table was calibrated on {table.n_sim}")
    critical = table.critical.at(draws.order, "critical value")
    allowance = table.alpha_plus * np.sqrt(table.pair_dims.at(draws.order, "dimension"))
    columns, failures = np.arange(len(critical)), []
    for (m_ref, _, _, cols), block in _row_blocks(draws.draws.T, draws.order):
        if m_ref not in table.ranks:
            raise MissingPair(f"no rank for reference {m_ref}")
        k, level = table.ranks[m_ref], table.level(m_ref)
        k_level, target = _tail_rank(level, n), math.exp(-level)
        z = _order_statistic(block, k)
        pairs = [draws.order.pairs[i] for i in columns[cols].tolist()]
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


def same_table(table, want) -> bool:
    """Equal ranks, ``n_sim`` and seed, and critical values and dimensions
    equal bit for bit, pair by pair in the same layout."""
    return (
        table.ranks == want.ranks
        and (table.n_sim, table.seed) == (want.n_sim, want.seed)
        and all(
            getattr(table, key).order.pairs == getattr(want, key).order.pairs
            and getattr(table, key).array.tobytes() == getattr(want, key).array.tobytes()
            for key in ("critical", "pair_dims")
        )
    )


def corrected_ranks(draws, x_level: float) -> dict[int, int]:
    """Every reference's multiplicity-corrected rank, as the table builder reads it."""
    pair_dims = dict.fromkeys(draws.order.index, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return calibration_table(draws, pair_dims, 0.0, x_level).ranks


def correction_rank(draws, m_ref: int, x_level: float) -> int:
    """The shared order statistic of one reference's comparisons; a
    reference with no larger model has none."""
    if m_ref not in draws.references():
        raise NotOrderedPair(f"reference {m_ref} has no larger models to test against")
    return corrected_ranks(draws, x_level)[m_ref]


def successors(family, m_ref: int) -> list[int]:
    """The family's models larger than ``m_ref``, in order."""
    return [m for m in family.models if m > m_ref]


def oracle_index(family, f_true, sigma, alpha_plus, mode="probabilistic") -> int:
    """The oracle index by its definition: the smallest reference whose pairs
    all satisfy ``bias^2 <= alpha_plus^2 * dim``, against every larger model
    (probabilistic) or within every pair at or above it (power loss)."""
    f = family.vector(f_true, "f_true")
    pairs = family.pairs()
    norms = pair_norms(family, family.reduce(f)[None], pair_order(family.models))
    bias = dict(zip(pairs, norms[0]))
    dims = pair_traces(family, sigma.variances, pairs)

    def good_pair(m: int, m_ref: int) -> bool:
        return bias[(m, m_ref)] ** 2 <= alpha_plus**2 * dims[(m, m_ref)]

    for m_ref in family.models:
        larger = successors(family, m_ref)
        if mode == "probabilistic":
            ok = all(good_pair(m, m_ref) for m in larger)
        else:
            above = [m_ref] + larger
            ok = all(
                good_pair(hi, lo)
                for i, lo in enumerate(above)
                for hi in above[i + 1 :]
            )
        if ok:
            return m_ref
    raise AssertionError("no oracle index found")


def threshold_table(critical) -> CalibrationTable:
    """A probabilistic table holding hand-set thresholds ``critical`` (with no
    allowance and no draws), to drive ``sma_select`` on chosen thresholds.
    The library builds tables only by calibration."""
    critical = pair_values(critical)
    return CalibrationTable(
        x_level=0.0,
        alpha_plus=0.0,
        ranks={},
        critical=critical,
        pair_dims=PairValues(critical.order, np.zeros(len(critical))),
        mode="probabilistic",
    )


def sma_select_loop(statistics, table, models=None) -> SelectionResult:
    """``sma_select`` as a loop over references and dict lookups: each
    reference is accepted when every larger model's statistic is at most
    its critical value.  Every comparison is looked up, so any pair of the
    models missing from either mapping raises ``MissingPair`` (the first in
    canonical order), whatever the data."""
    if models is None:
        models = sorted({m for pair in statistics for m in pair})
        if not models:
            raise DimensionMismatch("cannot select: the statistics name no model")
    models = sorted({int(m) for m in models})
    if not models:
        raise DimensionMismatch("cannot select: the model list is empty")
    if not all(map(math.isfinite, statistics.values())):
        raise NonFiniteInput("test statistics contain NaN or infinite values")
    critical = table.critical
    accepted: dict[int, bool] = {}
    try:
        for i, m_ref in enumerate(models):
            accepted[m_ref] = all(
                [statistics[(m, m_ref)] <= critical[(m, m_ref)] for m in models[i + 1 :]]
            )
    except KeyError as exc:
        pair = exc.args[0]
        what = "statistic" if pair not in statistics else "critical value"
        raise MissingPair(f"no {what} for pair {pair}") from None
    return SelectionResult(
        m_hat=min(m for m, ok in accepted.items() if ok),
        flags=np.array(list(accepted.values())),
        models=tuple(accepted),
        statistics=dict(statistics),
        table_mode=table.mode,
    )


def dense_validity_diagnostics(family, sigma, f_true, m_dagger, x_level) -> ValidityDiagnostics:
    """``validity_diagnostics`` with the pilot projector, the smoothed variance
    and ``Upsilon`` formed as ``n x n`` matrices and an ``n x n`` eigensolve."""
    if f_true is None:
        raise RequiresKnownTruth("diagnostics need the true response")
    f = family.vector(f_true, "f_true")
    variances = sigma.variances
    n = family.n
    p_dim = family.largest
    psi = family.design.leading_block(p_dim)
    sig = np.sqrt(variances)

    s_mat = (psi * variances) @ psi.T
    vals, vecs = np.linalg.eigh(s_mat)
    if vals.min() <= 0:
        raise SingularGram("noise-weighted Gram is degenerate")
    s_inv_half = (vecs / np.sqrt(vals)) @ vecs.T
    delta_psi = float(np.max(np.linalg.norm(s_inv_half @ psi, axis=0) * sig))

    basis = pilot_basis(family, m_dagger)
    proj = basis @ basis.T

    bias_vec = (f - proj @ f) / sig
    bias_sup = float(np.max(np.abs(bias_vec), initial=0.0))
    bias_l2 = float(np.linalg.norm(bias_vec))

    resid_op = np.eye(n) - proj
    var_smoothed = (resid_op * variances) @ resid_op.T / np.outer(sig, sig)
    var_smoothed = 0.5 * (var_smoothed + var_smoothed.T)
    gap = var_smoothed - np.eye(n)
    delta_one = float(np.max(np.abs(np.linalg.eigvalsh(gap))))
    delta_eps = float(np.max(np.abs(np.diag(gap))))

    upsilon = (proj * sig[None, :]) / sig[:, None]
    d_psi = float(np.max(np.linalg.norm(upsilon, axis=1)))

    x_n = x_level + math.log(n)
    x_p = x_level + math.log(2 * p_dim)
    x_m = x_level + 2.0 * math.log(len(family.models))

    delta2 = (
        2.0 * math.sqrt(delta_psi**2 * p_dim * x_n)
        + math.sqrt(delta_eps**2 * p_dim)
        + math.sqrt(bias_sup**4 * p_dim)
        + 4.0 * delta_psi**2 * bias_l2 * (1.0 + math.sqrt(x_level))
    )
    delta0 = (
        bias_sup**2
        + delta_psi**2 * bias_l2 * math.sqrt(2.0 * x_level)
        + 2.0 * d_psi * x_n
        + d_psi**2 * x_n
        + 2.0 * delta_psi * math.sqrt(x_p)
        + 2.0 * delta_psi**2 * x_p
    )
    delta_p = (
        bias_sup**2
        + 4.0 * math.sqrt(x_m) * delta_psi**2 * bias_l2
        + 4.0 * math.sqrt(x_m) * delta_psi
        + 4.0 * x_m * delta_psi**2
        + delta_eps
    )
    ratio = p_dim**2 * math.log(n) / n

    return ValidityDiagnostics(
        delta_psi=delta_psi,
        d_psi=d_psi,
        delta_one=delta_one,
        delta_eps=delta_eps,
        bias_sup=bias_sup,
        bias_l2=bias_l2,
        delta2=delta2,
        delta0=delta0,
        delta0_scaled=math.sqrt(p_dim) * delta0,
        delta_p=delta_p,
        applicability_ratio=ratio,
        asymptotic_regime_reached=bool(ratio <= 1.0),
        p_dim=p_dim,
        n=n,
        m_dagger=int(m_dagger),
        x_level=float(x_level),
    )


# Tails thinner than this many sample points trigger a thin-tail warning.
MIN_TAIL_POINTS = 10


def column(draws, m: int, m_ref: int) -> np.ndarray:
    """One pair's draws; a pair ``draws`` does not hold raises ``MissingPair``."""
    try:
        return draws.draws[:, draws.order.index[(m, m_ref)]]
    except KeyError:
        raise MissingPair(f"pair ({m}, {m_ref}) not present in draws") from None


def tail_quantile(draws, m: int, m_ref: int, t: float) -> float:
    """Empirical tail function of one pair at exceedance level ``e^-t``."""
    col = column(draws, m, m_ref)
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


# PSD tolerance used by the variance-ordering check.
PSD_TOL = 1e-8


@dataclass(frozen=True)
class OrderingReport:
    """Variance-ordering verdicts for adjacent model pairs."""

    pair_ordered: dict[tuple[int, int], bool]
    min_eigenvalues: dict[tuple[int, int], float]
    ordered: bool


def check_ordering(family, sigma) -> OrderingReport:
    """Check that pairwise estimator variances grow along the model order.

    For each adjacent pair the gap ``V_next - V_m`` must be PSD up to
    ``PSD_TOL * ||V_next||_op``.  Transitivity extends the verdict to all pairs.
    Each ``V_m`` is ``F_m F_m^T`` with ``F_m = D_m R_v^T`` in reduced
    coordinates; when ``q`` exceeds their size the ``q x q`` gap also has
    null-space zeros.  Diagnostic only; never raises on a negative verdict.
    """
    factors = family.reduced @ family.noise_root(noise_variances(sigma)).T
    variances = factors @ factors.transpose(0, 2, 1)
    padded = family.weight_matrix.shape[0] > variances.shape[1]
    verdicts: dict[tuple[int, int], bool] = {}
    mins: dict[tuple[int, int], float] = {}
    for i, (m_ref, m) in enumerate(zip(family.models, family.models[1:])):
        v_lo, v_hi = variances[i], variances[i + 1]
        low = float(np.linalg.eigvalsh(v_hi - v_lo)[0])
        if padded:
            low = min(low, 0.0)
        scale = float(np.linalg.eigvalsh(v_hi)[-1]) if v_hi.size else 0.0
        ok = bool(low >= -PSD_TOL * max(scale, 1e-300))
        verdicts[(m, m_ref)] = ok
        mins[(m, m_ref)] = low
    return OrderingReport(
        pair_ordered=verdicts,
        min_eigenvalues=mins,
        ordered=all(verdicts.values()) if verdicts else True,
    )


@dataclass(frozen=True)
class RiskPoint:
    m: int
    bias2: float
    variance: float
    risk: float


def risk_profile(family, f_true, sigma) -> list[RiskPoint]:
    """Per-model bias-squared / variance / total risk in the weighted loss.

    Bias is measured against the weighted best linear fit, so misspecified
    responses are fully supported.
    """
    f = family.vector(f_true, "f_true")
    target = family.weight_matrix @ best_linear_coefficients(family, f)
    fits = family.outputs(family.reduce(f))
    var = single_traces(family, noise_variances(sigma))
    out = []
    for m, fit in zip(family.models, fits):
        bias2 = float(np.sum((fit - target) ** 2))
        out.append(RiskPoint(m=m, bias2=bias2, variance=var[m], risk=bias2 + var[m]))
    return out


@dataclass(frozen=True)
class ExcessRiskEstimate:
    value: float
    stderr: float
    n_sim: int


def excess_risk_mc(family, sigma, m: int, x_candidate: float, n_sim: int, seed: int):
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
    pairs = [(mp, m_prev) for mp in successors(family, m_prev)]
    order = pair_order(family.models, pairs + [(m, 0)])
    draws = sample_in_order(family, scale, n_sim, seed, order)
    compared, own_norm2 = draws.draws[:, :-1], draws.draws[:, -1] ** 2

    p_m = _pair_traces(family, family.trace_root(variances), order)[(m, 0)]
    if x_candidate <= 0:
        fired = np.ones(n_sim, dtype=bool)
    else:
        z = _order_statistic(compared.T, _tail_rank(x_candidate, n_sim))
        fired = np.any(compared > z[None, :], axis=1)
    integrand = np.maximum(own_norm2 / p_m, 1.0) * fired
    value = float(integrand.mean())
    stderr = float(integrand.std(ddof=1) / math.sqrt(n_sim)) if n_sim > 1 else float("inf")
    return ExcessRiskEstimate(value=value, stderr=stderr, n_sim=n_sim)


def aic_equivalence_check(family, sigma_homogeneous: float, y) -> bool:
    """Penalized projection fit agrees with thresholded pairwise selection.

    Compares the minimizer of ``|y - P_m y|^2 + 2 sigma^2 m`` with the
    smallest-accepted choice under prediction-loss statistics and
    thresholds ``sigma sqrt(2 (m - m_ref))`` on the same projection family.
    It reads only the family's design and models: the statistics are
    prediction-loss norms whatever the family's own loss.
    """
    if not math.isfinite(sigma_homogeneous):
        raise NonFiniteInput(f"sigma must be finite, got {sigma_homogeneous}")
    if sigma_homogeneous <= 0:
        raise DimensionMismatch("sigma must be > 0")
    y = family.vector(y)
    fits = {}
    for m in family.models:
        block = family.design.leading_block(m)
        gram_inv, _ = _pinv_gram(block @ block.T, m)
        fits[m] = block.T @ (gram_inv @ (block @ y))

    s2 = sigma_homogeneous**2
    penalized = [float(np.sum((y - fits[m]) ** 2) + 2.0 * s2 * m) for m in family.models]
    aic_choice = family.models[int(np.argmin(penalized))]

    stats = {(m, r): float(np.linalg.norm(fits[m] - fits[r])) for m, r in family.pairs()}
    thresholds = {(m, r): sigma_homogeneous * math.sqrt(2.0 * (m - r)) for m, r in family.pairs()}
    models, flags, _ = _accepted(stats, thresholds, None)
    return aic_choice == models[flags.argmax()]
