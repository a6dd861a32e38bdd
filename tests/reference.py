"""Reference routes the tests compare the library against.

The library holds every estimator in reduced coordinates and every
diagnostic in low-rank form, and reads multiplicity-corrected ranks and
multiplier draws off its one calibration path.  The helpers here give the
tests the dense ``q x n`` operators, the dense ``n x n`` validity
diagnostics, the prediction loss as a ``p x p`` root, the oracle index as
a direct loop over its definition, the smallest-accepted rule as a loop
over references, tables of hand-set thresholds, the pair layout worked
out pair by pair, and single-purpose views of that path, without the
library carrying them.
"""

import math
import warnings

import numpy as np

from smaselect import (
    CalibrationTable,
    NotOrderedPair,
    PairValues,
    SelectionResult,
    ValidityDiagnostics,
    calibrate,
)
from smaselect.bootstrap import pilot_basis
from smaselect.calibration import calibration_table
from smaselect.errors import (
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    RequiresKnownTruth,
    SingularGram,
)
from smaselect.family import pair_order, pair_values
from smaselect.moments import _pair_moments, pair_traces


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
    """The window sums of ``ModelFamily.pair_windows`` through a running
    buffer: ``running[s, j]`` is steps ``s..j`` added left to right, one
    vectorised addition per model across every start, and each pair gathers
    its ``(first, last)`` entry."""
    steps = np.add.reduceat(weights, (0,) + family.models[:-1], axis=0)
    running = np.empty((len(steps),) + steps.shape)
    for j, step in enumerate(steps):
        np.add(running[:j, j - 1], step, out=running[:j, j])
        running[j, j] = step
    first = [0 if m_ref == 0 else family.models.index(m_ref) + 1 for _, m_ref in pairs]
    last = [family.models.index(m) for m, _ in pairs]
    if any(f > l for f, l in zip(first, last)):
        raise NotOrderedPair("every pair (m, m_ref) needs m > m_ref")
    return running[first, last]


def pair_layout(models, pairs) -> dict:
    """The layout ``pair_order`` builds, worked out pair by pair with plain
    lists: each pair's column and model steps, the references in the order
    they first appear with their larger models' positions and their
    columns, the pairs of each window length, the padded step each cell of
    the ``k x k`` grid of window sums by first step and length adds last,
    and each pair's cell in that grid, row-major."""
    models = list(models)
    first = [0 if m_ref == 0 else models.index(m_ref) + 1 for _, m_ref in pairs]
    last = [models.index(m) for m, _ in pairs]
    groups = []
    for m_ref in dict.fromkeys(m_ref for _, m_ref in pairs):
        cols = [i for i, (_, r) in enumerate(pairs) if r == m_ref]
        positions = [models.index(pairs[i][0]) for i in cols]
        groups.append((m_ref, None if m_ref == 0 else models.index(m_ref), positions, cols))
    windows = []
    for d in range(max((l - f for f, l in zip(first, last)), default=-1) + 1):
        rows = [i for i in range(len(pairs)) if last[i] - first[i] == d]
        windows.append(([first[i] for i in rows], rows))
    return {
        "index": {pair: i for i, pair in enumerate(pairs)},
        "groups": groups,
        "first": first,
        "last": last,
        "windows": windows,
        "hankel_steps": [[i + d for d in range(len(models))] for i in range(len(models))],
        "hankel": [f * len(models) + (l - f) for f, l in zip(first, last)],
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
    """The multiplier draw matrix: ``calibrate`` on the residual scale."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        draws, _ = calibrate(family, residuals, n_sim, seed, 2.0, 0.0, stream_tag=stream_tag)
    return draws


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
        larger = family.successors(m_ref)
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
        raise SingularGram(p_dim, "noise-weighted Gram is degenerate")
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
