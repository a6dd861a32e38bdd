"""Exact moments under a known diagonal noise covariance.

Everything here is closed-form matrix arithmetic in the family's reduced
coordinates: pairwise variance traces and operator norms, and the best
linear fit each replicate's loss is measured against.
A variance trace is the pair kernel ``ModelFamily.pair_squares``, which
gives draws and statistics, summed over the rows of ``trace_root``: on a
family with ``increments`` the one row ``sqrt(diag(Q^T diag(v) Q))``, else
the reduced root ``R_v`` (``R_v^T R_v = Q^T diag(v) Q``, ``r x r``), which
operator norms read on every family.  The variance of ``(K_m - K_ref) y``
has the nonzero spectrum of ``F F^T`` with ``F = (D_m - D_ref) R_v^T``, so
an operator norm is the top eigenvalue of a matrix no larger than
``min(q, M, r)`` square.  On a family with ``increments`` ``g`` the pair
reads only the coordinate window ``w = [m_ref, m)``, and the same spectrum
is that of the window's block of ``diag(sqrt g) R_v^T R_v diag(sqrt g)``:
a ``|w| x |w|`` eigenproblem, ``1 x 1`` for adjacent model sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .family import ModelFamily, PairOrder, PairValues, _pinv_gram, noise_variances, pair_order
from .family import real_array
from .rng import _check_level


@dataclass(frozen=True)
class NoiseSpec:
    """Known per-observation noise variances, each finite and > 0."""

    variances: np.ndarray

    def __post_init__(self):
        arr = real_array(self.variances, "noise variances")
        if arr.ndim != 1:
            raise DimensionMismatch("noise variances must be a vector")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("noise variances contain NaN or infinite values")
        if np.any(arr <= 0):
            raise DimensionMismatch("noise variances must be > 0")
        object.__setattr__(self, "variances", arr)


@dataclass(frozen=True)
class PairMoments:
    """Trace and operator norm of a pairwise difference variance."""

    p_pair: float
    lambda_pair: float

    def __post_init__(self):
        p_pair = _check_level(self.p_pair, "p_pair")
        if not 0 <= _check_level(self.lambda_pair, "lambda_pair") <= p_pair * (1 + 1e-9) + 1e-300:
            raise DimensionMismatch("need 0 <= lambda_pair <= p_pair")


def _pair_moments(
    family: ModelFamily, sigma: NoiseSpec, pairs
) -> dict[tuple[int, int], PairMoments]:
    """Moments of each listed pair; ``(m, 0)`` gives model ``m``'s own estimate.

    The top eigenvalue is that of the pair's ``|w| x |w|`` window block on a
    family with ``increments``, else that of ``F F^T``.  The traces read
    ``pair_traces``' ``trace_root``, so a table built on these moments and
    one built by ``calibration.calibrate`` carry the same dimensions.  The
    top eigenvalue never exceeds the trace; clipping it there absorbs the
    rounding between the trace sum and the eigensolve.
    """
    order = pair_order(family.models, pairs)
    variances = noise_variances(sigma)
    root = family.noise_root(variances)
    tops = (_gram_tops if family.increments is None else _window_tops)(family, root, order)
    rows = root if family.increments is None else family.trace_root(variances)
    traces = _pair_traces(family, rows, order).array.tolist()
    return {
        pair: PairMoments(p_pair=trace, lambda_pair=min(max(float(top), 0.0), trace))
        for pair, trace, top in zip(order.pairs, traces, tops)
    }


def _gram_tops(family: ModelFamily, root: np.ndarray, order: PairOrder) -> np.ndarray:
    """Top eigenvalue of ``F F^T``, ``F = (D_m - D_ref) R_v^T``, per pair: one
    batched eigensolve per reference, each no larger than ``min(q, M, r)``."""
    factors = family.reduced @ root.T
    tops = np.empty(len(order.pairs))
    for _, ref, positions, cols in order.groups:
        diffs = factors[positions] if ref is None else factors[positions] - factors[ref]
        if diffs.shape[1] > diffs.shape[2]:
            diffs = diffs.transpose(0, 2, 1)
        tops[cols] = np.linalg.eigvalsh(diffs @ diffs.transpose(0, 2, 1))[:, -1]
    return tops


def _window_tops(family: ModelFamily, root: np.ndarray, order: PairOrder) -> np.ndarray:
    """Top eigenvalue per pair on an increments family: the block of
    ``S = diag(sqrt g) R_v^T R_v diag(sqrt g)`` over the pair's coordinate
    window ``[m_ref, m)`` (see the module docstring), one batched eigensolve
    per window width.  The window runs from the pair's first model step to
    its last."""
    bounds = np.array((0, *family.models))
    start, stop = bounds[order.first], bounds[order.last + 1]
    scaled = root * np.sqrt(family.increments)
    s = scaled.T @ scaled
    width = stop - start
    tops = np.empty(len(order.pairs))
    for w in np.flatnonzero(np.bincount(width)):
        rows = np.flatnonzero(width == w)
        blocks = np.lib.stride_tricks.sliding_window_view(s, (w, w))
        tops[rows] = np.linalg.eigvalsh(blocks[start[rows], start[rows]])[:, -1]
    return tops


def single_variance(family: ModelFamily, sigma: NoiseSpec, m: int) -> PairMoments:
    """Same moments for a single model's estimator (not a difference)."""
    return _pair_moments(family, sigma, [(m, 0)])[(m, 0)]


def all_pair_moments(family: ModelFamily, sigma: NoiseSpec) -> dict[tuple[int, int], PairMoments]:
    """Moments of every ordered pair."""
    return _pair_moments(family, sigma, None)


def pair_traces(family: ModelFamily, variances, pairs=None) -> PairValues:
    """Variance traces ``tr Var((K_m - K_ref) y)`` under per-coordinate
    ``variances``, in the order of ``pairs`` (default: every pair, canonical).

    Each is the sum of the pair's squared magnitudes over the rows of the
    family's ``trace_root``.  A pair ``(m, 0)`` gives model ``m``'s own trace.
    """
    return _pair_traces(family, family.trace_root(variances), pair_order(family.models, pairs))


def _pair_traces(family: ModelFamily, root: np.ndarray, order: PairOrder) -> PairValues:
    """``pair_traces`` from a ``trace_root``, over a ``PairOrder`` the caller holds."""
    squares = family.pair_squares(root, order)
    return PairValues(order, squares if root.ndim == 1 else squares.sum(axis=1))


def single_traces(family: ModelFamily, variances) -> dict[int, float]:
    """Variance traces ``tr Var(K_m y)`` of every model."""
    return _single_traces(family, family.trace_root(variances))


@lru_cache(maxsize=16)
def _single_order(models: tuple[int, ...]) -> PairOrder:
    return pair_order(models, [(m, 0) for m in models])


def _single_traces(family: ModelFamily, root: np.ndarray) -> dict[int, float]:
    order = _single_order(family.models)
    return dict(zip(family.models, _pair_traces(family, root, order).array.tolist()))


def best_linear_coefficients(family: ModelFamily, f_true) -> np.ndarray:
    """Coefficient vector of the best linear fit to the mean response."""
    f = family.vector(f_true, "f_true")
    psi = family.design.entries
    gram_inv, _ = _pinv_gram(psi @ psi.T, family.largest)
    return gram_inv @ (psi @ f)

