"""Ordered families of linear estimators, held in reduced coordinates.

A family is built from a ``p x n`` design whose leading ``m`` rows define
the ``m``-th model, a ``q x p`` weight matrix ``W`` that is the loss, and a
strictly increasing list of model sizes.  The loss of a coefficient
estimate is the norm of ``W`` applied to it: ``I_p`` for the full vector,
``Psi^T`` for prediction, rows of ``I_p`` for a subvector, one row for a
linear functional.  Model ``m`` estimates ``K_m y = W S_m y``,
where ``S_m`` is the least-squares operator of the leading-``m`` block
zero-padded to the full coefficient space.

No ``q x n`` operator is stored.  With ``M`` the largest model, every
``S_m`` reads ``y`` only through ``xi = Q^T y``, where ``Q`` (``n x r``,
``r = min(M, n)``) comes from the QR factorisation ``Psi_M^T = Q L^T`` of
the leading ``M`` rows (``L`` lower-triangular), and only the first ``M``
coefficients are ever nonzero.  So the family keeps, per model, the
``M x r`` coefficient map ``C_m`` and its loss-weighted image
``D_m = R C_m``, where ``R^T R = W_M^T W_M`` and ``R`` has ``min(q, M)``
rows.  One kernel, ``pair_squares``, gives every ``|(D_m - D_ref) xi|^2``,
one row per pair and one column per row of ``xi``, written into an array
the caller may pass: the sampler draws normals in 64-row chunks and hands
it (``step_squares`` with increments) each reduced 512-row block to write.
Noise with variances ``v`` enters a trace through ``trace_root``, whose rows'
kernel squares sum to it: with ``increments`` (below) the one row
``sqrt(diag(Q^T diag(v) Q))``, else the root ``R_v`` (``noise_root``,
``R_v^T R_v = Q^T diag(v) Q``), which alone gives a variance spectrum, that
of ``(D_m - D_ref) R_v^T``.

The basis is nested: when ``Psi_M`` has full row rank, ``Q[:, :m]`` spans
the leading ``m`` rows, so ``K_m y = A Pi_m xi`` with ``A = W_M L^-T`` and
``Pi_m`` keeping the first ``m`` coordinates.  When ``G = A^T A`` is
diagonal -- prediction loss on any design, and the trigonometric families
under every loss -- a pair difference is a window of coordinates and
``|(K_m - K_ref) y|^2 = sum_{j in (m_ref, m]} g_j xi_j^2`` with
``g = diag G``: a running sum of nonnegative increments.  The family then
stores ``g`` as ``increments`` and the pair kernel uses it, adding each
window's steps right to left: a block's by one suffix recursion
(``ModelFamily.window_blocks``), one data vector's by one cumulative sum
over the reversed Hankel matrix of its zero-padded steps, in the same order
of additions; otherwise (or for a rank-deficient leading block) ``D_m``.

Every pair list over a model tuple has one layout, ``pair_order``, which
the kernel, the moments, the draw matrix, the table builder and the
selector all read and pass on; a list is laid out once, where it enters.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    NotOrderedPair,
    SingularGram,
    SingularGramWarning,
    warn,
)
from .rng import is_integer

# Relative spectral cutoff for pseudo-inverting a Gram matrix.
GRAM_CUTOFF = 1e-10

# ``G`` counts as diagonal when ``|G_ij| <= DIAGONAL_TOL sqrt(G_ii G_jj)``
# for every ``i != j``; the increments then miss a window's squared norm by
# at most ``(window - 1) DIAGONAL_TOL`` of it (see ``build_projection_family``).
DIAGONAL_TOL = 1e-12


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; text and complex values raise ``DimensionMismatch``."""
    try:
        return np.asarray(values).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{what} must be real numbers: {exc}") from None


def model_sizes(models, p: int | None = None) -> tuple[int, ...]:
    """``models`` as ints if a nonempty, strictly increasing list of integers (not bools)
    in ``1..p`` (``p`` unbounded if ``None``); anything else raises ``DimensionMismatch``."""
    models = tuple(models)
    rule = "integers >= 1" if p is None else f"integers in 1..{p}"
    ordered = all(map(is_integer, models)) and all(a < b for a, b in zip(models, models[1:]))
    if not (ordered and models and models[0] >= 1 and (p is None or models[-1] <= p)):
        raise DimensionMismatch(f"model sizes must be strictly increasing {rule}: {models}")
    return tuple(map(int, models))


@dataclass(frozen=True)
class DesignMatrix:
    """Feature vectors as columns of a ``p x n`` matrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = real_array(self.entries, "design")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch("design must be a p x n matrix with p, n >= 1")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("design contains NaN or infinite entries")
        object.__setattr__(self, "entries", arr)

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def leading_block(self, m: int) -> np.ndarray:
        """Rows of the first ``m`` features."""
        if not 1 <= m <= self.p:
            raise DimensionMismatch(f"block size {m} outside 1..{self.p}")
        return self.entries[:m]


def _pinv_gram(gram: np.ndarray, m: int) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of a symmetric PSD Gram via truncated eigendecomposition.

    Returns the inverse and whether the spectrum was truncated.  An all-zero
    spectrum is a hard error: no meaningful estimator exists for the model.
    """
    vals, vecs = np.linalg.eigh(gram)
    top = vals.max() if vals.size else 0.0
    if top <= 0.0:
        raise SingularGram(f"model {m}: Gram matrix has no positive spectrum")
    cutoff = GRAM_CUTOFF * top
    keep = vals > cutoff
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return (vecs * inv_vals) @ vecs.T, bool(np.any(~keep))


@dataclass(frozen=True, eq=False)
class PairOrder:
    """The layout of pairs ``(m, m_ref)``, ``m > m_ref``, over a model tuple.

    ``index`` maps each pair to its column.  ``groups`` holds ``(m_ref, ref,
    positions, columns)`` per reference, in first-seen order: ``ref`` is the
    reference's position, or ``None`` for reference 0, the empty model; the
    larger models' positions and the pairs' columns are slices when
    contiguous (as in the canonical order), so indexing by them takes no
    copy.  Pair ``i`` covers model steps ``first[i]..last[i]`` (step ``j``
    is coordinates ``[models[j - 1], models[j])``, from 0 for ``j = 0``);
    for one data vector's ``k x k`` window sums (``ModelFamily.pair_windows``,
    ``k`` models), ``hankel_steps[e, d]``, ``k - 1 + e - d``, gathers the
    reversed Hankel matrix of its steps, zero-padded in front, and
    ``hankel[i]``, ``last[i] * k + last[i] - first[i]``, is pair ``i``'s.
    ``starts`` holds each group's first column, for ``np.logical_and.reduceat``
    over contiguous groups, and ``step_starts`` each step's first coordinate.
    Orders are shared (see ``pair_order``), so nothing here is written.
    """

    models: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    groups: tuple
    first: np.ndarray
    last: np.ndarray
    hankel_steps: np.ndarray
    hankel: np.ndarray
    starts: np.ndarray
    step_starts: np.ndarray


def pair_order(models, pairs=None) -> PairOrder:
    """The ``PairOrder`` of ``pairs`` over a strictly increasing model tuple.

    The canonical order -- by reference, then by larger model -- is built
    once per model tuple and returned for ``pairs=None`` and for any
    sequence equal to its pair tuple, so every family, statistic and table
    on the same models shares one layout.  Any other order is built on
    each call; ``(m, 0)`` is model ``m`` alone, a pair that is not
    ``m > m_ref`` over ``models`` raises ``NotOrderedPair`` and a repeated
    pair ``DimensionMismatch``.
    """
    canonical = _all_pairs(tuple(models))
    if pairs is None or pairs is canonical.pairs:
        return canonical
    pairs = tuple(pairs)
    return canonical if pairs == canonical.pairs else _layout(canonical.models, pairs)


@lru_cache(maxsize=16)
def _all_pairs(models: tuple[int, ...]) -> PairOrder:
    return _layout(models, tuple((m, r) for i, r in enumerate(models) for m in models[i + 1 :]))


def _layout(models: tuple[int, ...], pairs: tuple) -> PairOrder:
    positions = {m: i for i, m in enumerate(models)}
    groups: dict[int, tuple[int | None, list[int], list[int]]] = {}
    first, last, index = [], [], {}
    for col, (m, m_ref) in enumerate(pairs):
        ref = positions.get(m_ref)
        if m <= m_ref or m not in positions or ref is None and m_ref != 0:
            raise NotOrderedPair(f"need models m > m_ref (or m_ref = 0), got ({m}, {m_ref})")
        if index.setdefault((m, m_ref), col) != col:
            raise DimensionMismatch(f"pair ({m}, {m_ref}) appears more than once")
        _, rows, cols = groups.setdefault(m_ref, (ref, [], []))
        rows.append(positions[m])
        cols.append(col)
        first.append(0 if ref is None else ref + 1)
        last.append(positions[m])
    k = len(models)
    return PairOrder(
        models=models,
        pairs=pairs,
        index=index,
        groups=tuple(
            (m_ref, ref, _as_slice(rows), _as_slice(cols))
            for m_ref, (ref, rows, cols) in groups.items()
        ),
        first=_frozen(first),
        last=_frozen(last),
        hankel_steps=_frozen(np.subtract.outer(range(k - 1, 2 * k - 1), range(k))),
        hankel=_frozen([hi * k + hi - lo for lo, hi in zip(first, last)]),
        starts=_frozen([cols[0] for _, _, cols in groups.values()]),
        step_starts=_frozen((0,) + models[:-1]),
    )


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only index array."""
    array = np.array(values, dtype=np.intp)
    array.flags.writeable = False
    return array


def _as_slice(index: list[int]) -> slice | np.ndarray:
    """``index`` as a slice if it is an ascending run (or empty), else a read-only array."""
    start = index[0] if index else 0
    if index == list(range(start, start + len(index))):
        return slice(start, start + len(index))
    return _frozen(index)


class PairValues(Mapping):
    """A read-only float per pair, held as one array in the layout ``order``.

    A ``Mapping`` from ``(m, m_ref)`` to a float: indexing by a pair,
    iteration in ``order.pairs`` order, ``items()``, ``values()`` and ``==``
    against a plain dict all work, and ``dict()`` of one is a mutable
    copy.  ``array`` is the values as a read-only float array, entry ``i``
    for ``order.pairs[i]``.  ``pair_values`` builds one in the canonical
    order whenever it can, and ``at`` reads the values in any ``PairOrder``.
    The values are a copy, unless ``_owned`` says nothing else holds them.
    """

    __slots__ = ("order", "array")

    def __init__(self, order: PairOrder, values, _owned: bool = False):
        array = values if _owned else real_array(values, "pair values").copy()
        if array.shape != (len(order.pairs),):
            raise DimensionMismatch("need one value per pair")
        array.flags.writeable = False
        self.order, self.array = order, array

    def __getitem__(self, pair) -> float:
        return self.array.item(self.order.index[pair])

    def __iter__(self):
        return iter(self.order.pairs)

    def __len__(self) -> int:
        return len(self.order.pairs)

    def __repr__(self) -> str:
        return f"PairValues({dict(self.items())!r})"

    def at(self, order: PairOrder, what: str = "value") -> np.ndarray:
        """The values at the pairs of ``order``: ``array`` itself when it is
        this order, else one gather.  A missing pair raises ``MissingPair``."""
        if order is self.order:
            return self.array
        pairs = order.pairs
        try:
            cols = np.fromiter(map(self.order.index.__getitem__, pairs), np.intp, len(pairs))
        except KeyError as missing:
            raise MissingPair(f"no {what} for pair {missing.args[0]}") from None
        return self.array[cols]


def pair_values(values: Mapping) -> PairValues:
    """A pair-to-float mapping as a read-only ``PairValues`` (itself if it is one).

    When the pairs are every pair of the models they name, in any order,
    the result takes their canonical ``PairOrder``, so the selector reads
    its array without a gather; any other pair set is laid out in the
    order given by ``pair_order``, which raises ``NotOrderedPair`` for a
    pair that is not ``m > m_ref``.
    """
    if isinstance(values, PairValues):
        return values
    order = pair_order(tuple(sorted({m for pair in values for m in pair})))
    if values.keys() != order.index.keys():
        order = pair_order(order.models, values)
    return PairValues(order, [values[pair] for pair in order.pairs])


@dataclass
class ModelFamily:
    """Estimator family over an ordered model set, in reduced coordinates.

    ``basis`` is ``Q`` (``n x r``); ``coefficients[i]`` is ``C_m`` (``M x r``)
    and ``reduced[i]`` is ``D_m`` for ``m = models[i]``.  ``K_m y`` equals
    ``W[:, :M] C_m Q^T y`` and ``|K_m y|`` equals ``|D_m Q^T y|``.
    ``increments`` is ``g = diag(A^T A)`` (length ``M``) when the nested
    basis makes ``A^T A`` diagonal, else ``None``; with it,
    ``|(K_m - K_ref) y|^2`` is ``sum g_j xi_j^2`` over the window
    ``(m_ref, m]`` (see ``pair_squares``).  The kernels take a
    ``PairOrder`` over ``models``, laid out once by the caller.
    """

    design: DesignMatrix
    models: tuple[int, ...]
    weight_matrix: np.ndarray
    basis: np.ndarray
    coefficients: np.ndarray
    reduced: np.ndarray
    increments: np.ndarray | None = None
    pilots: dict = field(default_factory=dict, init=False, repr=False)  # pilot_basis by m_dagger

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def largest(self) -> int:
        return self.models[-1]

    def vector(self, v, what: str = "data vector") -> np.ndarray:
        """``v`` as a float vector of length ``n``: the one boundary check for
        data, responses and noise scales, refusing text and complex values."""
        v = real_array(v, what)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"{what} must have length n")
        if not np.isfinite(v).all():
            raise NonFiniteInput(f"{what} contains NaN or infinite values")
        return v

    def reduce(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reduced coordinates ``Q^T v`` of a vector, or of each row of a
        matrix, written to ``out`` if given."""
        return np.matmul(v, self.basis, out=out)

    def outputs(self, xi: np.ndarray) -> np.ndarray:
        """Estimates ``K_m y`` of every model (rows) from ``xi = Q^T y``."""
        return (self.coefficients @ xi) @ self.weight_matrix[:, : self.largest].T

    def noise_root(self, variances) -> np.ndarray:
        """Upper-triangular ``R_v`` (``r x r``) with ``R_v^T R_v = Q^T diag(v) Q``,
        ``v = variances``, read only for the spectrum of ``Var(K_m y)`` (that of
        ``F F^T``, ``F = D_m R_v^T``) and as a Gram-route family's ``trace_root``."""
        variances = self.vector(variances, "noise variances")
        return np.linalg.qr(self.basis * np.sqrt(variances)[:, None], mode="r")

    def trace_root(self, variances) -> np.ndarray:
        """Rows whose pair squares sum to each variance trace: ``R_v``, or with ``increments``
        the one row (a vector) ``sqrt(diag(Q^T diag(v) Q))``, all a window's trace reads."""
        if self.increments is None:
            return self.noise_root(variances)
        variances = self.vector(variances, "noise variances")
        # Each contiguous row is summed pairwise, more accurately than by a matrix product.
        return np.sqrt(np.add.reduce(np.square(self.basis.T, order="C") * variances, axis=1))

    def pair_squares(
        self, xi: np.ndarray, order: PairOrder, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Squared pair magnitudes ``|(K_m - K_ref) y|^2`` (``pairs x B``) for
        the rows of ``xi = Q^T y`` (``B x r``), or for one ``xi`` (``r``,
        a data vector, then ``pairs``); ``(m, 0)`` is model ``m`` alone.

        The one pair kernel.  Row ``i`` of the result is ``order.pairs[i]``,
        so a caller holding a column-major draw buffer passes its block of
        columns as ``out`` (any ``pairs x B`` float view, strided or not)
        and gets the squares written there.  With ``increments`` ``g``,
        each pair is a window sum of ``g_j xi_j^2`` over ``(m_ref, m]``
        (``pair_windows``), exact to the relative bound of
        ``build_projection_family``; otherwise one matmul to every
        ``D_m xi`` and one vectorised subtraction per reference, into a
        buffer reused across references (a data vector takes its row).
        """
        if self.increments is not None:
            return self.pair_windows(self.step_squares(xi, order), order, out)
        if xi.ndim == 1:
            return self.pair_squares(xi[None], order, None if out is None else out[:, None])[:, 0]
        if out is None:
            out = np.empty((len(order.pairs), xi.shape[0]))
        flat = self.reduced.reshape(-1, self.reduced.shape[-1])
        estimates = (flat @ xi.T).reshape(len(self.models), -1, xi.shape[0])
        buf = np.empty_like(estimates)
        for _, ref, positions, cols in order.groups:
            diff = estimates[positions]
            if ref is not None:
                diff = np.subtract(diff, estimates[ref], out=buf[: len(diff)])
            out[cols] = np.einsum("kfb,kfb->kb", diff, diff)
        return out

    def step_squares(
        self, xi: np.ndarray, order: PairOrder, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Each model step's ``sum g_j xi_j^2`` over its coordinates (``k x B``)
        for the rows of ``xi`` (``B x r``), or for one ``xi`` (``k``), written
        to ``out`` if given: the steps ``pair_windows`` adds up to every
        pair's square.  Needs ``increments``."""
        weights = (xi * xi * self.increments).T
        if len(order.step_starts) < len(weights):
            return np.add.reduceat(weights, order.step_starts, axis=0, out=out)
        # Steps of one coordinate each are the weights themselves, which a reduceat copies slowly.
        if out is None:
            return weights
        out[...] = weights
        return out

    def pair_windows(
        self, steps: np.ndarray, order: PairOrder, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per pair of ``order``, the sum of the step weights ``steps`` over its
        model steps ``first..last``: the window ``(m_ref, m]``.

        ``steps`` is ``(k, B)`` and nonnegative, one row per model step, or
        ``(k,)`` for one data vector; the result, written to ``out`` if
        given, is ``(pairs, B)``, or ``(pairs,)``.  Each window adds its
        steps right to left: a block of rows copies ``window_blocks``'
        blocks to their pairs' rows.  A running sum of ``w`` nonnegative
        steps is within ``(w - 1) 2^-53`` of their exact sum, relatively; a
        difference of prefix sums would cancel.

        One data vector takes one pass: ``order.hankel_steps`` gathers its
        ``k`` steps, zero-padded in front to ``2k - 1``, into the reversed
        Hankel matrix ``H[e, d] = steps[e - d]``, whose cumulative sum along
        ``d`` adds steps ``e`` down to ``e - d`` as the block kernel does,
        and ``order.hankel`` gathers each pair's entry, none in the padding.
        """
        if steps.ndim == 1:
            k = len(steps)
            padded = np.zeros(2 * k - 1)
            padded[k - 1 :] = steps
            sums = np.add.accumulate(padded[order.hankel_steps], axis=1)
            return sums.ravel().take(order.hankel, out=out)
        if out is None:
            out = np.empty((len(order.pairs), steps.shape[1]))
        for (*_, cols), block in self.window_blocks(steps.copy(), order):  # it consumes its steps
            out[cols] = block
        return out

    def window_blocks(self, steps: np.ndarray, order: PairOrder):
        """``(group, block)`` per group of ``order``, largest reference first:
        ``block`` holds the window sums of the step weights ``steps``
        (``k x B``) of the group's pairs, one row per larger model.  One
        descending suffix recursion in ``steps`` itself, which it consumes:
        step ``j`` is added to every row above it, so row ``e`` holds steps
        ``e`` down to ``j``, and the reference whose windows start at step
        ``j`` reads its rows there, one vectorised addition per reference.
        Step ``j`` is read before any addition reaches it.  A slice's block
        is a view, valid until the next is asked for."""
        by_first = {0 if group[1] is None else group[1] + 1: group for group in order.groups}
        for j in range(len(steps) - 1, min(by_first, default=len(steps)) - 1, -1):
            steps[j + 1 :] += steps[j]
            if group := by_first.get(j):
                yield group, steps[group[2]]

    def pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs ``(m, m_ref)`` with ``m > m_ref``, canonical order."""
        return list(pair_order(self.models).pairs)

    def predecessor(self, m: int) -> int | None:
        smaller = [mm for mm in self.models if mm < m]
        return smaller[-1] if smaller else None


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by ``eigh`` (which reads one triangle of
    ``a``); negative rounding is clipped."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def build_projection_family(design: DesignMatrix, weights, models) -> ModelFamily:
    """Construct the family of least-squares estimators on leading blocks.

    ``weights`` is the loss as its ``q x p`` matrix ``W``: a matrix that is
    not 2-D with ``p`` columns raises ``DimensionMismatch``, a non-finite
    one ``NonFiniteInput``.  For each ``m`` the estimator is ``K_m = W S_m`` with
    ``S_m = (Psi_m Psi_m^T)^+ Psi_m`` zero-padded from ``m`` to ``p`` rows,
    held as ``C_m = pad_M(S_m Q)`` on the basis ``Q`` of the QR
    factorisation ``Psi_M^T = Q L^T`` of the largest block (all ``min(M, n)``
    columns: a tiny direction stays, since the pseudo-inverse may amplify
    it).  Rank-deficient Grams fall back to the pseudo-inverse and attach a
    ``SingularGramWarning``; an all-zero Gram raises ``SingularGram``.

    When ``Psi_M`` has full row rank and no Gram was truncated,
    ``S_m y = L^-T Pi_m Q^T y``, so ``K_m y = A Pi_m xi`` with
    ``A = W_M L^-T``.  ``G = A^T A`` is taken as diagonal when
    ``|G_ij| <= DIAGONAL_TOL sqrt(G_ii G_jj)`` for all ``i != j`` (a zero
    ``G_jj`` means a zero column of ``A``, as the derivative loss makes of
    the constant, and then the whole row must vanish); the family then
    stores ``g = diag G`` as ``increments``.  Bound: over a window ``w`` the
    dropped cross terms ``sum_{i != j} G_ij xi_i xi_j`` are at most
    ``DIAGONAL_TOL sum_{i != j} sqrt(g_i g_j) |xi_i xi_j|``, which by
    Cauchy-Schwarz is at most ``(|w| - 1) DIAGONAL_TOL`` times the squared
    norm ``sum_j g_j xi_j^2``.  The same holds for variance traces, each a
    sum of such norms over the rows of the noise root.
    """
    models = model_sizes(models, design.p)
    W = real_array(weights, "W")
    if W.ndim != 2 or W.shape[1] != design.p:
        raise DimensionMismatch("W must be a q x p matrix, p the feature dimension")
    if not np.all(np.isfinite(W)):
        raise NonFiniteInput("weighting matrix contains NaN or infinite values")

    big = models[-1]
    top = design.leading_block(big)
    basis, upper = np.linalg.qr(top.T)  # upper = L^T
    projected = top @ basis
    coefficients = np.zeros((len(models), big, basis.shape[1]))
    deficient: list[int] = []
    for i, m in enumerate(models):
        block = design.leading_block(m)
        gram_inv, truncated = _pinv_gram(block @ block.T, m)
        if truncated:
            deficient.append(m)
            warn(SingularGramWarning(f"model {m}: rank-deficient Gram, pseudo-inverse applied"))
        coefficients[i, :m] = gram_inv @ projected[:m]

    # R^T R = W_M^T W_M with min(q, M) rows: W_M itself, or its Gram's root.
    w_big = W[:, :big]
    root = w_big if W.shape[0] <= big else _psd_sqrt(w_big.T @ w_big)
    increments = None
    if not deficient and basis.shape[1] == big:
        loadings = np.linalg.solve(upper.T, w_big.T).T  # A = W_M L^-T
        increments = _diagonal_of(loadings.T @ loadings)
    return ModelFamily(
        design=design,
        models=models,
        weight_matrix=W,
        basis=basis,
        coefficients=coefficients,
        reduced=root @ coefficients,
        increments=increments,
    )


def _diagonal_of(gram: np.ndarray) -> np.ndarray | None:
    """``diag(gram)`` if ``gram`` is diagonal within ``DIAGONAL_TOL``, else ``None``."""
    diag = np.diag(gram).copy()
    off = np.abs(gram - np.diag(diag))
    return diag if np.all(off <= DIAGONAL_TOL * np.sqrt(np.outer(diag, diag))) else None


def noise_variances(noise) -> np.ndarray:
    """The variances a ``NoiseSpec`` holds: the one read of a noise argument.
    A bare array, which could hold variances or scales, raises
    ``DimensionMismatch``."""
    variances = getattr(noise, "variances", None)
    if variances is None:
        raise DimensionMismatch(f"noise must be a NoiseSpec, not {type(noise).__name__}")
    return variances

