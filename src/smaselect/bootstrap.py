"""Threshold calibration under unknown heteroscedastic noise.

The data are presmoothed by projecting onto a large pilot model; the
residuals, multiplied coordinatewise by fresh standard normal weights,
replace the unavailable noise law.  What is specific to this path is
presmoothing, which yields the residual vector, the noise scale
``calibrate`` turns into draws, bias allowances, power-loss levels and a
table exactly as it does the known noise standard deviations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import CalibrationTable, _check_workers, calibrate
from .errors import AllZeroResiduals, DimensionMismatch, RequiresKnownTruth, SingularGram
from .family import GRAM_CUTOFF, ModelFamily, noise_variances
from .moments import NoiseSpec
from .rng import _check_level, is_integer

# Residuals below this fraction of the data scale are treated as vanishing.
RESIDUAL_FLOOR = 1e-12


def pilot_basis(family: ModelFamily, m_dagger: int) -> np.ndarray:
    """Orthonormal columns spanning the pilot block, read-only: one SVD per family and m_dagger."""
    if not (is_integer(m_dagger) and 1 <= m_dagger <= family.p):
        raise DimensionMismatch(f"pilot dimension {m_dagger!r} is not an integer in 1..{family.p}")
    if (basis := family.pilots.get(int(m_dagger))) is None:
        _, svals, vt = np.linalg.svd(family.design.leading_block(m_dagger), full_matrices=False)
        if svals.size == 0 or svals[0] <= 0.0:
            raise SingularGram(f"pilot block {m_dagger} has no positive spectrum")
        basis = family.pilots.setdefault(int(m_dagger), vt[svals > GRAM_CUTOFF * svals[0]].T)
    basis.flags.writeable = False  # on each return: a family's unpickled copy is writeable
    return basis


def presmooth(family: ModelFamily, y, m_dagger: int) -> np.ndarray:
    """Residuals of the data off the family's one ``pilot_basis`` per ``m_dagger``:
    the multiplier noise scale.  Residuals within ``RESIDUAL_FLOOR`` of the
    data scale raise ``AllZeroResiduals``."""
    y = family.vector(y)
    basis = pilot_basis(family, m_dagger)
    residuals = y - basis @ (basis.T @ y)
    # Second projection pass pins the residual orthogonality to the span.
    residuals = residuals - basis @ (basis.T @ residuals)
    floor = RESIDUAL_FLOOR * float(np.max(np.abs(y), initial=0.0))
    if np.max(np.abs(residuals), initial=0.0) <= floor:
        raise AllZeroResiduals("presmoothing left no residual signal")
    return residuals


def bootstrap_calibrate(
    family: ModelFamily,
    residuals,
    x_level: float,
    alpha_plus: float,
    n_sim: int,
    seed: int,
    n_workers: int = 1,
    mode: str = "probabilistic",
    power_a: float | None = None,
    stream_tag: int = 0,
) -> CalibrationTable:
    """Multiplier table: ``calibrate`` with the residuals as the noise scale.
    ``n_workers`` is checked, otherwise unused."""
    _check_workers(n_workers)
    return calibrate(
        family, residuals, n_sim, seed, x_level, alpha_plus, mode, power_a, stream_tag=stream_tag
    )


@dataclass(frozen=True)
class ValidityDiagnostics:
    """Closed-form error terms gauging how well the multiplier law mimics truth.

    Validation-only: every field needs the true noise covariance and
    response, so the estimation path can never touch this object.
    """

    delta_psi: float
    d_psi: float
    delta_one: float
    delta_eps: float
    bias_sup: float
    bias_l2: float
    delta2: float
    delta0: float
    delta0_scaled: float
    delta_p: float
    applicability_ratio: float
    asymptotic_regime_reached: bool
    p_dim: int
    n: int
    m_dagger: int
    x_level: float

    def to_dict(self) -> dict:
        return asdict(self)


def _finite(name: str, term) -> float:
    """``term()``, one error term, checked as a level: a term that overflows
    or is not finite raises ``NonFiniteInput`` naming it."""
    try:
        value = term()
    except OverflowError:
        value = math.inf
    return _check_level(value, f"validity term {name}")


def validity_diagnostics(
    family: ModelFamily,
    sigma: NoiseSpec,
    f_true,
    m_dagger: int,
    x_level: float,
) -> ValidityDiagnostics:
    """Evaluate the multiplier-calibration error terms for a known scenario.

    The relevant feature dimension is the largest model in the collection;
    the design block, pilot projector and noise covariance enter through
    the whitened quantities defined in the closed-form bounds.  With ``B``
    the pilot basis and ``Sigma = diag(sig)``, the whitened smoothed variance
    minus ``I`` is ``U K U^T``, ``U = [Sigma^-1 B, Sigma B]`` and
    ``K = [[B^T Sigma^2 B, -I], [-I, 0]]``: its spectrum is that of
    ``R K R^T`` (``U = Q R``) plus zeros, so no ``n x n`` matrix is formed.
    A term that overflows the floats raises ``NonFiniteInput`` naming it.
    """
    if f_true is None:
        raise RequiresKnownTruth("diagnostics need the true response")
    _check_level(x_level, "x_level")
    f = family.vector(f_true, "f_true")
    variances = family.vector(noise_variances(sigma), "noise variances")
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

    bias_vec = (f - basis @ (basis.T @ f)) / sig
    bias_sup = float(np.max(np.abs(bias_vec), initial=0.0))
    bias_l2 = float(np.linalg.norm(bias_vec))

    # B^T Sigma^2 B = root^T root, so (P Sigma^2 P)_ii = |root B[i]|^2.
    root = np.linalg.qr(basis * sig[:, None], mode="r")
    spread = np.linalg.norm(basis @ root.T, axis=1) / sig
    upper = np.linalg.qr(np.hstack([basis / sig[:, None], basis * sig[:, None]]), mode="r")
    eye = np.eye(basis.shape[1])
    kernel = np.block([[root.T @ root, -eye], [-eye, np.zeros_like(eye)]])
    delta_one = float(np.max(np.abs(np.linalg.eigvalsh(upper @ kernel @ upper.T))))
    # diag(U K U^T)_i = (P Sigma^2 P)_ii / sig_i^2 - 2 P_ii.
    delta_eps = float(np.max(np.abs(spread**2 - 2.0 * np.einsum("ij,ij->i", basis, basis))))
    d_psi = float(np.max(spread))  # largest row norm of Upsilon = Sigma^-1 P Sigma

    x_n = x_level + math.log(n)
    x_p = x_level + math.log(2 * p_dim)
    x_m = x_level + 2.0 * math.log(len(family.models))

    delta2 = _finite("delta2", lambda: (
        2.0 * math.sqrt(delta_psi**2 * p_dim * x_n)
        + math.sqrt(delta_eps**2 * p_dim)
        + math.sqrt(bias_sup**4 * p_dim)
        + 4.0 * delta_psi**2 * bias_l2 * (1.0 + math.sqrt(x_level))
    ))
    delta0 = _finite("delta0", lambda: (
        bias_sup**2
        + delta_psi**2 * bias_l2 * math.sqrt(2.0 * x_level)
        + 2.0 * d_psi * x_n
        + d_psi**2 * x_n
        + 2.0 * delta_psi * math.sqrt(x_p)
        + 2.0 * delta_psi**2 * x_p
    ))
    delta_p = _finite("delta_p", lambda: (
        bias_sup**2
        + 4.0 * math.sqrt(x_m) * delta_psi**2 * bias_l2
        + 4.0 * math.sqrt(x_m) * delta_psi
        + 4.0 * x_m * delta_psi**2
        + delta_eps
    ))
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
        delta0_scaled=_finite("delta0_scaled", lambda: math.sqrt(p_dim) * delta0),
        delta_p=delta_p,
        applicability_ratio=ratio,
        asymptotic_regime_reached=bool(ratio <= 1.0),
        p_dim=p_dim,
        n=n,
        m_dagger=int(m_dagger),
        x_level=float(x_level),
    )
