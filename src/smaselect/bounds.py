"""Closed-form deviation bounds for Gaussian quadratic forms.

Pure functions, each violated with probability at most e^-x.  ``sma
bounds-check`` and the test suite falsify them by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DimensionMismatch
from .rng import _check_level


@dataclass(frozen=True)
class QFParams:
    """Spectral summaries of a PSD matrix driving a Gaussian quadratic form.

    ``p_trace`` is the trace, ``v2`` the trace of the square, ``lam`` the
    operator norm, ``x`` the exponential deviation level.  Each must be a
    finite real >= 0 (``NonFiniteInput`` if not finite, otherwise
    ``DimensionMismatch``), as must the arguments of the bounds below.
    """

    p_trace: float
    v2: float
    lam: float
    x: float

    def __post_init__(self):
        _check_params(**asdict(self))
        if self.v2 > self.p_trace * self.lam * (1 + 1e-9) + 1e-300:
            raise DimensionMismatch("need v2 <= p_trace * lam")


def _check_params(**params: float) -> None:
    """Check each keyword as a level, named in the error."""
    for name, value in params.items():
        _check_level(value, name)


def qf_upper(params: QFParams) -> float:
    """Upper deviation threshold: exceeded with probability <= e^-x."""
    return params.p_trace + 2.0 * math.sqrt(params.v2 * params.x) + 2.0 * params.lam * params.x


def norm_upper(p_trace: float, lam: float, x: float) -> float:
    """Norm-scale threshold sqrt(p) + sqrt(2 lam x), same e^-x guarantee."""
    _check_params(p_trace=p_trace, lam=lam, x=x)
    return math.sqrt(p_trace) + math.sqrt(2.0 * lam * x)


def qf_lower(p_trace: float, v2: float, x: float) -> float:
    """Lower deviation threshold, clamped at zero."""
    _check_params(p_trace=p_trace, v2=v2, x=x)
    return max(0.0, p_trace - 2.0 * math.sqrt(v2 * x))

