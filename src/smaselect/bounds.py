"""Closed-form deviation bounds for Gaussian quadratic forms.

Pure functions, each violated with probability at most e^-x.  ``sma
bounds-check`` and the test suite falsify them by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch


@dataclass(frozen=True)
class QFParams:
    """Spectral summaries of a PSD matrix driving a Gaussian quadratic form.

    ``p_trace`` is the trace, ``v2`` the trace of the square, ``lam`` the
    operator norm, ``x`` the exponential deviation level.
    """

    p_trace: float
    v2: float
    lam: float
    x: float

    def __post_init__(self):
        if min(self.p_trace, self.v2, self.lam, self.x) < 0:
            raise DimensionMismatch("quadratic-form parameters must be >= 0")
        if self.v2 > self.p_trace * self.lam * (1 + 1e-9) + 1e-300:
            raise DimensionMismatch("need v2 <= p_trace * lam")


def qf_upper(params: QFParams) -> float:
    """Upper deviation threshold: exceeded with probability <= e^-x."""
    return params.p_trace + 2.0 * math.sqrt(params.v2 * params.x) + 2.0 * params.lam * params.x


def norm_upper(p_trace: float, lam: float, x: float) -> float:
    """Norm-scale threshold sqrt(p) + sqrt(2 lam x), same e^-x guarantee."""
    return math.sqrt(p_trace) + math.sqrt(2.0 * lam * x)


def qf_lower(p_trace: float, v2: float, x: float) -> float:
    """Lower deviation threshold, clamped at zero."""
    return max(0.0, p_trace - 2.0 * math.sqrt(v2 * x))

