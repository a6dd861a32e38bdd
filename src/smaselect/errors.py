"""Exception and warning types shared across the package, and how it warns."""

import sys
import warnings


class SmaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SmaError):
    """Shapes of design, weighting, or data vectors do not line up."""


class SingularGram(SmaError):
    """A Gram matrix is numerically meaningless (all-zero spectrum)."""

    def __init__(self, model: int, message: str | None = None):
        self.model = model
        super().__init__(message or f"Gram matrix for model {model} is singular")


class NotOrderedPair(SmaError):
    """A pairwise operation was called with m <= m_ref."""


class BadExponent(SmaError):
    """Power-loss decay exponent must be strictly positive."""


class AllZeroResiduals(SmaError):
    """A noise scale or the presmoothing residuals vanish; calibration is
    degenerate."""


class RequiresKnownTruth(SmaError):
    """Validation-only operation called without the true response."""


class MissingPair(SmaError):
    """A calibration table or the statistics lack a pair the selector needs."""


class ConfigInvalid(SmaError):
    """Experiment configuration violates its invariants."""


class NonFiniteInput(SmaError):
    """An input (design, variances, data, draws, residuals) contains NaN or infinity."""


class SingularGramWarning(UserWarning):
    """Rank-deficient Gram handled through the pseudo-inverse path."""


class TailTooDeepWarning(UserWarning):
    """Requested tail level lies outside the simulated sample."""


class CalibrationWarning(UserWarning):
    """Non-fatal irregularity during threshold calibration."""


_PASSED_OVER = ("smaselect.", "concurrent.futures.", "threading")  # modules ``warn`` names no line of


def warn(warning: Warning) -> None:
    """Issue ``warning`` at the first frame outside the package and a thread pool's
    machinery, so it names the caller's line by any path (Python 3.12's
    ``skip_file_prefixes``, by hand); on a worker thread, which has no such frame,
    at the outermost package frame (``experiment.replicate``'s line)."""
    frame, level, outermost = sys._getframe(1), 2, 2
    while frame and (name := frame.f_globals.get("__name__", "")).startswith(_PASSED_OVER):
        if name.startswith("smaselect."):
            outermost = level
        frame, level = frame.f_back, level + 1
    warnings.warn(warning, stacklevel=level if frame else outermost)
