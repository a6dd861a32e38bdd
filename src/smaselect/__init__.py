"""Ordered model selection with calibrated pairwise acceptance thresholds."""

__version__ = "0.1.0"

from .bootstrap import (
    ValidityDiagnostics,
    bootstrap_calibrate,
    presmooth,
    validity_diagnostics,
)
from .bounds import QFParams, norm_upper, qf_lower, qf_upper
from .calibration import (
    CalibrationTable,
    JointDrawMatrix,
    calibrate,
    calibration_table,
    critical_values,
    familywise_exceedance,
    power_loss_critical_values,
    power_loss_params,
    propagation_failures,
    sample_draws,
    sample_joint_draws,
)
from .errors import (
    AllZeroResiduals,
    BadExponent,
    ConfigInvalid,
    DimensionMismatch,
    MissingPair,
    NonFiniteInput,
    NotOrderedPair,
    RequiresKnownTruth,
    SingularGram,
    SingularGramWarning,
    TailTooDeepWarning,
)
from .family import (
    DesignMatrix,
    ModelFamily,
    PairValues,
    build_projection_family,
)
from .moments import NoiseSpec, PairMoments
from .selector import (
    OracleReport,
    SelectionResult,
    oracle,
    payment_for_adaptation,
    sma_select,
    test_statistics,
)
