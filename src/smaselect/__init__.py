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
    ExcessRiskEstimate,
    JointDrawMatrix,
    calibrate,
    calibration_table,
    critical_values,
    excess_risk_mc,
    familywise_exceedance,
    power_loss_critical_values,
    power_loss_params,
    propagation_failures,
    sample_joint_draws,
    tail_quantile,
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
    OrderingReport,
    PairValues,
    build_projection_family,
    check_ordering,
)
from .moments import (
    NoiseSpec,
    PairMoments,
    RiskPoint,
    risk_profile,
)
from .selector import (
    OracleReport,
    SelectionResult,
    aic_equivalence_check,
    oracle,
    payment_for_adaptation,
    sma_select,
    test_statistics,
)
