"""Synthetic regression experiments: scenario generation and comparisons.

A scenario is a univariate regression on [0, 1] with a trigonometric
feature basis, random or explicit coefficients, and a configurable
heteroscedastic noise profile.  The comparison harness runs the oracle,
the known-noise selector and the residual-multiplier selector over fresh
noise replicates and records selected indices and losses.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import partial

import numpy as np

from . import __version__
from .bootstrap import presmooth
from .calibration import MODES, CalibrationTable, calibrate
from .errors import AllZeroResiduals, ConfigInvalid, DimensionMismatch
from .family import DesignMatrix, ModelFamily, build_projection_family
from .moments import NoiseSpec, best_linear_coefficients
from .rng import is_integer, is_number, is_seed, stream
from .selector import OracleReport, oracle, payment_for_adaptation, sma_select, test_statistics

WEIGHTINGS = ("prediction", "full_vector", "derivative")


def fourier_values(points: np.ndarray, n_terms: int) -> np.ndarray:
    """Trigonometric basis values, one row per term.

    Term 1 is the constant; terms 2k and 2k+1 are sqrt(2) cos(2 pi k x)
    and sqrt(2) sin(2 pi k x).
    """
    out = np.empty((n_terms, points.shape[0]))
    out[0] = 1.0
    for j in range(2, n_terms + 1):
        k = j // 2
        phase = 2.0 * np.pi * k * points
        out[j - 1] = np.sqrt(2.0) * (np.cos(phase) if j % 2 == 0 else np.sin(phase))
    return out


def fourier_derivative_values(points: np.ndarray, n_terms: int) -> np.ndarray:
    """Termwise derivatives of the trigonometric basis."""
    out = np.empty((n_terms, points.shape[0]))
    out[0] = 0.0
    for j in range(2, n_terms + 1):
        k = j // 2
        w = 2.0 * np.pi * k
        phase = w * points
        out[j - 1] = np.sqrt(2.0) * w * (-np.sin(phase) if j % 2 == 0 else np.cos(phase))
    return out


@dataclass(frozen=True)
class Seeds:
    data: int = 101
    noise: int = 202
    calibration: int = 303
    bootstrap: int = 404


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; every random source is seeded."""

    n: int
    p_max: int = 200
    coefficient_rule: dict = field(default_factory=lambda: {"kind": "paper4"})
    noise_profile: dict = field(
        default_factory=lambda: {"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0}
    )
    models: tuple[int, ...] = tuple(range(1, 38))
    m_dagger: int = 20
    x_level: float = 2.0
    alpha_plus: float = 1.0
    n_sim: int = 1000
    n_hist: int = 100
    seeds: Seeds = field(default_factory=Seeds)
    weighting: str = "prediction"
    random_design: bool = False
    n_workers: int = 1
    mode: str = "probabilistic"
    power_a: float | None = None

    def validate(self) -> "ExperimentConfig":
        for name in ("n", "p_max", "m_dagger", "n_sim", "n_hist", "n_workers"):
            if not is_integer(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be an integer")
        for name in ("x_level", "alpha_plus") + (("power_a",) if self.power_a is not None else ()):
            if not is_number(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be a finite number")
        if not isinstance(self.random_design, bool):
            raise ConfigInvalid("random_design must be true or false")
        if not all(is_integer(m) for m in self.models):
            raise ConfigInvalid("models must be integers")
        models = tuple(int(m) for m in self.models)
        if not models or any(b <= a for a, b in zip(models, models[1:])):
            raise ConfigInvalid("models must be a nonempty strictly increasing list")
        if not (1 <= self.m_dagger <= max(models) <= self.p_max):
            raise ConfigInvalid("need 1 <= m_dagger <= max(models) <= p_max")
        if self.n < 1 or self.n_sim < 1 or self.n_hist < 1 or self.n_workers < 1:
            raise ConfigInvalid("counts must be >= 1")
        if self.x_level < 0 or self.alpha_plus < 0:
            raise ConfigInvalid("x_level and alpha_plus must be >= 0")
        if self.weighting not in WEIGHTINGS:
            raise ConfigInvalid(f"weighting must be one of {WEIGHTINGS}")
        if self.mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {MODES}")
        if self.mode == "power_loss" and (self.power_a is None or self.power_a <= 0):
            raise ConfigInvalid("power_loss mode needs power_a > 0")
        if not isinstance(self.seeds, Seeds) or not all(map(is_seed, astuple(self.seeds))):
            raise ConfigInvalid(
                "seeds must map data/noise/calibration/bootstrap to integers in [0, 2**64)"
            )
        _validate_coeff_rule(self.coefficient_rule, self.p_max)
        _validate_noise_profile(self.noise_profile, self.n)
        return replace(self, models=models)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["models"] = list(self.models)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigInvalid("config must be a JSON object")
        d = dict(d)
        if "models" in d:
            if not isinstance(d["models"], (list, tuple)):
                raise ConfigInvalid("models must be a list of integers")
            d["models"] = tuple(d["models"])
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        try:
            if isinstance(d.get("seeds"), dict):
                d["seeds"] = Seeds(**d["seeds"])
            cfg = cls(**d)
        except TypeError as exc:
            raise ConfigInvalid(str(exc)) from None
        return cfg.validate()


def _numbers(vals, what: str) -> list:
    if not isinstance(vals, (list, tuple)) or not vals:
        raise ConfigInvalid(f"{what} needs a nonempty values list")
    if not all(is_number(v) for v in vals):
        raise ConfigInvalid(f"{what} values must be finite numbers")
    return list(vals)


def _validate_coeff_rule(rule: dict, p_max: int) -> None:
    kind = rule.get("kind") if isinstance(rule, dict) else None
    if kind == "paper4":
        return
    if kind == "explicit":
        if len(_numbers(rule.get("values"), "explicit coefficient rule")) > p_max:
            raise ConfigInvalid("explicit coefficients exceed p_max")
        return
    raise ConfigInvalid("coefficient_rule.kind must be 'paper4' or 'explicit'")


def _validate_noise_profile(profile: dict, n: int) -> None:
    kind = profile.get("kind") if isinstance(profile, dict) else None
    if kind == "linear":
        lo, hi = profile.get("sigma_lo"), profile.get("sigma_hi")
        if not (is_number(lo) and is_number(hi)) or min(lo, hi) <= 0:
            raise ConfigInvalid("linear profile needs numbers sigma_lo, sigma_hi > 0")
    elif kind == "constant":
        sigma = profile.get("sigma")
        if not is_number(sigma) or sigma <= 0:
            raise ConfigInvalid("constant profile needs a number sigma > 0")
    elif kind == "explicit":
        vals = _numbers(profile.get("values"), "explicit profile")
        if len(vals) != n:
            raise ConfigInvalid("explicit profile needs n standard deviations")
        if min(vals) <= 0:
            raise ConfigInvalid("explicit profile values must be > 0")
    else:
        raise ConfigInvalid("noise_profile.kind must be linear/constant/explicit")


@dataclass(frozen=True)
class Scenario:
    grid: np.ndarray
    design: DesignMatrix
    coefficients: np.ndarray
    f_true: np.ndarray
    sigma: NoiseSpec


def generate_scenario(config: ExperimentConfig) -> Scenario:
    """Design, true response and noise covariance implied by the config."""
    config = config.validate()
    n, p = config.n, config.p_max
    if config.random_design:
        grid = np.sort(stream(config.seeds.data, 1).uniform(0.0, 1.0, size=n))
    else:
        grid = (np.arange(1, n + 1) - 0.5) / n

    basis = fourier_values(grid, p)
    design = DesignMatrix(basis / np.sqrt(n))

    rule = config.coefficient_rule
    if rule["kind"] == "paper4":
        gamma = stream(config.seeds.data, 0).standard_normal(p)
        damp = np.ones(p)
        for j in range(11, p + 1):
            damp[j - 1] = 1.0 / (j - 10) ** 2
        coeff = gamma * damp
    else:
        vals = np.asarray(rule["values"], dtype=float)
        coeff = np.zeros(p)
        coeff[: vals.shape[0]] = vals

    f_true = basis.T @ coeff

    profile = config.noise_profile
    if profile["kind"] == "linear":
        sd = profile["sigma_lo"] + (profile["sigma_hi"] - profile["sigma_lo"]) * grid
    elif profile["kind"] == "constant":
        sd = np.full(n, float(profile["sigma"]))
    else:
        sd = np.asarray(profile["values"], dtype=float)
    return Scenario(
        grid=grid, design=design, coefficients=coeff, f_true=f_true, sigma=NoiseSpec(sd**2)
    )


def scenario_family(config: ExperimentConfig, scenario: Scenario) -> ModelFamily:
    if config.weighting == "full_vector":
        weights = np.eye(scenario.design.p)
    elif config.weighting == "prediction":
        weights = scenario.design.entries.T
    else:
        weights = fourier_derivative_values(scenario.grid, config.p_max).T / np.sqrt(config.n)
    return build_projection_family(scenario.design, weights, config.models)


@dataclass(frozen=True)
class Study:
    """One run's set-up: the validated config, its scenario and family, and
    the one recipe for its data vectors, known-noise and multiplier tables."""

    config: ExperimentConfig
    scenario: Scenario
    family: ModelFamily

    @classmethod
    def of(cls, config: ExperimentConfig) -> "Study":
        config = config.validate()
        scenario = generate_scenario(config)
        return cls(config, scenario, scenario_family(config, scenario))

    def data(self, rep: int) -> np.ndarray:
        """The true response plus noise replicate ``rep`` of the noise seed."""
        sd = np.sqrt(self.scenario.sigma.variances)
        noise = stream(self.config.seeds.noise, rep).standard_normal(self.config.n) * sd
        return self.scenario.f_true + noise

    def known(self) -> CalibrationTable:
        """The table on the noise standard deviations, calibration seed."""
        sd = np.sqrt(self.scenario.sigma.variances)
        return self._calibrate(sd, self.config.seeds.calibration, 0)

    def multiplier(self, residuals, stream_tag: int = 0) -> CalibrationTable:
        """The table on a data vector's presmoothing ``residuals``
        (``presmooth``), bootstrap seed."""
        return self._calibrate(residuals, self.config.seeds.bootstrap, stream_tag)

    def _calibrate(self, scale, seed: int, stream_tag: int) -> CalibrationTable:
        c = self.config
        return calibrate(
            self.family, scale, c.n_sim, seed, c.x_level, c.alpha_plus, c.mode, c.power_a,
            stream_tag=stream_tag,
        )


@dataclass(frozen=True)
class ReplicateRecord:
    rep: int
    m_oracle: int
    m_sma_known: int
    m_sma_boot: int
    loss_oracle: float
    loss_known: float
    loss_boot: float


@dataclass(frozen=True)
class ComparisonResult:
    records: list[ReplicateRecord]
    oracle_report: OracleReport
    known_table: CalibrationTable


def replicate(
    study: Study, table_known: CalibrationTable, m_star: int, target: np.ndarray, rep: int
) -> ReplicateRecord:
    """Replicate ``rep`` of ``run_comparison`` (its whole body, so its ``partial``
    pickles and a profiler can call it in the main thread): the known-noise and
    multiplier selections on data vector ``rep``, and the loss against
    ``target`` of the oracle's ``m_star`` and of each selection."""
    family = study.family
    y = study.data(rep)
    stats = test_statistics(family, y)
    m_known = sma_select(stats, table_known, models=family.models).m_hat
    table_boot = study.multiplier(presmooth(family, y, study.config.m_dagger), stream_tag=rep)
    m_boot = sma_select(stats, table_boot, models=family.models).m_hat
    losses = np.sum((family.outputs(family.reduce(y)) - target) ** 2, axis=1)
    picks = (m_star, m_known, m_boot)
    return ReplicateRecord(rep, *picks, *(float(losses[family.models.index(m)]) for m in picks))


def run_comparison(config: ExperimentConfig) -> ComparisonResult:
    """Oracle vs known-noise vs residual-multiplier selection over replicates.

    The true response is fixed; each replicate draws fresh noise, reuses
    the shared known-noise table, and recalibrates the multiplier path on
    its own residuals.  Replicates are independent and run on a pool of
    ``config.n_workers`` threads; the output is the same for any count.
    """
    study = Study.of(config)
    config, scenario, family = study.config, study.scenario, study.family
    table_known = study.known()

    report = oracle(family, scenario.f_true, scenario.sigma, config.alpha_plus, mode=config.mode)
    report = payment_for_adaptation(family, scenario.sigma, report, table_known)
    target = family.weight_matrix @ best_linear_coefficients(family, scenario.f_true)
    body = partial(replicate, study, table_known, report.m_star, target)
    with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
        records = list(pool.map(body, range(config.n_hist)))
    return ComparisonResult(records=records, oracle_report=report, known_table=table_known)


@dataclass(frozen=True)
class RatioTable:
    ratios: dict[tuple[int, int], float]
    summary: dict[str, float]


def quantile_ratio_tables(config: ExperimentConfig, m_daggers) -> dict[int, RatioTable]:
    """Squared multiplier-to-known threshold ratios per pilot dimension on data vector 0."""
    study = Study.of(config)
    pairs = study.family.pairs()
    if not pairs:
        raise ConfigInvalid("threshold ratios need at least two models: the family has no pair")
    table_known = study.known()
    y = study.data(0)
    tables = {}
    for md in dict.fromkeys(int(m) for m in m_daggers):
        table_boot = study.multiplier(presmooth(study.family, y, md))
        ratios = {}
        for pair in pairs:
            z_known = table_known.threshold(*pair)
            z_boot = table_boot.threshold(*pair)
            if z_known <= 0:
                raise DimensionMismatch(f"known-noise threshold vanished for pair {pair}")
            ratios[pair] = (z_boot / z_known) ** 2
        vals = np.array(list(ratios.values()))
        tables[md] = RatioTable(
            ratios=ratios,
            summary={
                "min": float(vals.min()),
                "mean": float(vals.mean()),
                "max": float(vals.max()),
            },
        )
    return tables


def mdagger_sweep(config: ExperimentConfig, m_dagger_list) -> dict[int, dict]:
    """Rerun the multiplier path over pilot dimensions on data vector 0.

    Degenerate pilots surface their failure in the per-entry record rather
    than aborting the sweep.
    """
    study = Study.of(config)
    y = study.data(0)
    stats = test_statistics(study.family, y)
    out: dict[int, dict] = {}
    for md in m_dagger_list:
        md = int(md)
        try:
            table = study.multiplier(presmooth(study.family, y, md))
            out[md] = {"m_hat": sma_select(stats, table, models=study.family.models).m_hat}
        except AllZeroResiduals as exc:
            out[md] = {"error": "AllZeroResiduals", "detail": str(exc)}
    return out


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row with every cell through ``str``
    (for a float, its shortest round-trip text)."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def results_csv(records: list[ReplicateRecord]) -> str:
    return csv_text(
        "rep,m_oracle,m_sma_known,m_sma_boot,loss_oracle,loss_known,loss_boot",
        map(astuple, records),
    )


def ratios_csv(table: RatioTable) -> str:
    return csv_text("m,m_ref,ratio_sq", ((*pair, r) for pair, r in table.ratios.items()))


def sweep_csv(sweep: dict[int, dict]) -> str:
    return csv_text(
        "m_dagger,m_hat,error",
        ((md, sweep[md].get("m_hat", ""), sweep[md].get("error", "")) for md in sorted(sweep)),
    )


def meta_record(config: ExperimentConfig) -> dict:
    return {
        "config": config.to_dict(),
        "versions": {
            "smaselect": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
