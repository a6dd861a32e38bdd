"""The benchmark's workloads, composed from smaselect's public calls.

Each workload is a fixed scenario plus a closed loop with one caller:
set-up builds everything the data vectors share, then each data vector
``y = f_true + noise`` is selected on before the next one starts.  Every
call into a library layer goes through ``call(name, fn, *args)``; the
untraced run passes ``plain`` and the traced run a span recorder, so both
run the same composition.

Noise vector ``k`` of workload seed ``s`` is ``stream(s, k)`` scaled by the
noise standard deviations, and its multiplier calibration uses stream tag
``k``: at ``s = config.seeds.noise`` the loop is exactly the replicate body
of ``run_comparison`` (``self_check_faults`` proves it on a small config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from smaselect import (
    CalibrationTable,
    ModelFamily,
    OracleReport,
    bootstrap_calibrate,
    critical_values,
    familywise_exceedance,
    oracle,
    payment_for_adaptation,
    power_loss_critical_values,
    power_loss_params,
    presmooth,
    sample_joint_draws,
    sma_select,
    test_statistics,
)
from smaselect.calibration import JointDrawMatrix
from smaselect.experiment import (
    ExperimentConfig,
    Scenario,
    Seeds,
    generate_scenario,
    run_comparison,
    scenario_family,
)
from smaselect.moments import all_pair_moments, single_variance
from smaselect.rng import stream

# Thresholds may drift by float reordering (a different but exact kernel);
# a changed order statistic moves them by far more than this.
THRESHOLD_RTOL = 1e-6

# Rounding allowance of the in-sample propagation check, in ulps of the
# critical value (see propagation_faults).
TAIL_ULPS = 4

# Bootstrap tables of this many leading vectors are stored in the reference.
REFERENCE_TABLES = 3

# The paper's simulation study (scripts/run_paper_sim.py, FULL).
PAPER = ExperimentConfig(
    n=200,
    p_max=200,
    models=tuple(range(1, 38)),
    m_dagger=20,
    x_level=2.0,
    alpha_plus=1.0,
    n_sim=1000,
    n_hist=100,
    noise_profile={"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0},
    weighting="prediction",
    seeds=Seeds(data=1001, noise=2002, calibration=3003, bootstrap=4004),
).validate()

# scripts/run_derivative_demo.py, in power-loss mode.  Model 1 has zero
# derivative variance, which power_loss_params rejects, so models start at 2.
DERIVATIVE = ExperimentConfig(
    n=150,
    p_max=60,
    models=tuple(range(2, 16)),
    m_dagger=12,
    x_level=2.0,
    alpha_plus=1.0,
    n_sim=1000,
    n_hist=30,
    noise_profile={"kind": "linear", "sigma_lo": 0.25, "sigma_hi": 1.0},
    weighting="derivative",
    mode="power_loss",
    power_a=1.0,
    n_workers=2,
    seeds=Seeds(data=5151, noise=6161, calibration=7171, bootstrap=8181),
).validate()


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    small: ExperimentConfig  # the same pipeline at desk scale, for the self-check
    multiplier: bool  # each vector also recalibrates on its own residuals
    oracle: bool  # set-up also computes the oracle and its payment
    pool: int  # noise vectors drawn before timing; the loop cycles through them
    trace_vectors: int  # fixed length of a traced loop, so its counts repeat

    @property
    def default_seed(self) -> int:
        return self.config.seeds.noise


# Desk-scale paper config for the self-check.
PAPER_SMALL = replace(
    PAPER, n=80, p_max=40, models=tuple(range(1, 13)), m_dagger=8, n_sim=300, n_hist=4
).validate()

# Desk-scale derivative config for the self-check; n_sim gives two blocks.
DERIVATIVE_SMALL = replace(
    DERIVATIVE, n=80, p_max=30, models=tuple(range(2, 9)), m_dagger=6, n_sim=600, n_hist=4
).validate()

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-study",
            config=PAPER,
            small=PAPER_SMALL,
            multiplier=True,
            oracle=True,
            pool=128,
            trace_vectors=24,
        ),
        Workload(
            name="known-screen",
            config=PAPER,
            small=PAPER_SMALL,
            multiplier=False,
            oracle=False,
            pool=4096,
            trace_vectors=1000,
        ),
        Workload(
            name="derivative-power-2w",
            config=DERIVATIVE,
            small=DERIVATIVE_SMALL,
            multiplier=True,
            oracle=True,
            pool=256,
            trace_vectors=120,
        ),
    )
}


def plain(name, fn, *args, **kwargs):
    """Untraced layer call."""
    return fn(*args, **kwargs)


@dataclass
class Ready:
    """Everything set-up builds: shared by every data vector."""

    scenario: Scenario
    family: ModelFamily
    draws: JointDrawMatrix
    table: CalibrationTable
    report: OracleReport | None


@dataclass(frozen=True)
class Outcome:
    statistics: dict[tuple[int, int], float]
    m_known: int
    m_boot: int | None = None
    boot_table: CalibrationTable | None = None


def _single_dims(family, sigma) -> dict[int, float]:
    return {m: single_variance(family, sigma, m).p_pair for m in family.models}


def _power_loss_table(family, draws, moments, dims, config) -> CalibrationTable:
    params = power_loss_params(family.models, dims, config.power_a)
    return power_loss_critical_values(draws, moments, params, config.alpha_plus)


def set_up(w: Workload, call=plain) -> Ready:
    """From config to ready for the first data vector (``known_noise_table``
    plus, where the workload reports it, the oracle and its payment)."""
    c = w.config
    scenario = call("experiment.generate_scenario", generate_scenario, c)
    family = call("family.build", scenario_family, c, scenario)
    draws = call(
        "calibration.sample_joint_draws", sample_joint_draws,
        family, scenario.sigma, c.n_sim, c.seeds.calibration, n_workers=c.n_workers,
    )
    moments = call("moments.all_pair_moments", all_pair_moments, family, scenario.sigma)
    if c.mode == "power_loss":
        dims = call("moments.single_variance", _single_dims, family, scenario.sigma)
        table = call(
            "calibration.table", _power_loss_table, family, draws, moments, dims, c
        )
    else:
        table = call(
            "calibration.table", critical_values, draws, moments, c.x_level, c.alpha_plus
        )
    report = None
    if w.oracle:
        report = call(
            "selector.oracle", oracle,
            family, scenario.f_true, scenario.sigma, c.alpha_plus, mode=c.mode,
        )
        report = call(
            "selector.payment", payment_for_adaptation, family, scenario.sigma, report, table
        )
    return Ready(scenario, family, draws, table, report)


def data_vectors(scenario: Scenario, seed: int, count: int) -> np.ndarray:
    """Rows ``f_true + noise_k`` for ``k < count``, as ``run_comparison`` builds them."""
    sd = np.sqrt(scenario.sigma.variances)
    n = scenario.grid.shape[0]
    return np.stack(
        [scenario.f_true + stream(seed, k).standard_normal(n) * sd for k in range(count)]
    )


def select(w: Workload, ready: Ready, y: np.ndarray, tag: int, call=plain) -> Outcome:
    """One data vector: known-noise selection, then (if the workload
    recalibrates) presmoothing, multiplier calibration and a second selection."""
    c, family = w.config, ready.family
    stats = call("selector.test_statistics", test_statistics, family, y)
    m_known = call(
        "selector.sma_select", sma_select, stats, ready.table, models=family.models
    ).m_hat
    if not w.multiplier:
        return Outcome(stats, m_known)
    resid = call("bootstrap.presmooth", presmooth, family, y, c.m_dagger)
    boot = call(
        "bootstrap.calibrate", bootstrap_calibrate,
        family, resid, c.x_level, c.alpha_plus, c.n_sim, c.seeds.bootstrap,
        n_workers=c.n_workers, mode=c.mode, power_a=c.power_a, stream_tag=tag,
    )
    m_boot = call("selector.sma_select", sma_select, stats, boot, models=family.models).m_hat
    return Outcome(stats, m_known, m_boot, boot)


def thresholds(family: ModelFamily, table: CalibrationTable) -> list[float]:
    return [table.threshold(*pair) for pair in family.pairs()]


def vector_faults(ready: Ready, out: Outcome) -> list[str]:
    """Structural checks every vector must pass, at any seed."""
    faults = []
    if not np.all(np.isfinite(np.fromiter(out.statistics.values(), float))):
        faults.append("non-finite test statistic")
    if out.boot_table is not None and not np.all(
        np.isfinite(thresholds(ready.family, out.boot_table))
    ):
        faults.append("non-finite multiplier threshold")
    for m in (out.m_known, out.m_boot):
        if m is not None and m not in ready.family.models:
            faults.append(f"selected index {m} outside the model list")
    return faults


def _close(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and bool(
        np.allclose(got, want, rtol=THRESHOLD_RTOL, atol=0.0)
    )


def reference_record(w: Workload, ready: Ready, outcomes: list[Outcome]) -> dict:
    """What ``reference_faults`` compares against, for the whole pool."""
    return {
        "workload": w.name,
        "seed": w.default_seed,
        "threshold_rtol": THRESHOLD_RTOL,
        "m_star": ready.report.m_star if ready.report else None,
        "known_thresholds": thresholds(ready.family, ready.table),
        "m_known": [o.m_known for o in outcomes],
        "m_boot": [o.m_boot for o in outcomes],
        "boot_thresholds": [
            thresholds(ready.family, o.boot_table)
            for o in outcomes[:REFERENCE_TABLES]
            if o.boot_table is not None
        ],
    }


def setup_reference_faults(ready: Ready, ref: dict) -> list[str]:
    faults = []
    if ready.report is not None and ready.report.m_star != ref["m_star"]:
        faults.append(f"oracle index {ready.report.m_star} != reference {ref['m_star']}")
    if not _close(thresholds(ready.family, ready.table), ref["known_thresholds"]):
        faults.append("known-noise thresholds differ from the reference")
    return faults


def reference_faults(ready: Ready, ref: dict, k: int, out: Outcome) -> list[str]:
    """Compare vector ``k`` of the pool with the reference of the default seed."""
    faults = []
    if out.m_known != ref["m_known"][k]:
        faults.append(f"vector {k}: known-noise index {out.m_known} != {ref['m_known'][k]}")
    if out.m_boot != ref["m_boot"][k]:
        faults.append(f"vector {k}: multiplier index {out.m_boot} != {ref['m_boot'][k]}")
    if k < len(ref["boot_thresholds"]) and not _close(
        thresholds(ready.family, out.boot_table), ref["boot_thresholds"][k]
    ):
        faults.append(f"vector {k}: multiplier thresholds differ from the reference")
    return faults


def propagation_faults(ready: Ready) -> list[str]:
    """In-sample propagation of the known-noise table.

    The tail value of each pair is its critical value minus the bias
    allowance.  In probabilistic mode the family-wise exceedance of every
    reference stays at or below ``e^-x``; in power-loss mode each pair
    stays at or below ``e^-x_ref`` of its own reference.  Adding and then
    subtracting the allowance can round the tail value a few ulps below the
    order statistic it came from, which would count that draw as strictly
    exceeding; ``TAIL_ULPS`` ulps of the critical value absorb the rounding.
    """
    table, draws = ready.table, ready.draws
    faults = []
    for m_ref in draws.references():
        pairs = draws.comparisons(m_ref)
        tails = {}
        for p in pairs:
            crit = table.critical[p]
            allowance = table.alpha_plus * math.sqrt(table.pair_dims[p])
            tails[p] = crit - allowance + TAIL_ULPS * float(np.spacing(crit))
        if table.mode == "probabilistic":
            groups, level = [(draws, pairs)], table.x_level
        else:
            groups = [(draws.restricted([p]), [p]) for p in pairs]
            level = table.per_model_levels[m_ref]
        for sub, group in groups:
            exceed = familywise_exceedance(sub, m_ref, tails)
            if exceed > math.exp(-level):
                faults.append(
                    f"reference {m_ref}, pairs {group[0]}..: exceedance "
                    f"{exceed:.4f} > e^-{level:.4f}"
                )
    return faults


def self_check_faults(w: Workload) -> list[str]:
    """The composed loop reproduces ``run_comparison`` on the small config."""
    small = replace(w, config=w.small)
    result = run_comparison(w.small)
    ready = set_up(small)
    faults = []
    if thresholds(ready.family, ready.table) != thresholds(ready.family, result.known_table):
        faults.append("self-check: known-noise table differs from run_comparison")
    if ready.report is not None and ready.report.m_star != result.oracle_report.m_star:
        faults.append("self-check: oracle index differs from run_comparison")
    ys = data_vectors(ready.scenario, w.small.seeds.noise, w.small.n_hist)
    for rec in result.records:
        out = select(small, ready, ys[rec.rep], rec.rep)
        want = (rec.m_sma_known, rec.m_sma_boot if w.multiplier else None)
        if (out.m_known, out.m_boot) != want:
            faults.append(
                f"self-check rep {rec.rep}: selected {(out.m_known, out.m_boot)}, "
                f"run_comparison {want}"
            )
    return faults
