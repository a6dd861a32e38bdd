"""Command-line front end.

Subcommands: ``calibrate``, ``select``, ``simulate``, ``sweep``, ``ratios``,
``diagnose``, ``bounds-check``.  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 property violation under ``--self-test`` or in
``bounds-check``, 5 non-finite input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import io
from .bootstrap import presmooth, validity_diagnostics
from .bounds import QFParams, qf_lower, qf_upper
from .calibration import propagation_failures
from .errors import (
    AllZeroResiduals,
    ConfigInvalid,
    NonFiniteInput,
    SingularGram,
    SmaError,
)
from .experiment import (
    ExperimentConfig,
    Study,
    csv_text,
    mdagger_sweep,
    meta_record,
    quantile_ratio_tables,
    ratios_csv,
    results_csv,
    run_comparison,
    sweep_csv,
)
from .rng import is_real, stream
from .selector import sma_select, test_statistics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_SELFTEST = 4
EXIT_NONFINITE = 5


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config: {exc}") from None
        cfg = ExperimentConfig.from_dict(raw)
    else:
        cfg = ExperimentConfig(n=200).validate()
    seeds = cfg.seeds
    for name in ("data", "noise", "calibration", "bootstrap"):
        val = getattr(args, f"seed_{name}")
        if val is not None:
            seeds = replace(seeds, **{name: int(val)})
    overrides = {"seeds": seeds}
    if args.mode:
        overrides["mode"] = {"prob": "probabilistic", "power": "power_loss"}[args.mode]
    if args.a is not None:
        overrides["power_a"] = float(args.a)
    if args.workers is not None:
        overrides["n_workers"] = int(args.workers)
    return replace(cfg, **overrides).validate()


def _m_dagger_list(args, cfg: ExperimentConfig) -> list[int]:
    """``--m-dagger-list`` as pilot sizes in ``1..p_max`` (empty when not given)."""
    try:
        sizes = [int(v) for v in args.m_dagger_list.split(",")] if args.m_dagger_list else []
        if all(1 <= md <= cfg.p_max for md in sizes):
            return sizes
    except ValueError:
        pass
    raise ConfigInvalid(
        f"--m-dagger-list needs comma-separated integers in 1..{cfg.p_max}, "
        f"got {args.m_dagger_list!r}"
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _calibrated(args, cfg: ExperimentConfig):
    """Study, data vector (``--data`` if given, else data vector 0), noise
    scale and its table for ``--noise``: the study's known noise standard
    deviations, or the residuals of the data off the pilot."""
    study = Study.of(cfg)
    if getattr(args, "data", None):
        try:
            entries = json.loads(Path(args.data).read_text())
            y = np.asarray(entries, dtype=float)
        except (OSError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigInvalid(f"cannot read data vector: {exc}") from None
        # Numeric text and booleans convert to floats, so each entry is checked.
        if y.shape != (cfg.n,) or not all(map(is_real, entries)):
            raise ConfigInvalid(f"data vector must be a list of n={cfg.n} numbers")
    else:
        y = study.data(0)
    if args.noise == "known":
        return study, y, np.sqrt(study.scenario.sigma.variances), study.known()
    residuals = presmooth(study.family, y, cfg.m_dagger)
    return study, y, residuals, study.multiplier(residuals)


def cmd_calibrate(args, cfg: ExperimentConfig) -> int:
    path = _outdir(args) / "calibration.json"
    study, _, scale, table = _calibrated(args, cfg)
    io.save_table(table, path)
    print(f"calibration table ({args.noise}, {table.mode}) -> {path}")
    if args.self_test:
        failures = propagation_failures(study.family, scale, io.load_table(path))
        if failures:
            for f in failures:
                print(f"self-test FAIL: {f}", file=sys.stderr)
            return EXIT_SELFTEST
        print("self-test ok: in-sample propagation holds for every reference")
    return EXIT_OK


def cmd_select(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args)
    study, y, _, table = _calibrated(args, cfg)
    result = sma_select(test_statistics(study.family, y), table, models=study.family.models)
    io.save_json(result.to_dict(), out / "selection.json")
    io.save_table(table, out / "calibration.json")
    print(f"selected model: {result.m_hat} -> {out / 'selection.json'}")
    return EXIT_OK


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args)
    result = run_comparison(cfg)
    report = result.oracle_report
    (out / "results.csv").write_text(results_csv(result.records))
    io.save_table(result.known_table, out / "calibration.json")
    io.save_json(
        {"m_star": report.m_star, "z_bar": report.z_bar, "z_bar_theory": report.z_bar_theory},
        out / "oracle.json",
    )
    known = [r.m_sma_known for r in result.records]
    boot = [r.m_sma_boot for r in result.records]
    print(
        f"{len(result.records)} replicates, m*={report.m_star}, "
        f"median m_hat known={sorted(known)[len(known) // 2]} "
        f"boot={sorted(boot)[len(boot) // 2]} -> {out / 'results.csv'}"
    )
    return EXIT_OK


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    md_list = _m_dagger_list(args, cfg) or sorted(
        md for md in {max(2, cfg.m_dagger // 2), cfg.m_dagger, max(cfg.models)} if md <= cfg.p_max
    )
    out = _outdir(args)
    sweep = mdagger_sweep(cfg, md_list)
    (out / "sweep.csv").write_text(sweep_csv(sweep))
    print(f"sweep over {md_list} -> {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_ratios(args, cfg: ExperimentConfig) -> int:
    md_list = _m_dagger_list(args, cfg)
    tables = quantile_ratio_tables(cfg, [cfg.m_dagger, *md_list])
    table = tables[cfg.m_dagger]
    out = _outdir(args)
    (out / "ratios.csv").write_text(ratios_csv(table))
    io.save_json({"summary": table.summary, "m_dagger": cfg.m_dagger}, out / "ratios_summary.json")
    if md_list:
        rows = ((md, *(tables[md].summary[k] for k in ("min", "mean", "max"))) for md in md_list)
        (out / "ratios_by_mdagger.csv").write_text(csv_text("m_dagger,min,mean,max", rows))
    print(
        f"threshold ratios: min={table.summary['min']:.3f} "
        f"mean={table.summary['mean']:.3f} max={table.summary['max']:.3f} "
        f"-> {out / 'ratios.csv'}"
    )
    return EXIT_OK


def cmd_diagnose(args, cfg: ExperimentConfig) -> int:
    if not args.validate:
        raise ConfigInvalid("diagnose uses oracle knowledge; pass --validate to confirm")
    out = _outdir(args)
    study = Study.of(cfg)
    diag = validity_diagnostics(
        study.family, study.scenario.sigma, study.scenario.f_true, cfg.m_dagger, cfg.x_level
    )
    io.save_json(diag.to_dict(), out / "diagnostics.json")
    print(
        f"applicability ratio {diag.applicability_ratio:.2f} "
        f"(asymptotic regime {'reached' if diag.asymptotic_regime_reached else 'NOT reached'}) "
        f"-> {out / 'diagnostics.json'}"
    )
    return EXIT_OK


BOUND_GRID_MATRICES = {
    "eye1": np.ones(1),
    "eye2": np.ones(2),
    "eye5": np.ones(5),
    "diag_1_05_01": np.array([1.0, 0.5, 0.1]),
}
BOUND_GRID_LEVELS = (0.5, 1.0, 2.0, 3.0)
BOUND_GRID_DRAWS = 100_000
BOUND_GRID_SEED = 90210


def bounds_check_grid() -> list[dict]:
    """MC falsification grid for the quadratic-form tail bounds."""
    rows = []
    for idx, (name, diag) in enumerate(sorted(BOUND_GRID_MATRICES.items())):
        gen = stream(BOUND_GRID_SEED, idx)
        z = gen.standard_normal((BOUND_GRID_DRAWS, diag.shape[0]))
        quad = (z**2 * diag).sum(axis=1)
        p_tr = float(diag.sum())
        v2 = float((diag**2).sum())
        lam = float(diag.max())
        for x in BOUND_GRID_LEVELS:
            slack = 3.0 * math.sqrt(math.exp(-x) / BOUND_GRID_DRAWS)
            hi = float(np.mean(quad > qf_upper(QFParams(p_tr, v2, lam, x))))
            lo = float(np.mean(quad < qf_lower(p_tr, v2, x)))
            rows.append(
                {
                    "matrix": name,
                    "x": x,
                    "upper_exceedance": hi,
                    "lower_exceedance": lo,
                    "budget": math.exp(-x) + slack,
                    "ok": hi <= math.exp(-x) + slack and lo <= math.exp(-x) + slack,
                }
            )
    return rows


def cmd_bounds_check(args) -> int:
    out = _outdir(args)
    rows = bounds_check_grid()
    io.save_json({"grid": rows}, out / "bounds.json")
    bad = [r for r in rows if not r["ok"]]
    if bad:
        for r in bad:
            print(f"bound violated: {r}", file=sys.stderr)
        return EXIT_SELFTEST
    print(f"{len(rows)} grid cells, no violations -> {out / 'bounds.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sma", description="Ordered model selection with calibrated thresholds"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A subcommand that loads a config takes every flag that resolves it: main
    # resolves the config, passes it to the subcommand and records it in meta.json.
    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="sma_out", help="output directory")
        p.add_argument("--seed-data", type=int, dest="seed_data")
        p.add_argument("--seed-noise", type=int, dest="seed_noise")
        p.add_argument("--seed-calibration", type=int, dest="seed_calibration")
        p.add_argument("--seed-bootstrap", type=int, dest="seed_bootstrap")
        p.add_argument("--mode", choices=("prob", "power"))
        p.add_argument("--a", type=float, help="power-loss exponent")
        p.add_argument("--workers", type=int, help="replicate workers (simulate)")

    p = sub.add_parser("calibrate", help="build a calibration table")
    common(p)
    p.add_argument("--noise", choices=("known", "bootstrap"), default="known")
    p.add_argument("--self-test", action="store_true", dest="self_test")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("select", help="run the selector on one data vector")
    common(p)
    p.add_argument("--noise", choices=("known", "bootstrap"), default="bootstrap")
    p.add_argument("--data", help="JSON file with the observation vector")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="replicate comparison study")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="pilot-dimension sensitivity sweep")
    common(p)
    p.add_argument("--m-dagger-list", dest="m_dagger_list", help="comma-separated pilot sizes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratios", help="multiplier vs known threshold ratios")
    common(p)
    p.add_argument(
        "--m-dagger-list",
        dest="m_dagger_list",
        help="also summarize ratios over these pilot sizes",
    )
    p.set_defaults(func=cmd_ratios)

    p = sub.add_parser("diagnose", help="multiplier validity diagnostics (needs --validate)")
    common(p)
    p.add_argument("--validate", action="store_true", help="allow oracle knowledge")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("bounds-check", help="MC falsification of the tail bounds")
    p.add_argument("--out", default="sma_out", help="output directory")
    p.set_defaults(func=cmd_bounds_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # A warning reads "<Category>: <message>", without the source line, and
        # shows once per text (pool threads issue it from another frame).
        say = cache(partial(print, file=sys.stderr))
        warnings.showwarning = lambda message, category, *_: say(f"{category.__name__}: {message}")
        try:
            if "config" not in vars(args):  # bounds-check reads no config
                return args.func(args)
            cfg = _load_config(args)
            rc = args.func(args, cfg)
            io.save_json(meta_record(cfg), _outdir(args) / "meta.json")
            return rc
        except ConfigInvalid as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (SingularGram, AllZeroResiduals) as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except NonFiniteInput as exc:
            print(f"non-finite input: {exc}", file=sys.stderr)
            return EXIT_NONFINITE
        except SmaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
