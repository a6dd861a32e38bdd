import csv
import dataclasses
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smaselect
from smaselect import cli
from smaselect.calibration import (
    CalibrationTable,
    _tail_rank,
    critical_values,
    power_loss_critical_values,
    power_loss_params,
    propagation_failures,
    sample_joint_draws,
)
from smaselect.experiment import ExperimentConfig, Study
from smaselect.moments import all_pair_moments
from smaselect.io import load_table, save_table
from reference import column, tail_quantile

ROOT = Path(__file__).resolve().parents[1]


def _run_sma(*argv) -> subprocess.CompletedProcess:
    """``sma *argv`` in a fresh process on this checkout's sources."""
    src = Path(smaselect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "smaselect.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "n": 40,
        "p_max": 12,
        "models": [1, 2, 3, 4],
        "m_dagger": 4,
        "x_level": 2.0,
        "alpha_plus": 1.0,
        "n_sim": 300,
        "n_hist": 4,
        "noise_profile": {"kind": "constant", "sigma": 1.0},
        "coefficient_rule": {"kind": "explicit", "values": [1.0, 0.4]},
        "seeds": {"data": 5, "noise": 6, "calibration": 7, "bootstrap": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def one_model_config(tmp_path):
    path = tmp_path / "one_model.json"
    path.write_text(json.dumps(
        {"n": 60, "p_max": 20, "models": [5], "m_dagger": 5, "n_sim": 200, "n_hist": 3}
    ))
    return path


def test_calibrate_known_with_self_test(config_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        ["calibrate", "--config", str(config_file), "--out", str(out), "--self-test"]
    )
    assert rc == 0
    table = load_table(out / "calibration.json")
    assert table.mode == "probabilistic"
    assert (out / "meta.json").exists()


def test_calibrate_bootstrap(config_file, tmp_path):
    out = tmp_path / "out"
    argv = ["calibrate", "--config", str(config_file), "--out", str(out)]
    assert cli.main(argv + ["--noise", "bootstrap", "--self-test"]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert set(payload["pair_dims"]) == set(payload["critical"])


def test_select_with_data_file(config_file, tmp_path):
    data = tmp_path / "y.json"
    data.write_text(json.dumps(list(np.linspace(-1, 1, 40))))
    out = tmp_path / "out"
    rc = cli.main(
        ["select", "--config", str(config_file), "--out", str(out), "--data", str(data)]
    )
    assert rc == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["m_hat"] in (1, 2, 3, 4)
    assert set(sel["accepted"]) == {"1", "2", "3", "4"}


@pytest.mark.parametrize(
    "content",
    [
        '["a", 1]',
        "[1, 2",
        None,
        json.dumps([str(v) for v in np.linspace(-1, 1, 40).tolist()]),
        json.dumps((np.linspace(-1, 1, 40) > 0).tolist()),
        "[" + "1, " * 39 + "1" + "0" * 400 + "]",
    ],
    ids=["non-numeric", "non-json", "missing", "numeric-text", "boolean", "integer-overflow"],
)
def test_unreadable_data_file_is_a_config_error(config_file, tmp_path, content):
    # Numeric text and booleans would convert to floats; each entry must be a number.
    data = tmp_path / "y.json"
    if content is not None:
        data.write_text(content)
    proc = _run_sma("select", "--config", config_file, "--out", tmp_path / "o", "--data", data)
    assert proc.returncode == cli.EXIT_CONFIG == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_outputs_and_determinism(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert (
        cli.main(
            ["simulate", "--config", str(config_file), "--out", str(out2), "--workers", "8"]
        )
        == 0
    )
    csv1 = (out1 / "results.csv").read_bytes()
    csv2 = (out2 / "results.csv").read_bytes()
    assert csv1 == csv2
    assert csv1.splitlines()[0].startswith(b"rep,m_oracle,m_sma_known")
    assert len(csv1.splitlines()) == 5  # header + n_hist
    meta = json.loads((out1 / "meta.json").read_text())
    oracle = json.loads((out1 / "oracle.json").read_text())
    assert meta["config"]["n"] == 40 and set(oracle) == {"m_star", "z_bar", "z_bar_theory"}


def test_shared_output_directory_keeps_oracle_and_one_meta(config_file, tmp_path):
    # The paper script's order: simulate, ratios, sweep and diagnose into one --out.
    out = tmp_path / "out"
    common = ["--config", str(config_file), "--out", str(out)]
    metas = []
    for argv in (["simulate"], ["ratios"], ["sweep"], ["diagnose", "--validate"]):
        assert cli.main(argv + common) == 0
        metas.append((out / "meta.json").read_bytes())
    assert len(set(metas)) == 1
    m_star = json.loads((out / "oracle.json").read_text())["m_star"]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and {int(row.split(",")[1]) for row in rows} == {m_star}


def test_sweep_and_ratios(config_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        ["sweep", "--config", str(config_file), "--out", str(out), "--m-dagger-list", "2,4"]
    )
    assert rc == 0
    assert (out / "sweep.csv").read_text().startswith("m_dagger,m_hat,error")
    rc = cli.main(["ratios", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "ratios_summary.json").read_text())
    assert summary["summary"]["min"] <= summary["summary"]["max"]


@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--noise", "bootstrap", "--self-test"],
     ["sweep", "--m-dagger-list", "2,4"], ["ratios", "--m-dagger-list", "2,4"]],
    ids=["calibrate-bootstrap", "sweep", "ratios"],
)
def test_worker_count_leaves_table_commands_unchanged(config_file, tmp_path, argv):
    # Only simulate's replicates take workers; a table over three row blocks
    # is the same at any count, and meta.json merely records the count.
    cfg = json.loads(config_file.read_text()) | {"n_sim": 1100}
    config_file.write_text(json.dumps(cfg))
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert cli.main([*argv, "--config", str(config_file), "--out", str(out),
                         "--workers", workers]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["n_workers"] == int(workers)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "meta.json"})
    assert outputs[0] == outputs[1] and len(outputs[0]) >= 1


@pytest.mark.parametrize("noise", ["known", "bootstrap"])
def test_select_matches_rep_zero_of_simulate(config_file, tmp_path, noise):
    # One shared set-up: select's default data vector is simulate's first replicate.
    common = ["--config", str(config_file)]
    assert cli.main(["simulate", "--out", str(tmp_path / "sim"), *common]) == 0
    assert cli.main(["select", "--noise", noise, "--out", str(tmp_path / "sel"), *common]) == 0
    with open(tmp_path / "sim" / "results.csv") as fh:
        rep0 = next(csv.DictReader(fh))
    field = {"known": "m_sma_known", "bootstrap": "m_sma_boot"}[noise]
    selection = (tmp_path / "sel" / "selection.json").read_bytes()
    assert rep0["rep"] == "0" and json.loads(selection)["m_hat"] == int(rep0[field])
    # The selection (statistics included) is that of data vector 0 passed as --data.
    study = Study.of(ExperimentConfig.from_dict(json.loads(config_file.read_text())))
    data = tmp_path / "y0.json"
    data.write_text(json.dumps(study.data(0).tolist()))
    argv = ["select", "--noise", noise, "--out", str(tmp_path / "sel0"), "--data", str(data)]
    assert cli.main(argv + common) == 0
    assert (tmp_path / "sel0" / "selection.json").read_bytes() == selection


@pytest.mark.parametrize(
    "argv",
    [["select", "--noise", "known"], ["select", "--noise", "bootstrap"],
     ["sweep", "--m-dagger-list", "3,5"]],
    ids=["select-known", "select-bootstrap", "sweep"],
)
def test_one_model_config_selects_its_model(one_model_config, tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(one_model_config), "--out", str(out)]) == 0
    if argv[0] == "select":
        assert json.loads((out / "selection.json").read_text())["m_hat"] == 5
    else:
        assert (out / "sweep.csv").read_text().splitlines()[1:] == ["3,5,", "5,5,"]


def test_ratios_on_a_family_without_pairs_is_a_config_error(one_model_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["ratios", "--config", str(one_model_config), "--out", str(out)]) == 2
    assert not (out / "ratios.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "ratios"])
def test_non_integer_m_dagger_list_is_a_config_error(config_file, tmp_path, command):
    proc = _run_sma(
        command, "--config", config_file, "--out", tmp_path / "o", "--m-dagger-list", "5,x"
    )
    assert proc.returncode == cli.EXIT_CONFIG == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_diagnose_requires_validate(config_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["diagnose", "--config", str(config_file), "--out", str(out)]) == 2
    rc = cli.main(["diagnose", "--config", str(config_file), "--out", str(out), "--validate"])
    assert rc == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["applicability_ratio"] > 0


@pytest.mark.parametrize(
    "argv", [["bounds-check", "--workers", "2"], ["simulate", "--validate"]],
    ids=["bounds-check-workers", "simulate-validate"],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_bounds_check_ok(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["bounds-check", "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert len(payload["grid"]) == 16
    assert all(row["ok"] for row in payload["grid"])


def test_bounds_check_violation_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli,
        "bounds_check_grid",
        lambda: [{"matrix": "eye1", "x": 1.0, "upper_exceedance": 1.0, "lower_exceedance": 0.0, "budget": 0.4, "ok": False}],
    )
    assert cli.main(["bounds-check", "--out", str(tmp_path / "o")]) == 4


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 40, "models": [1, 2], "m_dagger": 9, "p_max": 12}))
    assert cli.main(["calibrate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    assert cli.main(["calibrate", "--config", str(notjson), "--out", str(tmp_path / "o")]) == 2


def test_ill_typed_config_exits_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 40, "noise_profile": {"kind": "constant", "sigma": "x"}}))
    proc = _run_sma("simulate", "--config", bad, "--out", tmp_path / "o")
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_data_exits_with_its_own_code(config_file, tmp_path):
    data = tmp_path / "nan.json"
    values = list(np.linspace(-1, 1, 40))
    values[3] = float("nan")
    data.write_text(json.dumps(values))
    proc = _run_sma("select", "--config", config_file, "--out", tmp_path / "o", "--data", data)
    assert proc.returncode == cli.EXIT_NONFINITE == 5
    assert "non-finite input" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "change",
    [
        {"noise_profile": {"kind": "constant", "sigma": 1e-150}},
        {"coefficient_rule": {"kind": "explicit", "values": [1e300, 1e300]}},
        {"x_level": 1e308},
    ],
    ids=["tiny-noise", "huge-coefficients", "huge-level"],
)
def test_diagnose_refuses_a_term_out_of_float_range(tmp_path, change):
    # The first two overflowed in a power (a raw OverflowError); the third
    # wrote Infinity into diagnostics.json and exited 0.
    cfg = {"n": 40, "p_max": 12, "models": [1, 2, 3, 4, 5, 6], "m_dagger": 5, "n_sim": 200, "n_hist": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg | change))
    proc = _run_sma("diagnose", "--validate", "--config", path, "--out", tmp_path / "o")
    assert proc.returncode == cli.EXIT_NONFINITE == 5
    assert "non-finite input: validity term" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o" / "diagnostics.json").exists()


def test_numeric_failure_exit_code(tmp_path, capsys):
    cfg = {
        "n": 30,
        "p_max": 8,
        "models": [1, 2, 3],
        "m_dagger": 3,
        "n_sim": 100,
        "n_hist": 1,
        "noise_profile": {"kind": "explicit", "values": [1e-13] * 30},
        "coefficient_rule": {"kind": "explicit", "values": [1.0]},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg))
    # simulate meets the failure in its replicate pool, at one worker and at two.
    runs = [["select", "--noise", "bootstrap"]] + [
        ["simulate", "--workers", workers] for workers in ("1", "2")
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        capsys.readouterr()
        assert cli.main([*argv, "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert "numeric failure: presmoothing left no residual signal" in err, (argv, err)
        assert not (out / "results.csv").exists()


def test_propagation_selftest_flags_uncorrected_table(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 20_000, seed=71)
    # Thresholds without any multiplicity correction: the union over the two
    # comparisons against the smallest model overshoots the target.
    critical = {pair: tail_quantile(draws, *pair, 2.0) for pair in draws.order.index}
    k = _tail_rank(2.0, draws.n_sim)
    bad = CalibrationTable(
        x_level=2.0,
        alpha_plus=0.0,
        ranks={1: k, 2: k},
        critical=critical,
        pair_dims={pair: 1.0 for pair in critical},
        mode="probabilistic",
        n_sim=draws.n_sim,
    )
    # Reference 1's corrected rank lies above the rank of x; one rank below
    # it, with the thresholds rebuilt to match, already overshoots.
    k_1 = critical_values(draws, all_pair_moments(toy_family, toy_noise), 2.0).ranks[1]
    assert k_1 - 1 > k
    below = {pair: float(np.sort(column(draws, *pair))[k_1 - 2]) for pair in [(2, 1), (3, 1)]}
    one_below = dataclasses.replace(
        bad, ranks={1: k_1 - 1, 2: k}, critical={**bad.critical, **below}
    )
    for table in (bad, one_below):
        failures = propagation_failures(draws, table)
        assert failures == [failures[0]] and failures[0].startswith("reference 1: exceedance")


def test_propagation_selftest_checks_saved_thresholds(toy_family, toy_noise, tmp_path):
    draws = sample_joint_draws(toy_family, toy_noise, 20_000, seed=73)
    moments = all_pair_moments(toy_family, toy_noise)
    params = power_loss_params([1, 2, 3], {1: 1.0, 2: 2.0, 3: 3.0}, a=1.0)
    tables = {
        "reference 1": critical_values(draws, moments, x_level=2.0, alpha_plus=1.0),
        "pair (2, 1)": power_loss_critical_values(draws, moments, params, alpha_plus=1.0),
    }
    for flagged, table in tables.items():
        save_table(table, tmp_path / "calibration.json")
        saved = load_table(tmp_path / "calibration.json")
        assert propagation_failures(draws, saved) == []
        # Move one saved threshold off its order statistic, to the median or
        # by one ulp either way: the self-test must read the saved value, not
        # rebuild it from the draws, and compare it bit for bit.
        allowance = saved.alpha_plus * saved.pair_dims[(2, 1)] ** 0.5
        threshold = saved.critical[(2, 1)]
        moved = [
            float(np.median(column(draws, 2, 1))) + allowance,
            math.nextafter(threshold, math.inf),
            math.nextafter(threshold, -math.inf),
        ]
        mutants = [dataclasses.replace(saved, critical={**saved.critical, (2, 1): value})
                   for value in moved]
        # A rank moved while its thresholds stay disagrees with them.
        mutants.append(dataclasses.replace(saved, ranks={**saved.ranks, 1: saved.ranks[1] + 1}))
        for mutant in mutants:
            failures = propagation_failures(draws, mutant)
            assert failures and flagged in failures[0] and "pair (2, 1)" in failures[0]
            assert all("is not" in f and "reference 1's" in f for f in failures)
        # Reference 1's rank raised by one with its thresholds rebuilt there:
        # every threshold and exceedance holds, but the rank is not the one
        # the builder takes (not the smallest that meets the level, not the
        # rank of the reference's own level).
        k = saved.ranks[1] + 1
        rebuilt = {
            pair: float(np.sort(column(draws, *pair))[k - 1])
            + saved.alpha_plus * math.sqrt(saved.pair_dims[pair])
            for pair in draws.comparisons(1)
        }
        raised = dataclasses.replace(
            saved, ranks={**saved.ranks, 1: k}, critical={**saved.critical, **rebuilt}
        )
        failures = propagation_failures(draws, raised)
        assert len(failures) == 1 and failures[0].startswith(f"reference 1's rank {k} is not")


def test_seed_override_changes_output(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", str(config_file), "--out", str(out1)])
    cli.main(
        ["simulate", "--config", str(config_file), "--out", str(out2), "--seed-noise", "999"]
    )
    assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()


def test_calibrate_power_mode_with_self_test(config_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "calibrate",
            "--config",
            str(config_file),
            "--out",
            str(out),
            "--mode",
            "power",
            "--a",
            "1.0",
            "--self-test",
        ]
    )
    assert rc == 0
    table = load_table(out / "calibration.json")
    assert table.mode == "power_loss"
    assert table.power_a == 1.0
    assert table.per_model_levels is not None


def test_a_warning_prints_as_category_and_message(tmp_path):
    # Level 8 asks past log(n_sim) = log(400) on the quick config, so the
    # table clips pairs to the maximum draw and warns once.
    quick = runpy.run_path(str(ROOT / "scripts" / "run_paper_sim.py"))["QUICK"]
    config = tmp_path / "quick-level-8.json"
    config.write_text(json.dumps(dict(quick, x_level=8)))
    proc = _run_sma("calibrate", "--noise", "known", "--config", config, "--out", tmp_path / "o")
    assert proc.returncode == 0
    assert proc.stderr.startswith("TailTooDeepWarning: ")
    assert "pair(s) clipped to the maximum draw" in proc.stderr
    assert ".py:" not in proc.stderr


def test_ratios_pilot_sweep_summary(config_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "ratios",
            "--config",
            str(config_file),
            "--out",
            str(out),
            "--m-dagger-list",
            "2,4",
        ]
    )
    assert rc == 0
    text = (out / "ratios_by_mdagger.csv").read_text()
    assert text.startswith("m_dagger,min,mean,max")
    assert len(text.strip().splitlines()) == 3
