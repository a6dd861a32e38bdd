import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smaselect
from smaselect import cli
from smaselect.calibration import (
    CalibrationTable,
    critical_values,
    power_loss_critical_values,
    power_loss_params,
    propagation_failures,
    sample_joint_draws,
)
from smaselect.experiment import ExperimentConfig, Study
from smaselect.moments import all_pair_moments
from smaselect.io import load_table, save_table


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
    "content", ['["a", 1]', "[1, 2", None], ids=["non-numeric", "non-json", "missing"]
)
def test_unreadable_data_file_is_a_config_error(config_file, tmp_path, content):
    data = tmp_path / "y.json"
    if content is not None:
        data.write_text(content)
    src = Path(smaselect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smaselect.cli", "select", "--config", str(config_file),
         "--out", str(tmp_path / "o"), "--data", str(data)],
        capture_output=True, text=True, env=env, timeout=120,
    )
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


@pytest.mark.parametrize("noise", ["known", "bootstrap"])
def test_select_matches_rep_zero_of_simulate(config_file, tmp_path, noise):
    # One shared set-up: select's default data vector is simulate's first replicate.
    common = ["--config", str(config_file)]
    assert cli.main(["simulate", "--out", str(tmp_path / "sim"), *common]) == 0
    assert cli.main(["select", "--noise", noise, "--out", str(tmp_path / "sel"), *common]) == 0
    with open(tmp_path / "sim" / "results.csv") as fh:
        rep0 = next(csv.DictReader(fh))
    column = {"known": "m_sma_known", "bootstrap": "m_sma_boot"}[noise]
    selection = (tmp_path / "sel" / "selection.json").read_bytes()
    assert rep0["rep"] == "0" and json.loads(selection)["m_hat"] == int(rep0[column])
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
    src = Path(smaselect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smaselect.cli", command, "--config", str(config_file),
         "--out", str(tmp_path / "o"), "--m-dagger-list", "5,x"],
        capture_output=True, text=True, env=env, timeout=120,
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
    src = Path(smaselect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smaselect.cli", "simulate", "--config", str(bad),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_data_exits_with_its_own_code(config_file, tmp_path):
    data = tmp_path / "nan.json"
    values = list(np.linspace(-1, 1, 40))
    values[3] = float("nan")
    data.write_text(json.dumps(values))
    src = Path(smaselect.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smaselect.cli", "select", "--config", str(config_file),
         "--out", str(tmp_path / "o"), "--data", str(data)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NONFINITE == 5
    assert "non-finite input" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numeric_failure_exit_code(tmp_path):
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
    rc = cli.main(
        ["select", "--config", str(path), "--out", str(tmp_path / "o"), "--noise", "bootstrap"]
    )
    assert rc == 3


def test_propagation_selftest_flags_uncorrected_table(toy_family, toy_noise):
    draws = sample_joint_draws(toy_family, toy_noise, 20_000, seed=71)
    from smaselect.calibration import _quantile_at

    # Thresholds without any multiplicity correction: the union over the two
    # comparisons against the smallest model overshoots the target.
    critical = {
        pair: _quantile_at(draws.column(*pair), 2.0)[0] for pair in draws.order.index
    }
    bad = CalibrationTable(
        x_level=2.0,
        alpha_plus=0.0,
        corrections={1: 0.0, 2: 0.0},
        critical=critical,
        pair_dims={pair: 1.0 for pair in critical},
        mode="probabilistic",
    )
    failures = propagation_failures(draws, bad)
    assert failures and "reference 1" in failures[0]


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
        # Lower one saved threshold below its order statistic: the self-test
        # must read the saved value, not rebuild it from the draws.
        allowance = saved.alpha_plus * saved.pair_dims[(2, 1)] ** 0.5
        lowered = float(np.median(draws.column(2, 1))) + allowance
        saved = dataclasses.replace(saved, critical={**saved.critical, (2, 1): lowered})
        failures = propagation_failures(draws, saved)
        assert failures and flagged in failures[0]


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
