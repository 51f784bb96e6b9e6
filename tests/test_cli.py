import hashlib
import json
import os

import pytest

from gridstate import caseio
from gridstate.cli import main, prepare, run_trial


def test_powerflow_command(capsys):
    assert main(["powerflow"]) == 0
    out = capsys.readouterr().out
    assert "converged in" in out and "30" in out


def test_powerflow_missing_file(capsys):
    assert main(["powerflow", "--case", "/nonexistent/path.case"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_powerflow_bad_tolerance(capsys):
    assert main(["powerflow", "--tol", "0"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_powerflow_non_finite_tolerance_is_usage_error(capsys, value):
    # NaN used to pass the positivity check and end as "did not converge" (exit 2)
    assert main(["powerflow", "--tol", value]) == 1
    assert "--tol must be positive and finite" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    case = tmp_path / "infeasible.case"
    case.write_text(
        "BASEMVA 100\n"
        "BUS 1 slack 1.0 0.0 0 0 0 0\n"
        "BUS 2 load 1.0 0.0 -9.0 -3.0 0 0\n"
        "BRANCH 1 2 0.01 0.1 0.0 1.0 0.0\n"
    )
    assert main(["powerflow", "--case", str(case)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_log_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDSTATE_LOG", "DEBUG")
    assert main(["powerflow"]) == 0


def test_estimate_writes_deterministic_files(tmp_path, capsys):
    args = [
        "estimate", "--partition", "ieee30.areas", "--mode", "multiarea-robust",
        "--seed", "7", "--uncertainty", "0.05,0.05",
        "--out", str(tmp_path / "a"), "--format", "csv",
    ]
    assert main(args) == 0
    args2 = list(args)
    args2[args2.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    assert main(args2) == 0
    fa = (tmp_path / "a" / "estimate_multiarea-robust.csv").read_bytes()
    fb = (tmp_path / "b" / "estimate_multiarea-robust.csv").read_bytes()
    assert fa == fb
    assert b"bus" in fa


def test_estimate_json_output(tmp_path):
    assert main([
        "estimate", "--partition", "ieee30.areas", "--mode", "multiarea-wls",
        "--seed", "1", "--out", str(tmp_path), "--format", "json",
    ]) == 0
    data = json.loads((tmp_path / "estimate_multiarea-wls.json").read_text())
    assert len(data["rows"]) == 30
    assert data["manifest"]["seed"] == 1


def test_estimate_multiarea_needs_partition(tmp_path, capsys):
    # the bundled IEEE-30 case gets its bundled partition; any other case
    # has none unless a flag or the config names one
    case = tmp_path / "copy.case"
    case.write_text(caseio.bundled_text("ieee30.case") + "# a custom case\n")
    argv = ["estimate", "--case", str(case), "--mode", "multiarea-wls", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "multi-area modes need a partition" in capsys.readouterr().err


def test_bare_estimate_uses_the_bundled_partition(tmp_path):
    assert main(["estimate", "--trials", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "estimate_multiarea-robust.csv").exists()


def test_zero_uncertainty_modes_agree(tmp_path):
    base = ["estimate", "--partition", "ieee30.areas", "--seed", "3",
            "--uncertainty", "0,0", "--format", "json"]
    assert main(base + ["--mode", "multiarea-robust", "--out", str(tmp_path / "r")]) == 0
    assert main(base + ["--mode", "multiarea-wls", "--out", str(tmp_path / "w")]) == 0
    ra = json.loads((tmp_path / "r" / "estimate_multiarea-robust.json").read_text())
    wa = json.loads((tmp_path / "w" / "estimate_multiarea-wls.json").read_text())
    for row_r, row_w in zip(ra["rows"], wa["rows"]):
        assert row_r[:5] == pytest.approx(row_w[:5], abs=1e-10)


def test_compare_identical_configs_zero_difference(tmp_path, capsys):
    cfg = tmp_path / "same.cfg"
    cfg.write_text("partition = ieee30.areas\nmode = multiarea-wls\ntrials = 1\nseed = 5\n")
    assert main([
        "compare", "--config-a", str(cfg), "--config-b", str(cfg),
        "--out", str(tmp_path), "--format", "json",
    ]) == 0
    out = capsys.readouterr().out
    assert "win rate" in out and "not statistically meaningful" in out
    data = json.loads((tmp_path / "compare.json").read_text())
    for row in data["rows"]:
        assert row[1] == row[3] and row[2] == row[4]


def test_compare_robust_vs_wls(tmp_path, capsys):
    a = tmp_path / "robust.cfg"
    a.write_text("partition = ieee30.areas\nmode = multiarea-robust\ntrials = 3\nseed = 2\n"
                 "s0 = 0.05\ne0 = 0.05\n")
    b = tmp_path / "wls.cfg"
    b.write_text("partition = ieee30.areas\nmode = multiarea-wls\ntrials = 3\nseed = 2\n"
                 "s0 = 0.05\ne0 = 0.05\n")
    assert main([
        "compare", "--config-a", str(a), "--config-b", str(b), "--out", str(tmp_path),
    ]) == 0
    assert os.path.exists(tmp_path / "compare.csv")


def _config_hash(path):
    return json.loads(path.read_text())["manifest"]["config_sha256"]


def test_manifest_hashes_the_effective_config(tmp_path):
    empty = hashlib.sha256(b"").hexdigest()
    base = ["estimate", "--mode", "central-wls", "--seed", "3", "--format", "json"]
    for tag, unc in (("a", "0.05,0.05"), ("a2", "0.05,0.05"), ("b", "0.05,0.1")):
        assert main(base + ["--uncertainty", unc, "--out", str(tmp_path / tag)]) == 0
    est = {tag: _config_hash(tmp_path / tag / "estimate_central-wls.json") for tag in ("a", "a2", "b")}
    assert est["a"] == est["a2"] != est["b"]
    assert empty not in est.values()

    # config B's own plan file is hashed with the fixtures too
    plan = tmp_path / "b.plan"
    plan.write_text(caseio.bundled_text("ieee30.plan") + "INJ 12\n")
    a = tmp_path / "a.cfg"
    a.write_text("mode = central-wls\nseed = 5\n")
    b = tmp_path / "b.cfg"
    b.write_text(f"mode = central-robust\nseed = 5\nplan = {plan}\n")
    cmp = {}
    for tag, second in (("aa", a), ("ab", b)):
        argv = ["compare", "--config-a", str(a), "--config-b", str(second),
                "--out", str(tmp_path / tag), "--format", "json"]
        assert main(argv) == 0
        cmp[tag] = _config_hash(tmp_path / tag / "compare.json")
    assert cmp["aa"] != cmp["ab"]
    assert empty not in cmp.values()
    fixtures = json.loads((tmp_path / "ab" / "compare.json").read_text())["manifest"]["fixtures"]
    assert str(plan) in fixtures and "ieee30.plan" in fixtures


def test_compare_rejects_parallel_flag(capsys):
    # level 1's thread pool is an estimate-only option
    assert main(["compare", "--config-a", "a.cfg", "--config-b", "b.cfg", "--parallel"]) == 1
    assert "--parallel" in capsys.readouterr().err


def test_compare_rejects_zero_trials_before_any_work(tmp_path, capsys):
    # the config's own rule rejects the override, before any trial runs
    out = tmp_path / "out"
    argv = ["compare", "--config-a", "ieee30.cfg", "--config-b", "ieee30.cfg", "--trials", "0",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: trial count must be at least 1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--bogus"],
    ["estimate", "--mode", "central-magic"],
    # argparse reads a leading '-' as a flag, not as the value of --uncertainty
    ["estimate", "--uncertainty", "-0.1,0.05"],
], ids=["unknown-flag", "bad-mode", "negative-uncertainty"])
def test_argparse_rejections_are_usage_errors(tmp_path, capsys, argv):
    # exit 2 means numerical failure; a rejected command line is a usage error
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "--mode" in capsys.readouterr().out


def test_central_mode_without_partition(tmp_path):
    assert main([
        "estimate", "--mode", "central-wls", "--seed", "4", "--out", str(tmp_path),
    ]) == 0
    assert os.path.exists(tmp_path / "estimate_central-wls.csv")


def test_trials_validation(capsys):
    assert main(["estimate", "--mode", "central-wls", "--trials", "0"]) == 1


def test_bad_uncertainty_flag(capsys):
    assert main(["estimate", "--mode", "central-wls", "--uncertainty", "1"]) == 1


@pytest.mark.parametrize("flag, value, key", [
    ("--tol", "nan", "epsilon"),
    ("--tol", "inf", "epsilon"),
    ("--mu", "nan", "mu"),
    ("--mu", "inf", "mu"),
    ("--uncertainty", "nan,0.05", "s0"),
    ("--uncertainty", "0.05,inf", "e0"),
])
def test_non_finite_flags_are_usage_errors(tmp_path, capsys, flag, value, key):
    argv = ["estimate", "--config", "ieee30.cfg", flag, value, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["estimate", "--config", "ieee30.cfg", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("partition = ieee30.areas\nseed = -1\n")
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_parallel_flag_matches_sequential(tmp_path):
    base = ["estimate", "--partition", "ieee30.areas", "--mode", "multiarea-robust",
            "--seed", "9", "--uncertainty", "0.05,0.05", "--format", "csv"]
    assert main(base + ["--out", str(tmp_path / "seq")]) == 0
    assert main(base + ["--out", str(tmp_path / "par"), "--parallel"]) == 0
    fa = (tmp_path / "seq" / "estimate_multiarea-robust.csv").read_bytes()
    fb = (tmp_path / "par" / "estimate_multiarea-robust.csv").read_bytes()
    assert fa == fb


def test_prepare_and_run_trial_api(part30):
    exp = prepare(partition="ieee30.areas", overrides={"seed": 0, "s0": 0.0, "e0": 0.0})
    assert exp.part.area_count == 3
    res = run_trial(exp, 0, robust=False)
    assert len(res.bus_ids) == 30
    assert not exp.warnings


def test_mu_flag_switches_strategy():
    exp = prepare(overrides={})
    assert exp.cfg.lambda_strategy == "approx"
    from gridstate.cli import _cfg_overrides
    import argparse

    ns = argparse.Namespace(seed=None, trials=None, tol=None, mu=2.5,
                            lambda_exact=False, uncertainty=None)
    ov = _cfg_overrides(ns)
    assert ov == {"mu": 2.5, "lambda_strategy": "approx"}
    ns2 = argparse.Namespace(seed=None, trials=None, tol=None, mu=None,
                             lambda_exact=True, uncertainty="0.1,0.2")
    ov2 = _cfg_overrides(ns2)
    assert ov2["lambda_strategy"] == "exact"
    assert ov2["s0"] == 0.1 and ov2["e0"] == 0.2


def test_estimate_accepts_bundled_config_name(tmp_path, monkeypatch):
    from gridstate import cli
    from gridstate.caseio import default_config, load_ieee30_config

    seen = []
    run_mode = cli.run_mode

    def spy(exp, mode, parallel=False):
        seen.append(exp.cfg)
        return run_mode(exp, mode, parallel)

    monkeypatch.setattr(cli, "run_mode", spy)
    assert main(["estimate", "--config", "ieee30.cfg", "--out", str(tmp_path)]) == 0
    (cfg,) = seen
    assert (cfg.lambda_strategy, cfg.mu, cfg.s0) == ("approx", 100.0, 0.05)
    assert cfg == load_ieee30_config() and cfg.s0 != default_config().s0
    assert (tmp_path / "estimate_multiarea-robust.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_partition_without_boundary_skips_the_coordinator_line(tmp_path, capsys):
    # one area over the whole case has no boundary bus: a coordinator line
    # would print the mean of an empty slice (nan, with a RuntimeWarning)
    areas = tmp_path / "one.areas"
    areas.write_text("AREA 1 REF 4 : " + ",".join(map(str, range(1, 31))) + "\n")
    argv = ["estimate", "--partition", str(areas), "--mode", "multiarea-wls", "--trials", "1",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "area 1 internal" in out and "overall" in out
    assert "coordinator boundary" not in out and "nan" not in out
    assert (tmp_path / "out" / "estimate_multiarea-wls.csv").exists()


@pytest.mark.parametrize("command", [
    ["estimate", "--config", "ieee30.cfg"],
    ["compare", "--config-a", "ieee30.cfg", "--config-b", "ieee30.cfg"],
], ids=["estimate", "compare"])
def test_mu_and_lambda_exact_exclude_each_other(tmp_path, capsys, command):
    # either flag sets the lambda strategy; given both, one would be ignored
    out = tmp_path / "out"
    assert main(command + ["--mu", "2", "--lambda-exact", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not allowed with argument --mu" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["tse_cov_diagonal", "level2_reuse_boundary"])
def test_retired_config_keys_are_unknown(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"partition = ieee30.areas\n{key} = false\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"line 2: unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()
