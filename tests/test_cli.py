import json

import pytest

from gapforge.cli import (
    CONFIG_ERROR,
    VERIFICATION_FAILURE,
    ExperimentConfig,
    main,
)


def test_gap_prints_exact_value(capsys):
    code = main(["gap", "--model", "star", "--m", "0", "--gamma", "1",
                 "--N", "3", "--topology", "long-range",
                 "--method", "galerkin", "--degree", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out.splitlines()[0]) - 4.0 / 9.0) < 1e-8


def test_path_command(capsys):
    assert main(["path", "--i", "1", "--j", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1 2 3 1 2 3"


def test_two_site_command(capsys):
    assert main(["two-site", "--model", "stick", "--m", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.0) < 1e-6


def test_unknown_model_is_config_error():
    assert main(["gap", "--model", "star", "--method", "bogus"]) == CONFIG_ERROR


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "schema": 1, "model": "star", "m": 0.0, "gamma": 1.0,
        "energy": 1.0, "sites": 2, "topology": "nearest",
        "method": "galerkin", "degree": 3,
    }))
    assert main(["gap", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.0) < 1e-8


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema": 1, "model": "star", "frobnicate": 3}))
    assert main(["gap", "--config", str(cfg)]) == CONFIG_ERROR


def test_config_requires_schema(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "star"}))
    assert main(["gap", "--config", str(cfg)]) == CONFIG_ERROR


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema": 1, "model": "star", "sites": 2,
                               "topology": "long-range", "degree": 3}))
    assert main(["gap", "--config", str(cfg), "--N", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 4.0 / 9.0) < 1e-8  # N = 3 from the flag wins


def test_sweep_csv_bit_stable(tmp_path, capsys):
    args = ["sweep", "--model", "star", "--m", "0", "--gamma", "1",
            "--topology", "long-range", "--method", "galerkin", "--degree", "3",
            "--sites-grid", "2,3", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "model,m,gamma,E,N,topology,method,degree_or_budget,gap,err,seed"


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--model", "kmp", "--N", "3",
                 "--topology", "nearest", "--budget", "2000",
                 "--sample-dt", "0.1", "--seed", "3", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "time,x_1,x_2,x_3"
    assert len(lines) > 10


def test_kappa_command_reports_bracket(capsys):
    assert main(["kappa", "--m", "1", "--gamma", "1", "--degree", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kappa"] > rep["kappa_tilde"]
    assert rep["lower_exceeds_one_third"] is True
    assert rep["bracket_consistent"] is False  # honest inversion report


def test_kappa_command_uses_the_model(capsys):
    # kappa is a star-family constant: kmp is the star m = 0, gamma = 1 kernel
    assert main(["kappa", "--degree", "2"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["kappa", "--model", "kmp", "--degree", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == default
    assert main(["kappa", "--model", "gg3", "--degree", "2"]) == CONFIG_ERROR
    assert "star family" in capsys.readouterr().err


def test_verify_appendix_reports_failures(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "appendix", "--n-max", "200",
                 "--out", str(out)])
    capsys.readouterr()
    # the kappa-tilde bracket checks fail (certificate inversion), so the
    # suite exits with the verification-failure code
    assert code == VERIFICATION_FAILURE
    rep = json.loads(out.read_text())
    bad = [c for c in rep["checks"] if not c.get("pass", True)]
    assert bad and all(c["claim"] == "kappa-tilde-bracket" for c in bad)


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("GAPFORGE_SEED", "42")
    from gapforge.cli import master_seed

    assert master_seed(ExperimentConfig()) == 42
    assert master_seed(ExperimentConfig(seed=7)) == 7


def test_unset_parameters_take_the_kernel_values(tmp_path, capsys):
    # gg3 is reversible for gamma = 3/2, so its law must be built with it
    base = ["gap", "--model", "gg3", "--N", "3", "--topology", "nearest", "--degree", "4"]
    out = tmp_path / "gg3.csv"
    assert main(base + ["--out", str(out)]) == 0
    unset = float(capsys.readouterr().out.strip())
    assert main(base + ["--gamma", "1.5"]) == 0
    given = float(capsys.readouterr().out.strip())
    assert unset == given
    assert abs(unset - 0.45746033116594242) < 1e-8
    row = out.read_text().splitlines()[1].split(",")
    assert row[:3] == ["gg3", "0.5", "1.5"]  # the kernel's (m, gamma), not the flags'


@pytest.mark.parametrize("flags", [
    ["--model", "gg3", "--gamma", "1"],
    ["--model", "gg2", "--gamma", "2"],
    ["--model", "kmp", "--m", "1"],
    ["--model", "gg2", "--m", "1"],
    ["--model", "stick", "--m", "0"],
    ["--model", "stick", "--gamma", "1.5"],
])
def test_parameter_the_kernel_cannot_take_is_config_error(flags, capsys):
    code = main(["gap", *flags, "--N", "2", "--topology", "nearest", "--degree", "1"])
    assert code == CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_stick_defaults_to_m_one(capsys):
    args = ["gap", "--model", "stick", "--N", "3", "--topology", "nearest", "--degree", "4"]
    assert main(args) == 0
    unset = capsys.readouterr().out.strip()
    assert main(args + ["--m", "1"]) == 0
    assert capsys.readouterr().out.strip() == unset


@pytest.mark.parametrize("raw", [[1, 2], {"schema": 1, "sites": "3"},
                                 {"schema": 1, "m": "0.5"}, {"schema": 1, "degree": True}])
def test_config_malformed_is_config_error(tmp_path, raw, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert main(["gap", "--config", str(cfg)]) == CONFIG_ERROR
    assert "config error" in capsys.readouterr().err
