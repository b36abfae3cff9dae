import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gapforge import appendix, cli, models
from gapforge.cli import (
    CONFIG_ERROR,
    NUMERICAL_ERROR,
    VERIFICATION_FAILURE,
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


@pytest.mark.parametrize("m", ["-4.5", "-2"])
def test_gap_refuses_a_star_exponent_without_galerkin_moments(m, capsys):
    # -4.5 printed a negative gap and exited 0; -2 died on a NaN in eigvalsh
    assert main(["gap", "--model", "star", "--m", m, "--N", "3", "--degree", "2"]) == CONFIG_ERROR
    assert f"m = {float(m):g} with gamma = 1" in capsys.readouterr().err


def test_unknown_model_is_config_error():
    assert main(["gap", "--model", "star", "--method", "bogus"]) == CONFIG_ERROR


def test_an_out_path_that_cannot_be_written_is_config_error(tmp_path, capsys):
    # the gap is computed first; writing it used to end in a FileNotFoundError traceback
    out = tmp_path / "missing" / "x.csv"
    assert main(["gap", "--model", "kmp", "--N", "3", "--degree", "1", "--out", str(out)]) == CONFIG_ERROR
    assert "config error:" in capsys.readouterr().err and not out.parent.exists()


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


@pytest.mark.parametrize("argv", [
    ["kappa", "--degree", "2"],
    ["two-site", "--model", "stick"],
])
def test_config_key_the_command_takes_no_flag_for_is_config_error(argv, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema": 1, "sites": 9, "method": "mc", "budget": 5}))
    assert main(argv + ["--config", str(cfg)]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and "['budget', 'method', 'sites']" in err


def test_config_keys_the_command_takes_flags_for_are_read(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema": 1, "model": "stick", "m": 1.0}))
    assert main(["two-site", "--config", str(cfg), "--two-site-degree", "6"]) == 0
    assert abs(float(capsys.readouterr().out) - 1.0) < 1e-6
    cfg.write_text(json.dumps({"schema": 1, "model": "kmp", "command": "gap"}))
    assert main(["kappa", "--config", str(cfg), "--degree", "2"]) == CONFIG_ERROR
    assert "written for command 'gap', not 'kappa'" in capsys.readouterr().err


def test_sweep_reruns_from_its_metadata(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--model", "kmp", "--topology", "long-range", "--degree", "2",
                 "--sites-grid", "2,3", "--out", str(out)]) == 0
    first = out.read_text()
    meta = tmp_path / "s.meta.json"
    assert json.loads(meta.read_text())["command"] == "sweep"
    assert main(["sweep", "--config", str(meta)]) == 0  # the grid is in the meta file
    assert out.read_text() == first and len(first.splitlines()) == 3
    assert main(["gap", "--config", str(meta)]) == CONFIG_ERROR


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


def test_verify_appendix_records_are_run_checks(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "appendix", "--n-max", "12",
                 "--out", str(out)]) == VERIFICATION_FAILURE
    capsys.readouterr()
    want = json.loads(json.dumps(appendix.run_checks(12), default=float))
    assert json.loads(out.read_text())["checks"] == want


def _stub_suites(monkeypatch, first="first", second="second"):
    """Two stub verify suites; returns the list of the runs they saw."""
    seen = []

    def runner(name, records):
        return lambda args: seen.append((name, args.n_max, args.fast)) or records

    monkeypatch.setattr(cli, "SUITES", {
        first: runner(first, [{"claim": "a", "pass": True}, {"claim": "b", "pass": False}]),
        second: runner(second, [{"claim": "c", "pass": True}]),
    })
    return seen


def test_verify_runs_the_suite_table_in_order(tmp_path, monkeypatch, capsys):
    seen = _stub_suites(monkeypatch)
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == VERIFICATION_FAILURE
    assert capsys.readouterr().out == "3 checks, 1 failures\n"
    rep = json.loads(out.read_text())
    assert [c["claim"] for c in rep["checks"]] == ["a", "b", "c"]
    assert rep["suite"] == "all" and rep["pass"] is False
    assert main(["verify", "--suite", "second"]) == 0
    head, text = capsys.readouterr().out.split("\n", 1)
    assert head == "1 checks, 0 failures"
    assert json.loads(text)["checks"] == [{"claim": "c", "pass": True}]
    assert seen == [("first", None, False), ("second", None, False), ("second", None, False)]
    assert main(["verify", "--suite", "appendix"]) == CONFIG_ERROR  # not in the table


@pytest.mark.parametrize("argv, flag", [
    (["--suite", "theorems", "--n-max", "3", "--fast"], "--n-max"),
    (["--suite", "theorems", "--n-max", "0"], "--n-max"),
    (["--suite", "appendix", "--fast"], "--fast"),
    (["--suite", "appendix", "--n-max", "3", "--fast"], "--fast"),
])
def test_verify_refuses_the_flag_of_a_suite_it_does_not_run(argv, flag, tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", *argv, "--out", str(out)]) == CONFIG_ERROR
    assert f"config error: {flag} is read only by" in capsys.readouterr().err
    assert not out.exists()


def test_verify_all_takes_both_suite_flags(monkeypatch, capsys):
    seen = _stub_suites(monkeypatch, "appendix", "theorems")
    assert main(["verify", "--n-max", "3", "--fast"]) == VERIFICATION_FAILURE
    assert main(["verify", "--suite", "theorems", "--fast"]) == 0
    capsys.readouterr()
    assert seen == [("appendix", 3, True), ("theorems", 3, True), ("theorems", None, True)]


def test_ill_conditioned_gram_is_numerical_failure(capsys):
    # LinAlgError is a ValueError: main must catch it as numerical first
    code = main(["gap", "--model", "stick", "--m", "2", "--N", "2", "--degree", "9"])
    assert code == NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert "numerical failure" in err and "ill-conditioned" in err


@pytest.mark.parametrize("argv", [["--E", "1e-100", "--m", "1", "--degree", "6", "--N", "3",
                                   "--topology", "nearest"],
                                  ["--E", "1e-300", "--degree", "2"]], ids=["E1e-100", "E1e-300"])
def test_gram_diagonal_that_underflows_is_numerical_failure(argv, capsys):
    with warnings.catch_warnings():  # and no divide-by-zero warning on the way
        warnings.simplefilter("error")
        assert main(["gap", *argv]) == NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Gram diagonal") and "not positive and finite" in err


RERUNS = {
    "gap-galerkin": ["gap", "--model", "gg3", "--N", "3", "--topology", "nearest",
                     "--degree", "3"],
    "gap-mc": ["gap", "--method", "mc", "--model", "kmp", "--N", "2", "--topology", "nearest",
               "--budget", "20000"],
    "sweep-two-axes": ["sweep", "--model", "kmp", "--topology", "long-range", "--degree", "2",
                       "--energies", "0.5,1", "--sites-grid", "2,3"],
}


@pytest.mark.parametrize("argv", RERUNS.values(), ids=RERUNS)
def test_a_run_reruns_from_its_metadata(argv, tmp_path, monkeypatch, capsys):
    # no environment variable moves the seed: an unset one is 0, and the meta
    # file records it with the sweep's grid
    monkeypatch.setenv("GAPFORGE_SEED", "42")
    first, again = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    meta = tmp_path / "a.meta.json"
    assert json.loads(meta.read_text())["seed"] == 0
    monkeypatch.delenv("GAPFORGE_SEED")
    assert main([argv[0], "--config", str(meta), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert len(first.read_text().splitlines()) == (5 if argv[0] == "sweep" else 2)
    # a null seed, as older meta files hold, is seed 0
    meta.write_text(meta.read_text().replace('"seed": 0', '"seed": null'))
    assert main([argv[0], "--config", str(meta), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("name", ["lr", "longrange", "Long-Range", "nn", "chain"])
def test_config_topology_other_than_the_flag_choices_is_config_error(name, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema": 1, "topology": name, "sites": 2, "degree": 2}))
    assert main(["gap", "--config", str(cfg)]) == CONFIG_ERROR
    assert f"unknown topology {name!r}" in capsys.readouterr().err


def test_gap_mc_prints_the_estimate_and_its_stderr(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    argv = ["gap", "--method", "mc", "--model", "kmp", "--N", "2", "--topology", "nearest",
            "--budget", "20000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    gap, err = capsys.readouterr().out.splitlines()
    row = out.read_text().splitlines()[1].split(",")
    assert row[6:8] == ["mc", "20000"] and row[10] == "1"
    assert gap == row[8] and err == f"stderr {row[9]}" and float(row[9]) > 0


def test_gap_mc_with_a_flagged_fit_is_numerical_failure(tmp_path, monkeypatch, capsys):
    flagged = cli.simulate.GapEstimateMC(0.5, 0.1, "centered_x1", (1, 5), 0.25, 0.1, 100,
                                         flagged=True)
    monkeypatch.setattr(cli.simulate, "estimate_gap_autocorr", lambda *a, **k: flagged)
    out = tmp_path / "mc.csv"
    assert main(["gap", "--method", "mc", "--model", "kmp", "--N", "2",
                 "--budget", "100", "--out", str(out)]) == NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "autocorrelation fit did not converge (R^2 = 0.250)" in captured.err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["gap", "--model", "kmp", "--N", "3", "--degree", "0"],
    ["two-site", "--model", "gg3", "--two-site-degree", "0"],
    ["two-site", "--model", "gg3", "--two-site-degree", "48"],
    ["kappa", "--degree", "0"],
])
def test_degree_below_one_is_config_error(argv, capsys):
    assert main(argv) == CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_rejection_limit_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(models, "_MAX_PROPOSALS", 0)
    code = main(["simulate", "--model", "gg3", "--N", "3", "--topology", "nearest",
                 "--budget", "100", "--seed", "3", "--out", str(tmp_path / "t.csv")])
    assert code == NUMERICAL_ERROR
    assert "rejected 0 proposals" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["simulate", "--budget", "0"], ["simulate", "--budget", "-5"],
    ["simulate", "--budget", "100", "--sample-dt", "0"],
    ["simulate", "--budget", "100", "--sample-dt", "-1"],
    ["simulate", "--budget", "100", "--sample-dt", "nan"],
    ["gap", "--method", "mc", "--budget", "5"],
    ["verify", "--suite", "appendix", "--n-max", "0"],
    ["verify", "--suite", "appendix", "--n-max", "1"],
    ["gap", "--E", "inf"],
    ["gap", "--model", "star", "--gamma", "inf"],
    ["gap", "--model", "star", "--m", "inf"],
    ["gap", "--model", "stick", "--m", "nan"],
    ["sweep", "--jobs", "0"],
])
def test_bad_event_budget_or_sample_step_is_config_error(flags, tmp_path, capsys):
    out = tmp_path / "t.csv"
    run = [] if flags[0] == "verify" else ["--model", "kmp", "--N", "3",
                                          "--topology", "nearest", "--seed", "3"]
    argv = flags[:1] + run + ["--out", str(out)] + flags[1:]
    assert main(argv) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error:" in err
    assert f"got {flags[-1]}" in err  # the message names the bad value
    assert not out.exists()


@pytest.mark.parametrize("grid", ["2.9,3.5", "3,3.0", "inf", "nan", "2,three"])
def test_sweep_sites_grid_takes_integers_only(grid, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--model", "kmp", "--topology", "nearest", "--degree", "2",
            "--sites-grid", grid, "--out", str(out)]
    assert main(argv) == CONFIG_ERROR
    bad = next(tok for tok in grid.split(",") if not tok.isdigit())
    assert f"got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--energies", "--sites-grid", "--m-grid", "--gamma-grid"])
@pytest.mark.parametrize("grid", [",", ""], ids=["comma", "blank"])
def test_sweep_empty_grid_is_config_error(flag, grid, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--model", "star", "--topology", "nearest", "--degree", "2",
            flag, grid, "--out", str(out)]
    assert main(argv) == CONFIG_ERROR
    assert f"{flag} lists no values" in capsys.readouterr().err
    assert not out.exists()


def test_path_refuses_a_negative_site(capsys):
    assert main(["path", "--i", "-2", "--j", "1"]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error" in err and "got i = -2" in err


@pytest.mark.parametrize("argv", [
    ["two-site", "--model", "stick", "--degree", "3"],
    ["two-site", "--model", "stick", "--N", "4"],
    ["kappa", "--degree", "2", "--N", "4"],
    ["kappa", "--degree", "2", "--seed", "1"],
    ["kappa", "--degree", "2", "--method", "mc"],
    ["path", "--i", "1", "--j", "3", "--N", "9"],
    ["path", "--i", "1", "--j", "3", "--model", "gg2"],
    ["simulate", "--model", "kmp", "--budget", "100", "--degree", "3"],
    ["verify", "--suite", "appendix", "--model", "gg2", "--degree", "9"],
])
def test_a_flag_the_command_does_not_read_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # simulate writes trajectory.csv when it runs
    assert main(argv) == CONFIG_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [shlex.split(line)[1:] for line in readme.replace("\\\n", " ").splitlines()
                if line.startswith("gapforge ")]
    assert len(examples) == 8
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, monkeypatch, capsys):
    sizes = []

    class Pool:  # records its size and runs the jobs in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    args = ["sweep", "--model", "kmp", "--topology", "long-range", "--degree", "2",
            "--out", str(tmp_path / "s.csv"), "--jobs", "64"]
    assert main(args + ["--sites-grid", "2,3"]) == 0
    assert main(args + ["--sites-grid", "2"]) == 0  # one point: no pool
    # nor larger than the CPUs: 6 points on 4 CPUs take 4 workers, and an
    # unknown CPU count takes none
    star = args[:2] + ["star"] + args[3:] + ["--sites-grid", "2,3", "--m-grid", "0,1,2"]
    assert main(star) == 0
    rows = (tmp_path / "s.csv").read_text()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(star) == 0
    assert (tmp_path / "s.csv").read_text() == rows
    capsys.readouterr()
    assert sizes == [2, 4]


def test_verify_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS reads its thread count when numpy loads it, so each count takes
    # its own process; the node-grid sums used to move with the count
    src = Path(__file__).resolve().parents[1] / "src"
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"verify-{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "gapforge.cli", "verify", "--suite", "theorems",
                        "--fast", "--out", str(out)], env=env, check=True, capture_output=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
