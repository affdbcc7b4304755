import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dropqed import (NetworkSpec, Spectrum, analysis, cli, drop, eom, errors, render_scatter,
                     sample_noise)
from dropqed.chain1d import _re_im_order
from dropqed.cli import main
from oracles import (
    cartesian_min_rate,
    cartesian_rate_multiset,
    chain2_rates,
    chain3_rates,
    loop_render,
    multiset_max_err,
    reference_emit,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def rates_of(doc, method):
    for s in doc["spectra"]:
        if s["method"] == method:
            return np.array([r["re"] + 1j * r["im"] for r in s["rates"]])
    raise KeyError(method)


def test_chain_command_matches_closed_form(tmp_path):
    out = tmp_path / "chain.json"
    code = run_cli(["chain", "--n", "3", "--theta-over-pi", "1",
                    "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    got = rates_of(doc, "chain")
    assert multiset_max_err(got, [0.0, 0.0, 3.0]) < 1e-9


def test_compare_fig1a_config(tmp_path):
    out = tmp_path / "cmp.json"
    code = run_cli(["compare", "--dims", "4,4", "--gammas", "1,0.4",
                    "--theta-over-pi", "0.5", "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_abs_error"] <= 1e-8 * (4 * 1.0 + 4 * 0.4)
    assert len(rates_of(doc, "drop")) == 16
    assert len(rates_of(doc, "eigen")) == 16


def test_compare_5x3x4_sixty_paired_rates(tmp_path):
    out = tmp_path / "big.json"
    code = run_cli(["compare", "--dims", "5,3,4", "--gammas", "1,4,2",
                    "--theta-over-pi", "0.5", "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["report"]["passed"] is True
    assert len(rates_of(doc, "drop")) == 60
    assert len(rates_of(doc, "eigen")) == 60


def test_compare_cnm_checks_the_eigenvalues_of_h(capsys):
    # the cnm route reports H's eigenvalues, so on a symmetric network it
    # measures the same DRoP error as the eigen route
    argv = ["compare", "--dims", "5,3,4", "--gammas", "1,4,2", "--theta-over-pi", "0.65"]
    worst = []
    for method in ("eigen", "cnm"):
        assert run_cli(argv + ["--eom-method", method]) == 0
        worst.append(json.loads(capsys.readouterr().out)["report"]["max_abs_error"])
    assert worst[0] == worst[1] > 0.0


def test_compare_theta_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(["compare", "--dims", "3,3", "--gammas", "1,0.4",
                    "--theta-sweep", "0.1:0.9:5", "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    rows = doc["report"]["sweep"]
    assert [r["theta_over_pi"] for r in rows] == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert all(r["passed"] for r in rows)
    assert doc["report"]["worst_max_abs_error"] <= 1e-8 * (3 + 3 * 0.4)


def test_compare_theta_sweep_validation_failure(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(["compare", "--dims", "3,3", "--gammas", "1,0.4",
                    "--theta-sweep", "0.1:0.9:5", "--match-tol", "1e-30",
                    "--output", str(out)])
    assert code == 2
    report = read_json(out)["report"]
    assert [r["passed"] for r in report["sweep"]] == [False] * 5
    assert report["passed"] is False


def test_noisy_compare_sweep_draws_the_noise_once(monkeypatch, capsys):
    # the field does not depend on theta; every point must see the same one
    base = ["compare", "--dims", "2,3", "--gammas", "1,0.4", "--epsilon-max", "0.05",
            "--noise-seed", "3", "--match-tol", "0.05"]
    draws = []

    def counted(*args):
        draws.append(args)
        return sample_noise(*args)
    monkeypatch.setattr(cli, "sample_noise", counted)
    assert run_cli([*base, "--theta-sweep", "0.1:0.9:5"]) == 0
    rows = json.loads(capsys.readouterr().out)["report"]["sweep"]
    assert len(draws) == 1
    # each row is what a single compare at its theta reports
    for row in rows:
        assert run_cli([*base, "--theta-over-pi", repr(row["theta_over_pi"])]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert (row["max_abs_error"], row["passed"]) == (report["max_abs_error"],
                                                         report["passed"])


def test_compare_bad_sweep_is_usage_error():
    assert run_cli(["compare", "--dims", "2,2", "--theta-sweep", "nope"]) == 1


def test_compare_validation_failure_exit_code(tmp_path):
    out = tmp_path / "cmp.json"
    code = run_cli(["compare", "--dims", "2,2", "--theta-over-pi", "0.5",
                    "--match-tol", "1e-30", "--output", str(out)])
    assert code == 2
    assert read_json(out)["report"]["passed"] is False


def test_usage_error_exit_code(capsys):
    assert run_cli(["compare", "--dims", "2,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert len(err.strip().splitlines()) == 1


def test_solver_error_exit_code(capsys, monkeypatch):
    # a solver's own error, which ThetaOutOfRange shares a base class with
    def fails(spec):
        raise errors.ConditioningFailure("no pole certified")
    monkeypatch.setattr(eom, "all_poles_eig", fails)
    assert run_cli(["eom-eig", "--dims", "2"]) == 3
    assert capsys.readouterr().err == "error: solver: no pole certified\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--dims", "2,3", "--theta-over-pi", "0.5"],
    ["classify", "--dims", "2,3", "--theta-over-pi", "0.9"],
    ["bic", "--dims", "2,3", "--theta-over-pi", "0.5"],
    ["bic", "--dims", "2", "--theta-over-pi", "1", "--m", "2"],
], ids=["classify-0.5", "classify-0.9", "bic-0.5", "bic-m2"])
def test_a_phase_outside_the_analysis_window_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                                argv):
    # both printed "error: solver:" and exited 3, though no solver ran, and
    # classify built the whole Cartesian sum first
    def builds(spec):
        raise AssertionError("Cartesian sum built before the window check")
    monkeypatch.setattr(cli, "drop_spectrum", builds)
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: config: ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


_TOLERANCES = ("match_tol", "rank_tol", "solver_tol")


@pytest.mark.parametrize("field, value", [
    (field, value) for field in ("epsilon_max", *_TOLERANCES)
    for value in (float("nan"), float("inf"), -1.0)] + [(field, 0.0) for field in _TOLERANCES])
def test_config_rejects_values_that_are_not_finite(field, value):
    # epsilon_max may be 0; a tolerance must be positive
    with pytest.raises(errors.ConfigError, match=field):
        cli.RunConfig(method="noise", dims=(2, 3), **{field: value})


@pytest.mark.parametrize("argv", [
    # a NaN epsilon used to hang the noise draw, and a NaN solver_tol to
    # pass every certificate
    ["noise", "--dims", "2,3", "--epsilon-max", "nan"],
    ["eom-cnm", "--dims", "2,3", "--gammas", "1,0.4", "--solver-tol", "nan"],
    ["eom-cnm", "--dims", "2,3", "--gammas", "1,0.4", "--solver-tol", "-1"],
    ["bic", "--dims", "2,3", "--theta-over-pi", "1", "--rank-tol", "nan"],
    ["compare", "--dims", "2,3", "--match-tol", "inf"],
    # a NaN rate used to write NaN rows, and an infinite one to fail the solver
    ["drop", "--dims", "2,3", "--gammas", "nan,1"],
    ["eom-eig", "--dims", "2,3", "--gammas", "inf,1"],
], ids=["epsilon-nan", "solver-tol-nan", "solver-tol-negative", "rank-tol-nan", "match-tol-inf",
        "gamma-nan", "gamma-inf"])
def test_nonfinite_settings_are_config_errors(capsys, argv):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name", ["drop", "eom-eig", "eom-cnm", "eom-det", "compare",
                                  "classify", "bic"])
def test_noise_seed_without_epsilon_max_is_refused_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, name, via):
    # drop --dims 2,2 --noise-seed 5 exited 0 with "noise": null
    def works(*args):
        raise AssertionError("work started before the seed was refused")
    monkeypatch.setattr(cli, "drop_spectrum", works)
    monkeypatch.setattr(eom, "_hamiltonian", works)
    monkeypatch.chdir(tmp_path)
    argv = [name, "--dims", "2,2"]
    if via == "flag":
        argv += ["--noise-seed", "5"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"noise_seed": 5}))
        argv += ["--config", "cfg.json"]
    assert run_cli(argv + ["--output", "out.json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: config:") and "noise_seed" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


def test_noise_seed_stands_at_epsilon_max_zero_and_for_noise(capsys):
    assert run_cli(["drop", "--dims", "2,2", "--epsilon-max", "0", "--noise-seed", "5"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["epsilon_max"], config["noise_seed"]) == (0.0, 5)
    # noise studies epsilon_max = 0 without --epsilon-max, and reports its seed
    assert run_cli(["noise", "--dims", "2,2", "--noise-seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["seed"] == 5
    assert (doc["config"]["epsilon_max"], doc["config"]["noise_seed"]) == (None, 5)


def test_oversized_eom_network_is_config_error(capsys, monkeypatch):
    # refused by the memory budget before anything is assembled
    def allocates(self):
        raise AssertionError("rates resolved before the size check")
    monkeypatch.setattr(NetworkSpec, "resolved_rates", allocates)
    assert run_cli(["eom-eig", "--dims", "100,100,100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "budget" in err


@pytest.mark.parametrize("args", [
    ["eom-eig"], ["eom-cnm"], ["eom-det"], ["compare"],
    ["compare", "--eom-method", "det-interp"], ["bic", "--theta-over-pi", "1"], ["noise"],
], ids=["eom-eig", "eom-cnm", "eom-det", "compare", "compare-det", "bic", "noise"])
def test_oversized_noisy_network_is_refused_before_drawing_noise(capsys, monkeypatch, args):
    # drawing the noise of 100x100x100 would take over a minute
    def draws(*args):
        raise AssertionError("noise drawn before the size check")
    monkeypatch.setattr(cli, "sample_noise", draws)
    monkeypatch.setattr(analysis, "sample_noise", draws)
    assert run_cli([*args, "--dims", "100,100,100", "--epsilon-max", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "budget" in err


@pytest.mark.parametrize("args", [
    ["drop", "--dims", "10,10"],
    ["drop", "--dims", "10,10", "--epsilon-max", "0.05"],
    ["drop", "--dims", "40", "--epsilon-max", "0.05"],
    ["classify", "--dims", "10,10", "--theta-over-pi", "1", "--epsilon-max", "0.05"],
    ["chain", "--n", "40"],
    ["scaling", "--d", "2", "--m-min", "40", "--m-max", "44"],
], ids=["drop", "drop-noisy", "drop-noisy-1d", "classify-noisy", "chain", "scaling"])
def test_cartesian_commands_are_refused_past_the_budget(capsys, monkeypatch, args):
    # a 50 kB budget stands in for an oversized network: 100 rates or a
    # 40 x 40 chain kernel exceed it, 40 rates do not
    def draws(*args):
        raise AssertionError("noise drawn before the size check")
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 50_000)
    monkeypatch.setattr(cli, "sample_noise", draws)
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "budget" in err


_HUGE = ",".join(["100000"] * 70)


@pytest.mark.parametrize("argv", [
    ["drop", "--dims", _HUGE], ["eom-eig", "--dims", _HUGE],
    ["scaling", "--d", "400", "--m-min", "10", "--m-max", "14"],
], ids=["drop", "eom-eig", "scaling"])
def test_a_need_past_the_float_range_is_config_error(capsys, argv):
    # the budget message once divided the need into a float, which overflowed
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "Traceback" not in err


@pytest.mark.parametrize("axes", [70, 1000])
@pytest.mark.parametrize("command", ["drop", "eom-eig"])
def test_budget_messages_write_huge_counts_as_powers_of_ten(capsys, command, axes):
    # the counts were written in full: 351 digits at 70 axes of 100000, and
    # past 4300 digits Python refused to write them, so no budget was named
    assert run_cli([command, "--dims", ",".join(["100000"] * axes)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    assert max(map(len, err.splitlines())) <= 200


@pytest.mark.parametrize("argv", [
    ["scaling", "--d", "1", "--m-min", "6000", "--m-max", "1000000000000"],
    ["compare", "--dims", "2,2", "--theta-sweep", "0:1:1000000000000"],
], ids=["scaling", "theta-sweep"])
def test_sweeps_are_sized_before_they_are_listed(capsys, argv):
    # each sweep was listed whole first, which asked for 8 TB
    assert run_cli(argv) == 1
    assert "budget" in capsys.readouterr().err


def test_a_negative_noise_seed_is_config_error(capsys, tmp_path):
    # at epsilon_max = 0 the seed went unread, and above it numpy's error
    # named no flag
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"noise_seed": -1}))
    for argv in (["noise", "--dims", "2,2", "--noise-seed", "-1"],
                 ["noise", "--dims", "2,2", "--noise-seed", "-1", "--epsilon-max", "0.1"],
                 ["noise", "--dims", "2,2", "--config", str(cfg)]):
        assert run_cli(argv) == 1
        assert "noise_seed" in capsys.readouterr().err


def test_a_zero_m_step_is_config_error(capsys, tmp_path):
    # range() refused it in a message that named no flag
    cfg = tmp_path / "step.json"
    cfg.write_text(json.dumps({"m_step": 0}))
    sweep = ["scaling", "--d", "1", "--m-min", "10", "--m-max", "60"]
    for argv in (sweep + ["--m-step", "0"], sweep + ["--config", str(cfg)]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "m_step" in err


def _need_and_budget(message):
    return re.search(r"need (\S+) GiB, over the (\S+) GiB budget", message).groups()


def test_budget_messages_show_a_need_above_the_budget(capsys, monkeypatch):
    # rounded to three digits, a need just past the budget read as equal to
    # it: "need 2 GiB, over the 2 GiB budget" at a chain of 5793
    assert run_cli(["scaling", "--d", "1", "--m-min", "5790", "--m-max", "6000"]) == 1
    need, budget = _need_and_budget(capsys.readouterr().err)
    assert need != budget and float(need) > float(budget)
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 50_000)
    with pytest.raises(errors.ConfigError) as refused:
        errors._check_budget(50_001, "one byte more")
    need, budget = _need_and_budget(str(refused.value))
    assert need != budget and float(need) > float(budget)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gammas", ["1e160,1", "1e300,1"])
@pytest.mark.parametrize("command", ["eom-eig", "eom-cnm", "eom-det", "compare"])
def test_overflowed_certificates_are_solver_errors(capsys, command, gammas):
    # the overflowed certificates passed, and these runs exited 0; then
    # they printed two RuntimeWarnings before the error
    assert run_cli([command, "--dims", "2,2", "--gammas", gammas, "--theta-over-pi", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solver:") and captured.err.count("\n") == 1
    assert "certificate nan" in captured.err


@pytest.mark.filterwarnings("error")
def test_an_overflowed_noise_study_fails_without_warnings(capsys):
    # the refined poles' certificates overflow: none is recovered, and the
    # study printed two RuntimeWarnings first
    assert run_cli(["noise", "--dims", "2,2", "--epsilon-max", "1e300"]) == 2
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["chain", "--n", "3"], ["drop", "--dims", "2,3"], ["scaling", "--d", "1"],
], ids=["chain", "drop", "scaling"])
def test_a_theta_that_overflows_is_config_error(capsys, argv):
    # theta/pi = 1e308 is finite, but theta overflows to inf: chain printed
    # three NaN rows and exited 0, after four RuntimeWarnings
    assert run_cli(argv + ["--theta-over-pi", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config:") and captured.err.count("\n") == 1


def test_unknown_method_is_usage_error():
    assert run_cli(["frobnicate"]) == 1


def test_failed_eigensolve_is_solver_error(capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which the CLI otherwise reports as a config error
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", fails)
    assert run_cli(["chain", "--n", "5"]) == 3
    err = capsys.readouterr().err
    assert err == "error: solver: Eigenvalues did not converge\n"


def _parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing ``argv``; None if it parses."""
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out, err
    return None


_USAGE_ARGV = [[], ["--help"], ["bogus"]] + [
    argv for name in cli._METHODS for argv in (
        [name, "--help"], [name, "--bogus"], [name, "--dims"], [name, "--format", "xml"])]


@pytest.mark.parametrize("argv", _USAGE_ARGV, ids=lambda argv: " ".join(argv) or "no-command")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    full = cli._build_parser()
    for name in cli._METHODS:
        if name not in ("chain", "scaling"):
            assert full.parse_args([name, "--dims", "2"]).dims == "2"
    want = _parse_outcome(full, argv, capsys)
    assert want is not None and want[0] in (0, 2)
    # main prints the same and maps argparse's exit 2 to the usage code
    code = run_cli(argv)
    assert (code, *capsys.readouterr()) == (0 if want[0] == 0 else 1, *want[1:])


_USAGE_ERRORS = [argv for argv in _USAGE_ARGV if "--help" not in argv]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_are_one_stderr_line(capsys, argv):
    # argparse wrote its usage block first: four lines for one error
    assert run_cli(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1
    assert err.startswith("dropqed") and ": error: " in err


def test_a_command_refuses_the_flags_of_another(capsys):
    assert run_cli(["chain", "--n", "3", "--eom-method", "cnm"]) == 1
    assert capsys.readouterr().err.endswith(
        "dropqed: error: unrecognized arguments: --eom-method cnm\n")
    # nor does chain take the flags of a network, which it never read
    assert run_cli(["chain", "--dims", "2"]) == 1
    assert capsys.readouterr().err.endswith(
        "dropqed: error: unrecognized arguments: --dims 2\n")


# the flags each command takes, in the order its --help lists them
_NETWORK_FLAGS = ["--config", "--dims", "--gammas", "--theta-over-pi", "--epsilon-max",
                  "--noise-seed"]
_OUTPUT_FLAGS = ["--format", "--output", "--svg"]
_FLAGS = {
    **{name: _NETWORK_FLAGS + _OUTPUT_FLAGS
       for name in ("drop", "eom-eig", "eom-det", "classify")},
    **{name: _NETWORK_FLAGS + ["--solver-tol"] + _OUTPUT_FLAGS for name in ("eom-cnm", "noise")},
    "compare": _NETWORK_FLAGS + ["--match-tol"] + _OUTPUT_FLAGS
    + ["--eom-method", "--theta-sweep"],
    "bic": _NETWORK_FLAGS + ["--rank-tol", "--output", "--m"],
    "chain": ["--config", "--theta-over-pi"] + _OUTPUT_FLAGS + ["--n"],
    "scaling": ["--config", "--theta-over-pi", "--output", "--d", "--m-min", "--m-max",
                "--m-step"],
}
# a run of each command that succeeds
_VALID_ARGV = {
    **{name: [name, "--dims", "2,2"] for name in cli._METHODS},
    "chain": ["chain", "--n", "2"],
    "scaling": ["scaling", "--d", "1"],
    "classify": ["classify", "--dims", "2,2", "--theta-over-pi", "1"],
    "bic": ["bic", "--dims", "2,3", "--theta-over-pi", "1"],
}
# each shared setting: its flag, its config-file field, and a value of each
_SETTINGS = [("--dims", "dims", "2", [2]), ("--gammas", "gammas", "1", [1.0]),
             ("--epsilon-max", "epsilon_max", "0.1", 0.1), ("--noise-seed", "noise_seed", "1", 1),
             ("--match-tol", "match_tol", "1e-08", 1e-8), ("--rank-tol", "rank_tol", "1e-08", 1e-8),
             ("--solver-tol", "solver_tol", "1e-10", 1e-10),
             ("--format", "out_format", "csv", "csv"), ("--svg", "svg_path", "x.svg", "x.svg")]
_UNREAD = [(name, *setting) for name in cli._METHODS for setting in _SETTINGS
           if setting[0] not in _FLAGS[name]]


def test_each_command_takes_only_the_flags_it_reads(capsys):
    # every command took all twelve shared flags: 128 (command, flag)
    # pairs, 38 of them ignored (compare read --solver-tol only under
    # --eom-method cnm, at its default, and bic and scaling, which emit
    # no rates, wrote a bare CSV header under --format csv)
    assert sum(map(len, _FLAGS.values())) == 90 and len(_UNREAD) == 38
    for name in cli._METHODS:
        assert run_cli(_VALID_ARGV[name]) == 0
        capsys.readouterr()
        assert run_cli([name, "--help"]) == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *_FLAGS[name]], name


@pytest.mark.parametrize("name, flag, dest, text, field", _UNREAD,
                         ids=[f"{name} {flag}" for name, flag, *_ in _UNREAD])
def test_a_flag_the_command_never_read_is_refused(tmp_path, capsys, monkeypatch, name, flag,
                                                  dest, text, field):
    # chain --n 2 --dims 2,2 --epsilon-max 0.3 exited 0, and its config
    # block recorded a network and a noise level it never computed
    monkeypatch.chdir(tmp_path)
    assert run_cli(_VALID_ARGV[name] + [flag, text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"dropqed: error: unrecognized arguments: {flag} {text}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, flag, dest, text, field", _UNREAD,
                         ids=[f"{name} {dest}" for name, _, dest, *_ in _UNREAD])
def test_a_config_field_the_command_never_read_is_refused(tmp_path, capsys, monkeypatch, name,
                                                          flag, dest, text, field):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: field}))
    assert run_cli(_VALID_ARGV[name] + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config: config {str(cfg)!r}: unknown field {dest!r}\n"
    assert list(tmp_path.iterdir()) == [cfg]


# the config-file field of each flag whose name is not the field's
_FIELD_OF = {"--format": "out_format", "--svg": "svg_path", "--n": "chain_n", "--d": "scaling_d",
             "--m": "bic_m"}


@pytest.mark.parametrize("name", cli._METHODS)
def test_the_config_block_records_the_settings_the_command_takes(capsys, name):
    # chain --n 2 recorded dims [], gammas [] and three tolerances it never
    # read, and left out n; scaling left out --d and its sweep
    assert run_cli(_VALID_ARGV[name]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config) == ["method", *[_FIELD_OF.get(flag, flag[2:].replace("-", "_"))
                                        for flag in _FLAGS[name] if flag != "--config"]]
    if name == "chain":
        assert config == {"method": "chain", "theta_over_pi": 0.5, "out_format": "json",
                          "output": None, "svg_path": None, "chain_n": 2}


# each command, and a noisy network, a sweep, scaling's default sweep and
# a run that writes its document and an SVG to files (both recorded)
_RECORDED_ARGV = [
    ["drop", "--dims", "2,3", "--gammas", "1,4", "--theta-over-pi", "0.65"],
    ["eom-eig", "--dims", "3,2", "--gammas", "1,3", "--theta-over-pi", "0.65"],
    ["eom-cnm", "--dims", "3,2", "--gammas", "1,3", "--theta-over-pi", "0.65",
     "--solver-tol", "1e-11"],
    ["eom-det", "--dims", "3,3", "--gammas", "1,4", "--theta-over-pi", "0.9999"],
    ["chain", "--n", "5", "--theta-over-pi", "0.3"],
    ["compare", "--dims", "2,3", "--gammas", "1,0.4", "--match-tol", "1e-7"],
    ["classify", "--dims", "2,3", "--theta-over-pi", "1"],
    ["scaling", "--d", "1", "--theta-over-pi", "0.9999", "--m-min", "10", "--m-max", "60",
     "--m-step", "10"],
    ["noise", "--dims", "2,3", "--gammas", "1,0.4", "--theta-over-pi", "0.65",
     "--epsilon-max", "0.05", "--noise-seed", "2"],
    ["bic", "--dims", "2,3", "--theta-over-pi", "1", "--m", "1", "--rank-tol", "1e-9"],
    ["eom-eig", "--dims", "3,2", "--gammas", "1,3", "--theta-over-pi", "0.65",
     "--epsilon-max", "0.05", "--noise-seed", "7"],
    ["compare", "--dims", "3,3", "--gammas", "1,0.4", "--eom-method", "cnm",
     "--theta-sweep", "0.1:0.9:3"],
    ["scaling", "--d", "2"],
    ["drop", "--dims", "2,3", "--theta-over-pi", "0.3", "--output", "out.json",
     "--svg", "out.svg"],
]


@pytest.mark.parametrize("argv", _RECORDED_ARGV, ids=[
    *cli._METHODS, "eom-eig-noisy", "compare-sweep", "scaling-default", "drop-output"])
def test_the_config_block_repeats_the_run(tmp_path, capsys, monkeypatch, argv):
    # every block was refused as a config file, with unknown field 'noise'
    monkeypatch.chdir(tmp_path)
    files = [tmp_path / "out.json", tmp_path / "out.svg"]

    def run(args):
        code = run_cli(args)
        out = capsys.readouterr().out
        written = [f.read_bytes() for f in files if f.exists()]
        for f in files:
            f.unlink(missing_ok=True)
        return code, out, written
    first = run(argv)
    text = first[1] or first[2][0].decode()
    Path("cfg.json").write_text(json.dumps(json.loads(text)["config"]))
    assert run([argv[0], "--config", "cfg.json"]) == first
    assert len(first[2]) == (2 if "--output" in argv else 0)


@pytest.mark.parametrize("argv", [
    ["scaling", "--d", "1", "--format", "csv"],
    ["bic", "--dims", "2,3", "--theta-over-pi", "1", "--format", "csv"],
    ["compare", "--dims", "2,2", "--theta-sweep", "0.1:0.9:3", "--format", "csv"],
], ids=["scaling", "bic", "compare-sweep"])
def test_csv_without_spectra_is_refused(tmp_path, capsys, monkeypatch, argv):
    # each exited 0 with a bare CSV header: the slope, the nullity and the
    # sweep rows were lost
    def builds(spec):
        raise AssertionError("work done before the --format check")
    monkeypatch.setattr(cli, "drop_spectrum", builds)
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    if argv[0] == "compare":
        assert captured.err.startswith("error: config: ")
    else:
        assert captured.err.endswith("unrecognized arguments: --format csv\n")
    assert not out.exists()


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, at import; main built one per call
    def build():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "_build_parser", build)
    assert run_cli(["chain", "--n", "2"]) == 0
    assert run_cli(["chain", "--bogus"]) == 1
    assert run_cli(["--help"]) == 0


# flags that one call sets and the next leaves out, and failing parses between
_MIXED_ARGV = [
    ["compare", "--dims", "2,3", "--eom-method", "cnm"],
    ["compare", "--dims", "2,3"],
    ["chain", "--bogus"],
    ["drop", "--dims", "2,2", "--format", "csv"],
    ["drop", "--dims", "2,2"],
    [],
    ["bic", "--dims", "2,3", "--theta-over-pi", "2", "--m", "2"],
    ["bic", "--dims", "2,3", "--theta-over-pi", "2"],
    ["compare", "--dims", "2", "--format", "xml"],
    ["chain", "--n", "3"],
]


def test_main_calls_in_one_process_match_each_run_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # bytes, not text: the CSV rows end in \r\n
    alone = [subprocess.run([sys.executable, "-m", "dropqed.cli", *argv], env=env,
                            capture_output=True) for argv in _MIXED_ARGV]
    for argv, proc in zip(_MIXED_ARGV, alone):
        assert (run_cli(argv), *capsys.readouterr()) == (
            proc.returncode, proc.stdout.decode(), proc.stderr.decode()), argv
    compared = [json.loads(proc.stdout)["spectra"][1]["method"] for proc in alone[:2]]
    assert compared == ["cnm", "eigen"]


def test_module_entry_point_reads_sys_argv(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "dropqed.cli", "drop", "--dims", "2,3"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_cli(["drop", "--dims", "2,3"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_json_schema_fields(tmp_path):
    out = tmp_path / "doc.json"
    run_cli(["drop", "--dims", "2,3", "--gammas", "1,0.4",
             "--theta-over-pi", "0.3", "--output", str(out)])
    doc = read_json(out)
    assert set(doc) == {"config", "spectra", "report"}
    assert doc["config"]["dims"] == [2, 3]
    assert doc["config"]["theta_over_pi"] == 0.3
    rows = doc["spectra"][0]["rates"]
    assert len(rows) == 6
    assert all(set(r) == {"re", "im", "tuple", "k"} for r in rows)
    assert all(len(r["tuple"]) == 2 for r in rows)
    res = [r["re"] for r in rows]
    assert res == sorted(res)


def test_csv_format(tmp_path):
    out = tmp_path / "doc.csv"
    run_cli(["drop", "--dims", "2,2", "--theta-over-pi", "0.3",
             "--format", "csv", "--output", str(out)])
    text = out.read_bytes().decode()
    lines = text.strip().split("\r\n")
    assert lines[0] == "method,re,im,tuple,k"
    assert len(lines) == 5
    assert all(line.startswith("drop,") for line in lines[1:])


def test_byte_identical_reruns_with_noise(tmp_path):
    a = tmp_path / "a.json"
    args = ["noise", "--dims", "2,2", "--gammas", "1,2",
            "--theta-over-pi", "0.65", "--epsilon-max", "0.05",
            "--noise-seed", "7", "--output", str(a)]
    assert run_cli(args) == 0
    first = a.read_bytes()
    assert run_cli(args) == 0
    assert a.read_bytes() == first
    doc = read_json(a)
    assert doc["report"]["recovered_count"] == 4
    assert doc["report"]["passed"] is True


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dims": [3, 3],
        "gammas": [1.0, 0.4],
        "theta_over_pi": 0.5,
    }))
    out = tmp_path / "out.json"
    code = run_cli(["drop", "--config", str(cfg), "--theta-over-pi", "0.3",
                    "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["config"]["theta_over_pi"] == 0.3
    assert doc["config"]["dims"] == [3, 3]


def test_config_file_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["drop", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"dims": [2], "frobnicate": 1}))
    assert run_cli(["drop", "--config", str(unknown)]) == 1
    # only the --eom-method choices name a route, also in a config file,
    # where eom_method was checked only after the Cartesian sum
    def sums(spec):
        raise AssertionError("Cartesian sum built")
    monkeypatch.setattr(cli, "drop_spectrum", sums)
    alias = tmp_path / "alias.json"
    alias.write_text(json.dumps({"eom_method": "det"}))
    capsys.readouterr()
    assert run_cli(["compare", "--dims", "2,2", "--config", str(alias)]) == 1
    assert capsys.readouterr().err == "error: config: unknown eom_method 'det'\n"


@pytest.mark.parametrize("fields", [
    {"dims": 5},
    {"dims": [2], "chain_n": "3"},
    {"dims": [2], "noise_seed": 1.5},
])
def test_config_file_field_types(tmp_path, capsys, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    assert run_cli(["drop", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert list(fields)[-1] in err
    assert len(err.strip().splitlines()) == 1


def test_classify_command_counts(tmp_path):
    out = tmp_path / "cls.json"
    code = run_cli(["classify", "--dims", "2,3,4", "--theta-over-pi", "0.9999",
                    "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["report"]["cluster_counts"] == {"0": 6, "1": 11, "2": 6, "3": 1}
    ks = [r["k"] for r in doc["spectra"][0]["rates"]]
    assert sorted(set(ks)) == [0, 1, 2, 3]


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.json"
    code = run_cli(["scaling", "--d", "3", "--theta-over-pi", "0.9999",
                    "--m-min", "2", "--m-max", "6", "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["report"]["sizes"] == [8, 27, 64, 125, 216]
    assert -1.4 < doc["report"]["slope"] < -0.7


def test_scaling_report_builds_no_index_tuples(monkeypatch, capsys):
    # the sweep builds no Cartesian sum, and its minima are those of the
    # whole sum, so the report holds the oracle's
    argv = ["scaling", "--d", "2", "--m-min", "100", "--m-max", "300", "--m-step", "50"]

    def no_sum(spec):
        raise AssertionError("scaling built a Cartesian sum")
    monkeypatch.setattr(analysis, "drop_spectrum", no_sum)
    monkeypatch.setattr(drop, "drop_spectrum", no_sum)
    assert run_cli(argv) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    monkeypatch.undo()
    theta = cli.RunConfig(method="scaling").theta
    assert report["min_rates"] == [cli._sig(cartesian_min_rate(2, m, theta))
                                   for m in range(100, 301, 50)]


def test_scaling_zero_dimensions_is_config_error(capsys):
    # --d 0 is no dimension to fit
    assert run_cli(["scaling", "--d", "0", "--m-min", "3", "--m-max", "7"]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_scaling_without_a_default_sweep_names_the_flags(capsys, monkeypatch):
    # scaling --d 4 said "pass m_range", a library parameter no flag sets
    def fits(*args):
        raise AssertionError("the library was called")
    monkeypatch.setattr(analysis, "subradiance_scaling", fits)
    assert run_cli(["scaling", "--d", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "--m-min" in err and "--m-max" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("bound", [["--m-min", "4"], ["--m-max", "12"]])
def test_scaling_lone_sweep_bound_is_config_error(capsys, bound):
    assert run_cli(["scaling", "--d", "2"] + bound) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_bic_command(tmp_path):
    out = tmp_path / "bic.json"
    code = run_cli(["bic", "--dims", "2,3", "--theta-over-pi", "1",
                    "--output", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["report"]["nullity"] == 2
    assert doc["report"]["expected_nullity"] == 2
    assert doc["report"]["max_violation"]["phase-parity"] <= 1e-8


def test_eom_det_command(tmp_path):
    out = tmp_path / "det.json"
    code = run_cli(["eom-det", "--dims", "2,2", "--gammas", "1,0.4",
                    "--theta-over-pi", "1", "--output", str(out)])
    assert code == 0
    got = rates_of(read_json(out), "det-interp")
    assert multiset_max_err(got, [0.0, 0.8, 2.0, 2.8]) < 1e-7


@pytest.mark.parametrize("dims, gammas, frac", [
    ((3,), (1.0,), 0.5),
    ((2, 3), (1.0, 0.4), 0.65),
], ids=["3", "2x3"])
def test_eom_cnm_command(tmp_path, dims, gammas, frac):
    out = tmp_path / "cnm.json"
    code = run_cli(["eom-cnm", "--dims", ",".join(map(str, dims)),
                    "--gammas", ",".join(map(str, gammas)),
                    "--theta-over-pi", str(frac), "--output", str(out)])
    assert code == 0
    got = rates_of(read_json(out), "cnm")
    chains = {2: chain2_rates, 3: chain3_rates}
    want = cartesian_rate_multiset([chains[n](frac * np.pi) for n in dims], gammas)
    assert multiset_max_err(got, want) < 1e-8


@pytest.mark.parametrize("argv", [
    ["--dims", "3,4", "--gammas", "1,0.4", "--theta-over-pi", "0.3"],
    ["--dims", "3,2,6", "--gammas", "1,3,2", "--theta-over-pi", "0.65",
     "--epsilon-max", "0.05", "--noise-seed", "7"],
    ["--dims", "2,2", "--gammas", "1,0.4", "--theta-over-pi", "1"],
], ids=["3x4", "3x2x6-noisy", "2x2-pi"])
def test_eom_cnm_is_eom_eig_relabelled(capsys, argv):
    # the same eigensolve: only the command, the route's label and the
    # settings recorded in the config block differ, for eom-cnm and
    # eom-det, and for compare's det-interp route (whose noisy case fails
    # its match, exit 2, on both routes)
    def run(args):
        code = run_cli(args + argv)
        text = capsys.readouterr().out
        return code, json.loads(text)["config"], text[text.index('\n  "spectra": '):]
    code, eig_config, eig = run(["eom-eig"])
    assert code == 0 and eig.count('"eigen"') == 1
    for command, label, settings in (("eom-cnm", "cnm", {"solver_tol": 1e-10}),
                                     ("eom-det", "det-interp", {})):
        assert run([command]) == (0, {**eig_config, "method": command, **settings},
                                  eig.replace('"eigen"', f'"{label}"'))
    code, config, compare = run(["compare"])
    assert code in (0, 2) and compare.count('"eigen"') == 1 and config["eom_method"] == "eigen"
    assert run(["compare", "--eom-method", "det-interp"]) == (
        code, {**config, "eom_method": "det-interp"}, compare.replace('"eigen"', '"det-interp"'))


def test_zero_floor_is_gone(tmp_path, capsys):
    # neither the flag nor the config-file key is known any more
    assert run_cli(["scaling", "--d", "1", "--zero-floor", "1e-13"]) == 1
    assert "--zero-floor" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scaling_d": 1, "zero_floor": 1e-13}))
    assert run_cli(["scaling", "--config", str(cfg)]) == 1
    assert "unknown field 'zero_floor'" in capsys.readouterr().err


def test_svg_rendering_deterministic(tmp_path):
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    base = ["classify", "--dims", "2,3,4", "--theta-over-pi", "0.9999",
            "--output"]
    run_cli(base + [str(tmp_path / "x.json"), "--svg", str(svg1)])
    run_cli(base + [str(tmp_path / "y.json"), "--svg", str(svg2)])
    data = svg1.read_text()
    assert data.startswith("<svg")
    assert data.rstrip().endswith("</svg>")
    assert svg1.read_bytes() == svg2.read_bytes()
    # four superradiance dimensions -> four marker colours
    colours = {line.split('stroke="')[1].split('"')[0]
               for line in data.splitlines() if "<circle" in line}
    assert len(colours) == 4


def test_svg_overlay_two_series(tmp_path):
    svg = tmp_path / "cmp.svg"
    run_cli(["compare", "--dims", "2,2", "--theta-over-pi", "0.5",
             "--output", str(tmp_path / "cmp.json"), "--svg", str(svg)])
    data = svg.read_text()
    assert "<circle" in data      # Cartesian-sum glyphs
    assert "<path" in data        # solver cross glyphs


def test_svg_empty_overlay_is_valid():
    import numpy as np
    from dropqed import Spectrum, render_scatter
    empty = Spectrum(rates=np.array([], dtype=complex), method="eigen")
    filled = Spectrum(rates=np.array([1 + 1j, 2 - 1j]), method="drop")
    text = render_scatter([empty, filled])
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 2
    assert "<path" not in text


def test_readme_commands_run(tmp_path, capsys):
    # every example of the README's "Command line" block, output files
    # redirected into tmp_path
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("dropqed ")]
    assert commands
    for argv in commands:
        argv = [str(tmp_path / arg) if flag in ("--output", "--svg") else arg
                for flag, arg in zip([None] + argv, argv)]
        assert run_cli(argv) == 0, argv


# ------------------------------------------------------ emitted bytes, files

ODD_VALUES = Spectrum(
    rates=np.array([np.nan, complex(1.5, np.inf), -np.inf, complex(-0.0, -0.0),
                    complex(0.0, np.nan), 1.234567890123456e15 - 1e-7j,
                    2.5e-300 + 1e-320j, 0.1 + 0.2j]),
    method="eigen")
EMPTY = Spectrum(rates=np.array([], dtype=complex), method="cnm")
# one value for each kind of %.12g text the emitter writes
TEXT_BRANCHES = Spectrum(
    rates=np.array([
        0.1 + 2.5j,                      # fixed notation with a point: kept as is
        3.0 - 7.0j,                      # integral: "3", written 3.0 in JSON
        123456789012.0 + 1.234e13j,      # no point up to 1e12, exponent form above
        -99999999999.96 + 4.5e16j,       # rounds up to an integral text
        1e-5 + 1.5e17j,                  # exponent forms on either side
        1e-320 - 5e-324j,                # subnormal: its text is not its repr
        complex(-0.0, 0.0),              # signed zeros
        complex(np.nan, np.inf), complex(-np.inf, 0.0001),
    ]),
    method="eigen", _shape=(3, 3))


# rows the JSON writer formats inline beside rows that take the text path
# (an integral Re, a zero Im, |Re| >= 1e11, a three-digit exponent, NaN)
MIXED_ROWS = Spectrum(
    rates=np.array([0.1 + 2.5j, 3.0 - 0.25j, 0.5 + 0.0j, -1.25e-7 + 7.5j, 2.5e11 + 0.3j,
                    0.75 - 1.5e-200j, -0.3 - 0.7j, complex(np.nan, 0.2), 0.1 + 0.3j]),
    method="eigen", _shape=(9, 1))
# one column inline and the other on the text path, either way round
# (exact zeros, an integral value, a subnormal)
INLINE_RE_TEXT_IM = Spectrum(
    rates=np.array([0.1 + 0.0j, 0.25 - 0.0j, -1.5 + 2.5j, 7.5e-3 + 3.0j, 0.4 + 1e-310j]),
    method="eigen")
TEXT_RE_INLINE_IM = Spectrum(
    rates=np.array([0.0 + 0.1j, -0.0 - 0.25j, 2.0 + 2.5j, 1e-320 + 7.5e-3j, 0.4 + 0.3j]),
    method="eigen", _shape=(5,))


def _handler_output(argv):
    config = cli._config_from_args(cli._PARSER.parse_args(argv))
    spectra, report, *_ = cli._COMMANDS[config.method](config)
    return spectra, report


def _drop_of(argv):
    return _handler_output(argv)[0][0][0]


# bic reports: violations on lines with and without transverse axes,
# and floats json.dumps writes otherwise than repr beside a rule name it
# escapes
NONFINITE_VIOLATIONS = {
    "m": 1, "max_violation": {"plain": float("inf")},
    "violations": [
        {"rule": "plain", "axis": 0, "transverse": [1, 2], "value": float("inf")},
        {"rule": "plain", "axis": 1, "transverse": [3], "value": float("nan")},
        {"rule": 'r\u00e9gle "odd"', "axis": 2, "transverse": [], "value": 1e-320},
        {"rule": "plain", "axis": 0, "transverse": [1, 2], "value": -0.0},
    ],
    "passed": False}


EMIT_CASES = {
    "nan-inf-negative-zero": lambda: ([(ODD_VALUES, None)], None),
    "tuple-and-k-null-beside-tuples": lambda: (
        [(ODD_VALUES, None), _handler_output(["drop", "--dims", "2,3"])[0][0]],
        {"passed": True}),
    "classify-k-labels": lambda: _handler_output(
        ["classify", "--dims", "2,3,4", "--theta-over-pi", "0.9999"]),
    "noise-two-spectra": lambda: _handler_output(
        ["noise", "--dims", "2,2", "--gammas", "1,2", "--theta-over-pi", "0.65",
         "--epsilon-max", "0.05", "--noise-seed", "7"]),
    "compare-two-spectra": lambda: _handler_output(
        ["compare", "--dims", "2,3", "--gammas", "1,0.4", "--theta-over-pi", "0.3"]),
    "each-text-branch": lambda: ([(TEXT_BRANCHES, list(range(9)))], None),
    "empty-spectrum": lambda: ([(EMPTY, None), (ODD_VALUES, None)], {"x": float("nan")}),
    "no-spectra": lambda: ([], {"sweep": [], "passed": True}),
    "no-spectra-no-report": lambda: ([], None),
    "drop-axis-of-one-scrambled": lambda: _handler_output(
        ["drop", "--dims", "3,1,4", "--gammas", "1,4,2", "--theta-over-pi", "0.65"]),
    "drop-at-pi-all-text": lambda: _handler_output(["drop", "--dims", "3,4", "--theta-over-pi", "1"]),
    "drop-at-pi-inline-and-masked": lambda: _handler_output(
        ["drop", "--dims", "3,4", "--gammas", "1,0.4", "--theta-over-pi", "1"]),
    "drop-at-zero-exact-zeros": lambda: _handler_output(
        ["drop", "--dims", "3,4", "--theta-over-pi", "0"]),
    "text-and-inline-rows": lambda: (
        [(MIXED_ROWS, [4, 0, 2, 1, 3, 5, 8, 7, 6]), (MIXED_ROWS, None)], None),
    "one-column-on-the-text-path": lambda: (
        [(INLINE_RE_TEXT_IM, None), (TEXT_RE_INLINE_IM, [0, 1, 2, 3, 4])], None),
    "bic-violations": lambda: _handler_output(
        ["bic", "--dims", "3,3,3", "--theta-over-pi", "2", "--m", "2"]),
    "bic-chain-no-transverse": lambda: _handler_output(
        ["bic", "--dims", "4", "--theta-over-pi", "1", "--m", "1"]),
    "bic-nonfinite-violations": lambda: ([], NONFINITE_VIOLATIONS),
    "bic-no-violations": lambda: ([], {**NONFINITE_VIOLATIONS, "violations": []}),
}


@pytest.mark.parametrize("out_format", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_emitter_matches_reference_bytes(case, out_format):
    spectra, report = EMIT_CASES[case]()
    config = _emit_config(out_format)
    assert cli._emit(config, spectra, report) == reference_emit(config, spectra, report)


def test_emit_cases_take_the_paths_they_name():
    scrambled = _drop_of(["drop", "--dims", "3,1,4", "--gammas", "1,4,2", "--theta-over-pi", "0.65"])
    order = _re_im_order(scrambled.rates)
    assert scrambled._shape == (3, 1, 4) and (np.diff(order) < 0).any()
    # a row's kind: bit 0 set where its Re takes the text path, bit 1 its Im
    def kinds(s):
        return set((cli._text_path(s.rates.real) + 2 * cli._text_path(s.rates.imag)).tolist())
    # at 0 and pi every Re of the equal-rate 3x4 is integral (its dark sums
    # are exactly 0), and at 0 every Im is 0; the rate 0.4 adds inline Re
    # beside them at pi, and exact zeros in Im
    at_pi = _drop_of(["drop", "--dims", "3,4", "--theta-over-pi", "1"])
    mixed_at_pi = _drop_of(["drop", "--dims", "3,4", "--gammas", "1,0.4", "--theta-over-pi", "1"])
    at_zero = _drop_of(["drop", "--dims", "3,4", "--theta-over-pi", "0"])
    assert kinds(at_pi) == {1} and kinds(mixed_at_pi) == {0, 1, 2} and kinds(at_zero) == {3}
    assert (at_zero.rates.imag == 0).all()
    assert kinds(MIXED_ROWS) == {0, 1, 2}
    assert kinds(INLINE_RE_TEXT_IM) == {0, 2} and kinds(TEXT_RE_INLINE_IM) == {0, 1}
    assert EMIT_CASES["bic-violations"]()[1]["violations"]


def _emit_config(out_format):
    return cli.RunConfig(method="compare", dims=(2, 3), gammas=(1.0, 0.4),
                         epsilon_max=0.05, noise_seed=7, out_format=out_format,
                         output="out.json", svg_path=None)


_FLOAT64 = st.one_of(
    st.floats(width=64),                                          # NaN and +-inf too
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals, +-0
    st.integers(-2**60, 2**60).map(float),                         # integral values
    st.builds(lambda x, sign: sign * x, st.floats(1e11, 1e17, exclude_max=True),
              st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320]),
)


@st.composite
def _emitted_spectrum(draw):
    # index tuples only as a product shape of one to three axes (an axis
    # of zero qubits empties the spectrum); without tuples, any size
    shape = draw(st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    n = draw(st.integers(0, 6)) if shape is None else math.prod(shape)
    values = draw(st.lists(st.tuples(_FLOAT64, _FLOAT64), min_size=n, max_size=n))
    ks = draw(st.one_of(st.none(), st.lists(st.integers(-3, 10**6), min_size=n, max_size=n)))
    method = draw(st.sampled_from(["drop", "eigen", "cnm", "det-interp", "chain"]))
    rates = np.array([complex(re, im) for re, im in values], dtype=complex)
    return Spectrum(rates=rates, method=method,
                    _shape=None if shape is None else tuple(shape)), ks


@settings(max_examples=150, deadline=None)
@given(spectra=st.lists(_emitted_spectrum(), max_size=3),
       report=st.sampled_from([None, {"passed": True}]),
       out_format=st.sampled_from(["json", "csv"]))
def test_emitter_matches_reference_on_arbitrary_floats(spectra, report, out_format):
    config = _emit_config(out_format)
    assert cli._emit(config, spectra, report) == reference_emit(config, spectra, report)


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(_FLOAT64, st.floats(1e-99, 1e-5), st.floats(-1e-5, -1e-99),
                   st.floats(1e-320, 1e-99)))
def test_json_numbers_match_json_dumps(x):
    # texts with two-digit negative exponents skip float(); every text must
    # still read as json.dumps writes its value
    text = "%.12g" % x
    assert cli._json_numbers([text]) == [json.dumps(float(text))]


@pytest.mark.parametrize("argv", [
    ["bic", "--dims", "2,3", "--theta-over-pi", "1", "--m", "1"],
    ["scaling", "--d", "1", "--m-min", "4", "--m-max", "8"],
    ["compare", "--dims", "2,2", "--theta-sweep", "0.3:0.5:2"],
])
@pytest.mark.parametrize("to_file", [False, True])
def test_svg_without_spectra_fails_before_emitting(tmp_path, capsys, monkeypatch, argv, to_file):
    # bic and scaling take no --svg; a swept compare is refused before its
    # first match.  bic refused it only after the SVD: 21.7 s at 14x14x14
    def computes(*args, **kwargs):
        raise AssertionError("work done before the --svg check")
    monkeypatch.setattr(cli, "_match", computes)
    monkeypatch.setattr(eom, "nullity_at", computes)
    svg = str(tmp_path / "x.svg")
    argv = argv + ["--svg", svg]
    if to_file:
        argv += ["--output", str(tmp_path / "x.json")]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "compare":
        assert captured.err == (
            "error: config: no spectra to render for --svg: a theta sweep emits none\n")
    else:
        assert captured.err.endswith(f"dropqed: error: unrecognized arguments: --svg {svg}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", ["flags", "config", "relative"])
def test_output_and_svg_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, how):
    # the SVG was written over the document, and the run exited 0
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "p")
    argv = ["drop", "--dims", "2,2"]
    if how == "flags":
        argv += ["--output", path, "--svg", path]
    elif how == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"output": path, "svg_path": path}))
        argv += ["--config", "cfg.json"]
    else:
        argv += ["--output", "p", "--svg", os.path.join(tmp_path, ".", "p")]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config: output and svg_path name the same file\n"
    assert not (tmp_path / "p").exists() and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("flag", ["--output", "--svg"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "doc"
    argv = ["classify", "--dims", "2,2", "--theta-over-pi", "0.9999", flag, str(target)]
    if flag == "--svg":
        argv += ["--output", str(tmp_path / "doc.json")]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot write {str(target)!r}")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "missing").exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_umask_mode(tmp_path, umask):
    out, svg = tmp_path / "doc.json", tmp_path / "doc.svg"
    old = os.umask(umask)
    try:
        assert run_cli(["classify", "--dims", "2,2", "--theta-over-pi", "0.9999",
                        "--output", str(out), "--svg", str(svg)]) == 0
    finally:
        os.umask(old)
    for path in (out, svg):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_cartesian_commands_load_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already.  The
    # Cartesian-sum commands, and the EoM commands (eom-det and compare's
    # nearest pairing among them), run in turn; each must leave
    # scipy's solvers unloaded
    commands = [
        ["drop", "--dims", "3,4", "--format", "csv"],
        ["eom-eig", "--dims", "5,3,4", "--gammas", "1,4,2"],
        ["eom-cnm", "--dims", "3,2,6", "--gammas", "1,3,2", "--theta-over-pi", "0.65",
         "--epsilon-max", "0.05", "--noise-seed", "7"],
        ["noise", "--dims", "3,2,6", "--gammas", "1,3,2", "--theta-over-pi", "0.65",
         "--epsilon-max", "0.05"],
        ["bic", "--dims", "2,3", "--theta-over-pi", "1", "--m", "1"],
        ["compare", "--dims", "8,8", "--gammas", "1,0.4", "--theta-over-pi", "0.5"],
        ["compare", "--dims", "3,3", "--gammas", "1,0.4", "--theta-sweep", "0.05:0.95:19"],
        ["eom-det", "--dims", "3,4", "--gammas", "1,0.4"],
    ]
    # equal rates at theta = pi: exact degeneracies send two Cartesian-sum
    # rates to one nearest pole, so the pairing falls back to scipy
    fallback = ["compare", "--dims", "3,3", "--gammas", "1,1", "--theta-over-pi", "1"]
    script = (
        "import contextlib, io, json, sys\n"
        "import dropqed.cli\n"
        "runs = []\n"
        f"for argv in {commands + [fallback]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = dropqed.cli.main(argv)\n"
        "    runs.append({'argv': argv, 'code': code, 'modules': sorted(sys.modules),\n"
        "                 'stdout': out.getvalue()})\n"
        "print(json.dumps(runs))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    runs = json.loads(proc.stdout)
    assert [run["argv"] for run in runs] == commands + [fallback]
    for run in runs:
        assert run["code"] == 0, run["argv"]
    for run in runs[:-1]:
        loaded = {m for m in run["modules"]
                  if m.startswith(("scipy.linalg", "scipy.sparse", "scipy.optimize"))}
        assert not loaded, run["argv"]
    assert "scipy.optimize" in runs[-1]["modules"]
    # the fallback's report is that of the Hungarian assignment
    spec = NetworkSpec(dims=(3, 3), gammas=(1.0, 1.0), theta=np.pi)
    cost = np.abs(drop.drop_spectrum(spec).rates[:, None]
                  - eom.all_poles_eig(spec).poles.rates[None, :])
    dist = cost[linear_sum_assignment(cost)]
    report = json.loads(runs[-1]["stdout"])["report"]
    assert report["max_abs_error"] == cli._sig(dist.max())
    assert report["mean_abs_error"] == cli._sig(dist.mean())
    layers = ("lattice", "chain1d", "drop", "eom", "analysis", "render", "cli")
    assert {f"dropqed.{layer}" for layer in layers} <= set(runs[0]["modules"])


@pytest.mark.parametrize("argv", [
    ["drop", "--dims", "4,3,5", "--gammas", "1,4,2", "--theta-over-pi", "0.65"],
    ["drop", "--dims", "4,3,5", "--theta-over-pi", "1", "--format", "csv"],
    ["classify", "--dims", "4,4,3", "--theta-over-pi", "0.9999", "--svg", "{tmp}/c.svg"],
    ["classify", "--dims", "5,4", "--theta-over-pi", "2", "--format", "csv"],
    ["compare", "--dims", "3,4", "--gammas", "1,0.4", "--theta-over-pi", "0.3",
     "--svg", "{tmp}/m.svg"],
    ["noise", "--dims", "2,3", "--gammas", "1,2", "--theta-over-pi", "0.65",
     "--epsilon-max", "0.05", "--noise-seed", "7", "--svg", "{tmp}/n.svg"],
])
def test_commands_build_no_index_tuples(monkeypatch, capsys, tmp_path, argv):
    # the writer and renderer unravel a product spectrum's indices and ask
    # has_tuples; neither reads index_tuples.  The bytes are those of a run
    # that may read them
    argv = [arg.format(tmp=tmp_path) for arg in argv]

    def no_tuples(self):
        raise AssertionError("index tuples were read")
    monkeypatch.setattr(drop.Spectrum, "index_tuples", property(no_tuples))
    assert run_cli(argv) in (0, 2)
    got = capsys.readouterr().out
    svg = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
    monkeypatch.undo()
    assert run_cli(argv) in (0, 2)
    assert got == capsys.readouterr().out
    assert svg == [p.read_bytes() for p in sorted(tmp_path.iterdir())]


def test_render_matches_loop_render():
    # whole-spectrum glyph coordinates write the bytes of the per-rate loop
    spectra, _, cls = cli._COMMANDS["classify"](cli.RunConfig(
        method="classify", dims=(12, 12, 12), gammas=(1.0, 4.0, 2.0), theta_over_pi=1.0))
    classified = spectra[0][0]
    compared = [s for s, _ in _handler_output(["compare", "--dims", "3,4", "--gammas", "1,0.4",
                                               "--theta-over-pi", "0.3"])[0]]
    one_rate = Spectrum(rates=np.array([0.25 - 1.5j]), method="eigen")
    one_drop = drop.drop_spectrum(NetworkSpec(dims=(1,), gammas=(1.0,), theta=0.3))
    assert cls.cluster_counts[3] == 1 and "<path" in render_scatter(compared)
    for spectra, report in [([classified], cls), (compared, None), ([EMPTY, classified], None),
                            ([EMPTY], None), ([one_rate], None), ([one_drop], None)]:
        assert render_scatter(spectra, report=report) == loop_render(spectra, report=report)
