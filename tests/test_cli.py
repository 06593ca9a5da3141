import argparse
import collections
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsirelson
from tsirelson import chained, cli, linalg, realization, sdp
from tsirelson.cli import build_parser, canonical_json, main

from oracles import (
    chained_primal_vectors,
    eager_parser,
    gisin_quantum_bound,
    mixing_gap_limit,
    refuse_build_objective,
)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_bound_chained_text(capsys):
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "5"
    )
    assert status == 0
    assert "9.510565162" in out  # 10 cos(pi/10)
    assert "classical_bound: 8" in out


def test_bound_chained_n1_zero(capsys):
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "1", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["primal"]["value"] == 0
    assert doc["dual"]["certified_bound"] == 0
    assert doc["classical_bound"] == 0


def test_bound_json_roundtrip_and_determinism(capsys):
    args = ("bound", "--inequality", "gisin", "--n", "3", "--format", "json")
    status, out1, _ = run_cli(capsys, *args)
    assert status == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    reserialized = canonical_json(json.loads(out1)) + "\n"
    assert reserialized == out1


def test_bound_reports_spectral_run(capsys):
    # gisin-4 is tight: one spectral run of rank 2, with no iteration
    status, out, _ = run_cli(capsys, "bound", "--inequality", "gisin", "--n", "4",
                             "--format", "json")
    assert status == 0
    doc = json.loads(out)
    (run,) = doc["runs"]
    assert (run["method"], run["rank"], run["iterations"], run["converged"]) == (
        "spectral", 2, 0, True)
    assert (doc["primal"]["iterations"], doc["primal"]["residual"]) == (0, 0.0)
    assert doc["certified_optimal"] is True
    assert doc["dual"]["certified_bound"] == pytest.approx(gisin_quantum_bound(4), abs=1e-12)


def test_bound_embeds_config(capsys):
    _, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "3", "--format", "json",
    )
    cfg = json.loads(out)["config"]
    assert cfg["command"] == "bound"
    assert cfg["inequality"] == "chained"
    assert cfg["n"] == 3
    assert "seed" not in cfg and "max_iter" not in cfg
    assert "rank" not in cfg and "tol" not in cfg


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_every_report_starts_with_its_config(tmp_path, capsys, monkeypatch, fmt):
    # every subcommand's report is rendered with its config block as the first key;
    # table's text is CSV, with no report around it
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps([2**-0.5] * 4))
    requests = [["bound"], ["certify", "--lambda-file", str(lam)], ["classical"],
                ["realize"], ["spectrum"]] + ([["table", "--n-range", "2..3"]] * (fmt == "json"))
    rendered = []
    monkeypatch.setattr(cli, "canonical_json",
                        lambda obj: rendered.append(obj) or canonical_json(obj))
    for argv in requests:
        status, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (status, err) == (0, "")
        if fmt == "json":
            (report,) = rendered
            rendered.clear()
            assert list(report)[0] == "config"
            assert json.loads(out)["config"] == report["config"]
            assert (report["config"]["command"], report["config"]["format"]) == (argv[0], fmt)
        else:
            assert out.startswith(f"config:\n  command: {argv[0]}\n  inequality: chained\n")


@pytest.mark.parametrize("value", ["17", "abc"])
def test_seed_env_is_ignored(capsys, monkeypatch, value):
    # the output depends on the arguments alone, whatever the environment holds
    argv = ("bound", "--inequality", "gisin", "--n", "3", "--format", "json")
    monkeypatch.delenv("TSIRELSON_SEED", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("TSIRELSON_SEED", value)
    assert run_cli(capsys, *argv) == unset


def test_table_chained(capsys):
    status, out, _ = run_cli(
        capsys, "table", "--inequality", "chained", "--n-range", "2..8"
    )
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,classical,quantum_analytic,quantum_numeric,gap"
    assert len(lines) == 8
    for line in lines[1:]:
        n, classical, qa, qn, gap = line.split(",")
        assert float(classical) == 2 * int(n) - 2
        assert abs(float(qa) - float(qn)) <= 1e-6


def test_chained_n1_analytic_bound_is_exactly_zero(capsys):
    # the zero inequality's analytic bound read 1.2e-16, above its certified 0
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "1", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["analytic_bound"] == 0.0 == doc["dual"]["certified_bound"]
    args = ("table", "--inequality", "chained", "--n-range", "1..3", "--format")
    status, out, _ = run_cli(capsys, *args, "json")
    assert status == 0
    assert json.loads(out)["rows"][0]["quantum_analytic"] == 0.0
    status, out, _ = run_cli(capsys, *args, "csv")
    assert status == 0
    assert out.split("\n")[1].split(",")[:3] == ["1", "0", "0"]


def test_table_gisin_has_no_analytic_bound(capsys):
    args = ("table", "--inequality", "gisin", "--n-range", "2..3", "--format")
    status, out, _ = run_cli(capsys, *args, "json")
    assert status == 0
    assert [r["quantum_analytic"] for r in json.loads(out)["rows"]] == [None, None]
    status, out, _ = run_cli(capsys, *args, "csv")
    assert status == 0
    assert [line.split(",")[2] for line in out.strip().split("\n")[1:]] == ["", ""]


@pytest.mark.parametrize(
    "argv",
    [["table", "--n", "5", "--n-range", "2..3"], ["table", "--file", "c.json"],
     ["spectrum", "--file", "/nonexistent"], ["table", "--n-range", "2..3", "--n-r", "4..5"]],
)
def test_options_a_subcommand_ignores_are_usage_errors(capsys, argv):
    # table reads neither --n nor a file, and spectrum no file: each used to
    # exit 0 and echo the option into the config block.  No option is
    # abbreviated, so --n cannot stand for table's --n-range
    status, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (status, out) == (1, "")
    assert "unrecognized arguments" in err
    status, out, _ = run_cli(capsys, "table", "--n-range", "2..3", "--format", "json")
    assert status == 0
    assert json.loads(out)["config"] == {
        "command": "table", "format": "json", "inequality": "chained", "n_range": "2..3"}


def test_table_bad_range(capsys):
    status, _, err = run_cli(capsys, "table", "--n-range", "8..2")
    assert status == 1
    assert "n-range" in err


@pytest.mark.parametrize("family", ["chained", "gisin"])
def test_table_range_past_the_enumeration_limit(monkeypatch, capsys, family):
    # the range is checked before the first row: no row is solved, then dropped
    def refuse(*args, **kwargs):
        raise AssertionError("solve called")

    monkeypatch.setattr(sdp, "solve", refuse)
    status, out, err = run_cli(
        capsys, "table", "--inequality", family, "--n-range", "29..31"
    )
    assert (status, out) == (2, "")
    assert err == "error: enumeration limited to 30 settings per side\n"


def test_classical_command(capsys):
    status, out, _ = run_cli(
        capsys, "classical", "--inequality", "chsh", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["value"] == 2
    wx = np.array(doc["witness_x"])
    wy = np.array(doc["witness_y"])
    c = np.array([[1, 1], [1, -1]])
    assert float(wx @ c @ wy) == 2.0


def test_spectrum_command(capsys):
    status, out, _ = run_cli(
        capsys, "spectrum", "--inequality", "chained", "--n", "4", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["w_max"] == pytest.approx(2 * np.cos(np.pi / 8), abs=1e-12)
    assert len(doc["gammas"]) == 4


def test_spectrum_requires_chained(capsys):
    status, _, err = run_cli(capsys, "spectrum", "--inequality", "gisin", "--n", "3")
    assert status == 1
    assert "chained" in err


def test_realize_command(capsys, monkeypatch):
    calls = []
    table = realization.correlation_table
    monkeypatch.setattr(
        realization, "correlation_table", lambda r: calls.append(r) or table(r)
    )
    status, out, _ = run_cli(
        capsys, "realize", "--inequality", "chained", "--n", "4", "--format", "json"
    )
    assert status == 0
    assert len(calls) == 1
    doc = json.loads(out)
    assert doc["achieved_value"] == pytest.approx(8 * np.cos(np.pi / 8), abs=1e-9)
    assert doc["max_correlation_error"] <= 1e-10


@pytest.mark.parametrize("n", [2, 6, 11, 91])
def test_realize_solved_family(capsys, n):
    # the optimal Gram matrix has rank 2: one EPR pair, also past
    # m = 180 settings, where the solver's rank exceeds 20 generators
    status, out, _ = run_cli(
        capsys, "realize", "--inequality", "gisin", "--n", str(n), "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["achieved_value"] == pytest.approx(doc["certified_bound"], abs=1e-6)
    assert doc["max_correlation_error"] <= 1e-10


@pytest.mark.parametrize("n", [3, 5, 8])
def test_realize_chained_certified(capsys, n):
    status, out, _ = run_cli(
        capsys, "realize", "--inequality", "chained", "--n", str(n), "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["certified_bound"] == pytest.approx(2 * n * np.cos(np.pi / (2 * n)),
                                                   abs=1e-6)
    assert doc["achieved_value"] == pytest.approx(doc["certified_bound"], abs=1e-6)


def test_realize_compresses_a_rotated_primal_to_its_rank(capsys, monkeypatch):
    # the chained optimum spans a plane: rotated into R^30, it realizes in R^2
    xs, ys = chained_primal_vectors(100)
    v = np.zeros((200, 30))
    v[:, :2] = np.concatenate([xs, ys])[:, :2]
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((30, 30)))
    report = sdp.solve(chained(100), classical=False)
    rotated = dataclasses.replace(report.primal, vectors=v @ q)
    monkeypatch.setattr(sdp, "solve", lambda ineq, classical=True:
                        dataclasses.replace(report, primal=rotated))
    status, out, _ = run_cli(
        capsys, "realize", "--inequality", "chained", "--n", "100", "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["max_correlation_error"] <= 1e-12


def test_realize_keeps_the_gram_of_a_mixing_primal(tmp_path, capsys, monkeypatch):
    # seeded 4x4 in -3..3: the mixing run returns 8 x 5 vectors of rank 2
    c = np.random.default_rng(2).integers(-3, 4, (4, 4))
    path = tmp_path / "ineq.json"
    path.write_text(json.dumps({"name": "rand", "coefficients": c.tolist()}))
    seen = {}
    solve, realize = sdp.solve, realization.realize

    def spy_solve(ineq, classical=True):
        seen["report"] = solve(ineq, classical)
        return seen["report"]

    def spy_realize(xs, ys):
        seen["v"] = np.concatenate([xs, ys])
        return realize(xs, ys)

    monkeypatch.setattr(sdp, "solve", spy_solve)
    monkeypatch.setattr(realization, "realize", spy_realize)
    status, _, _ = run_cli(capsys, "realize", "--inequality", "file", "--file",
                           str(path), "--format", "json")
    assert status == 0
    assert seen["report"].runs[0].method == "mixing"
    u, v = seen["report"].primal.vectors, seen["v"]
    rank = int(np.sum(np.linalg.eigvalsh(u @ u.T) > linalg.PSD_TOL))
    assert (u.shape, rank, v.shape) == ((8, 5), 2, (8, 2))
    assert np.abs(v @ v.T - u @ u.T).max() <= 1e-12


def test_file_inequality(tmp_path, capsys):
    path = tmp_path / "ineq.json"
    path.write_text('{"name": "custom", "coefficients": [[1, 1], [1, -1]]}')
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "file", "--file", str(path),
        "--format", "json",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["inequality"] == "custom"
    assert doc["dual"]["certified_bound"] == pytest.approx(
        2 * np.sqrt(2), abs=1e-6
    )


def test_file_inequality_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "coefficients": [[1,\n 2], }')
    status, _, err = run_cli(
        capsys, "bound", "--inequality", "file", "--file", str(path)
    )
    assert status == 1
    assert "line 2" in err and "column" in err


def test_file_inequality_huge_integer(tmp_path, capsys):
    # an integer literal beyond the float range used to escape as OverflowError
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "coefficients": [[1%s, 1], [1, -1]]}' % ("0" * 400))
    status, out, err = run_cli(
        capsys, "classical", "--inequality", "file", "--file", str(path)
    )
    assert (status, out) == (1, "")
    assert "non-finite" in err


def test_file_inequality_missing_flag(capsys):
    status, _, err = run_cli(capsys, "bound", "--inequality", "file")
    assert status == 1
    assert "--file" in err


def test_file_inequality_unreadable(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "bound", "--inequality", "file", "--file", str(tmp_path / "none.json")
    )
    assert status == 3


def test_certify_command(tmp_path, capsys):
    lam_path = tmp_path / "lam.json"
    lam = [1 / np.sqrt(2)] * 4
    lam_path.write_text(json.dumps(lam))
    status, out, _ = run_cli(
        capsys, "certify", "--inequality", "chained", "--n", "2",
        "--lambda-file", str(lam_path), "--format", "json",
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["certified_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert abs(doc["feasibility_margin"]) <= 1e-9


def test_certify_command_forms_no_w(tmp_path, capsys, monkeypatch):
    # the certificate is built from the coefficient block alone
    refuse_build_objective(monkeypatch)
    lam_path = tmp_path / "lam.json"
    lam_path.write_text(json.dumps([0.1, 2.0, 0.7, 1.5]))
    status, out, _ = run_cli(capsys, "certify", "--inequality", "chsh",
                             "--lambda-file", str(lam_path), "--format", "json")
    assert status == 0 and json.loads(out)["certified_bound"] >= 2 * np.sqrt(2)


def test_lambda_file_read_errors(tmp_path, capsys):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text("[1,\n 2,")
    args = ("certify", "--inequality", "chsh", "--lambda-file")
    status, out, err = run_cli(capsys, *args, str(lam_path))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {lam_path}: malformed JSON at line 2, column")
    status, out, _ = run_cli(capsys, *args, str(tmp_path / "none.json"))
    assert (status, out) == (3, "")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_certify_huge_lambda_is_finite(tmp_path, capsys):
    # (M + M^T)/2 used to overflow on the 1e308 diagonal entry; the exact bound
    # is 1e308 + 4/sqrt(2), so 1e308 itself is not one
    lam_path = tmp_path / "lam.json"
    lam_path.write_text("[1e308, 0, 0, 0]")
    status, out, _ = run_cli(
        capsys, "certify", "--inequality", "chsh",
        "--lambda-file", str(lam_path), "--format", "json",
    )
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert 1e308 < doc["certified_bound"] <= 1e308 * (1 + 1e-12)
    assert doc["feasibility_margin"] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)


def test_classical_huge_coefficients(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "coefficients": [[1e308, 1], [1, -1]]}')
    args = ("classical", "--inequality", "file", "--file", str(path), "--format", "json")
    status, out, _ = run_cli(capsys, *args)
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["value"] == 1e308
    # the bound overflows: numerical failure, no report
    path.write_text('{"name": "huge", "coefficients": [[1e308, 1e308], [1, -1]]}')
    status, out, err = run_cli(capsys, *args)
    assert (status, out) == (2, "")
    assert "overflow" in err


def test_bound_huge_coefficients(tmp_path, capsys):
    # solve_primal's row norms used to overflow above ~1e154: exit 2
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "coefficients": [[1e300, 1], [1, -1]]}')
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "file", "--file", str(path), "--format", "json"
    )
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    for value in (doc["primal"]["value"], doc["classical_bound"]):
        assert value == pytest.approx(1e300, rel=1e-12)
    # the mixing run's proof leaves a gap of up to 2^e _GAP_TARGET, about 1.3e-8 relative
    bound = doc["dual"]["certified_bound"]
    assert 0 <= doc["gap"] <= mixing_gap_limit([[1e300, 1], [1, -1]], bound)


@pytest.mark.parametrize("coefficients",
                         ["[[1e308]]", "[[1.5e308]]", "[[1e308, 1], [1, -1]]"])
def test_values_near_the_float_range(tmp_path, capsys, coefficients):
    # the primal value used to overflow: a numpy warning, then "Out of range
    # float values" and exit 2 from bound, the warning alone from realize
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "coefficients": %s}' % coefficients)
    top = float(np.abs(json.loads(coefficients)).max())
    for command in ("bound", "realize"):
        status, out, err = run_cli(
            capsys, command, "--inequality", "file", "--file", str(path), "--format", "json"
        )
        assert (status, err) == (0, "")
        doc = json.loads(out, parse_constant=_reject_constant)
        if command == "bound":
            assert doc["primal"]["value"] == pytest.approx(top, rel=1e-12)
            # a mixing run's proof leaves a gap of up to 2^e _GAP_TARGET
            (run,) = doc["runs"]
            limit = 1e-12 * top if run["method"] == "spectral" else mixing_gap_limit(
                json.loads(coefficients), doc["dual"]["certified_bound"])
            assert 0 <= doc["gap"] <= limit
        else:
            assert doc["achieved_value"] == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("coefficients", ["[[1e308, 1e308], [1e308, 1e308]]",
                                          "[[1.7e308, 1.7e308]]"])
def test_values_beyond_the_float_range(tmp_path, capsys, coefficients):
    # realize used to print an OverflowError traceback and exit 1, the usage code
    path = tmp_path / "huge.json"
    path.write_text('{"name": "huge", "coefficients": %s}' % coefficients)
    for command in ("bound", "realize"):
        status, out, err = run_cli(
            capsys, command, "--inequality", "file", "--file", str(path), "--format", "json"
        )
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e9])
def test_bound_scaled_coefficients(tmp_path, capsys, scale):
    # the gap is tested relative to max|c|: one run, and certified optimal
    path = tmp_path / "scaled.json"
    c = scale * chained(16).coefficients
    path.write_text(json.dumps({"name": "scaled", "coefficients": c.tolist()}))
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "file", "--file", str(path), "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert len(doc["runs"]) == 1
    assert doc["certified_optimal"] is True
    assert doc["gap"] / scale <= sdp.OPTIMAL_GAP


STUCK = [[-1, -3, 2, 2, -1, 2], [-1, 2, -2, -2, -1, 0], [-1, -3, 0, 2, 2, 2],
         [-3, 2, 2, -1, 3, 1], [1, -1, 0, -2, 3, -1], [-1, 2, 2, -1, -3, -1]]


def _stuck_file(tmp_path):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps({"name": "rand-6", "coefficients": STUCK}))
    return str(path)


def test_bound_lifts_stuck_run(tmp_path, capsys):
    # the run stalls at a saddle; it used to spend the whole cap there and
    # restart, reporting two runs.  It lifts a rank up and converges: one run
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "file", "--file", _stuck_file(tmp_path),
        "--format", "json",
    )
    assert status == 0
    doc = json.loads(out)
    (run,) = doc["runs"]
    assert (run["converged"], run["rank"], run["method"]) == (True, 7, "mixing")
    assert run["iterations"] < 100 and "seed" not in run
    assert doc["certified_optimal"] is True


def test_bound_text_lists_run_fields_in_order(tmp_path, capsys, monkeypatch):
    # JSON sorts the keys; text output keeps the order of sdp.Run's fields.
    # STUCK is not tight, so it takes the mixing path; capped at 3
    # iterations it is far from optimal, which exits 2
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 3)
    stuck = tsirelson.new_inequality("rand-6", STUCK)
    assert len(sdp.solve(stuck).runs) == 1
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "file", "--file", _stuck_file(tmp_path),
        "--format", "text",
    )
    assert status == 2
    lines = out.splitlines()
    block = lines[lines.index("runs:") + 1 :]
    fields = ["rank", "iterations", "converged", "primal_value", "certified_bound", "gap",
              "method"]
    assert [line for line in block if line.startswith("  -")] == ["  -"]
    keys = [line.split(":")[0].strip() for line in block if line.startswith("    ")]
    assert keys == fields


def test_bound_exits_2_exactly_when_not_certified_optimal(tmp_path, capsys, monkeypatch):
    # capped at 7 iterations this block stops with gap 7.2e-5, relative 2.4e-5:
    # above sdp.OPTIMAL_GAP, so not certified optimal, yet it once exited 0
    # because a second threshold, 1e-4 on the relative gap, ruled the exit
    rng = np.random.default_rng(1)
    k = rng.integers(4, 16)
    c = rng.integers(-3, 4, (k, k))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "capped", "coefficients": c.tolist()}))
    argv = ("bound", "--inequality", "file", "--file", str(path), "--format", "json")
    monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 7)
    status, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert doc["primal"]["converged"] is False and doc["certified_optimal"] is False
    assert sdp.OPTIMAL_GAP < doc["gap"] / np.abs(c).max() < 1e-4
    assert status == cli.EXIT_NUMERICAL
    monkeypatch.undo()
    status, out, _ = run_cli(capsys, *argv)
    assert (status, json.loads(out)["certified_optimal"]) == (cli.EXIT_OK, True)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_report_is_numerical_failure(tmp_path, capsys, monkeypatch, value):
    help_text, add_arguments, _ = cli._SUBCOMMANDS["classical"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "classical",
                        (help_text, add_arguments, lambda args: ({"value": value}, 0)))
    status, out, err = run_cli(capsys, "classical", "--format", "json")
    assert (status, out) == (2, "")
    assert "error" in err
    path = tmp_path / "out.json"
    status = main(["classical", "--format", "json", "--output", str(path)])
    assert status == 2
    assert not path.exists()


def test_request_too_large_to_allocate(capsys, monkeypatch):
    # bound --n 100000 asks numpy for 74.5 GiB: a numerical failure, not a traceback
    def too_large(n):
        raise MemoryError(f"Unable to allocate 74.5 GiB for chained({n})")

    monkeypatch.setitem(cli._FAMILIES, "chained", too_large)
    status, out, err = run_cli(capsys, "bound", "--n", "100000", "--format", "json")
    assert (status, out) == (2, "")
    assert err == "error: Unable to allocate 74.5 GiB for chained(100000)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--n", "100000000000000000000"],
        ["spectrum", "--n", "100000000000000000000"],
        ["realize", "--n", "4000000000"],
        ["classical", "--inequality", "gisin", "--n", "3000000000"],
    ],
    ids=["bound", "spectrum", "realize", "classical-gisin"],
)
def test_n_too_large_to_size(capsys, argv):
    # numpy refuses to size these arrays before it allocates anything; the
    # refusal used to escape as a ValueError traceback
    status, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (status, out) == (2, "")
    assert err.startswith(f"error: --n {argv[-1]} is too large: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--n", "0"], "--n must be >= 1, got 0"),
        (["spectrum", "--n", "0"], "--n must be >= 1, got 0"),
        (["table", "--n-range", "2-8"], "bad --n-range '2-8', expected A..B"),
        (["table", "--n-range", "a..b"], "bad --n-range 'a..b', expected integers"),
    ],
    ids=["n-0", "spectrum-n-0", "range-dash", "range-letters"],
)
def test_usage_error_messages(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, kind",
    [("table", "chsh"), ("table", "file"),
     ("spectrum", "gisin"), ("spectrum", "chsh"), ("spectrum", "file")],
)
def test_kind_a_subcommand_does_not_read_is_a_usage_error(capsys, command, kind):
    # the subcommand's parser offers only the kinds it reads, so argparse refuses the rest
    accepted = {"table": "chained,gisin", "spectrum": "chained"}[command]
    status, out, err = run_cli(capsys, command, "--inequality", kind)
    assert (status, out) == (1, "")
    usage, error = err.split(f"tsirelson {command}: error: ")
    assert usage.startswith(f"usage: tsirelson {command} ")
    assert re.findall(r"--inequality \{([^}]*)\}", usage) == [accepted]
    assert error.startswith(f"argument --inequality: invalid choice: '{kind}'")


def test_file_inequality_without_coefficients(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"name": "x"}')
    status, out, err = run_cli(capsys, "bound", "--inequality", "file", "--file", str(path))
    assert (status, out) == (1, "")
    assert err == f'error: {path}: expected {{"name": ..., "coefficients": [[...]]}}\n'


def test_chsh_analytic_bound_and_w_max_are_correctly_rounded(capsys):
    # 2 sqrt(2) and sqrt(2) to the last bit; the sine form printed 2.82842712474619
    status, out, _ = run_cli(capsys, "bound", "--inequality", "chsh", "--format", "json")
    assert (status, json.loads(out)["analytic_bound"]) == (0, math.sqrt(8))
    args = ("spectrum", "--inequality", "chained", "--n", "2", "--format", "json")
    status, out, _ = run_cli(capsys, *args)
    assert (status, json.loads(out)["w_max"]) == (0, math.sqrt(2))


def test_bound_chsh_reports_analytic_bound(capsys):
    status, out, err = run_cli(capsys, "bound", "--inequality", "chsh", "--format", "json")
    assert (status, err) == (0, "")
    doc = json.loads(out)
    assert doc["analytic_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-15)
    assert doc["dual"]["certified_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize(
    "command, content",
    [
        ("certify", "[true, 1, 1, 1]"),
        ("certify", '[1, 1, "1", 1]'),
        ("certify", "[1, 1, null, 1]"),
        ("classical", '{"name": "s", "coefficients": [["1", true], [1, "-1"]]}'),
        ("classical", '{"name": "b", "coefficients": [[1, false], [1, -1]]}'),
        ("classical", '{"name": "r", "coefficients": ["11", "1-"]}'),
        ("classical", '{"name": "d", "coefficients": {"0": [1, 1]}}'),
        ("classical", '{"name": [1], "coefficients": [[1, 1], [1, -1]]}'),
        ("classical", '{"name": 5, "coefficients": [[1, 1], [1, -1]]}'),
    ],
)
def test_non_numbers_in_json_files(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_text(content)
    if command == "certify":
        args = ("--inequality", "chsh", "--lambda-file", str(path))
    else:
        args = ("--inequality", "file", "--file", str(path))
    status, out, err = run_cli(capsys, command, *args, "--format", "json")
    assert (status, out) == (1, "")
    assert str(path) in err


@pytest.mark.parametrize(
    "command", ["bound", "certify", "classical", "realize", "spectrum"]
)
def test_csv_format_only_for_table(tmp_path, capsys, command):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text("[1, 1, 1, 1]")
    extra = ["--lambda-file", str(lam_path)] if command == "certify" else []
    status, out, err = run_cli(
        capsys, command, "--inequality", "chained", "--n", "2", "--format", "csv", *extra
    )
    assert (status, out) == (1, "")
    assert "csv" in err


def test_certify_wrong_length(tmp_path, capsys):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text("[1, 2, 3]")
    status, _, err = run_cli(
        capsys, "certify", "--inequality", "chained", "--n", "2",
        "--lambda-file", str(lam_path),
    )
    assert status == 1
    assert "4" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "2", "--format", "json",
        "--output", str(out_path),
    )
    assert status == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["certified_optimal"] is True


def test_output_unwritable(tmp_path, capsys):
    status, _, err = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "2",
        "--output", str(tmp_path / "missing" / "report.txt"),
    )
    assert status == 3


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "bound", "--inequality", "nope")[0] == 1
    assert run_cli(capsys)[0] == 1


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_certify_rejects_non_finite_lambda(tmp_path, capsys, entry):
    lam_path = tmp_path / "lam.json"
    lam_path.write_text(f"[{entry}, 1, 1, 1]")
    status, out, err = run_cli(
        capsys, "certify", "--inequality", "chained", "--n", "2",
        "--lambda-file", str(lam_path), "--format", "json",
    )
    assert status == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--rank", "1"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"),
     ("--max-iter", "0"), ("--seed", "-1")],
)
def test_bad_solver_settings_are_usage_errors(capsys, flag, value):
    # the solver takes none of these settings: each flag is unknown, a usage error
    for command in ("bound", "realize", "table"):
        status, out, err = run_cli(
            capsys, command, "--inequality", "gisin", "--n", "2", flag, value
        )
        assert status == 1
        assert out == ""
        assert flag.lstrip("-") in err


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


class _Parsed(Exception):
    pass


def _main_parse(argv, capsys, monkeypatch):
    # main's own parse of argv, stopped before the command runs
    def stop(args):
        raise _Parsed(args)

    for name, (help_text, add_arguments, _) in list(cli._SUBCOMMANDS.items()):
        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, add_arguments, stop))
    try:
        result = main(argv)
    except _Parsed as parsed:
        result = parsed.args[0]
    out, err = capsys.readouterr()
    return result, out, err


def _as_main(parsed):
    # what main makes of a parse: its exit status in place of argparse's, or the namespace
    result, out, err = parsed
    if isinstance(result, int):
        result = {0: cli.EXIT_OK, 2: cli.EXIT_USAGE}[result]
    return result, out, err


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["nope"], ["bound", "--seed", "5", "--format", "json"],
     ["certify"], ["certify", "--lambda-file", "lam.json", "--inequality", "chsh"],
     ["table", "--n-range", "2..4", "--format", "csv"], ["spectrum", "--output", "o"],
     ["classical", "--format", "csv"], ["realize", "--rank", "3", "--tol", "1e-9"],
     ["bound", "bound"], ["bound", "--", "x"], ["-h", "bound"], ["--format", "json", "bound"],
     ["bound", "--n", "3", "extra", "--bogus"], ["certify", "--n", "3"]]
    + [[cmd, *args] for cmd in ("bound", "certify", "classical", "realize", "spectrum",
                                "table") for args in (["--help"], ["--n", "two"], ["-x"])]
    # options the subcommand does not read, and an abbreviation
    + [["table", "--n", "5", "--n-range", "2..3"], ["table", "--file", "c.json"],
       ["spectrum", "--file", "c.json"], ["bound", "--form", "json"]]
    # inequality kinds the subcommand does not read
    + [["table", "--inequality", kind] for kind in ("chsh", "file")]
    + [["spectrum", "--inequality", kind] for kind in ("gisin", "chsh", "file")],
)
def test_parser_matches_eager_parser(capsys, monkeypatch, argv):
    # namespaces, help, usage and errors as with every argument added up front,
    # from the full parser and from the one subcommand's parser main builds
    expected = _parse(eager_parser(), argv, capsys)
    assert _parse(build_parser(), argv, capsys) == expected
    assert _main_parse(argv, capsys, monkeypatch) == _as_main(expected)


def test_readme_flags_exist():
    # every --flag the README shows, outside its install commands, is an option
    # of some subcommand, and every flag of its "Common flags" sentence is an
    # option of every subcommand
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    per_command = [set(p._option_string_actions) for p in sub.choices.values()]
    options = set().union(*per_command)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sections = re.split(r"^(?=## )", text, flags=re.MULTILINE)
    shown = {flag for section in sections if not section.startswith("## Install\n")
             for flag in re.findall(r"--[a-z][a-z-]*", section)}
    assert "--n-range" in shown and "--help" in options
    assert shown <= options, shown - options
    (sentence,) = re.findall(r"^Common flags:.*?\.\s", text, flags=re.MULTILINE | re.DOTALL)
    common = set(re.findall(r"--[a-z][a-z-]*", sentence))
    everywhere = set.intersection(*per_command)
    assert "--inequality" in common and "--output" in common
    assert common <= everywhere, common - everywhere


def test_parser_parses_more_than_once():
    # a parser keeps no state from one parse to the next
    parser = build_parser()
    first = parser.parse_args(["table", "--n-range", "3..4"])
    assert parser.parse_args(["table", "--n-range", "3..4"]) == first


@pytest.fixture
def fresh_parsers():
    cli._subcommand_parser.cache_clear()
    yield
    cli._subcommand_parser.cache_clear()


def test_reused_parsers_keep_no_state(tmp_path, capsys, fresh_parsers):
    # a parse that fails or prints help leaves nothing behind in the cached
    # subcommand parser: later requests write what a first request writes
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps([2**-0.5] * 4))
    requests = [
        ["bound", "--inequality", "chsh", "--format", "json"],
        ["certify", "--inequality", "chsh", "--lambda-file", str(lam), "--format", "json"],
        ["realize", "--inequality", "chsh"],
    ]
    first = []
    for argv in requests:
        cli._subcommand_parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    assert [status for status, _, _ in first] == [0, 0, 0]
    cli._subcommand_parser.cache_clear()
    assert run_cli(capsys, "bound", "--n", "two")[0] == cli.EXIT_USAGE
    assert run_cli(capsys, "realize", "--help")[0] == cli.EXIT_OK
    assert run_cli(capsys, "certify", "--inequality", "chsh")[0] == cli.EXIT_USAGE
    assert cli._subcommand_parser.cache_info().currsize == 3
    assert [run_cli(capsys, *argv) for argv in requests] == first
    assert cli._subcommand_parser.cache_info().currsize == 3


def test_main_builds_each_subcommand_parser_once(tmp_path, capsys, monkeypatch,
                                                 fresh_parsers):
    # 38 mixed requests build each subcommand's parser once and the full parser
    # never, the two that the subcommand's parser refuses included
    built = collections.Counter()
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[self.prog] += 1

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps([np.cos(np.pi / 8)] * 8))
    requests = (
        [["bound", "--inequality", "chsh"]]
        + [["bound", "--inequality", family, "--n", str(n)]
           for family in ("chained", "gisin") for n in (2, 3, 4, 5)]
        + [["classical", "--inequality", family, "--n", str(n)]
           for family in ("chained", "gisin") for n in (2, 3, 4, 6)]
        + [["certify", "--n", "4", "--lambda-file", str(lam)]] * 4
        + [["realize", "--inequality", family, "--n", str(n)]
           for family in ("chained", "gisin") for n in (2, 3, 4)]
        + [["spectrum", "--n", str(n)] for n in range(2, 9)]
        + [["table", "--inequality", family, "--n-range", "2..3"]
           for family in ("chained", "gisin")]
        # kinds these subcommands do not read: usage errors from their own parsers
        + [["spectrum", "--inequality", "gisin"], ["table", "--inequality", "chsh"]]
    )
    assert len(requests) == 38
    statuses = [main([*argv, "--format", "json"]) for argv in requests]
    capsys.readouterr()
    assert statuses == [0] * 36 + [cli.EXIT_USAGE] * 2
    assert built == {f"tsirelson {name}": 1 for name in cli._SUBCOMMANDS}


def test_library_import_skips_cli():
    # the argument parser is a cost of the command line only
    src = str(Path(tsirelson.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, tsirelson\n"
        "loaded = {'argparse', 'tsirelson.cli'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
