import json

import numpy as np
import pytest

from tsirelson import realization
from tsirelson.cli import canonical_json, main


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
    args = ("bound", "--inequality", "gisin", "--n", "3", "--format", "json",
            "--seed", "2")
    status, out1, _ = run_cli(capsys, *args)
    assert status == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    reserialized = canonical_json(json.loads(out1)) + "\n"
    assert reserialized == out1


def test_bound_embeds_config(capsys):
    _, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "3", "--format", "json",
        "--seed", "4", "--rank", "6",
    )
    cfg = json.loads(out)["config"]
    assert cfg["command"] == "bound"
    assert cfg["inequality"] == "chained"
    assert cfg["n"] == 3
    assert cfg["seed"] == 4
    assert cfg["rank"] == 6


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TSIRELSON_SEED", "17")
    _, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "2", "--format", "json"
    )
    assert json.loads(out)["config"]["seed"] == 17
    # explicit flag wins
    _, out, _ = run_cli(
        capsys, "bound", "--inequality", "chained", "--n", "2", "--format", "json",
        "--seed", "3",
    )
    assert json.loads(out)["config"]["seed"] == 3


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


def test_table_bad_range(capsys):
    status, _, err = run_cli(capsys, "table", "--n-range", "8..2")
    assert status == 1
    assert "n-range" in err


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


@pytest.mark.parametrize("n, dim", [(2, 4), (6, 64)])
def test_realize_solved_family(capsys, n, dim):
    status, out, _ = run_cli(
        capsys, "realize", "--inequality", "gisin", "--n", str(n), "--format", "json"
    )
    assert status == 0
    doc = json.loads(out)
    assert doc["dimension"] == dim
    assert doc["achieved_value"] == pytest.approx(doc["certified_bound"], abs=1e-6)
    assert doc["max_correlation_error"] <= 1e-10


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
    # (M + M^T)/2 used to overflow on the 1e308 diagonal entry
    lam_path = tmp_path / "lam.json"
    lam_path.write_text("[1e308, 0, 0, 0]")
    status, out, _ = run_cli(
        capsys, "certify", "--inequality", "chsh",
        "--lambda-file", str(lam_path), "--format", "json",
    )
    assert status == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["certified_bound"] == 1e308
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
    for command in ("bound", "realize", "table"):
        status, out, err = run_cli(
            capsys, command, "--inequality", "gisin", "--n", "2", flag, value
        )
        assert status == 1
        assert out == ""
        assert flag.lstrip("-") in err


def test_bad_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TSIRELSON_SEED", "abc")
    status, out, err = run_cli(capsys, "bound", "--inequality", "chsh")
    assert status == 1
    assert out == ""
    assert "TSIRELSON_SEED" in err
    # an explicit flag wins, and commands without a solver never read it
    assert run_cli(capsys, "bound", "--inequality", "chsh", "--seed", "1")[0] == 0
    assert run_cli(capsys, "classical", "--inequality", "chsh")[0] == 0
