"""Command-line interface: subcommands, exit codes, JSON contracts."""

import json
import subprocess
import sys

import numpy as np
import pytest

import factorcomm as fc
from factorcomm.cli import main, parse_complex, parse_complex_list
from factorcomm.errors import InvalidParameter


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "factorcomm.cli", *args], capture_output=True, text=True
    )


def test_parse_complex():
    assert parse_complex("3,0") == 3.0
    assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
    assert parse_complex("2") == 2.0
    with pytest.raises(InvalidParameter):
        parse_complex("abc")
    with pytest.raises(InvalidParameter):
        parse_complex("1,2,3")
    assert parse_complex_list("1,0;3,0") == [1.0, 3.0]
    with pytest.raises(InvalidParameter):
        parse_complex_list(";")


def test_generate_clock_shift(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code = main(["generate", "--kind", "clock-shift", "--n", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["A"]["rows"] == 4
    assert data["declared_lambda"] == [pytest.approx(0.0, abs=1e-15), pytest.approx(1.0)]
    pair = fc.OperatorPair.from_json(data)
    assert fc.detect_factor(pair).status == fc.UNIQUE


def test_generate_to_stdout(capsys):
    code = main(["generate", "--kind", "pauli-xy"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert np.allclose(fc.OperatorPair.from_json(data).A, fc.PAULI_X)


def test_generate_invalid_parameter_exits_2(capsys):
    code = main(["generate", "--kind", "cyclic-shift-diag", "--n", "4", "--lambda", "3,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda^N != 1" in err


def test_analyze_round_trip_every_kind(tmp_path, capsys):
    cases = [
        ["--kind", "clock-shift", "--n", "5"],
        ["--kind", "cyclic-shift-diag", "--n", "6", "--lambda", "0.5,0.8660254037844387"],
        ["--kind", "nilpotent-diag", "--betas", "1,0;3,0", "--pivot", "1", "--lambda", "3,0"],
        ["--kind", "jordan2", "--x", "1,0", "--y", "2,0", "--lambda", "5,0"],
        ["--kind", "jordan3", "--x", "1,0", "--y", "0,1", "--z", "0.5,0", "--lambda", "0,2"],
        ["--kind", "pauli-xy"],
        ["--kind", "uq-sl2", "--n", "2", "--q", "2,0", "--eps", "1"],
    ]
    for i, case in enumerate(cases):
        out = tmp_path / f"pair{i}.json"
        assert main(["generate", *case, "--out", str(out)]) == 0
        code = main(["analyze", str(out)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 0, (case, report["violations"])
        assert report["consistent"] is True
        if case[1] == "pauli-xy":
            assert report["status"] == "UNIQUE"
            assert report["lambda_hat"] == [pytest.approx(-1.0), pytest.approx(0.0)]


def test_analyze_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 2
    capsys.readouterr()

    # rigged borderline pair: fitted factor near -1 while a nonzero trace
    # demands +1 at the loose tolerance -> violations, exit 1
    delta = 2e-3
    pair = fc.OperatorPair(A=fc.PAULI_X, B=fc.PAULI_Y + delta * fc.PAULI_X)
    rigged = tmp_path / "rigged.json"
    rigged.write_text(json.dumps(pair.to_json()))
    code = main(["analyze", str(rigged), "--tol", "1e-3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["violations"]


@pytest.mark.parametrize("lam", ["x", [1], [None, 1], {"a": 1}, [1, 2, 3]])
def test_analyze_malformed_declared_lambda_exits_2(tmp_path, lam):
    data = fc.OperatorPair(A=np.eye(2), B=fc.PAULI_X).to_json()
    data["declared_lambda"] = lam
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["analyze", str(path)])
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr


BIG_INT = "1" + "0" * 400  # exceeds the double range
HUGE_INT = "1" + "0" * 5000  # exceeds Python's integer digit limit for parsing


@pytest.mark.parametrize(
    "field, literal",
    [
        ("data", f"[{BIG_INT}, 0]"),
        ("declared_lambda", f"[{BIG_INT}, 0]"),
        ("data", "[true, 0]"),
        ("declared_lambda", "[1, false]"),
        ("data", f"[{HUGE_INT}, 0]"),
    ],
    ids=["big-int-data", "big-int-lambda", "bool-data", "bool-lambda", "huge-int-data"],
)
def test_analyze_unrepresentable_json_numbers_exit_2(tmp_path, capsys, field, literal):
    data = fc.OperatorPair(A=np.eye(2), B=fc.PAULI_X).to_json()
    if field == "data":
        data["A"]["data"][0] = "@"
    else:
        data["declared_lambda"] = "@"
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data).replace('"@"', literal))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_analyze_invalid_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_bytes(b"\xff{")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_intertwine_exit_codes(tmp_path, capsys):
    good = tmp_path / "itw.json"
    assert main(["generate", "--kind", "pauli-intertwiner", "--out", str(good)]) == 0
    code = main(["intertwine", str(good)])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    U = fc.matrix_from_json(data["U"])
    assert np.linalg.norm(U - 1j * fc.PAULI_Z) <= 1e-10

    # condition failure -> exit 1
    pair = fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=fc.PAULI_X)
    bad = tmp_path / "cond.json"
    bad.write_text(json.dumps(pair.to_json()))
    assert main(["intertwine", str(bad)]) == 1
    capsys.readouterr()

    # non-Hermitian input -> exit 2
    nonherm = fc.OperatorPair(A=np.array([[0, 1], [0, 0]], dtype=complex), B=fc.PAULI_X)
    nh = tmp_path / "nh.json"
    nh.write_text(json.dumps(nonherm.to_json()))
    assert main(["intertwine", str(nh)]) == 2
    capsys.readouterr()


def test_commutant_command(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(fc.matrix_to_json(np.diag([1.0, 2.0]).astype(complex))))
    code = main(["commutant", str(mat), "--lambda", "2,0"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["dimension"] == 1
    basis0 = fc.matrix_from_json(data["basis"][0])
    assert np.allclose(basis0, [[0, 0], [1, 0]], atol=1e-12)

    eye = tmp_path / "eye.json"
    eye.write_text(json.dumps(fc.matrix_to_json(np.eye(3, dtype=complex))))
    assert main(["commutant", str(eye), "--lambda", "1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 9

    jordan = tmp_path / "j.json"
    jordan.write_text(
        json.dumps(fc.matrix_to_json(np.array([[0, 1], [0, 0]], dtype=complex)))
    )
    assert main(["commutant", str(jordan), "--lambda", "1,0"]) == 2
    capsys.readouterr()


def test_stone_command(tmp_path, capsys):
    mat = tmp_path / "d123.json"
    mat.write_text(json.dumps(fc.matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex))))
    code = main(
        ["stone", str(mat), "--a", "1.5", "--b", "2.5", "--epsilon", "1e-3", "--nodes", "2000"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    proj = fc.matrix_from_json(data["projection"])
    assert np.linalg.norm(proj - np.diag([0.0, 1.0, 0.0])) <= 5e-3
    assert data["exact_error"] <= 5e-3

    # wider interval: spacing must track epsilon (<= eps/5), hence more nodes
    wide_nodes = str(fc.default_node_count((0.5, 3.5), 1e-3))
    assert main(["stone", str(mat), "--a", "0.5", "--b", "3.5", "--nodes", wide_nodes]) == 0
    wide = json.loads(capsys.readouterr().out)
    assert np.linalg.norm(fc.matrix_from_json(wide["projection"]) - np.eye(3)) <= 5e-3

    assert main(["stone", str(mat), "--a", "1", "--b", "2.5"]) == 2
    capsys.readouterr()


def test_suite_command_exit_codes(capsys):
    assert main(["suite", "--seed", "42", "--trials", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failed"] == 0

    assert main(["suite", "--seed", "42", "--trials", "2", "--tol", "1e-18"]) == 1
    broken = json.loads(capsys.readouterr().out)
    assert broken["failed"] > 0
    assert broken["failures"][0]["property_name"]


def test_suite_byte_identical_across_processes():
    first = run_cli(["suite", "--seed", "11", "--trials", "3"])
    second = run_cli(["suite", "--seed", "11", "--trials", "3"])
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_generate_byte_identical_across_processes():
    first = run_cli(["generate", "--kind", "uq-sl2", "--n", "3", "--q", "1.3,0.7"])
    second = run_cli(["generate", "--kind", "uq-sl2", "--n", "3", "--q", "1.3,0.7"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
