"""Command-line interface: subcommands, exit codes, JSON contracts."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factorcomm as fc
from factorcomm.cli import main, parse_complex, parse_complex_list
from factorcomm.errors import ConvergenceFailure, InvalidParameter
from factorcomm.sampling import random_hermitian, random_unitary, rng_for


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


@pytest.mark.parametrize("flag", ["--epsilon=nan", "--epsilon=inf", "--a=-inf", "--b=inf", "--a=nan"])
def test_stone_non_finite_parameter_exits_2_with_one_line(tmp_path, capsys, flag):
    """Before, epsilon nan and the infinite endpoints exited 2 as 'out of
    floating-point range', and epsilon inf as 'distance > inf'."""
    mat = tmp_path / "d123.json"
    mat.write_text(json.dumps(fc.matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex))))
    assert main(["stone", str(mat), "--a", "1.5", "--b", "2.5", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "finite" in captured.err


def test_suite_command_exit_codes(capsys):
    assert main(["suite", "--seed", "42", "--trials", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failed"] == 0

    assert main(["suite", "--seed", "42", "--trials", "2", "--tol", "1e-18"]) == 1
    broken = json.loads(capsys.readouterr().out)
    assert broken["failed"] > 0
    assert broken["failures"][0]["property_name"]


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["analyze", "intertwine", "commutant", "stone", "suite"])
def test_tol_that_is_not_finite_and_positive_exits_2_with_one_line(tmp_path, capsys, command, tol):
    """Before, analyze on clock-shift 4 with tol 0, -1 or nan reported a
    consistent NONE, and with tol inf ANY."""
    pair, matrix = tmp_path / "pair.json", tmp_path / "m.json"
    pair.write_text(json.dumps(fc.clock_shift_pair(4).to_json()))
    matrix.write_text(json.dumps(fc.matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex))))
    args = {
        "analyze": [str(pair)],
        "intertwine": [str(pair)],
        "commutant": [str(matrix), "--lambda", "2,0"],
        "stone": [str(matrix), "--a", "1.5", "--b", "2.5"],
        "suite": ["--trials", "1"],
    }[command]
    assert main([command, *args, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol must be finite and positive, got {float(tol)}\n"


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


def test_generate_missing_parameter_exits_2(capsys):
    assert main(["generate", "--kind", "clock-shift"]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: realization kind 'clock-shift' needs parameter 'n'"]


LAZY_SCIPY_SCRIPT = """
import json, os, sys
import factorcomm, factorcomm.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

work = sys.argv[1]
pair, diag = os.path.join(work, "pair.json"), os.path.join(work, "diag.json")
after_import = scipy_modules()
random_loaded = {"after_import": "numpy.random" in sys.modules}
codes = [cli.main(["generate", "--kind", "clock-shift", "--n", "4", "--out", pair]),
         cli.main(["generate", "--kind", "clock-shift"])]
after_generate = scipy_modules()
random_loaded["after_generate"] = "numpy.random" in sys.modules
with open(diag, "w") as handle:
    json.dump(factorcomm.matrix_to_json([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]), handle)
codes.append(cli.main(["analyze", pair]))
after_analyze = scipy_modules()
random_loaded["after_analyze"] = "numpy.random" in sys.modules
for rule in ("trapezoid", "gauss-legendre"):
    codes.append(cli.main(["stone", diag, "--a", "1.5", "--b", "2.5", "--nodes", "400", "--rule", rule]))
after_stone = scipy_modules()
codes.append(cli.main(["commutant", diag, "--lambda", "1"]))
print(json.dumps({"after_import": after_import, "after_generate": after_generate,
                  "after_analyze": after_analyze, "after_stone": after_stone, "codes": codes,
                  "at_exit": scipy_modules(), "random_loaded": random_loaded}))
"""


def test_import_and_generate_load_no_scipy(tmp_path):
    """scipy is imported inside the functions that call it, so start-up,
    generate, analyze, stone (either rule) and error paths pay only for
    numpy; commutant loads scipy.linalg, and no command loads scipy.optimize.
    Nothing up to analyze draws a random number, so numpy.random stays
    unloaded too."""
    src = str(Path(fc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["after_generate"] == []
    assert result["after_analyze"] == []
    assert result["random_loaded"] == {"after_import": False, "after_generate": False, "after_analyze": False}
    assert result["after_stone"] == []
    assert result["codes"] == [0, 2, 0, 0, 0, 0]
    assert "scipy.linalg" in result["at_exit"]
    assert not [m for m in result["at_exit"] if m.startswith("scipy.optimize")]


def test_solve_lambda_commutant_looks_up_schur_at_call_time(monkeypatch):
    import scipy.linalg

    calls = []
    schur = scipy.linalg.schur

    def counting_schur(*args, **kwargs):
        calls.append(args)
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    basis = fc.solve_lambda_commutant(np.diag([1.0, 2.0]).astype(complex), 2.0)
    assert len(calls) == 1
    assert len(basis) == 1


DIAG_123 = np.diag([1.0, 2.0, 3.0]).astype(complex)
# (module, solver, library call that reaches it, CLI command that reaches it or None)
LAPACK_ROUTES = [
    ("numpy.linalg", "eigh", lambda: fc.hermitian_eig(DIAG_123), ["stone", "m.json", "--a", "1.5", "--b", "2.5"]),
    ("numpy.linalg", "eigvalsh", lambda: fc.resolvent_norm_check(DIAG_123, 2.5j), None),
    ("numpy.linalg", "eigvalsh", lambda: fc.transported_integrand_bound(DIAG_123, -1.0, (0.5, 1.5), 1e-3), None),
    ("scipy.linalg", "schur", lambda: fc.solve_lambda_commutant(DIAG_123, 2.0), ["commutant", "m.json", "--lambda", "2"]),
]


@pytest.mark.parametrize(
    "module, solver, call, argv",
    LAPACK_ROUTES,
    ids=["eigh", "eigvalsh-norm-check", "eigvalsh-transported-bound", "schur"],
)
def test_lapack_failure_is_a_convergence_failure_and_exits_2(tmp_path, capsys, monkeypatch, module, solver, call, argv):
    """A decomposition that does not converge raises LinAlgError; the library
    raises ConvergenceFailure, and the command exits 2 with one line."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(importlib.import_module(module), solver, fail)
    with pytest.raises(ConvergenceFailure):
        call()
    if argv is not None:
        (tmp_path / "m.json").write_text(json.dumps(fc.matrix_to_json(DIAG_123)))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: did not converge\n"


def _pair_file(tmp_path, A, B):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(fc.OperatorPair(A=A, B=B).to_json()))
    return str(path)


def test_analyze_zero_product_with_nonzero_reverse_product_is_none(tmp_path, capsys):
    """AB = 0 != BA: no nonzero factor turns BA into AB, so the report says
    NONE and analyze exits 0."""
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    B = np.diag([1.0, 0.0]).astype(complex)
    assert main(["analyze", _pair_file(tmp_path, A, B)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NONE"
    assert report["lambda_hat"] is None
    assert report["consistent"]


def test_analyze_out_of_range_clock_shift_exits_2_with_one_line(tmp_path, capsys):
    """Both factors x1e160: the entries are in range, but ||AB||_F = 2e320
    is not, and the report carries it in the original units."""
    pair = fc.clock_shift_pair(4)
    path = _pair_file(tmp_path, 1e160 * pair.A, 1e160 * pair.B)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: out of floating-point range: ")


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e-5, 1e-3, 1.0, 1e5, 1e150])
def test_intertwine_refuses_a_pair_without_intertwiner_at_every_scale(tmp_path, capsys, scale):
    """The norm condition is judged relative to ||A||_F^2 ||B||_F^2 on the
    scaled pair, so scaling does not turn the refusal into a U (or into exit 3)."""
    rng = rng_for(5)
    A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
    assert main(["intertwine", _pair_file(tmp_path, scale * A, scale * B)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("condition failed: AB^2A != BA^2B")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e-5, 1e-3, 1.0, 1e5, 1e150])
def test_intertwine_accepts_a_product_that_vanishes_up_to_rounding(tmp_path, capsys, scale):
    """A = W diag(1, 1, 0, 0) W*, B = W diag(0, 0, 1, 2) W*: AB is rounding,
    which the norm condition reads as zero against ||A||_F^2 ||B||_F^2."""
    W = random_unitary(rng_for(3), 4)
    A = W @ np.diag([1.0, 1.0, 0.0, 0.0]) @ W.conj().T
    B = W @ np.diag([0.0, 0.0, 1.0, 2.0]) @ W.conj().T
    assert main(["intertwine", _pair_file(tmp_path, scale * A, scale * B)]) == 0
    captured = capsys.readouterr()
    U = fc.matrix_from_json(json.loads(captured.out)["U"])
    assert captured.err == "" and fc.verify_intertwiner(fc.OperatorPair(A=A, B=B), U)


def test_analyze_entries_near_double_max_exit_2_with_one_line(tmp_path, capsys):
    big = np.full((2, 2), 1e308, dtype=complex)
    assert main(["analyze", _pair_file(tmp_path, big, big)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: out of floating-point range: overflow encountered in matmul"]


def test_generate_overflowing_parameter_exits_2_with_one_line(capsys):
    assert main(["generate", "--kind", "jordan3", "--lambda", "1e308", "--x", "1e308"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: out of floating-point range: ")


@pytest.mark.parametrize("scale", [1.0, 1e50, 1e80])
def test_analyze_large_but_representable_pair_prints_a_report(tmp_path, capsys, scale):
    pair = fc.clock_shift_pair(4)
    code = main(["analyze", _pair_file(tmp_path, scale * pair.A, pair.B)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""
    assert json.loads(captured.out)["status"] == "UNIQUE"


@pytest.mark.parametrize("scale", [1e50, 1e78, 1e150])
def test_analyze_scaled_clock_shift_is_consistent(tmp_path, capsys, scale):
    """lambda does not change under A -> scale * A: the unitarity test and
    the spectrum matches are scale-free, so the report stays consistent."""
    pair = fc.clock_shift_pair(4)
    assert main(["analyze", _pair_file(tmp_path, scale * pair.A, pair.B)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == ""
    assert report["status"] == "UNIQUE" and report["consistent"] and not report["violations"]
    assert abs(complex(*report["lambda_hat"]) - 1j) <= 1e-12


@pytest.mark.parametrize(
    "scale_A, scale_B",
    [(1e-150, 1.0), (1e155, 1.0), (1e200, 1.0), (1e-160, 1e-160)],
    ids=["A-1e-150", "A-1e155", "A-1e200", "both-1e-160"],
)
def test_analyze_clock_shift_scaled_past_the_old_range_is_consistent(tmp_path, capsys, scale_A, scale_B):
    """Every check runs on factors scaled by powers of two with relative
    cuts, so tiny factors are not read as zero and huge ones do not
    overflow: the report is the unscaled pair's, lambda = i."""
    pair = fc.clock_shift_pair(4)
    assert main(["analyze", _pair_file(tmp_path, scale_A * pair.A, scale_B * pair.B)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == ""
    assert report["status"] == "UNIQUE" and report["consistent"] and not report["violations"]
    assert abs(complex(*report["lambda_hat"]) - 1j) <= 1e-12


@pytest.mark.parametrize("n", [99, 200])
def test_analyze_pair_whose_powers_and_det_exceed_double_range_prints_a_report(tmp_path, capsys, n):
    """A = B = diag(1..n): the entries are small, but det(AB) = (n!)^2 and,
    for n = 200, tr[A B^k] pass 1e308; the trace and determinant rules keep
    their intermediates in range, so the pair is classified, not refused.
    The first trace, tr[A B^1] = sum of j^2, is the one witness reported."""
    D = np.diag(np.arange(1.0, n + 1)).astype(complex)
    assert main(["analyze", _pair_file(tmp_path, D, D)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "UNIQUE"
    assert abs(complex(*report["lambda_hat"]) - 1.0) <= 1e-12
    sources = [c["source"] for c in report["constraints"]]
    assert [s for s in sources if s.startswith("nonzero trace ")] == [
        f"nonzero trace tr[A B^1] = {complex(n * (n + 1) * (2 * n + 1) // 6):.6g}"
    ]
    expected_det = {99: "(8.70978+0j)e+311", 200: "(6.21981+0j)e+749"}[n]
    assert sources[-1] == f"nonzero det(AB) = {expected_det}"


def test_analyze_reports_a_first_trace_witness_beyond_double_range(tmp_path, capsys):
    """A = diag(w^(-5j)), B = 1e70 diag(w^j), n = 8: tr[A B^k] = 0 for k < 5
    up to rounding of relative size 1e-16, which must not count however
    large it is in absolute terms, and tr[A B^5] = 8e350 is the witness."""
    j = np.arange(8)
    A = np.diag(np.exp(-2j * np.pi * 5 * j / 8))
    B = 1e70 * np.diag(np.exp(2j * np.pi * j / 8))
    assert main(["analyze", _pair_file(tmp_path, A, B)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    sources = [c["source"] for c in json.loads(captured.out)["constraints"]]
    traces = [s for s in sources if s.startswith("nonzero trace ")]
    assert len(traces) == 1
    assert traces[0].startswith("nonzero trace tr[A B^5] = (8")
    assert traces[0].endswith("j)e+350")
