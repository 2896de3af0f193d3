"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np

import factorcomm as fc
from factorcomm.sampling import ginibre, random_hermitian, random_psd, rng_for
from factorcomm.suite import (
    _maps_agree,
    _structured_commuting_pair,
    _structured_pauli_tensor_pair,
)

SX = fc.PAULI_X
SY = fc.PAULI_Y
SZ = fc.PAULI_Z


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {title}")
        raise
    print(f"[PASS] criterion {number:2d}: {title}")


def test_c01_pauli_anticommutation():
    with criterion(1, "Pauli anticommutation factor -1 with consistent classification"):
        report = fc.detect_factor(fc.OperatorPair(A=SX, B=SY))
        assert report.status == fc.UNIQUE
        assert abs(report.lambda_hat + 1.0) <= 1e-12
        assert report.residual <= 1e-12
        classification = fc.classify_pair(fc.OperatorPair(A=SX, B=SY))
        assert classification.consistent
        pm1 = [c for c in classification.constraints if c.kind == "pm1"]
        assert pm1 and all(c.satisfied for c in pm1)


def test_c02_intertwiner_example():
    with criterion(2, "unitary intertwiner i*sigma_z reproduced to 1e-10"):
        pair = fc.OperatorPair(A=SX, B=(SX + SY) / np.sqrt(2.0))
        result = fc.construct_intertwiner(pair)
        assert np.linalg.norm(result.U - 1j * SZ) <= 1e-10
        assert np.linalg.norm(result.U.conj().T @ result.U - np.eye(2)) <= 1e-10
        AB = pair.A @ pair.B
        assert np.linalg.norm(AB - result.U @ (pair.B @ pair.A)) <= 1e-10


def test_c03_product_spectrum_identity():
    with criterion(3, "sigma(AB) = sigma(BA) on 200 seeded random pairs at 1e-7"):
        failures = 0
        for trial in range(200):
            rng = rng_for(1003, trial)
            n = int(rng.integers(2, 9))
            pair = fc.OperatorPair(A=ginibre(rng, n), B=ginibre(rng, n))
            if not fc.spectrum_swap_check(pair, 1e-7).matched:
                failures += 1
        assert failures == 0


def test_c04_spectrum_identities_for_builtins():
    with criterion(4, "built-in realizations: swap/rotation at 1e-9, nilpotent products"):
        for pair in fc.builtin_pairs():
            lam = pair.declared_lambda
            if lam is None:
                continue
            assert fc.spectrum_swap_check(pair, 1e-9).matched, pair.label
            spectrum = fc.eigenvalues(pair.A @ pair.B)
            assert fc.spectrum_rotation_check(spectrum, lam, 1e-9).matched, pair.label
            if pair.label.startswith("nilpotent-diag") and abs(lam) in (
                3.0,
                1.0 / 3.0,
            ):
                assert np.abs(spectrum).max() <= 1e-9, pair.label


def test_c05_trace_and_determinant_constraints():
    with criterion(5, "clock-shift roots of unity and the trace obstruction"):
        for n in range(2, 11):
            pair = fc.clock_shift_pair(n)
            report = fc.detect_factor(pair)
            assert report.status == fc.UNIQUE
            assert abs(report.lambda_hat**n - 1.0) <= 1e-9, n
            assert abs(np.linalg.det(pair.A @ pair.B)) > 1e-9, n
        same = fc.OperatorPair(A=SX, B=SX)
        constraints = fc.trace_det_constraints(same, kmax=1)
        ones = [c for c in constraints if c.kind == "one"]
        assert ones and "tr[A B^1]" in ones[0].source
        assert abs(fc.detect_factor(same).lambda_hat - 1.0) <= 1e-12


def test_c06_positive_anticommutant_is_zero():
    with criterion(6, "PSD matrices admit no -1-commutant beyond ker: ||AB|| <= 1e-9"):
        for trial in range(100):
            rng = rng_for(1006, trial)
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n + 1))
            A = random_psd(rng, n, rank)
            for B in fc.solve_lambda_commutant(A, -1.0):
                assert np.linalg.norm(A @ B) <= 1e-9, trial


def test_c07_norm_condition_equivalence():
    with criterion(7, "norm-condition equivalence on 500 random + structured Hermitian pairs"):
        for trial in range(500):
            rng = rng_for(1007, trial)
            n = int(rng.integers(2, 9))
            pair = fc.OperatorPair(A=random_hermitian(rng, n), B=random_hermitian(rng, n))
            assert fc.gudder_nagy_check(pair, 1e-8).consistent, trial
        for trial in range(100):
            rng = rng_for(1008, trial)
            pair = (
                _structured_commuting_pair(rng, 8)
                if trial % 2
                else _structured_pauli_tensor_pair(rng, 8)
            )
            report = fc.gudder_nagy_check(pair, 1e-8)
            assert report.consistent and report.lhs_holds and report.rhs_holds, trial
        for pair in fc.builtin_pairs():
            flags_a = fc.classify_structure(pair.A)
            flags_b = fc.classify_structure(pair.B)
            if flags_a.hermitian and flags_b.hermitian:
                assert fc.gudder_nagy_check(pair, 1e-8).consistent, pair.label


def test_c08_uq_sl2_relations():
    with criterion(8, "q-deformed sl2 relations, nilpotency and identifications"):
        qs = (2.0, 0.5, 1.3 * np.exp(0.7j))
        for n in range(0, 11):
            for q in qs:
                for eps in (1, -1):
                    mod = fc.uq_sl2_module(n, q, eps)
                    res = fc.verify_uq_relations(mod)
                    assert max(res.kk_inv, res.ke_rel, res.kf_rel, res.ef_rel) <= 1e-9
                    dim = n + 1
                    assert np.linalg.norm(np.linalg.matrix_power(mod.E, dim)) <= 1e-9
                    assert np.linalg.norm(np.linalg.matrix_power(mod.F, dim)) <= 1e-9
        for q in qs:
            mod = fc.uq_sl2_module(2, q, 1)
            bracket = q + 1.0 / q
            assert np.allclose(
                mod.E, [[0, bracket, 0], [0, 0, bracket], [0, 0, 0]], atol=1e-12
            )
            assert np.allclose(mod.F, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], atol=0)
            assert np.allclose(mod.K, np.diag([q**2, 1.0, q**-2]), atol=1e-12)
            pair = fc.jordan_pair(3, x=q**2, y=0.0, z=0.0, lam=q**-2)
            assert np.allclose(pair.A, mod.K, atol=1e-12)
            assert np.allclose(pair.B, mod.F, atol=0)


def test_c09_stone_formula_and_resolvent_bounds():
    with criterion(9, "projection quadrature, first-order limit, resolvent bounds"):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        oracle = np.diag([0.0, 1.0, 0.0]).astype(complex)
        spec = fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=1e-3, nodes=2000)
        err = np.linalg.norm(fc.stone_projection(A, spec).projection - oracle)
        assert err <= 5e-3
        half = fc.StoneQuadratureSpec(interval=(1.5, 2.5), epsilon=5e-4, nodes=4000)
        err_half = np.linalg.norm(fc.stone_projection(A, half).projection - oracle)
        assert err / err_half >= 1.5

        for trial in range(100):
            rng = rng_for(1009, trial)
            n = int(rng.integers(2, 9))
            H = random_hermitian(rng, n) * 2.0
            eigs = np.linalg.eigvalsh(H)
            w = None
            while w is None:
                cand = complex(
                    rng.uniform(eigs.min() - 3, eigs.max() + 3), rng.uniform(-3, 3)
                )
                if np.abs(eigs - cand).min() > 0.1:
                    w = cand
            assert fc.resolvent_norm_check(H, w, 1e-9), trial

        for trial in range(50):
            rng = rng_for(1010, trial)
            n = int(rng.integers(1, 7))
            P = random_psd(rng, n)
            if trial % 3 == 0:
                lam = complex(-1.0)
            else:
                lam = complex(
                    rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.15, 2 * np.pi - 0.15))
                )
            a = rng.uniform(0.2, 1.0)
            b = a + rng.uniform(0.5, 2.0)
            eps = 10.0 ** rng.uniform(-4, -2)
            report = fc.transported_integrand_bound(P, lam, (a, b), eps)
            assert report.holds and report.integrand_max <= report.bound * (1 + 1e-12)


def test_c10_measurement_maps():
    with criterion(10, "measurement maps agree for unimodular factors, refuted otherwise"):
        checked = 0
        for pair in fc.builtin_pairs():
            report = fc.detect_factor(pair)
            if report.status != fc.UNIQUE or report.residual > 1e-10:
                continue
            if abs(abs(report.lambda_hat) - 1.0) > 1e-10:
                continue
            assert fc.measurement_map_check(pair, tol=1e-9), pair.label
            assert _maps_agree(pair, 5, seed=checked, tol=1e-9), pair.label
            checked += 1
        assert checked >= 5
        counterexample = fc.OperatorPair(A=np.diag([1.0, 2.0]).astype(complex), B=SX)
        assert not fc.measurement_map_check(counterexample, tol=1e-9)
        assert not _maps_agree(counterexample, 5, seed=0, tol=1e-9)


def test_c11_cli_determinism_and_round_trips(tmp_path):
    with criterion(11, "CLI suite determinism and generate/analyze round trips"):
        cmd = [sys.executable, "-m", "factorcomm.cli", "suite", "--seed", "42", "--trials", "200"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

        cases = [
            ["--kind", "clock-shift", "--n", "4"],
            ["--kind", "cyclic-shift-diag", "--n", "4", "--lambda=-1,0"],
            ["--kind", "nilpotent-diag", "--betas", "1,0;3,0", "--pivot", "1", "--lambda", "3,0"],
            ["--kind", "jordan2", "--x", "1,0", "--y", "2,0", "--lambda", "5,0"],
            ["--kind", "jordan3", "--x", "1.5,0", "--y", "0,1", "--z", "0.25,0", "--lambda", "0,0.5"],
            ["--kind", "pauli-xy"],
            ["--kind", "pauli-intertwiner"],
            ["--kind", "uq-sl2", "--n", "2", "--q", "2,0"],
        ]
        from factorcomm.cli import main

        for i, case in enumerate(cases):
            out = tmp_path / f"pair{i}.json"
            assert main(["generate", *case, "--out", str(out)]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "factorcomm.cli", "analyze", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (case, proc.stdout[-400:])
            assert json.loads(proc.stdout)["consistent"] is True
