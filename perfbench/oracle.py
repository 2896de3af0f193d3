"""Checks every op's output against the answer its input was built to have.

A verdict is OK, FAILED, or BASELINE.  BASELINE marks a wrong answer whose
exact shape is a defect already recorded in KNOWN_DEFECTS:
the input stays in the traffic, the wrong answer is counted and reported,
and it is kept apart from FAILED, which means a failure nobody has recorded
yet.  A wrong answer of any other shape on the same input is FAILED.
"""

import json
import re
from dataclasses import dataclass

import numpy as np

from .traffic import SX, SXY, matrix_from

OK, FAILED, BASELINE = "ok", "failed", "baseline"

KNOWN_DEFECTS = {
    "nilpotency-test": "classify_structure judges quasi-nilpotency by eigenvalue size, "
    "which roundoff breaks after a change of basis: spurious |lambda| = 1, "
    "swap and rotation violations on pairs with a nilpotent factor",
    "trace-tolerance": "trace_det_constraints compares traces of unscaled powers with an "
    "absolute tolerance: spurious 'lambda = 1' and 'lambda^n = 1' constraints",
    "declared-lambda-input": "a malformed declared_lambda escapes OperatorPair.from_json "
    "as a Python exception: exit 1 with a traceback instead of exit 2",
}

_NILPOTENCY = re.compile(
    r"^\|lambda\| = 1 violated|not invariant under lambda|^sigma\(AB\) != sigma\(BA\)"
    r"|requires a quasi-nilpotent product"
)
_TRACE = re.compile(r"^lambda = 1 violated .*nonzero trace|^lambda\^\d+ = 1 violated .*nonzero det")
# Families whose construction has a nilpotent factor and a nilpotent product.
NILPOTENT_FAMILIES = ("nilpotent-diag", "jordan", "uq-sl2")


@dataclass
class Verdict:
    status: str
    reason: str = ""
    defect: str = ""


def _lam_close(got, want) -> bool:
    return got is not None and abs(got - want) <= 1e-6 * max(1.0, abs(want))


def classify_verdict(case, status, lam_hat, consistent, violations) -> Verdict:
    """Judge a classification of ``case`` (a traffic.PairCase)."""
    if status != case.status:
        return Verdict(FAILED, f"{case.label}: status {status}, expected {case.status}")
    if case.lam is not None and not _lam_close(lam_hat, case.lam):
        return Verdict(FAILED, f"{case.label}: lambda_hat {lam_hat}, expected {case.lam}")
    if consistent:
        return Verdict(OK)
    defects = set()
    for text in violations:
        if case.family in NILPOTENT_FAMILIES and _NILPOTENCY.search(text):
            defects.add("nilpotency-test")
        elif case.lam is not None and case.lam != 1 and _TRACE.search(text):
            defects.add("trace-tolerance")
        else:
            return Verdict(FAILED, f"{case.label}: unexpected violation {text!r}")
    return Verdict(BASELINE, f"{case.label}: inconsistent", "+".join(sorted(defects)))


def intertwiner_verdict(case, U, verified) -> Verdict:
    AB, BA = case.A @ case.B, case.B @ case.A
    n = case.n
    residual = np.linalg.norm(AB - U @ BA) / max(1.0, np.linalg.norm(AB))
    unitary = np.linalg.norm(U.conj().T @ U - np.eye(n))
    if not verified or residual > 1e-8 or unitary > 1e-8:
        return Verdict(FAILED, f"{case.label}: intertwiner residual {residual:.3e}, unitarity {unitary:.3e}")
    return Verdict(OK)


def stone_verdict(case, projection) -> Verdict:
    err = float(np.linalg.norm(projection - case.projection))
    if not err <= case.error_bound:
        return Verdict(FAILED, f"{case.label}: projection error {err:.3e} > bound {case.error_bound:.3e}")
    return Verdict(OK)


def suite_verdict(seed, outcome) -> Verdict:
    if outcome.failed:
        names = sorted({f.property_name for f in outcome.failures})
        return Verdict(FAILED, f"suite seed {seed}: {outcome.failed} failed ({', '.join(names)})")
    return Verdict(OK)


def _relation_holds(A, B, lam) -> bool:
    AB = A @ B
    return np.linalg.norm(AB - lam * (B @ A)) <= 1e-9 * max(1.0, np.linalg.norm(AB))


def cli_verdict(case, returncode, stdout, stderr) -> Verdict:
    """Judge one CLI process (a traffic.CliCase) by exit code and output."""
    label = case.label
    if case.kind == "malformed":
        lines = stderr.strip().splitlines()
        if returncode == 2 and len(lines) == 1:
            return Verdict(OK)
        if case.expect["defect"] and returncode == 1 and "Traceback" in stderr:
            return Verdict(BASELINE, f"{label}: exit 1 with a traceback", case.expect["defect"])
        return Verdict(FAILED, f"{label}: exit {returncode} with {len(lines)} stderr lines, expected exit 2, one line")
    if case.kind == "analyze":
        expected_rc = {0, 1}
    else:
        expected_rc = {0}
    if returncode not in expected_rc:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return Verdict(FAILED, f"{label}: exit {returncode}: {tail[0][:200]}")
    try:
        out = json.loads(stdout)
    except ValueError:
        return Verdict(FAILED, f"{label}: standard output is not JSON")
    expect = case.expect
    if case.kind == "generate":
        A, B = matrix_from(out["A"]), matrix_from(out["B"])
        if "lam" not in expect:
            ok = np.allclose(A, expect["A"], atol=1e-12) and np.allclose(B, expect["B"], atol=1e-12)
        else:
            declared = out["declared_lambda"]
            ok = (
                declared is not None
                and _lam_close(complex(*declared), expect["lam"])
                and _relation_holds(A, B, expect["lam"])
            )
        return Verdict(OK) if ok else Verdict(FAILED, f"{label}: generated pair does not realize the factor")
    if case.kind == "analyze":
        lam_hat = None if out["lambda_hat"] is None else complex(*out["lambda_hat"])
        verdict = classify_verdict(expect["case"], out["status"], lam_hat, out["consistent"], out["violations"])
        if returncode != (0 if out["consistent"] else 1):
            return Verdict(FAILED, f"{label}: exit {returncode} disagrees with consistent={out['consistent']}")
        return verdict
    if case.kind == "intertwine":
        U = matrix_from(out["U"])
        A, B = SX, SXY
        residual = np.linalg.norm(A @ B - U @ B @ A)
        unitary = np.linalg.norm(U.conj().T @ U - np.eye(2))
        ok = residual <= 1e-8 and unitary <= 1e-8
        if ok:
            return Verdict(OK)
        return Verdict(FAILED, f"{label}: U residual {residual:.3e}, unitarity {unitary:.3e}")
    if case.kind == "commutant":
        A, lam = expect["A"], expect["lam"]
        basis = [matrix_from(m) for m in out["basis"]]
        ok = out["dimension"] == expect["dimension"] == len(basis) and all(
            np.linalg.norm(A @ X - lam * X @ A) <= 1e-8 for X in basis
        )
        return Verdict(OK) if ok else Verdict(FAILED, f"{label}: commutant dimension {out['dimension']}")
    if case.kind == "stone":
        err = float(np.linalg.norm(matrix_from(out["projection"]) - expect["projection"]))
        if err <= expect["bound"]:
            return Verdict(OK)
        return Verdict(FAILED, f"{label}: projection error {err:.3e} > {expect['bound']:.3e}")
    if case.kind == "suite":
        if out["failed"] == 0:
            return Verdict(OK)
        return Verdict(FAILED, f"{label}: {out['failed']} properties failed")
    raise ValueError(f"unknown CLI case kind {case.kind!r}")
